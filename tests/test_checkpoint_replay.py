"""Differential replay harness for the checkpoint format.

Four layers of evidence that a checkpoint is a faithful cut of a run:

1. **Pure, complete state digests** — digesting a kernel perturbs
   nothing, and an envelope read back from its JSON form carries the
   same canonical state and digests, on hand-built busy kernels and on
   Hypothesis-generated ones.
2. **Cut-and-continue equivalence** — a run cut by a budget abort
   (which puts the popped event back via :meth:`EventQueue.restore`),
   digested, and continued on the same kernel reaches the exact state
   digest of the run that was never interrupted.
3. **Campaign conformance** — every campaign checkpoints at every
   kill-chain stage boundary; each manifest line carries the state
   digest and event count a live kernel has at that boundary, and an
   interrupted run resumes through the replay-verification protocol in
   :mod:`repro.core.resume`.
4. **Crash safety** — a torn last manifest line is dropped and
   overwritten, any other bad line is a typed error, and a diverged
   resume leaves the manifest byte for byte as it found it.

The self-rescheduling "beacon" harness used throughout keeps all of its
state in kernel-owned structures (clock, RNG, trace, metrics), so a
state digest covers everything it does.
"""

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import CAMPAIGNS, QUICK_PARAMS, trace_digest
from repro.core.resume import (
    CheckpointStore,
    interrupt_after,
    resume_checkpointed,
    run_checkpointed,
)
from repro.obs.export import export_digest
from repro.sim import DeterministicRandom, Kernel
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    canonical_json,
    kernel_state,
    envelope_line,
    make_envelope,
    payload_digest,
    state_digest,
    verify_envelope,
)
from repro.sim.errors import (
    CheckpointDigestError,
    CheckpointError,
    CheckpointVersionError,
    SimulationError,
)

SEED = 20130708

#: Envelope kind of the kernel-state files these tests write.
KIND_STATE = "test-kernel-state"


# -- the beacon harness --------------------------------------------------------

def start_beacons(kernel, limit=30):
    """Start a self-rescheduling beacon chain of ``limit + 1`` firings.

    Each firing draws its next delay from the kernel RNG, records a
    trace line, bumps a metric, and schedules its successor.
    """

    def fire(index):
        label = "beacon:%d" % index
        delay = 1.0 + kernel.rng.uniform(0.0, 4.0)
        kernel.trace.record("beacon", "fire", label, delay=delay)
        kernel.metrics.inc("beacon.fires")
        if index < limit:
            kernel.call_later(delay, lambda: fire(index + 1),
                              "beacon:%d" % (index + 1))

    kernel.call_later(0.5, lambda: fire(0), "beacon:0")


def _noop():
    return None


def build_busy_kernel(seed=7, limit=25, junk=200, cancel=170):
    """A kernel exercising every snapshotted subsystem at once.

    The cancel count is chosen to leave garbage in the heap *after* a
    compaction has fired (cancel > COMPACT_MIN_GARBAGE and > live at
    some point), so the snapshot covers live entries, surviving
    cancelled entries, and post-compaction sequence accounting.
    """
    kernel = Kernel(seed=seed)
    start_beacons(kernel, limit)
    junk_events = [kernel.call_later(3600.0 + index, _noop,
                                     "junk:%d" % index)
                   for index in range(junk)]
    for event in junk_events[:cancel]:
        event.cancel()
    kernel.faults.inject_packet_loss(0.25, start=0.0, duration=9999.0)
    kernel.faults.inject_takedown("evil.example.net")
    with kernel.span("test.setup", note="busy"):
        kernel.metrics.inc("test.setup_spans")
    kernel.metrics.set_gauge("test.gauge", 42.5)
    kernel.metrics.observe("test.histogram", 3.0, buckets=(1.0, 5.0))
    kernel.trace.record("test", "built", "kernel", junk=junk, cancel=cancel)
    return kernel


# -- pure, complete state digests ---------------------------------------------

def test_snapshot_is_pure_observation():
    """Digesting a kernel must not perturb the run it captures."""
    kernel = build_busy_kernel()
    kernel.run(until=10.0)
    before = state_digest(kernel)
    kernel_state(kernel)
    kernel_state(kernel)
    assert state_digest(kernel) == before
    witness = build_busy_kernel()
    witness.run(until=10.0)
    kernel.run(until=60.0)
    witness.run(until=60.0)
    assert state_digest(kernel) == state_digest(witness)


def test_lazy_compaction_keeps_snapshots_equivalent():
    """A digest taken *with* garbage in the heap covers exactly the
    surviving cancelled entries and the full push count, so two runs
    whose compaction histories differ cannot share a state digest."""

    def build(cancelled):
        kernel = Kernel(seed=3)
        events = [kernel.call_later(10.0 + index, _noop, "e:%d" % index)
                  for index in range(200)]
        for event in events[:cancelled]:
            event.cancel()
        return kernel

    kernel = build(150)  # 150 > live 50 and > COMPACT_MIN_GARBAGE
    queue = kernel._queue
    # Compaction fired at the 101st cancel (garbage 101 > live 99),
    # sweeping that garbage; the remaining 49 cancels accumulated
    # afterwards and stay in the heap below the next trigger point.
    cancelled = [event for _, _, event in queue._heap if event.cancelled]
    assert len(queue._heap) == 99
    assert len(cancelled) == 49
    assert len(queue) == 50
    # The sequence counter still reflects every push ever made.
    assert queue._sequence == 200
    assert kernel_state(kernel)["queue"] == queue.digest()
    assert build(150)._queue.digest() == queue.digest()
    # The same live events with the garbage compacted away, as a
    # different cancel history would leave them, digest differently.
    swept = build(150)._queue
    swept._heap = [entry for entry in swept._heap
                   if not entry[2].cancelled]
    assert len(swept) == len(queue)
    assert swept.digest() != queue.digest()


def test_budget_abort_then_restore_continues_identically():
    """The budget-abort path (which puts the popped event back with
    EventQueue.restore) composes with snapshots: cutting a run via
    max_events, snapshotting, and continuing the same kernel matches
    the uninterrupted run."""
    reference = Kernel(seed=11)
    start_beacons(reference, limit=20)
    reference.run(until=500.0)
    final = state_digest(reference)

    kernel = Kernel(seed=11)
    start_beacons(kernel, limit=20)
    with pytest.raises(SimulationError):
        kernel.run(until=500.0, max_events=7)
    assert kernel.pending_events == 1  # the aborted event went back
    assert kernel_state(kernel)["dispatched"] == 7
    kernel.run(until=500.0)
    assert state_digest(kernel) == final
    assert trace_digest(kernel.trace) == trace_digest(reference.trace)


def test_restored_rng_continues_the_stream():
    """The snapshot's RNG state is complete: a generator loaded from its
    JSON form draws the kernel's upcoming values, and the recorded seed
    forks the same child streams."""
    kernel = Kernel(seed=99)
    [kernel.rng.uniform(0, 1) for _ in range(10)]
    state = json.loads(json.dumps(kernel_state(kernel)["rng"]))
    upcoming = [kernel.rng.uniform(0, 1) for _ in range(5)]
    fork_value = kernel.rng.fork("child").uniform(0, 1)
    generator = random.Random()
    generator.setstate((state["version"], tuple(state["internal"]),
                        state["gauss_next"]))
    assert [generator.uniform(0, 1) for _ in range(5)] == upcoming
    assert (DeterministicRandom(state["seed"]).fork("child").uniform(0, 1)
            == fork_value)


# -- envelope validation (typed error satellite) -------------------------------

@pytest.fixture
def envelope_text():
    """A busy kernel's state as one manifest line."""
    kernel = build_busy_kernel()
    kernel.run(until=20.0)
    return envelope_line(make_envelope(KIND_STATE, kernel_state(kernel),
                                       meta={"k": 1}))


def _verify(envelope_text, **changes):
    """Decode one manifest line, apply ``changes``, and verify it."""
    envelope = json.loads(envelope_text)
    envelope.update(changes)
    return verify_envelope(envelope)


def _store_holding(tmp_path, data):
    """Load a checkpoint store whose manifest holds exactly ``data``."""
    directory = tmp_path / "store"
    directory.mkdir()
    (directory / CheckpointStore.MANIFEST).write_bytes(data)
    return CheckpointStore(str(directory), kind=None).load()


def test_envelope_line_round_trip(envelope_text):
    assert envelope_text.endswith("\n") and envelope_text.count("\n") == 1
    envelope = verify_envelope(json.loads(envelope_text), kind=KIND_STATE)
    assert envelope["format"] == CHECKPOINT_VERSION
    assert envelope["meta"] == {"k": 1}
    witness = build_busy_kernel()
    witness.run(until=20.0)
    assert payload_digest(envelope["state"]) == envelope["state_digest"]
    assert envelope["state_digest"] == state_digest(witness)
    assert envelope["state"]["dispatched"] == witness.dispatched_events > 0


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        CheckpointStore(str(tmp_path / "absent")).load()


def test_truncated_file_raises_checkpoint_error(tmp_path, envelope_text):
    data = envelope_text.encode("utf-8")
    with pytest.raises(CheckpointError, match="no intact header"):
        _store_holding(tmp_path, data[:len(data) // 2])


def test_non_json_garbage_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        _store_holding(tmp_path, b"\x00\x01 not json at all")


def test_version_mismatch_raises_version_error(envelope_text):
    with pytest.raises(CheckpointVersionError) as excinfo:
        _verify(envelope_text, format=CHECKPOINT_VERSION + 1)
    assert excinfo.value.expected == CHECKPOINT_VERSION
    assert excinfo.value.found == CHECKPOINT_VERSION + 1


def test_format_1_envelope_raises_version_error(envelope_text):
    """Format 1 stored the trace with its index and eviction fields;
    such a file is refused by version, not replayed into divergence."""
    with pytest.raises(CheckpointVersionError) as excinfo:
        _verify(envelope_text, format=1)
    assert (excinfo.value.expected, excinfo.value.found) == \
        (CHECKPOINT_VERSION, 1)


def test_format_2_envelope_raises_version_error(envelope_text):
    """Format 2 hashed the whole trace and span lists into the state
    digest; its digests mean something else, so it is refused too."""
    with pytest.raises(CheckpointVersionError) as excinfo:
        _verify(envelope_text, format=2)
    assert (excinfo.value.expected, excinfo.value.found) == \
        (CHECKPOINT_VERSION, 2)


def test_format_3_envelope_raises_version_error(envelope_text):
    """Format 3 published the dispatch count only when ``Kernel.run``
    returned, so a checkpoint inside a long run digested a stale count;
    such a file is refused by version."""
    with pytest.raises(CheckpointVersionError) as excinfo:
        _verify(envelope_text, format=3)
    assert (excinfo.value.expected, excinfo.value.found) == \
        (CHECKPOINT_VERSION, 3)


def test_tampered_state_raises_digest_error(envelope_text):
    state = json.loads(envelope_text)["state"]
    state["dispatched"] += 1
    with pytest.raises(CheckpointDigestError):
        _verify(envelope_text, state=state)


def test_tampered_state_digest_raises_digest_error(envelope_text):
    with pytest.raises(CheckpointDigestError):
        _verify(envelope_text, state_digest="0" * 64)


def test_wrong_kind_is_rejected(envelope_text):
    with pytest.raises(CheckpointError, match="kind"):
        verify_envelope(json.loads(envelope_text), kind="sweep-manifest")


def test_missing_fields_are_rejected():
    with pytest.raises(CheckpointError, match="missing required"):
        verify_envelope({"format": CHECKPOINT_VERSION})
    with pytest.raises(CheckpointError, match="not a JSON object"):
        verify_envelope(["not", "a", "dict"])


class _ValueProvider:
    def __init__(self, value):
        self.value = value

    def snapshot_state(self):
        return {"value": self.value}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_state_raises_checkpoint_error(value):
    """Canonical JSON has no NaN/Infinity, so a kernel whose state holds
    one cannot be checkpointed; that surfaces as the typed error."""
    kernel = Kernel(seed=1)
    kernel.register_state_provider("test", _ValueProvider(value))
    with pytest.raises(CheckpointError, match="no canonical JSON form"):
        state_digest(kernel)


# -- Hypothesis properties -----------------------------------------------------

@st.composite
def kernel_programs(draw):
    """A deterministic recipe for a small, varied kernel state."""
    return {
        "seed": draw(st.integers(0, 2 ** 20)),
        "limit": draw(st.integers(0, 12)),
        "junk": draw(st.integers(0, 120)),
        "cancel_stride": draw(st.integers(1, 5)),
        "draws": draw(st.integers(0, 8)),
        "run_until": draw(st.floats(0.0, 60.0, allow_nan=False)),
    }


def _build_from_program(program):
    kernel = Kernel(seed=program["seed"])
    start_beacons(kernel, program["limit"])
    events = [kernel.call_later(1000.0 + index, _noop, "junk:%d" % index)
              for index in range(program["junk"])]
    for event in events[::program["cancel_stride"]]:
        event.cancel()
    for _ in range(program["draws"]):
        kernel.rng.uniform(0.0, 1.0)
    kernel.run(until=program["run_until"])
    return kernel


@settings(max_examples=25, deadline=None)
@given(kernel_programs())
def test_property_snapshot_load_snapshot_is_identity(program):
    """A kernel-state envelope survives its JSON form: loaded back, it
    verifies with the same canonical state, and a second envelope of
    the untouched kernel matches it digest for digest."""
    kernel = _build_from_program(program)
    envelope = make_envelope(KIND_STATE, kernel_state(kernel))
    loaded = verify_envelope(json.loads(json.dumps(envelope)),
                             kind=KIND_STATE)
    assert (canonical_json(loaded["state"])
            == canonical_json(envelope["state"]))
    again = make_envelope(KIND_STATE, kernel_state(kernel))
    assert again["digest"] == loaded["digest"]
    assert again["state_digest"] == state_digest(kernel)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), cut=st.integers(0, 25))
def test_property_resume_at_any_event_index_is_equivalent(seed, cut):
    """Cut the beacon run after ``cut`` events (a budget abort),
    digest, continue the same kernel: the final state digest must
    equal the uninterrupted run's — for every cut index."""
    limit = 20
    reference = Kernel(seed=seed)
    start_beacons(reference, limit)
    reference.run(until=400.0)
    final = state_digest(reference)

    kernel = Kernel(seed=seed)
    start_beacons(kernel, limit)
    try:
        kernel.run(until=400.0, max_events=cut)
    except SimulationError:
        pass  # cut short by the budget
    assert kernel_state(kernel)["dispatched"] == min(
        cut, reference.dispatched_events)
    kernel.run(until=400.0)
    assert state_digest(kernel) == final


# -- campaign conformance ------------------------------------------------------

def _campaign_factory(name):
    def factory():
        return CAMPAIGNS[name](seed=SEED, **dict(QUICK_PARAMS[name]))

    return factory


def _live_stage_chain(factory):
    """Run a campaign with no checkpointer attached, recording ``(tag,
    events, state_digest)`` at every stage boundary and at the end."""
    campaign = factory()
    kernel = campaign.world.kernel
    chain = []
    kernel.spans.on_finish(lambda span: chain.append(
        ("stage:%s" % span.name, kernel.dispatched_events,
         state_digest(kernel))))
    campaign.run()
    chain.append(("final", kernel.dispatched_events, state_digest(kernel)))
    return chain


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_stage_checkpoints_restore_to_recorded_digests(
        name, tmp_path):
    """Every campaign's manifest holds one verified line per stage
    boundary, and each line carries exactly the event count and state
    digest a live, unrecorded kernel has at that boundary."""
    directory = str(tmp_path / name)
    report = run_checkpointed(_campaign_factory(name), directory,
                              meta={"campaign": name, "seed": SEED})
    assert os.listdir(directory) == [CheckpointStore.MANIFEST]
    entries = CheckpointStore(directory).load().entries()
    assert len(entries) >= 3  # several stages plus the final checkpoint
    assert entries[-1]["tag"] == "final"
    assert [(e["tag"], e["events"], e["state_digest"]) for e in entries] \
        == _live_stage_chain(_campaign_factory(name))
    assert entries[-1]["state_digest"] == state_digest(report.kernel)
    assert entries[-1]["events"] == report.kernel.dispatched_events


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_interrupted_resume_verifies_prefix(name, tmp_path):
    directory = str(tmp_path / name)
    meta = {"campaign": name, "seed": SEED}
    baseline = run_checkpointed(_campaign_factory(name), directory,
                                meta=meta)
    recorded = CheckpointStore(directory).load().entries()
    interrupt_after(directory, keep=len(recorded) // 2)
    report = resume_checkpointed(_campaign_factory(name), directory,
                                 meta=meta)
    assert not report.short_circuited
    assert report.verified == len(recorded) // 2
    assert report.result == baseline.result
    assert (trace_digest(report.kernel.trace)
            == trace_digest(baseline.kernel.trace))
    assert export_digest(report.kernel) == export_digest(baseline.kernel)
    assert report.metrics == baseline.metrics
    fresh = CheckpointStore(directory).load().entries()
    assert [(e["tag"], e["events"], e["state_digest"]) for e in fresh] \
        == [(e["tag"], e["events"], e["state_digest"]) for e in recorded]


def test_resume_detects_divergent_replay(tmp_path):
    """Resuming with a different seed must fail at the first checkpoint
    whose digest disagrees — never silently return the wrong run."""
    directory = str(tmp_path / "diverge")
    run_checkpointed(_campaign_factory("shamoon"), directory)
    interrupt_after(directory, keep=2)

    def wrong_seed():
        return CAMPAIGNS["shamoon"](seed=SEED + 1,
                                    **dict(QUICK_PARAMS["shamoon"]))

    with pytest.raises(CheckpointError, match="diverged"):
        resume_checkpointed(wrong_seed, directory)


def test_resume_rejects_mismatched_meta(tmp_path):
    directory = str(tmp_path / "meta")
    meta = {"campaign": "shamoon", "seed": SEED}
    run_checkpointed(_campaign_factory("shamoon"), directory, meta=meta)
    interrupt_after(directory, keep=1)
    with pytest.raises(CheckpointError, match="different"):
        resume_checkpointed(_campaign_factory("shamoon"), directory,
                            meta={"campaign": "shamoon", "seed": SEED + 9})


def test_finished_run_short_circuits_without_replay(tmp_path):
    directory = str(tmp_path / "done")
    baseline = run_checkpointed(_campaign_factory("shamoon"), directory)

    def exploding_factory():
        raise AssertionError("a finished run must not be replayed")

    from repro.obs.export import jsonable

    report = resume_checkpointed(exploding_factory, directory)
    assert report.short_circuited
    assert report.kernel is None and report.campaign is None
    assert report.result == jsonable(baseline.result)
    assert report.metrics == baseline.kernel.metrics.snapshot()
    assert report.replayed_events == baseline.kernel.dispatched_events
    final = CheckpointStore(directory).load().final_entry()
    assert final["state_digest"] == state_digest(baseline.kernel)
    assert final["events"] == baseline.kernel.dispatched_events


# -- crash safety --------------------------------------------------------------

def _manifest(directory):
    return os.path.join(directory, CheckpointStore.MANIFEST)


def _read_bytes(path):
    with open(path, "rb") as stream:
        return stream.read()


def _seeded_shamoon(seed):
    def factory():
        return CAMPAIGNS["shamoon"](seed=seed,
                                    **dict(QUICK_PARAMS["shamoon"]))

    return factory


def test_diverged_resume_leaves_manifest_untouched(tmp_path):
    """A wrong-seed resume raises at the first mismatching checkpoint
    and writes nothing, so a later right-seed resume still replays to
    the recorded run's result instead of short-circuiting to the wrong
    one."""
    directory = str(tmp_path / "diverge")
    baseline = run_checkpointed(_seeded_shamoon(1), directory)
    interrupt_after(directory, keep=2)
    recorded = _read_bytes(_manifest(directory))
    with pytest.raises(CheckpointError, match="diverged"):
        resume_checkpointed(_seeded_shamoon(2), directory)
    assert _read_bytes(_manifest(directory)) == recorded
    report = resume_checkpointed(_seeded_shamoon(1), directory)
    assert not report.short_circuited
    assert report.verified == 2
    assert report.result == baseline.result


def test_replay_with_fewer_checkpoints_raises_before_final(tmp_path):
    """A replay that ends before reproducing every recorded checkpoint
    is a different simulation: it raises instead of writing ``final``."""
    directory = str(tmp_path / "short")
    run_checkpointed(_campaign_factory("shamoon"), directory)
    interrupt_after(directory, keep=3)
    recorded = _read_bytes(_manifest(directory))
    with pytest.raises(CheckpointError, match="diverged"):
        resume_checkpointed(_campaign_factory("shamoon"), directory,
                            run=lambda campaign: None)
    assert _read_bytes(_manifest(directory)) == recorded


@pytest.mark.parametrize("torn", [b'{"format":3,"kind":"camp',
                                  b'{"format":3,"kind":"camp\n'],
                         ids=["no-newline", "not-json"])
def test_torn_last_line_is_dropped_and_resume_appends_after_it(tmp_path,
                                                               torn):
    """A crash mid-append leaves a last line with no newline (or, with
    one, that is not JSON).  Loading drops it, and a resume truncates
    it away and appends after the intact prefix, ending on exactly the
    manifest an uninterrupted run writes."""
    directory = str(tmp_path / "torn")
    baseline = run_checkpointed(_campaign_factory("shamoon"), directory)
    complete = _read_bytes(_manifest(directory))
    interrupt_after(directory, keep=3)
    with open(_manifest(directory), "ab") as stream:
        stream.write(torn)
    assert len(CheckpointStore(directory).load().entries()) == 3
    report = resume_checkpointed(_campaign_factory("shamoon"), directory)
    assert report.verified == 3
    assert report.result == baseline.result
    assert _read_bytes(_manifest(directory)) == complete


@pytest.mark.parametrize("damage", ["garbage", "tamper"])
def test_corrupted_middle_line_raises_checkpoint_error(tmp_path, damage):
    directory = str(tmp_path / "corrupt")
    run_checkpointed(_campaign_factory("shamoon"), directory)
    lines = _read_bytes(_manifest(directory)).split(b"\n")
    if damage == "garbage":
        lines[2] = b"\x00 not json"
    else:
        lines[2] = lines[2].replace(b'"events":', b'"events":1', 1)
    with open(_manifest(directory), "wb") as stream:
        stream.write(b"\n".join(lines))
    with pytest.raises(CheckpointError, match="line 3"):
        CheckpointStore(directory).load()
    with pytest.raises(CheckpointError):
        resume_checkpointed(_campaign_factory("shamoon"), directory)


def test_format_2_directory_raises_typed_error(tmp_path):
    """A format-2 directory (``MANIFEST.json`` plus one snapshot file per
    checkpoint) has no ``MANIFEST.jsonl``; a format-2 line in a
    ``MANIFEST.jsonl`` is refused by version."""
    directory = tmp_path / "v2"
    directory.mkdir()
    legacy = make_envelope("checkpoint-manifest",
                           {"meta": {}, "every_events": None,
                            "checkpoints": []})
    legacy["format"] = 2
    (directory / "MANIFEST.json").write_text(json.dumps(legacy))
    with pytest.raises(CheckpointError, match="cannot read"):
        resume_checkpointed(_campaign_factory("shamoon"), str(directory))
    header = make_envelope("checkpoint-manifest", {})
    header["format"] = 2
    (directory / CheckpointStore.MANIFEST).write_text(
        json.dumps(header) + "\n")
    with pytest.raises(CheckpointVersionError):
        resume_checkpointed(_campaign_factory("shamoon"), str(directory))
