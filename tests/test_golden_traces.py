"""Golden-trace conformance: the exported JSONL is pinned by digest.

Each campaign's quick preset runs at a fixed seed; the export's SHA-256
(over the normalised JSONL lines) is committed under ``tests/golden/``
together with the span and metric name sets.  Any behavioural drift —
a reordered event, a renamed span, a new metric — fails here first,
with the name sets giving a readable diff before the digest does.

To accept intentional changes::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py \
        --update-golden
"""

import json
import os

import pytest

from repro.core.ensemble import CAMPAIGNS, QUICK_PARAMS
from repro.crypto import rsa
from repro.obs.export import export_digest, trace_lines

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: One fixed seed per campaign; changing it is a golden update.
GOLDEN_SEED = 20130708

#: Kill-chain stages each campaign's quick run must always emit —
#: asserted independently of the digest so a missing stage is named.
REQUIRED_STAGES = {
    "stuxnet": {"stuxnet.campaign", "stuxnet.settle", "stuxnet.usb_entry",
                "stuxnet.step7_infect", "stuxnet.operation",
                "stuxnet.infect"},
    "flame": {"flame.campaign", "flame.patient_zero", "flame.wu_spread",
              "flame.operations", "flame.infect", "flame.collect",
              "flame.beetlejuice", "flame.cnc_exchange"},
    "shamoon": {"shamoon.campaign", "shamoon.dormant",
                "shamoon.patient_zero", "shamoon.operation",
                "shamoon.infect", "shamoon.wipe", "shamoon.report"},
    "stuxnet-epidemic": {"epidemic.campaign", "epidemic.seed",
                         "epidemic.spread", "epidemic.epoch",
                         "epidemic.promote"},
    "flame-epidemic": {"epidemic.campaign", "epidemic.seed",
                       "epidemic.spread", "epidemic.epoch",
                       "epidemic.promote"},
}


def _golden_path(name):
    return os.path.join(GOLDEN_DIR, "%s.json" % name)


@pytest.fixture(scope="module")
def finished_kernels():
    """Run each campaign's quick preset once for the whole module."""
    kernels = {}
    for name in sorted(CAMPAIGNS):
        campaign = CAMPAIGNS[name](seed=GOLDEN_SEED,
                                   **dict(QUICK_PARAMS[name]))
        campaign.run()
        kernels[name] = campaign.world.kernel
    return kernels


def _observed(name, kernel):
    """The facts a golden file pins, freshly computed."""
    meta = {"campaign": name, "seed": GOLDEN_SEED, "preset": "quick"}
    return {
        "campaign": name,
        "seed": GOLDEN_SEED,
        "preset": "quick",
        "digest": export_digest(kernel, meta=meta),
        "span_names": sorted(kernel.spans.names()),
        "metric_names": kernel.metrics.names(),
        "span_count": len(kernel.spans),
        "record_count": len(kernel.trace),
    }


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_export_matches_golden(name, finished_kernels, update_golden):
    observed = _observed(name, finished_kernels[name])
    path = _golden_path(name)
    if update_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(observed, stream, indent=2, sort_keys=True)
            stream.write("\n")
        return
    if not os.path.exists(path):
        pytest.fail("missing golden file %s — generate it with "
                    "--update-golden" % path)
    with open(path, encoding="utf-8") as stream:
        golden = json.load(stream)
    # Name sets first: their diffs explain most digest mismatches.
    assert observed["span_names"] == golden["span_names"]
    assert observed["metric_names"] == golden["metric_names"]
    assert observed["span_count"] == golden["span_count"]
    assert observed["record_count"] == golden["record_count"]
    assert observed["digest"] == golden["digest"], (
        "export digest drifted for %s: names and counts match, so an "
        "existing line's content changed (timing, attrs, or details); "
        "rerun with --update-golden if intentional" % name)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_every_kill_chain_stage_is_spanned(name, finished_kernels):
    names = finished_kernels[name].spans.names()
    missing = REQUIRED_STAGES[name] - names
    assert not missing, "campaign %s never opened: %s" % (name,
                                                          sorted(missing))


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_spans_are_well_formed(name, finished_kernels):
    """Every span closed, timed sanely, and parented within the run."""
    spans = list(finished_kernels[name].spans)
    by_id = {span.span_id: span for span in spans}
    assert [span.span_id for span in spans] == list(range(1, len(spans) + 1))
    for span in spans:
        assert span.finished, "%s left open" % span
        assert span.end >= span.start
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert parent.start <= span.start


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_export_lines_are_strict_json(name, finished_kernels):
    """Every exported line survives a strict JSON round trip."""
    for line in trace_lines(finished_kernels[name]):
        text = json.dumps(line, sort_keys=True, allow_nan=False)
        assert json.loads(text) == json.loads(json.dumps(line,
                                                         sort_keys=True))


def test_same_seed_reruns_are_byte_identical(finished_kernels):
    name = "stuxnet"
    campaign = CAMPAIGNS[name](seed=GOLDEN_SEED,
                               **dict(QUICK_PARAMS[name]))
    campaign.run()
    meta = {"campaign": name, "seed": GOLDEN_SEED, "preset": "quick"}
    assert export_digest(campaign.world.kernel, meta=meta) == \
        export_digest(finished_kernels[name], meta=meta)


def test_campaign_order_in_one_process_keeps_golden_files():
    # RSA keys are derived once per process and then shared: first a
    # cold key cache in one campaign order, then the cache that run
    # filled in the reverse order.  Who derives a key first must not
    # matter.
    rsa._derive_keypair.cache_clear()
    for order in (sorted(CAMPAIGNS), sorted(CAMPAIGNS, reverse=True)):
        for name in order:
            campaign = CAMPAIGNS[name](seed=GOLDEN_SEED,
                                       **dict(QUICK_PARAMS[name]))
            campaign.run()
            with open(_golden_path(name), encoding="utf-8") as stream:
                golden = json.load(stream)
            assert _observed(name, campaign.world.kernel) == golden, name


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_checkpointed_run_matches_golden_digest(name, finished_kernels,
                                                tmp_path):
    """Checkpointing is pure observation: a run digesting its kernel at
    every kill-chain stage boundary must land on the exact golden
    export digest — the strongest proof that checkpointing never
    perturbs a seeded run."""
    from repro.core.resume import run_checkpointed

    def factory():
        return CAMPAIGNS[name](seed=GOLDEN_SEED,
                               **dict(QUICK_PARAMS[name]))

    report = run_checkpointed(factory, str(tmp_path / name),
                              meta={"campaign": name})
    entries = report.store.entries()
    assert len(entries) > len(REQUIRED_STAGES[name])
    stages = {entry["tag"][len("stage:"):] for entry in entries
              if entry["tag"].startswith("stage:")}
    assert stages >= set(REQUIRED_STAGES[name])
    meta = {"campaign": name, "seed": GOLDEN_SEED, "preset": "quick"}
    assert export_digest(report.kernel, meta=meta) == \
        export_digest(finished_kernels[name], meta=meta)


EPIDEMIC_CAMPAIGNS = ("flame-epidemic", "stuxnet-epidemic")


def _run_epidemic(name):
    campaign = CAMPAIGNS[name](seed=GOLDEN_SEED,
                               **dict(QUICK_PARAMS[name]))
    campaign.run()
    return campaign


@pytest.mark.parametrize("name", EPIDEMIC_CAMPAIGNS)
def test_epidemic_curve_matches_golden(name, update_golden):
    """The full per-epoch infection curve is pinned, value for value —
    a drifted hazard formula or draw order fails here with the exact
    epoch and compartment named."""
    campaign = _run_epidemic(name)
    observed = {
        "campaign": name,
        "seed": GOLDEN_SEED,
        "preset": "quick",
        "curve": campaign.model.curve,
        "infections_by_vector": campaign.result["infections_by_vector"],
        "infected_by_region": campaign.result["infected_by_region"],
    }
    path = _golden_path("%s-curve" % name)
    if update_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(observed, stream, indent=2, sort_keys=True)
            stream.write("\n")
        return
    if not os.path.exists(path):
        pytest.fail("missing golden file %s — generate it with "
                    "--update-golden" % path)
    with open(path, encoding="utf-8") as stream:
        golden = json.load(stream)
    assert observed["infections_by_vector"] == \
        golden["infections_by_vector"]
    assert observed["infected_by_region"] == golden["infected_by_region"]
    for epoch, (ours, pinned) in enumerate(zip(observed["curve"],
                                               golden["curve"])):
        assert ours == pinned, "curve drifted at epoch %d" % epoch
    assert len(observed["curve"]) == len(golden["curve"])


@pytest.mark.parametrize("name", EPIDEMIC_CAMPAIGNS)
def test_epidemic_epoch_checkpoints_record_rising_event_counts(name,
                                                               tmp_path):
    """Every epoch steps inside one ``kernel.run`` call; each epoch
    checkpoint must still record the events dispatched so far, not the
    count the call publishes when it returns."""
    from repro.core.resume import run_checkpointed

    baseline = run_checkpointed(
        lambda: CAMPAIGNS[name](seed=GOLDEN_SEED, **dict(QUICK_PARAMS[name])),
        str(tmp_path / name))
    events = [entry["events"] for entry in baseline.store.entries()
              if entry["tag"] == "stage:epidemic.epoch"]
    assert len(events) == baseline.campaign.epochs
    assert all(a < b for a, b in zip(events, events[1:]))


@pytest.mark.parametrize("name", EPIDEMIC_CAMPAIGNS)
def test_epidemic_checkpoint_at_epoch_n_resumes_byte_identical(name,
                                                               tmp_path):
    """Interrupt a checkpointed run right after its epoch-5 checkpoint
    (mid-spread, of 10 epochs) and resume by replay: the verified
    prefix ends at that epoch, and the resumed model state and export
    are byte-identical to the uninterrupted run's.  Epoch ``n``
    checkpoints from inside the ``n``-th epoch event, so its line
    records the ``n - 1`` events dispatched before it."""
    from repro.core.resume import (
        interrupt_after,
        resume_checkpointed,
        run_checkpointed,
    )
    from repro.sim.checkpoint import canonical_json

    def factory():
        return CAMPAIGNS[name](seed=GOLDEN_SEED,
                               **dict(QUICK_PARAMS[name]))

    directory = str(tmp_path / name)
    baseline = run_checkpointed(factory, directory)
    entries = baseline.store.entries()
    epochs = [entry["events"] + 1 if entry["tag"] == "stage:epidemic.epoch"
              else None for entry in entries]
    keep = epochs.index(5) + 1
    assert epochs[keep - 1:keep + 1] == [5, 6]
    epoch_seconds = (baseline.campaign.model.horizon_seconds()
                     / baseline.campaign.epochs)
    assert entries[keep - 1]["sim_seconds"] == 5 * epoch_seconds
    interrupt_after(directory, keep=keep)
    report = resume_checkpointed(factory, directory)
    assert not report.short_circuited
    assert report.verified == keep
    assert canonical_json(report.campaign.model.snapshot_state()) == \
        canonical_json(baseline.campaign.model.snapshot_state())
    assert report.campaign.model.curve == baseline.campaign.model.curve
    meta = {"campaign": name, "check": "epoch-resume"}
    assert export_digest(report.kernel, meta=meta) == \
        export_digest(baseline.kernel, meta=meta)


def test_flame_resume_mid_campaign(finished_kernels, tmp_path):
    """Checkpoint a Flame run, cut the checkpoint log mid-campaign, and
    resume: the replay reloads the scripted modules and still reproduces
    the uninterrupted run's export digest exactly."""
    from repro.core.resume import (
        CheckpointStore,
        interrupt_after,
        resume_checkpointed,
    )

    name = "flame"
    directory = str(tmp_path / "flame-resume")
    meta = {"campaign": name, "seed": GOLDEN_SEED}

    def factory():
        return CAMPAIGNS[name](seed=GOLDEN_SEED,
                               **dict(QUICK_PARAMS[name]))

    run_meta = {"campaign": name, "seed": GOLDEN_SEED, "preset": "quick"}
    from repro.core.resume import run_checkpointed

    baseline = run_checkpointed(factory, directory, meta=meta)
    recorded = CheckpointStore(directory).load().entries()
    interrupt_after(directory, keep=max(len(recorded) // 2, 1))
    report = resume_checkpointed(factory, directory, meta=meta)
    assert not report.short_circuited
    assert export_digest(report.kernel, meta=run_meta) == \
        export_digest(finished_kernels[name], meta=run_meta)
    assert export_digest(baseline.kernel, meta=run_meta) == \
        export_digest(finished_kernels[name], meta=run_meta)
