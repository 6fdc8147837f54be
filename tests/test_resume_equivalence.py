"""Interrupted-sweep equivalence: resume must be byte-identical.

The acceptance bar for the checkpoint layer: a seeded sweep interrupted
mid-run and resumed from its manifest yields the *exact* result of an
uninterrupted run — trace digests, aggregates, and merged metrics —
for all three paper campaigns, whichever of the serial or parallel
paths runs the remainder, and even when the interruption is a SIGKILL
of the live process rather than a polite exception.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import CampaignSpec, SweepConfig, run_sweep
from repro.core.ensemble import CAMPAIGNS, run_replica
from repro.core.resume import SweepCheckpoint, interrupt_after
from repro.sim.checkpoint import envelope_line, make_envelope
from repro.sim.errors import CheckpointDigestError, CheckpointError

BASE_SEED = 9


def _quick(campaign):
    return CampaignSpec.quick(campaign)


def _config(replicas=4, mode="serial", **kwargs):
    return SweepConfig(replicas=replicas, base_seed=BASE_SEED, mode=mode,
                       **kwargs)


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def _manifest(directory):
    return os.path.join(directory, "MANIFEST.jsonl")


def _lines(directory):
    """The manifest's lines: a header, then one per recorded replica."""
    with open(_manifest(directory), "rb") as stream:
        return stream.read().splitlines(keepends=True)


def _record_only(directory, spec, config, indexes):
    """A manifest holding exactly ``indexes`` — what a crash after those
    replicas landed leaves, in any order and with any gaps."""
    manifest = SweepCheckpoint.create(directory, spec, config)
    for index in indexes:
        manifest.record(run_replica(spec, index, config.base_seed))
    return manifest


def _assert_byte_identical(resumed, baseline):
    assert resumed.digests() == baseline.digests()
    assert [r.seed for r in resumed.replicas] \
        == [r.seed for r in baseline.replicas]
    assert _canonical(resumed.aggregate()) \
        == _canonical(baseline.aggregate())
    assert _canonical(resumed.aggregate_metrics()) \
        == _canonical(baseline.aggregate_metrics())
    assert _canonical(resumed.merged_metrics()) \
        == _canonical(baseline.merged_metrics())
    assert _canonical([r.measurements for r in resumed.replicas]) \
        == _canonical([r.measurements for r in baseline.replicas])


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_interrupted_sweep_resumes_byte_identically(name, tmp_path):
    """Resume from a manifest missing replicas 1 and 3: everything
    derived from the merged ensemble must match the uninterrupted run
    byte for byte."""
    spec = _quick(name)
    baseline = run_sweep(spec, _config())
    directory = str(tmp_path / name)
    recorded = run_sweep(spec, _config(), checkpoint_dir=directory)
    _assert_byte_identical(recorded, baseline)
    assert os.listdir(directory) == ["MANIFEST.jsonl"]
    assert len(_lines(directory)) == 1 + 4
    _record_only(directory, spec, _config(), (0, 2))
    resumed = run_sweep(spec, _config(), checkpoint_dir=directory,
                        resume=True)
    _assert_byte_identical(resumed, baseline)
    # The resumed run appended the missing replicas.
    assert sorted(SweepCheckpoint.load(directory).completed()) \
        == [0, 1, 2, 3]
    assert os.listdir(directory) == ["MANIFEST.jsonl"]


def test_parallel_resume_matches_serial_recording(tmp_path):
    """Pool shape is free to differ between the recording and resuming
    runs — sharding never reaches per-replica state."""
    spec = _quick("shamoon")
    directory = str(tmp_path / "mixed")
    baseline = run_sweep(spec, _config(replicas=6))
    _record_only(directory, spec, _config(replicas=6), (4, 1, 3))
    resumed = run_sweep(
        spec, _config(replicas=6, mode="parallel", workers=2,
                      chunk_size=1),
        checkpoint_dir=directory, resume=True)
    assert resumed.dispatch["path"] == "warm-pool"
    _assert_byte_identical(resumed, baseline)


def test_interrupt_after_cuts_a_sweep_manifest(tmp_path):
    """The one crash simulator cuts sweep manifests as it cuts campaign
    manifests: the header plus the first ``keep`` lines survive."""
    spec = _quick("stuxnet-epidemic")
    directory = str(tmp_path / "cut")
    baseline = run_sweep(spec, _config(), checkpoint_dir=directory)
    interrupt_after(directory, keep=2)
    assert len(_lines(directory)) == 1 + 2
    assert sorted(SweepCheckpoint.load(directory).completed()) == [0, 1]
    resumed = run_sweep(spec, _config(), checkpoint_dir=directory,
                        resume=True)
    _assert_byte_identical(resumed, baseline)
    assert len(_lines(directory)) == 1 + 4


def test_resume_with_nothing_pending_short_circuits(tmp_path):
    spec = _quick("shamoon")
    directory = str(tmp_path / "full")
    baseline = run_sweep(spec, _config(), checkpoint_dir=directory)
    resumed = run_sweep(spec, _config(mode="parallel", workers=2),
                        checkpoint_dir=directory, resume=True)
    _assert_byte_identical(resumed, baseline)


# -- manifest validation -------------------------------------------------------

def test_resume_requires_checkpoint_dir():
    with pytest.raises(ValueError, match="checkpoint_dir"):
        run_sweep(_quick("shamoon"), _config(), resume=True)


def test_resume_rejects_missing_manifest(tmp_path):
    with pytest.raises(CheckpointError):
        run_sweep(_quick("shamoon"), _config(),
                  checkpoint_dir=str(tmp_path / "nothing"), resume=True)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda: {"spec": _quick("flame")}, "spec"),
    (lambda: {"config": SweepConfig(replicas=4, base_seed=BASE_SEED + 1,
                                    mode="serial")}, "base_seed"),
    (lambda: {"config": SweepConfig(replicas=7, base_seed=BASE_SEED,
                                    mode="serial")}, "replicas"),
])
def test_resume_rejects_mismatched_run(tmp_path, mutate, fragment):
    """A manifest recorded for one (spec, seed, size) must refuse to
    splice into any other — silently mixing ensembles would corrupt
    every aggregate downstream."""
    directory = str(tmp_path / "guard")
    run_sweep(_quick("shamoon"), _config(), checkpoint_dir=directory)
    override = mutate()
    spec = override.get("spec", _quick("shamoon"))
    config = override.get("config", _config())
    with pytest.raises(CheckpointError, match=fragment):
        run_sweep(spec, config, checkpoint_dir=directory, resume=True)


def test_resume_rejects_corrupted_replica_file(tmp_path):
    """A damaged line before the last is not a torn append: the digest
    check refuses it instead of silently re-running the replica."""
    directory = str(tmp_path / "corrupt")
    run_sweep(_quick("shamoon"), _config(), checkpoint_dir=directory)
    lines = _lines(directory)
    envelope = json.loads(lines[2])
    envelope["state"]["replica"]["trace_records"] += 1
    lines[2] = (json.dumps(envelope) + "\n").encode("utf-8")
    with open(_manifest(directory), "wb") as stream:
        stream.write(b"".join(lines))
    with pytest.raises(CheckpointDigestError):
        run_sweep(_quick("shamoon"), _config(), checkpoint_dir=directory,
                  resume=True)


def test_resume_drops_torn_replica_line(tmp_path):
    """A torn last line is what a crash mid-append leaves: resume drops
    it, re-runs that replica, and matches the uninterrupted run."""
    spec = _quick("stuxnet-epidemic")
    directory = str(tmp_path / "torn")
    baseline = run_sweep(spec, _config(), checkpoint_dir=directory)
    lines = _lines(directory)
    with open(_manifest(directory), "wb") as stream:
        stream.write(b"".join(lines[:-1]) + lines[-1][:80])
    assert sorted(SweepCheckpoint.load(directory).completed()) == [0, 1, 2]
    resumed = run_sweep(spec, _config(), checkpoint_dir=directory,
                        resume=True)
    _assert_byte_identical(resumed, baseline)
    assert len(_lines(directory)) == 1 + 4


def test_resume_rejects_old_layout_directory(tmp_path):
    """A directory of per-replica files (``sweep.json`` plus
    ``replica-NNNN.json``) has no manifest to resume from."""
    directory = tmp_path / "old"
    directory.mkdir()
    spec = _quick("shamoon")
    (directory / "sweep.json").write_text(envelope_line(make_envelope(
        "sweep-manifest", {"spec": spec.as_dict(), "base_seed": BASE_SEED,
                           "replicas": 4})))
    replica = run_replica(spec, 0, BASE_SEED)
    (directory / "replica-0000.json").write_text(envelope_line(
        make_envelope("sweep-replica", {"replica": replica.as_dict()})))
    with pytest.raises(CheckpointError, match="MANIFEST.jsonl"):
        run_sweep(spec, _config(), checkpoint_dir=str(directory),
                  resume=True)


def test_stale_run_never_splices_into_a_fresh_sweep(tmp_path, monkeypatch):
    """A completed seed-1 sweep, then a seed-2 sweep in the same
    directory interrupted after one replica: resuming seed 2 must not
    pick up any of seed 1's replicas.  The epidemic campaign gives each
    replica its own trace digest, so a splice cannot hide."""
    spec = _quick("stuxnet-epidemic")
    directory = str(tmp_path / "reused")
    run_sweep(spec, SweepConfig(replicas=4, base_seed=1, mode="serial"),
              checkpoint_dir=directory)
    seed_2 = SweepConfig(replicas=4, base_seed=2, mode="serial")
    original = SweepCheckpoint.record

    def interrupt_after_first(self, replica):
        original(self, replica)
        raise KeyboardInterrupt

    monkeypatch.setattr(SweepCheckpoint, "record", interrupt_after_first)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec, seed_2, checkpoint_dir=directory)
    monkeypatch.undo()
    resumed = run_sweep(spec, seed_2, checkpoint_dir=directory, resume=True)
    baseline = run_sweep(spec, seed_2)
    assert len(set(baseline.digests())) == 4
    assert [r.seed for r in resumed.replicas] \
        == ["2|replica-%04d" % index for index in range(4)]
    _assert_byte_identical(resumed, baseline)


@pytest.mark.parametrize("recorded, fragment", [
    # A replica of another base seed, filed under this sweep's index 1.
    (lambda spec: [run_replica(spec, 1, BASE_SEED + 1)], "seed"),
    (lambda spec: [run_replica(spec, 1, BASE_SEED)] * 2, "again"),
    (lambda spec: [run_replica(spec, 4, BASE_SEED)], "outside"),
], ids=["wrong-seed", "duplicate", "out-of-range"])
def test_load_rejects_inconsistent_replica_line(tmp_path, recorded,
                                                fragment):
    spec = _quick("shamoon")
    directory = str(tmp_path / "lines")
    manifest = SweepCheckpoint.create(directory, spec, _config())
    for replica in recorded(spec):
        manifest.record(replica)
    with pytest.raises(CheckpointError, match=fragment):
        SweepCheckpoint.load(directory)
    with pytest.raises(CheckpointError, match=fragment):
        run_sweep(spec, _config(), checkpoint_dir=directory, resume=True)


def test_sweep_manifest_round_trip(tmp_path):
    directory = str(tmp_path / "manifest")
    spec = _quick("flame")
    config = _config(replicas=3)
    manifest = SweepCheckpoint.create(directory, spec, config)
    replica = run_replica(spec, 1, BASE_SEED)
    manifest.record(replica)
    loaded = SweepCheckpoint.load(directory)
    loaded.validate_against(spec, config)
    completed = loaded.completed()
    assert list(completed) == [1]
    assert completed[1].trace_digest == replica.trace_digest
    assert completed[1].measurements == replica.measurements
    assert completed[1].metrics == replica.metrics


# -- aggregates after a manifest merge -----------------------------------------

def test_merge_replicas_invalidates_memoised_aggregates():
    """Regression: aggregates read before a manifest merge must not
    leak into the merged ensemble's views."""
    spec = _quick("shamoon")
    result = run_sweep(spec, _config(replicas=2))
    before = result.aggregate()
    key = next(iter(before))
    assert before[key]["n"] == 2
    assert result.aggregate_metrics()["sim.events_dispatched"]["n"] == 2

    more = [run_replica(spec, index, BASE_SEED) for index in (2, 3)]
    result.merge_replicas(more)
    assert result.aggregate()[key]["n"] == 4
    assert result.aggregate_metrics()[
        "sim.events_dispatched"]["n"] == 4
    assert [replica.index for replica in result.replicas] == [0, 1, 2, 3]

    reference = run_sweep(spec, _config(replicas=4))
    _assert_byte_identical(result, reference)


def test_merge_replicas_rejects_duplicate_index():
    spec = _quick("shamoon")
    result = run_sweep(spec, _config(replicas=2))
    with pytest.raises(ValueError, match="index 1 twice"):
        result.merge_replicas([run_replica(spec, 1, BASE_SEED)])


# -- crash injection -----------------------------------------------------------

def _repo_src():
    return os.path.abspath(os.path.join(os.path.dirname(__file__),
                                        os.pardir, "src"))


def _line_count(path):
    try:
        with open(path, "rb") as stream:
            return stream.read().count(b"\n")
    except FileNotFoundError:
        return 0


def test_sigkilled_sweep_resumes_byte_identically(tmp_path):
    """SIGKILL a live checkpointed sweep process mid-run, then resume
    from whatever landed on disk.  Only the last manifest line can be
    torn, and load drops it, so the resumed result must match the
    uninterrupted baseline exactly — however far the victim got."""
    directory = str(tmp_path / "crash")
    env = dict(os.environ)
    env["PYTHONPATH"] = _repo_src() + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "--campaign", "shamoon",
         "--replicas", "10", "--serial", "--seed", str(BASE_SEED),
         "--checkpoint-dir", directory],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break  # finished before we struck; resume still works
            if _line_count(_manifest(directory)) >= 1 + 2:
                process.send_signal(signal.SIGKILL)
                break
            time.sleep(0.02)
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    survivors = _line_count(_manifest(directory)) - 1
    assert survivors >= 2, "no replicas recorded before the kill"
    # Every complete line validates; a serial sweep records in order.
    assert sorted(SweepCheckpoint.load(directory).completed()) \
        == list(range(survivors))

    spec = _quick("shamoon")
    config = _config(replicas=10)
    baseline = run_sweep(spec, config)
    resumed = run_sweep(spec, config, checkpoint_dir=directory,
                        resume=True)
    _assert_byte_identical(resumed, baseline)


def test_sigkilled_campaign_resumes_to_uninterrupted_output(tmp_path):
    """SIGKILL a live checkpointed campaign once its manifest holds at
    least five lines, then ``--resume``: the replay verifies whatever
    landed (a torn last line is dropped) and prints exactly what an
    uninterrupted run prints, after the one resume banner line."""
    directory = str(tmp_path / "crash")
    manifest = os.path.join(directory, "MANIFEST.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = _repo_src() + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro", "shamoon", "--hosts", "150",
               "--seed", str(BASE_SEED)]
    process = subprocess.Popen(
        command + ["--checkpoint-dir", directory],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break  # finished before we struck; resume still works
            if _line_count(manifest) >= 5:
                process.send_signal(signal.SIGKILL)
                break
            time.sleep(0.01)
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert _line_count(manifest) >= 5

    def output(*extra):
        return subprocess.run(command + list(extra), env=env, check=True,
                              capture_output=True, text=True).stdout

    resumed = output("--checkpoint-dir", directory, "--resume").splitlines()
    assert resumed[0].startswith("resume: verified")
    assert resumed[1:] == output().splitlines()
