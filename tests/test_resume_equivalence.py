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
from repro.core.resume import SweepCheckpoint
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


def _replica_files(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.startswith("replica-"))


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
    """Delete a subset of recorded replicas (a crash mid-sweep leaves
    exactly this state) and resume: everything derived from the merged
    ensemble must match the uninterrupted run byte for byte."""
    spec = _quick(name)
    baseline = run_sweep(spec, _config())
    directory = str(tmp_path / name)
    recorded = run_sweep(spec, _config(), checkpoint_dir=directory)
    _assert_byte_identical(recorded, baseline)
    assert len(_replica_files(directory)) == 4
    for index in (1, 3):
        os.remove(os.path.join(directory, "replica-%04d.json" % index))
    resumed = run_sweep(spec, _config(), checkpoint_dir=directory,
                        resume=True)
    _assert_byte_identical(resumed, baseline)
    # The resumed run re-recorded the missing replicas.
    assert len(_replica_files(directory)) == 4


def test_parallel_resume_matches_serial_recording(tmp_path):
    """Pool shape is free to differ between the recording and resuming
    runs — sharding never reaches per-replica state."""
    spec = _quick("shamoon")
    directory = str(tmp_path / "mixed")
    baseline = run_sweep(spec, _config(replicas=6))
    run_sweep(spec, _config(replicas=6), checkpoint_dir=directory)
    for index in (0, 2, 5):
        os.remove(os.path.join(directory, "replica-%04d.json" % index))
    resumed = run_sweep(
        spec, _config(replicas=6, mode="parallel", workers=2,
                      chunk_size=1, fallback=False),
        checkpoint_dir=directory, resume=True)
    assert resumed.dispatch["path"] == "warm-pool"
    _assert_byte_identical(resumed, baseline)


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
    directory = str(tmp_path / "corrupt")
    run_sweep(_quick("shamoon"), _config(), checkpoint_dir=directory)
    victim = os.path.join(directory, "replica-0001.json")
    envelope = json.load(open(victim, encoding="utf-8"))
    envelope["state"]["replica"]["trace_records"] += 1
    with open(victim, "w", encoding="utf-8") as stream:
        json.dump(envelope, stream)
    with pytest.raises(CheckpointDigestError):
        run_sweep(_quick("shamoon"), _config(), checkpoint_dir=directory,
                  resume=True)


def test_resume_rejects_truncated_replica_file(tmp_path):
    directory = str(tmp_path / "trunc")
    run_sweep(_quick("shamoon"), _config(), checkpoint_dir=directory)
    victim = os.path.join(directory, "replica-0002.json")
    data = open(victim, encoding="utf-8").read()
    with open(victim, "w", encoding="utf-8") as stream:
        stream.write(data[:80])
    with pytest.raises(CheckpointError, match="cannot read"):
        run_sweep(_quick("shamoon"), _config(), checkpoint_dir=directory,
                  resume=True)


def test_resume_rejects_misfiled_replica(tmp_path):
    """A replica file whose name disagrees with the index it records is
    a manifest inconsistency, not something to guess about."""
    directory = str(tmp_path / "misfiled")
    run_sweep(_quick("shamoon"), _config(), checkpoint_dir=directory)
    os.replace(os.path.join(directory, "replica-0001.json"),
               os.path.join(directory, "replica-0003.json"))
    os.remove(os.path.join(directory, "replica-0000.json"))
    with pytest.raises(CheckpointError, match="records index"):
        run_sweep(_quick("shamoon"), _config(), checkpoint_dir=directory,
                  resume=True)


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


def test_sigkilled_sweep_resumes_byte_identically(tmp_path):
    """SIGKILL a live checkpointed sweep process mid-run, then resume
    from whatever landed on disk.  Atomic replica writes guarantee the
    directory is never half-written, so the resumed result must match
    the uninterrupted baseline exactly — however far the victim got."""
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
            if (os.path.isdir(directory)
                    and len(_replica_files(directory)) >= 2):
                process.send_signal(signal.SIGKILL)
                break
            time.sleep(0.02)
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    survivors = _replica_files(directory)
    assert survivors, "no replicas recorded before the kill"
    # Every surviving file validates — SIGKILL never truncates one.
    manifest = SweepCheckpoint.load(directory)
    completed = manifest.completed()
    assert sorted(completed) == [
        int(name[len("replica-"):-len(".json")]) for name in survivors]

    spec = _quick("shamoon")
    config = _config(replicas=10)
    baseline = run_sweep(spec, config)
    resumed = run_sweep(spec, config, checkpoint_dir=directory,
                        resume=True)
    _assert_byte_identical(resumed, baseline)


def _line_count(path):
    try:
        with open(path, "rb") as stream:
            return stream.read().count(b"\n")
    except FileNotFoundError:
        return 0


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
