"""Crash-injection suite for the supervised sweep path.

Every test here drives real worker processes through real failures —
``os._exit`` mid-replica, sleeps that outlive wall-clock timeouts,
heartbeats that stop — and asserts the two supervision invariants:

1. *Isolation*: a failure costs one replica attempt, never the sweep.
2. *Determinism*: whatever the supervisor had to kill and retry, the
   surviving replicas are byte-identical to an undisturbed serial run,
   because every attempt re-runs from the replica's pure seed.
"""

import multiprocessing
import time

import pytest

from repro.core.ensemble import CampaignSpec, ReplicaFailure
from repro.core.resume import SweepCheckpoint
from repro.sim import workerpool
from repro.sim.errors import (
    CheckpointError,
    PoisonReplicaError,
    ReplicaTimeoutError,
    SupervisionError,
)
from repro.sim.sweep import SweepConfig, run_sweep
from repro.sim.workerpool import (
    ChaosPlan,
    SupervisorConfig,
    WorkerPool,
    shutdown_shared_pool,
)


SPEC = CampaignSpec.quick("shamoon")


def leaked_workers(timeout=3.0):
    """Live ``sweep-worker-*`` children, waiting briefly for reaping."""
    deadline = time.monotonic() + timeout
    while True:
        names = [process.name
                 for process in multiprocessing.active_children()
                 if process.name.startswith("sweep-worker-")]
        if not names or time.monotonic() >= deadline:
            return names
        time.sleep(0.05)


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Each test starts and ends with no shared pool (and no leaks)."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()
    assert leaked_workers() == []


def serial_baseline(replicas=4, base_seed=42):
    return run_sweep(SPEC, SweepConfig(
        replicas=replicas, mode="serial", base_seed=base_seed))


def supervised_config(replicas=4, base_seed=42, workers=2):
    return SweepConfig(replicas=replicas, workers=workers,
                       mode="supervised", base_seed=base_seed)


def digests(result):
    return [replica.trace_digest for replica in result.replicas]


def counter(result, name):
    metric = result.supervision["metrics"].get(name)
    return metric["value"] if metric else 0


# -- happy path ----------------------------------------------------------------

def test_supervised_sweep_matches_serial_bit_for_bit():
    serial = serial_baseline()
    supervised = run_sweep(SPEC, supervised_config())
    assert digests(supervised) == digests(serial)
    assert supervised.measurements() == serial.measurements()
    assert supervised.failures == []
    assert supervised.complete()
    assert supervised.supervision["replicas_completed"] == 4
    assert supervised.supervision["worker_restarts"] == 0
    assert supervised.supervision["salvaged"] is False


@pytest.mark.parametrize("mode, workers", [
    pytest.param("auto", 2, id="auto"),
    pytest.param("auto", 1, id="auto-resolves-to-serial"),
    pytest.param("parallel", 2, id="parallel"),
    pytest.param("serial", 1, id="serial"),
])
def test_supervision_kwarg_needs_supervised_mode(mode, workers):
    # supervision= is the policy of mode="supervised" and never changes
    # the mode: "auto" must not quietly become supervised, and with one
    # worker, where it resolves to serial, not a one-worker pool.
    config = SweepConfig(replicas=3, workers=workers, mode=mode,
                         base_seed=42)
    if mode == "auto" and workers == 1:
        assert config.resolved_mode() == "serial"
    with pytest.raises(ValueError, match="mode is '%s'" % mode):
        run_sweep(SPEC, config, supervision=SupervisorConfig())
    assert leaked_workers(timeout=0.0) == []


# -- crash isolation -----------------------------------------------------------

def test_worker_crash_is_isolated_and_replica_retried():
    serial = serial_baseline()
    supervised = run_sweep(
        SPEC, supervised_config(),
        supervision=SupervisorConfig(chaos=ChaosPlan({1: ("crash",)})))
    # The crashed replica was retried on a fresh worker and every
    # replica (including it) is byte-identical to the serial run.
    assert digests(supervised) == digests(serial)
    assert supervised.failures == []
    assert supervised.supervision["worker_restarts"] >= 1
    assert counter(supervised, "supervisor.worker_crashes") >= 1


def test_crash_respares_chunk_tail_without_refailing_neighbours():
    # chunk_size=4 puts several replicas behind the poison one; they
    # must all complete even though their chunk's worker died.
    serial = serial_baseline(replicas=6)
    supervised = run_sweep(
        SPEC, SweepConfig(replicas=6, workers=2, mode="supervised",
                          base_seed=42, chunk_size=4),
        supervision=SupervisorConfig(chaos=ChaosPlan({0: ("crash",)})))
    assert digests(supervised) == digests(serial)
    assert supervised.failures == []


def test_in_process_replica_error_is_retried():
    serial = serial_baseline()
    supervised = run_sweep(
        SPEC, supervised_config(),
        supervision=SupervisorConfig(chaos=ChaosPlan({2: ("error",)})))
    assert digests(supervised) == digests(serial)
    assert supervised.failures == []
    assert counter(supervised, "supervisor.replica_errors") == 1
    # An in-process error never killed the worker.
    assert counter(supervised, "supervisor.worker_crashes") == 0


# -- quarantine ----------------------------------------------------------------

def test_poison_replica_is_quarantined_after_bounded_retries():
    serial = serial_baseline()
    supervised = run_sweep(
        SPEC, supervised_config(),
        supervision=SupervisorConfig(
            max_replica_retries=2,
            chaos=ChaosPlan({2: ("crash", "crash", "crash")})))
    # The poison replica is a structured failure, not an exception.
    assert [f.index for f in supervised.failures] == [2]
    failure = supervised.failures[0]
    assert failure.reason == "worker-crash"
    assert failure.attempts == 3
    assert failure.quarantined is True
    assert len(failure.history) == 3
    assert not supervised.complete()
    assert supervised.quarantined() == [2]
    # Gap-tolerant aggregation: the other replicas are intact and
    # identical to their serial counterparts.
    assert [r.index for r in supervised.replicas] == [0, 1, 3]
    expected = [r.trace_digest for r in serial.replicas if r.index != 2]
    assert digests(supervised) == expected
    assert supervised.aggregate()


def test_quarantine_failure_round_trips_as_dict():
    failure = ReplicaFailure(index=3, seed="s", attempts=2,
                             reason="timeout", quarantined=True,
                             history=[{"attempt": 1, "reason": "timeout",
                                       "detail": None}])
    payload = failure.as_dict()
    assert payload["index"] == 3
    assert payload["reason"] == "timeout"
    assert payload["quarantined"] is True
    # as_dict is a snapshot, not a view.
    payload["history"].append("x")
    assert len(failure.history) == 1


def test_on_failure_fail_raises_typed_poison_error():
    with pytest.raises(PoisonReplicaError) as excinfo:
        run_sweep(
            SPEC, supervised_config(replicas=3),
            supervision=SupervisorConfig(
                max_replica_retries=0, on_failure="fail",
                chaos=ChaosPlan({0: ("crash",)})))
    assert excinfo.value.index == 0
    assert excinfo.value.reason == "worker-crash"


# -- timeouts and hang detection -----------------------------------------------

def test_replica_timeout_kills_and_quarantines_hung_replica():
    supervised = run_sweep(
        SPEC, supervised_config(replicas=3),
        supervision=SupervisorConfig(
            replica_timeout=0.5, max_replica_retries=1,
            chaos=ChaosPlan({1: ("hang", "hang")})))
    assert [f.index for f in supervised.failures] == [1]
    assert supervised.failures[0].reason == "timeout"
    assert supervised.failures[0].attempts == 2
    assert [r.index for r in supervised.replicas] == [0, 2]
    assert counter(supervised, "supervisor.replica_timeouts") == 2


def test_replica_timeout_on_failure_fail_raises_timeout_error():
    with pytest.raises(ReplicaTimeoutError) as excinfo:
        run_sweep(
            SPEC, supervised_config(replicas=3),
            supervision=SupervisorConfig(
                replica_timeout=0.5, max_replica_retries=0,
                on_failure="fail", chaos=ChaosPlan({1: ("hang",)})))
    assert excinfo.value.index == 1
    assert excinfo.value.timeout == 0.5


def test_frozen_worker_is_detected_by_missing_heartbeats(monkeypatch):
    # "freeze" stops heartbeating entirely, so only hang detection —
    # not the replica timeout, which is unset — can catch it.  Only the
    # parent-side silence threshold is shortened (workers never see a
    # parent's monkeypatch): 1 s is four of the workers' 0.25 s beats.
    monkeypatch.setattr(workerpool, "HANG_TIMEOUT_SECONDS", 1.0)
    supervised = run_sweep(
        SPEC, supervised_config(replicas=3),
        supervision=SupervisorConfig(
            max_replica_retries=0, chaos=ChaosPlan({1: ("freeze",)})))
    assert [f.index for f in supervised.failures] == [1]
    assert supervised.failures[0].reason == "hang"
    assert counter(supervised, "supervisor.worker_hangs") == 1


def test_sweep_deadline_salvages_completed_replicas():
    supervised = run_sweep(
        SPEC, supervised_config(),
        supervision=SupervisorConfig(
            sweep_deadline=2.0,
            chaos=ChaosPlan({2: ("hang",), 3: ("hang",)})))
    # The hung replicas are salvage failures: retriable, not poison.
    assert supervised.supervision["salvaged"] is True
    assert [f.index for f in supervised.failures] == [2, 3]
    assert all(f.reason == "deadline" for f in supervised.failures)
    assert all(not f.quarantined for f in supervised.failures)
    assert supervised.quarantined() == []
    # ...and everything that finished in time survived.
    assert [r.index for r in supervised.replicas] == [0, 1]
    serial = serial_baseline()
    expected = [r.trace_digest for r in serial.replicas if r.index < 2]
    assert digests(supervised) == expected


# -- salvage + resume ----------------------------------------------------------

def test_quarantine_persists_and_resume_retries_to_byte_identity(tmp_path):
    serial = serial_baseline()
    checkpoint = str(tmp_path / "sweep")
    config = supervised_config()

    # Pass 1: replica 2 is poison for both attempts -> quarantined.
    first = run_sweep(
        SPEC, config, checkpoint_dir=checkpoint,
        supervision=SupervisorConfig(
            max_replica_retries=1,
            chaos=ChaosPlan({2: ("crash", "crash")})))
    assert [f.index for f in first.failures] == [2]
    manifest = SweepCheckpoint.load(checkpoint)
    on_disk = manifest.failures()
    assert set(on_disk) == {2}
    assert on_disk[2].reason == "worker-crash"
    assert on_disk[2].attempts == 2
    assert sorted(manifest.completed()) == [0, 1, 3]

    # Pass 2: resume retries the quarantined replica (chaos gone) and
    # the merged sweep is byte-identical to the undisturbed serial run.
    second = run_sweep(SPEC, config, checkpoint_dir=checkpoint, resume=True)
    assert digests(second) == digests(serial)
    assert second.failures == []
    assert second.complete()
    # The stale failure record was cleared by the successful retry.
    assert SweepCheckpoint.load(checkpoint).failures() == {}


def test_resume_skip_quarantined_carries_failure_records(tmp_path):
    checkpoint = str(tmp_path / "sweep")
    config = supervised_config()
    run_sweep(
        SPEC, config, checkpoint_dir=checkpoint,
        supervision=SupervisorConfig(
            max_replica_retries=1,
            chaos=ChaosPlan({2: ("crash", "crash")})))

    result = run_sweep(SPEC, config, checkpoint_dir=checkpoint,
                       resume=True, retry_quarantined=False)
    # The quarantined replica was skipped, not retried: its failure
    # record rides along and the record stays on disk.
    assert [f.index for f in result.failures] == [2]
    assert result.failures[0].quarantined is True
    assert [r.index for r in result.replicas] == [0, 1, 3]
    assert set(SweepCheckpoint.load(checkpoint).failures()) == {2}


def test_deadline_salvage_then_resume_completes_the_sweep(tmp_path):
    serial = serial_baseline()
    checkpoint = str(tmp_path / "sweep")
    config = supervised_config()
    first = run_sweep(
        SPEC, config, checkpoint_dir=checkpoint,
        supervision=SupervisorConfig(
            sweep_deadline=2.0, chaos=ChaosPlan({3: ("hang",)})))
    assert first.supervision["salvaged"] is True
    assert 3 in {f.index for f in first.failures}

    second = run_sweep(SPEC, config, checkpoint_dir=checkpoint, resume=True)
    assert digests(second) == digests(serial)
    assert second.complete()


# -- KeyboardInterrupt regression ----------------------------------------------

def test_keyboard_interrupt_flushes_manifest_and_kills_pool(tmp_path,
                                                            monkeypatch):
    checkpoint = str(tmp_path / "sweep")
    # mode="parallel" pins the pool: a cheap probe must not turn this
    # into a serial run with no pool to tear down.
    config = SweepConfig(replicas=6, workers=2, mode="parallel",
                         base_seed=42, chunk_size=1)
    recorded = []
    original = SweepCheckpoint.record

    def explode_on_third(self, replica):
        original(self, replica)
        recorded.append(replica.index)
        if len(recorded) == 3:
            raise KeyboardInterrupt

    monkeypatch.setattr(SweepCheckpoint, "record", explode_on_third)
    terminated = []
    original_terminate = WorkerPool.terminate

    def spy_terminate(self):
        terminated.append(True)
        return original_terminate(self)

    monkeypatch.setattr(WorkerPool, "terminate", spy_terminate)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(SPEC, config, checkpoint_dir=checkpoint)
    # The pool was torn down hard (no orphaned workers)...
    assert terminated
    assert leaked_workers() == []
    # ...and every replica recorded before the interrupt is on disk, so
    # the checkpoint is a valid resume point.
    monkeypatch.undo()
    manifest = SweepCheckpoint.load(checkpoint)
    assert sorted(manifest.completed()) == sorted(recorded)
    assert len(recorded) == 3

    serial = serial_baseline(replicas=6)
    resumed = run_sweep(SPEC, config, checkpoint_dir=checkpoint, resume=True)
    assert digests(resumed) == digests(serial)


# -- typed checkpoint errors ---------------------------------------------------

def test_unusable_checkpoint_directory_raises_typed_error(tmp_path):
    # A path routed through a regular file fails with NotADirectoryError
    # (an OSError) at the OS level; the store must surface the typed
    # CheckpointError instead.  (A chmod-based permission probe would be
    # useless here: the suite runs as root, which ignores mode bits.)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    bad_dir = str(blocker / "sweep")
    config = supervised_config(replicas=2)
    with pytest.raises(CheckpointError):
        run_sweep(SPEC, config, checkpoint_dir=bad_dir)
    with pytest.raises(CheckpointError):
        SweepCheckpoint.create(bad_dir, SPEC, config)


# -- configuration validation --------------------------------------------------

def test_chaos_plan_rejects_unknown_behaviours():
    with pytest.raises(ValueError, match="unknown chaos behaviour"):
        ChaosPlan({0: ("explode",)})


def test_chaos_plan_single_string_and_exhaustion():
    plan = ChaosPlan({1: "crash"})
    assert plan.behavior(1, 1) == "crash"
    assert plan.behavior(1, 2) is None   # beyond the sequence: ok
    assert plan.behavior(0, 1) is None   # unlisted replica: ok
    assert ChaosPlan({2: ("ok", "hang")}).behavior(2, 1) is None


@pytest.mark.parametrize("kwargs", [
    {"replica_timeout": 0},
    {"sweep_deadline": -1},
    {"replica_timeout": float("nan")},
    {"max_replica_retries": -1},
    {"max_replica_retries": True},
    {"on_failure": "explode"},
    {"max_replica_retries": 1.5},
    {"sweep_deadline": 0},
])
def test_supervisor_config_validation(kwargs):
    with pytest.raises(ValueError):
        SupervisorConfig(**kwargs)


def test_supervisor_errors_are_typed():
    assert issubclass(ReplicaTimeoutError, SupervisionError)
    assert issubclass(PoisonReplicaError, SupervisionError)
    error = ReplicaTimeoutError(4, 2, 1.5)
    assert (error.index, error.attempts, error.timeout) == (4, 2, 1.5)
    poison = PoisonReplicaError(7, 3, "worker-crash")
    assert (poison.index, poison.attempts, poison.reason) == \
        (7, 3, "worker-crash")
