"""Lifecycle regressions for the one sweep worker pool.

A warm pool trades per-sweep start-up for a long-lived resource, which
creates exactly one new failure class: leaked worker processes.  These
tests pin the lifecycle contract of :class:`repro.sim.workerpool.
WorkerPool`:

* a run that returns leaves the pool warm, and the shared pool is
  genuinely reused across sweeps;
* anything escaping a run — a typed replica error under the default
  fail-fast policy, a manifest write raising, ``KeyboardInterrupt`` —
  terminates the pool, so no worker survives a failed sweep;
* a worker that dies while idle is reaped and replaced without
  charging any replica an attempt;
* ``shutdown_shared_pool`` (the atexit hook) reaps the survivor.

Every test ends by asserting that no ``sweep-worker-*`` child leaked.
"""

import multiprocessing
import time

import pytest

from repro.core.ensemble import CampaignSpec, replica_seed, run_replica
from repro.core.resume import SweepCheckpoint
from repro.sim.errors import PoisonReplicaError
from repro.sim.sweep import SweepConfig, run_sweep
from repro.sim.workerpool import (
    FAIL_FAST,
    WorkerPool,
    _shared,
    decode_replica_row,
    encode_replica_row,
    shutdown_shared_pool,
)

SPEC = CampaignSpec.quick("stuxnet-epidemic")

#: A spec whose replicas are guaranteed to raise inside the worker:
#: the fault profile rejects the unknown parameter at build time.
POISON_SPEC = CampaignSpec.quick("stuxnet", fault_profile="flaky-network",
                                 fault_params={"bogus": 1})


def sweep_workers():
    return [process for process in multiprocessing.active_children()
            if process.name.startswith("sweep-worker-")]


def worker_count(timeout=3.0):
    """Live ``sweep-worker-*`` children, waiting briefly for reaping."""
    deadline = time.monotonic() + timeout
    while True:
        count = len(sweep_workers())
        if count == 0 or time.monotonic() >= deadline:
            return count
        time.sleep(0.05)


@pytest.fixture(autouse=True)
def reset_shared_pool():
    """Each test starts and ends with no shared pool (and no leaks)."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()
    assert worker_count() == 0


def pool_config(**overrides):
    defaults = dict(replicas=4, workers=2, mode="parallel", base_seed=42,
                    chunk_size=1)
    defaults.update(overrides)
    return SweepConfig(**defaults)


# -- reuse ---------------------------------------------------------------------

def test_shared_pool_is_reused_across_sweeps():
    first = run_sweep(SPEC, pool_config())
    second = run_sweep(SPEC, pool_config())
    assert first.dispatch["pool_reused"] is False
    assert second.dispatch["pool_reused"] is True
    assert first.digests() == second.digests()
    # The pool is alive between sweeps — that is the whole point.
    assert worker_count(timeout=0.0) == 2


def test_changing_the_key_swaps_the_pool_without_leaking():
    run_sweep(SPEC, pool_config())
    swapped = run_sweep(SPEC, pool_config(base_seed=43))
    assert swapped.dispatch["pool_reused"] is False
    # The stale pool was closed when the key changed: only the new
    # pool's workers remain.
    assert worker_count(timeout=0.0) == 2


def test_idle_worker_death_between_sweeps_is_respawned():
    serial = run_sweep(SPEC, pool_config(mode="serial"))
    run_sweep(SPEC, pool_config())
    victim = sweep_workers()[0]
    victim.kill()
    victim.join()
    # The dead worker's task pipe now has no reader: dispatching to it
    # must reap and replace it, not escape as a raw BrokenPipeError.
    second = run_sweep(SPEC, pool_config())
    assert second.dispatch["pool_reused"] is True
    assert second.supervision["worker_restarts"] == 1
    assert second.failures == []
    assert second.digests() == serial.digests()
    assert second.measurements() == serial.measurements()
    assert worker_count(timeout=0.0) == 2


# -- failure lifecycle ---------------------------------------------------------

def test_worker_replica_error_raises_typed_error_and_terminates_pool():
    with pytest.raises(PoisonReplicaError) as excinfo:
        run_sweep(POISON_SPEC, pool_config())
    error = excinfo.value
    assert error.index in range(4)
    assert error.reason == "error"
    assert error.detail.startswith("TypeError: ")
    assert "TypeError: " in str(error)
    # Fail-fast: the error escaped the run, so the pool is gone.
    assert _shared["pool"] is None
    assert worker_count() == 0


def test_record_callback_exception_terminates_pool(tmp_path, monkeypatch):
    original = SweepCheckpoint.record
    recorded = []

    def explode_on_second(self, replica):
        original(self, replica)
        recorded.append(replica.index)
        if len(recorded) == 2:
            raise RuntimeError("manifest write blew up")

    monkeypatch.setattr(SweepCheckpoint, "record", explode_on_second)
    with pytest.raises(RuntimeError):
        run_sweep(SPEC, pool_config(),
                  checkpoint_dir=str(tmp_path / "sweep"))
    monkeypatch.undo()
    # Chunks were in flight when the exception escaped: the pool must
    # be terminated, not left warm (its workers may be mid-replica).
    assert _shared["pool"] is None
    assert worker_count() == 0
    # A fresh sweep after the failure builds a fresh pool and works.
    clean = run_sweep(SPEC, pool_config())
    assert clean.dispatch["pool_reused"] is False
    assert len(clean.replicas) == 4


def test_warm_pool_context_manager_reaps_on_error():
    with pytest.raises(KeyboardInterrupt):
        with WorkerPool(SPEC, 42, workers=2) as pool:
            pool.run([[0], [1]], FAIL_FAST)
            assert len(pool.pids()) == 2
            raise KeyboardInterrupt
    assert worker_count() == 0


# -- direct pool use and the row codec -----------------------------------------

def stable_dict(replica):
    """``as_dict()`` minus the only wall-clock-bound field."""
    payload = replica.as_dict()
    payload.pop("wall_seconds")
    return payload


def test_warm_pool_run_matches_in_process_replicas():
    with WorkerPool(SPEC, 7, workers=2) as pool:
        outcome = pool.run([[0, 1], [2]], FAIL_FAST)
        reference = [run_replica(SPEC, index, 7) for index in range(3)]
        assert [stable_dict(r) for r in outcome.replicas] == \
            [stable_dict(r) for r in reference]
        pids = pool.pids()
        # A second dispatch on the same (still warm) workers works too.
        again = pool.run([[0]], FAIL_FAST)
        assert stable_dict(again.replicas[0]) == stable_dict(reference[0])
        assert pool.pids() == pids
    assert worker_count() == 0


def test_closed_pool_refuses_dispatch():
    pool = WorkerPool(SPEC, 7, workers=1)
    pool.close()
    with pytest.raises(RuntimeError):
        pool.run([[0]], FAIL_FAST)


def test_replica_row_codec_round_trips_a_real_replica():
    replica = run_replica(SPEC, 3, 99)
    decoded = decode_replica_row(encode_replica_row(replica), 99)
    assert decoded.as_dict() == replica.as_dict()
    # The seed is recomputed, not shipped: decoding under the wrong
    # base seed is loudly visible rather than silently absorbed.
    wrong = decode_replica_row(encode_replica_row(replica), 100)
    assert wrong.seed != replica.seed
    assert wrong.seed == replica_seed(100, 3)
