"""Lifecycle regressions for the sweep worker pool.

Worker processes are the one resource a sweep can leak.  Each sweep
forks its own pool and closes it.  These tests pin the lifecycle
contract of :class:`repro.sim.workerpool.WorkerPool`:

* a sweep that returns, under every pooled mode, leaves no worker
  behind and gives the serial sweep's replicas;
* anything escaping a run — a typed replica error under the default
  fail-fast policy, a manifest write raising, ``KeyboardInterrupt`` —
  terminates the pool, so no worker survives a failed sweep;
* a worker that dies while idle between two runs of one pool is
  reaped and replaced without charging any replica an attempt;
* workers forked from a sweep process die with it, even when it is
  SIGKILLed mid-sweep and never reaps them;
* the ``spawn`` fallback gives the same replicas as a serial sweep.

Every test ends by asserting that no ``sweep-worker-*`` child leaked.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core.ensemble import CampaignSpec, replica_seed, run_replica
from repro.core.resume import SweepCheckpoint
from repro.sim import sweep, workerpool
from repro.sim.errors import PoisonReplicaError
from repro.sim.sweep import SweepConfig, run_sweep
from repro.sim.workerpool import (
    FAIL_FAST,
    WorkerPool,
    decode_replica_row,
    encode_replica_row,
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
def no_leaked_workers():
    """Each test ends with no ``sweep-worker-*`` child left."""
    yield
    assert worker_count() == 0


def pool_config(**overrides):
    defaults = dict(replicas=4, workers=2, mode="parallel", base_seed=42,
                    chunk_size=1)
    defaults.update(overrides)
    return SweepConfig(**defaults)


# -- one pool per sweep --------------------------------------------------------

@pytest.mark.parametrize("mode", ["parallel", "auto", "supervised"])
def test_a_sweep_leaves_no_worker_behind(mode, monkeypatch):
    # A zero break-even sends the probed auto sweep to the pool.
    monkeypatch.setattr(sweep, "PARALLEL_BREAK_EVEN_SECONDS", 0.0)
    serial = run_sweep(SPEC, pool_config(mode="serial"))
    pooled = run_sweep(SPEC, pool_config(mode=mode))
    assert pooled.dispatch["path"] == "warm-pool"
    assert pooled.supervision["workers"] == 2
    # The sweep closed its pool before returning: nothing to wait for.
    assert worker_count(timeout=0.0) == 0
    assert [stable_dict(r) for r in pooled.replicas] == \
        [stable_dict(r) for r in serial.replicas]


def test_idle_worker_death_between_sweeps_is_respawned():
    serial = run_sweep(SPEC, pool_config(mode="serial"))
    chunks = [[index] for index in range(4)]
    with WorkerPool(SPEC, 42, workers=2) as pool:
        pool.run(chunks, FAIL_FAST)
        victim = sweep_workers()[0]
        victim.kill()
        victim.join()
        # The dead worker's task pipe now has no reader: dispatching to
        # it must reap and replace it, not escape as a raw
        # BrokenPipeError.
        second = pool.run(chunks, FAIL_FAST)
        assert worker_count(timeout=0.0) == 2
    assert second.report["worker_restarts"] == 1
    assert second.failures == []
    assert [r.trace_digest for r in second.replicas] == serial.digests()
    assert [r.measurements for r in second.replicas] == \
        serial.measurements()


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
    assert worker_count() == 0
    # A fresh sweep after the failure builds a fresh pool and works.
    clean = run_sweep(SPEC, pool_config())
    assert len(clean.replicas) == 4


def test_warm_pool_context_manager_reaps_on_error():
    with pytest.raises(KeyboardInterrupt):
        with WorkerPool(SPEC, 42, workers=2) as pool:
            pool.run([[0], [1]], FAIL_FAST)
            assert len(pool.pids()) == 2
            raise KeyboardInterrupt
    assert worker_count() == 0


# -- parent death and the start method ----------------------------------------

#: A long sweep on two workers that records every finished replica in
#: ``MANIFEST.jsonl`` under the directory given as ``argv[2]``.
ORPHAN_SWEEP = textwrap.dedent("""
    import sys
    from repro.core.ensemble import CampaignSpec
    from repro.sim.sweep import SweepConfig, run_sweep

    run_sweep(CampaignSpec.quick("shamoon"),
              SweepConfig(replicas=400, workers=2, mode=sys.argv[1],
                          chunk_size=4),
              checkpoint_dir=sys.argv[2])
""")


def live_group_members(pgid):
    """Pids of the processes in group ``pgid`` that are not zombies."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as stat:
                data = stat.read()
        except OSError:
            continue
        fields = data[data.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def manifest_lines(directory):
    try:
        with open(os.path.join(directory, "MANIFEST.jsonl"), "rb") as stream:
            return stream.read().count(b"\n")
    except FileNotFoundError:
        return 0


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("mode", ["parallel", "supervised"])
def test_workers_die_with_a_sigkilled_parent(tmp_path, mode):
    """SIGKILL a sweep process mid-sweep: no exit handler runs, so its
    workers must see it die through their pipes and exit on their own.
    A worker still holding the parent's end of a pipe would block on it
    forever."""
    directory = str(tmp_path / "sweep")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        workerpool.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_SWEEP, mode, directory], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    pgid = process.pid
    try:
        deadline = time.monotonic() + 60.0
        while manifest_lines(directory) < 1 + 4 and process.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert process.poll() is None, "the sweep ended before the kill"
        # The parent and its two workers: no fork server runs.
        assert len(live_group_members(pgid)) == 3
        process.kill()
        process.wait()
        deadline = time.monotonic() + 2.0
        while live_group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert live_group_members(pgid) == []
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()


def test_spawn_fallback_matches_serial(monkeypatch):
    monkeypatch.setattr(workerpool, "pool_start_method", lambda: "spawn")
    methods = []
    real_context = workerpool.pool_context

    def recording_context():
        context = real_context()
        methods.append(context.get_start_method())
        return context

    monkeypatch.setattr(workerpool, "pool_context", recording_context)
    serial = run_sweep(SPEC, pool_config(mode="serial"))
    spawned = run_sweep(SPEC, pool_config())
    assert methods == ["spawn"]
    assert [stable_dict(r) for r in spawned.replicas] == \
        [stable_dict(r) for r in serial.replicas]


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
