"""Sweep engine scaling: pooled parallel vs serial, identical results.

Runs the same quick Stuxnet ensemble through the serial path and the
warm worker pool — under the default fail-fast policy and under
``SupervisorConfig()`` with no failures injected — asserts all three
produce bit-identical per-replica measurements and trace digests, and
writes the wall-time comparison to ``BENCH_sweep.json`` at the
repository root so the perf trajectory is tracked across changes
(a ``--quick`` run writes ``bench-quick/BENCH_sweep.json`` instead).
The supervised/default ratio is the cost of the retry-and-quarantine
policy when nothing fails; the goal is ~1.0.

Timing methodology: interleaved serial/parallel/supervised rounds,
keeping each side's minimum, reporting the ratio of minimums — the minimum of
several rounds converges on the true cost, and interleaving cancels
machine-load drift.  In each round a side repeats its sweep until it has
run for at least ``MIN_ROUND_SECONDS`` and counts the mean time of one
sweep: a quick sweep takes well under a second, and a round that short
would measure the machine's noise rather than the pool.  A process pool
does its work in *children*, which ``process_time`` never sees, so this
benchmark times wall clock (``perf_counter``).

A warm-up round runs first, so the timed rounds measure the steady
state the warm pool exists for: spec already shipped, imports done,
pool reused round after round (``pool_reused`` is asserted).

The >= 1.5x speedup floor is asserted with 2 workers wherever 2+ cores
are actually available (CI runners have 4); on a single effective core
a process pool is physically pure overhead and only the identity
guarantees and the benchmark artefact are checked.  ``--quick``
shrinks the replica count so CI finishes in seconds.
"""

import json
import os
import sys
import time

from repro.core.ensemble import CampaignSpec
from repro.sim.sweep import SweepConfig, run_sweep
from repro.sim.workerpool import SupervisorConfig, pool_start_method


#: Acceptance criterion: pooled parallel dispatch with 2 workers
#: must beat serial by at least this factor on the quick workload.
SPEEDUP_FLOOR = 1.5

#: Cores the floor needs to be meaningful: 2 workers want 2 cores.
MIN_CORES_FOR_SPEEDUP = 2

#: Wall seconds each side runs for in one timed round, sweeps repeated.
MIN_ROUND_SECONDS = 1.0

WORKERS = 2
BASE_SEED = 2013


def effective_cores():
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _mean_call_seconds(fn, min_seconds):
    """Call ``fn`` until ``min_seconds`` of wall time have passed; the
    mean wall time of one call."""
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls


def _interleaved_minimums(rounds, *fns):
    """Alternate the dispatch variants and keep each one's best wall
    time per call (children do the parallel work, so CPU time would
    lie)."""
    times = [[] for _ in fns]
    for _ in range(rounds):
        for fn, samples in zip(fns, times):
            samples.append(_mean_call_seconds(fn, MIN_ROUND_SECONDS))
    return [min(samples) for samples in times]


def test_sweep_scaling_serial_vs_warm_pool(quick, bench_path):
    replicas = 6 if quick else 16
    rounds = 3 if quick else 5
    cores = effective_cores()
    spec = CampaignSpec.quick("stuxnet")

    serial_config = SweepConfig(replicas=replicas, workers=1,
                                mode="serial", base_seed=BASE_SEED)
    # mode="parallel" + chunk_size=1 pins the pure pool path: no serial
    # probe inside the timed region, every replica through a worker.
    parallel_config = SweepConfig(replicas=replicas, workers=WORKERS,
                                  mode="parallel", base_seed=BASE_SEED,
                                  chunk_size=1)
    # Same pool key, so the same warm workers, under the supervised
    # policy: retries and quarantine armed, nothing failing.
    supervised_config = SweepConfig(replicas=replicas, workers=WORKERS,
                                    mode="supervised", base_seed=BASE_SEED,
                                    chunk_size=1)
    supervision = SupervisorConfig()

    # Warm-up round: ships the spec, builds the shared pool, fills the
    # compile caches — and proves the engine's core guarantee before
    # any timing: the pool changes wall time, never results.
    serial = run_sweep(spec, serial_config)
    parallel = run_sweep(spec, parallel_config)
    supervised = run_sweep(spec, supervised_config, supervision=supervision)
    for pooled in (parallel, supervised):
        assert serial.measurements() == pooled.measurements()
        assert serial.digests() == pooled.digests()
        assert [r.seed for r in serial.replicas] == \
            [r.seed for r in pooled.replicas]
        assert pooled.dispatch["path"] == "warm-pool"
    assert supervised.complete()

    reused = []

    def timed(config, **kwargs):
        def run():
            result = run_sweep(spec, config, **kwargs)
            reused.append(result.dispatch["pool_reused"])
        return run

    serial_s, parallel_s, supervised_s = _interleaved_minimums(
        rounds,
        lambda: run_sweep(spec, serial_config),
        timed(parallel_config),
        timed(supervised_config, supervision=supervision),
    )
    # The steady state being measured is the *warm* pool: every timed
    # round must have reused the pool the warm-up round built.
    assert all(reused)

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    supervision_overhead = supervised_s / parallel_s if parallel_s \
        else float("inf")
    asserted = cores >= MIN_CORES_FOR_SPEEDUP
    payload = {
        "benchmark": "sweep-scaling",
        "campaign": "stuxnet",
        "quick": quick,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count() or 1,
        "effective_cores": cores,
        "start_method": pool_start_method(),
        "replicas": replicas,
        "workers": WORKERS,
        "chunk_size": 1,
        "rounds": rounds,
        "min_round_seconds": MIN_ROUND_SECONDS,
        "pool_reused_every_round": all(reused),
        "serial_wall_seconds": serial_s,
        "parallel_wall_seconds": parallel_s,
        "supervised_wall_seconds": supervised_s,
        "supervision_overhead_ratio": supervision_overhead,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": asserted,
        "identical_measurements": True,
        "mean_replica_wall_seconds": (
            sum(r.wall_seconds for r in serial.replicas) / replicas),
        "events_dispatched_total": (
            sum(r.events_dispatched for r in serial.replicas)),
    }
    # The artefact lands before the floor assertion on purpose: a slow
    # run must still leave the measurement for the CI upload to find.
    path = bench_path("BENCH_sweep.json")
    path.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print("sweep scaling (%d replicas, %d effective cores, %s): "
          "serial %.2fs, pool %.2fs with %d workers -> %.2fx; "
          "supervised %.2fs (%.2fx the default policy)"
          % (replicas, cores, pool_start_method(), serial_s, parallel_s,
             WORKERS, speedup, supervised_s, supervision_overhead))
    print("wrote %s" % path)

    if asserted:
        assert speedup >= SPEEDUP_FLOOR, (
            "pooled sweep only %.2fx faster than serial on %d "
            "effective cores (floor: %.1fx)"
            % (speedup, cores, SPEEDUP_FLOOR))
