"""Sweep engine scaling: pooled auto vs serial, identical results.

Runs the same quick Stuxnet ensemble the way a user's sweep runs it:
through the serial path, under ``mode="auto"`` (an in-process cost
probe, then the worker pool) and under ``mode="supervised"`` with
``SupervisorConfig()`` and no failures injected.  It asserts that all
three produce bit-identical per-replica measurements and trace digests,
and writes the wall-time comparison to ``BENCH_sweep.json`` at the
repository root so the perf trajectory is tracked across changes (a
``--quick`` run writes ``bench-quick/BENCH_sweep.json`` instead).  The
supervised/auto ratio is the cost of the retry-and-quarantine policy
when nothing fails; the goal is ~1.0.

Each sweep forks its own pool and closes it, so every timed pooled
sweep pays for its own workers' start and close, as ``repro sweep``
does.  Both presets are sized so the whole ensemble costs well above
``PARALLEL_BREAK_EVEN_SECONDS`` of serial work: ``auto`` must take the
pool, and every timed ``auto`` sweep asserts that it did.

Timing methodology: interleaved serial/auto/supervised rounds, keeping
each side's minimum, reporting the ratio of minimums — the minimum of
several rounds converges on the true cost, and interleaving cancels
machine-load drift.  In each round a side repeats its sweep until it has
run for at least ``MIN_ROUND_SECONDS`` and counts the mean time of one
sweep.  A process pool does its work in *children*, which
``process_time`` never sees, so this benchmark times wall clock
(``perf_counter``).  A warm-up round runs first, so imports and the
parent's derived RSA keys (which forked workers inherit) are in place
before any timing.

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


#: Acceptance criterion: an ``auto`` sweep on 2 workers must beat
#: serial by at least this factor on the quick workload.
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


def test_sweep_scaling_serial_vs_auto_pool(quick, bench_path):
    replicas = 64 if quick else 128
    rounds = 3 if quick else 5
    cores = effective_cores()
    spec = CampaignSpec.quick("stuxnet")

    serial_config = SweepConfig(replicas=replicas, workers=1,
                                mode="serial", base_seed=BASE_SEED)
    # What ``repro sweep`` runs by default: probe, then the pool with
    # probe-sized chunks.
    auto_config = SweepConfig(replicas=replicas, workers=WORKERS,
                              mode="auto", base_seed=BASE_SEED)
    # The same pool shape under the supervised policy: retries and
    # quarantine armed, nothing failing, spread-sized chunks.
    supervised_config = SweepConfig(replicas=replicas, workers=WORKERS,
                                    mode="supervised", base_seed=BASE_SEED)
    supervision = SupervisorConfig()

    # Warm-up round: imports, derived keys and compile caches — and
    # proof of the engine's core guarantee before any timing: the pool
    # changes wall time, never results.
    serial = run_sweep(spec, serial_config)
    chunk_sizes = {}

    def pooled(config, **kwargs):
        def run():
            result = run_sweep(spec, config, **kwargs)
            assert result.dispatch["path"] == "warm-pool"
            assert result.complete()
            assert result.digests() == serial.digests()
            chunk_sizes[config.mode] = result.chunk_size
            return result
        return run

    run_auto = pooled(auto_config)
    run_supervised = pooled(supervised_config, supervision=supervision)
    for result in (run_auto(), run_supervised()):
        assert serial.measurements() == result.measurements()
        assert [r.seed for r in serial.replicas] == \
            [r.seed for r in result.replicas]

    serial_s, auto_s, supervised_s = _interleaved_minimums(
        rounds,
        lambda: run_sweep(spec, serial_config),
        run_auto,
        run_supervised,
    )

    speedup = serial_s / auto_s if auto_s else float("inf")
    supervision_overhead = supervised_s / auto_s if auto_s \
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
        "pool": "fresh per sweep",
        "replicas": replicas,
        "workers": WORKERS,
        "auto_chunk_size": chunk_sizes["auto"],
        "supervised_chunk_size": chunk_sizes["supervised"],
        "rounds": rounds,
        "min_round_seconds": MIN_ROUND_SECONDS,
        "auto_path_every_round": "warm-pool",
        "serial_wall_seconds": serial_s,
        "auto_wall_seconds": auto_s,
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
    print("sweep scaling (%d replicas, %d effective cores, %s, fresh pool "
          "per sweep): serial %.2fs, auto %.2fs with %d workers -> %.2fx; "
          "supervised %.2fs (%.2fx auto)"
          % (replicas, cores, pool_start_method(), serial_s, auto_s,
             WORKERS, speedup, supervised_s, supervision_overhead))
    print("wrote %s" % path)

    if asserted:
        assert speedup >= SPEEDUP_FLOOR, (
            "auto sweep only %.2fx faster than serial on %d "
            "effective cores (floor: %.1fx)"
            % (speedup, cores, SPEEDUP_FLOOR))
