"""Kernel hot-path benchmarks: event dispatch, cancellation, periodic tasks.

Three measurements, written together to ``BENCH_kernel.json`` at the
repository root so CI can track the perf trajectory across PRs:

1. **Event dispatch** — a self-rescheduling event chain through the
   single-heap-access ``Kernel.run`` loop, reported as events/second.
2. **Cancellation** — a mass-cancel workload that exercises the event
   queue's lazy heap compaction.
3. **Periodic tasks** — two jitter-free ``PeriodicTask``s at 30 s and
   60 s, the shape of a PLC scan plus its safety poll, reported as
   events/second with no floor.  They carry no idle predicate, so every
   firing is a plain dispatch.
4. **Idle periodic tasks** — the same two tasks with idle predicates
   that hold, bounded by an hourly ordinary event (the shape of
   Stuxnet's trigger monitor), so the kernel skips the firings in
   between; reported as events/second with no floor.

``--quick`` shrinks the workloads so CI finishes in seconds, and
writes ``bench-quick/BENCH_kernel.json`` (git-ignored) instead.
"""

import json
import sys
import time

from repro.sim import Kernel



def _update_bench(bench_path, section, payload):
    """Merge one section into BENCH_kernel.json (tests run in any order)."""
    path = bench_path("BENCH_kernel.json")
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data["benchmark"] = "kernel-hot-path"
    data["python"] = sys.version.split()[0]
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n")


def test_kernel_dispatch_throughput(quick, bench_path):
    events = 30_000 if quick else 200_000
    kernel = Kernel(seed=11)
    remaining = [events]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            kernel.call_later(0.001, tick, "bench-tick")

    kernel.call_later(0.001, tick, "bench-tick")
    start = time.perf_counter()
    dispatched = kernel.run()
    wall = time.perf_counter() - start

    assert dispatched == events
    assert kernel.dispatched_events == events
    assert kernel.metrics.value("sim.events_dispatched") == events

    rate = events / wall if wall else float("inf")
    _update_bench(bench_path, "dispatch", {
        "events": events,
        "quick": quick,
        "wall_seconds": wall,
        "events_per_second": rate,
    })
    print()
    print("dispatch: %d events in %.3fs -> %d events/s"
          % (events, wall, rate))


def test_cancellation_compaction_throughput(quick, bench_path):
    scheduled = 20_000 if quick else 100_000
    kernel = Kernel(seed=13)
    doomed = [kernel.call_later(1000.0 + i, lambda: None, "doomed")
              for i in range(scheduled)]
    survivors = 100
    for i in range(survivors):
        kernel.call_later(1.0 + i, lambda: None, "live")

    start = time.perf_counter()
    for event in doomed:
        event.cancel()
    cancel_wall = time.perf_counter() - start
    heap_after_cancel = len(kernel._queue._heap)

    run_start = time.perf_counter()
    dispatched = kernel.run()
    run_wall = time.perf_counter() - run_start

    assert dispatched == survivors
    # Compaction keeps the heap proportional to the live population
    # instead of the cancelled backlog.
    assert heap_after_cancel <= 2 * survivors + \
        kernel._queue.COMPACT_MIN_GARBAGE

    _update_bench(bench_path, "cancellation", {
        "scheduled": scheduled,
        "cancelled": scheduled,
        "survivors": survivors,
        "quick": quick,
        "cancel_wall_seconds": cancel_wall,
        "heap_after_cancel": heap_after_cancel,
        "drain_wall_seconds": run_wall,
    })
    print()
    print("cancellation: %d cancels in %.3fs, heap %d -> drain %.4fs"
          % (scheduled, cancel_wall, heap_after_cancel, run_wall))


def test_periodic_task_throughput(quick, bench_path):
    # The natanz replica's kernel load: a 30 s safety poll beside a
    # 60 s PLC scan, with trivial callbacks so only the kernel is timed.
    horizon = 30.0 * (20_000 if quick else 200_000)
    kernel = Kernel(seed=17)
    fired = [0]

    def tick():
        fired[0] += 1

    kernel.every(30.0, tick, "bench-poll")
    kernel.every(60.0, tick, "bench-scan")
    start = time.perf_counter()
    dispatched = kernel.run(until=horizon)
    wall = time.perf_counter() - start

    assert dispatched == fired[0] == int(horizon / 30.0 + horizon / 60.0)

    rate = dispatched / wall if wall else float("inf")
    _update_bench(bench_path, "periodic", {
        "events": dispatched,
        "intervals_seconds": [30.0, 60.0],
        "quick": quick,
        "wall_seconds": wall,
        "events_per_second": rate,
    })
    print()
    print("periodic: %d events in %.3fs -> %d events/s"
          % (dispatched, wall, rate))


def test_idle_periodic_task_throughput(quick, bench_path):
    # The natanz replica's idle stretches: the scan and poll change
    # nothing, and an hourly monitor bounds each skip window.
    horizon = 30.0 * (200_000 if quick else 2_000_000)
    kernel = Kernel(seed=19)
    skipped = [0]

    def count(n):
        skipped[0] += n

    def tick():
        raise AssertionError("an idle firing was dispatched")

    kernel.every(30.0, tick, "bench-poll", idle=lambda: True, skipped=count)
    kernel.every(60.0, tick, "bench-scan", idle=lambda: True, skipped=count)
    kernel.every(3600.0, lambda: None, "bench-monitor")
    start = time.perf_counter()
    dispatched = kernel.run(until=horizon)
    wall = time.perf_counter() - start

    monitors = int(horizon / 3600.0)
    assert skipped[0] == int(horizon / 30.0 + horizon / 60.0)
    assert dispatched == skipped[0] + monitors

    rate = dispatched / wall if wall else float("inf")
    _update_bench(bench_path, "idle_periodic", {
        "events": dispatched,
        "skipped": skipped[0],
        "intervals_seconds": [30.0, 60.0, 3600.0],
        "quick": quick,
        "wall_seconds": wall,
        "events_per_second": rate,
    })
    print()
    print("idle periodic: %d events (%d skipped) in %.3fs -> %d events/s"
          % (dispatched, skipped[0], wall, rate))
