"""Kernel hot-path benchmarks: trace-query indexes and event dispatch.

Four measurements, written together to ``BENCH_kernel.json`` at the
repository root so CI can track the perf trajectory across PRs:

1. **Trace queries** — a 100k-record trace queried through the indexed
   ``TraceLog.query`` vs the retained linear-scan reference
   ``query_linear``.  The acceptance floor (indexed >= 10x faster on
   the selective filter shapes) is asserted here.
2. **Event dispatch** — a self-rescheduling event chain through the
   single-heap-access ``Kernel.run`` loop, reported as events/second.
3. **Cancellation** — a mass-cancel workload that exercises the event
   queue's lazy heap compaction.
4. **Periodic tasks** — two jitter-free ``PeriodicTask``s at 30 s and
   60 s, the shape of a PLC scan plus its safety poll, reported as
   events/second with no floor.

``--quick`` shrinks repetition counts (not the trace size — the 100k
-record query floor is always measured) so CI finishes in seconds.
"""

import json
import sys
import time
from pathlib import Path

from repro.sim import Kernel

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"

#: Acceptance criterion: indexed queries on a >=100k-record trace must
#: beat the seed linear scan by at least this factor.
QUERY_SPEEDUP_FLOOR = 10.0

TRACE_RECORDS = 100_000


def _update_bench(section, payload):
    """Merge one section into BENCH_kernel.json (tests run in any order)."""
    data = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except ValueError:
            data = {}
    data["benchmark"] = "kernel-hot-path"
    data["python"] = sys.version.split()[0]
    data[section] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _build_trace(records=TRACE_RECORDS):
    """A synthetic campaign-shaped trace: many actors, namespaced
    actions, hostname-family targets, monotonically increasing times."""
    kernel = Kernel(seed=7)
    trace = kernel.trace
    clock = kernel.clock
    families = ("flame", "stuxnet", "shamoon", "retry", "faults")
    for index in range(records):
        clock.advance_to(index * 0.25)
        family = families[index % len(families)]
        trace.record(
            "actor-%02d" % (index % 50),
            "%s.step-%d" % (family, index % 20),
            "host-%03d" % (index % 500) if index % 11 else None,
            sequence=index,
        )
    return trace


def _time_queries(fn, filter_sets, repetitions):
    start = time.perf_counter()
    checksum = 0
    for _ in range(repetitions):
        for filters in filter_sets:
            checksum += len(fn(**filters))
    return time.perf_counter() - start, checksum


def test_trace_query_index_speedup(quick):
    repetitions = 2 if quick else 5
    trace = _build_trace()
    assert len(trace) >= TRACE_RECORDS

    #: Filter shapes mirroring what the figure exporters and prose
    #: -claim benchmarks actually issue.
    shapes = {
        "exact-actor": [{"actor": "actor-07"}],
        "exact-actor-action": [{"actor": "actor-07",
                                "action": "shamoon.step-7"}],
        "prefix-action": [{"action": "flame.*"}],
        "prefix-actor-and-target": [{"actor": "actor-1*",
                                     "target": "host-01*"}],
        "time-window": [{"since": 20000.0, "until": 20400.0}],
        "window-and-action": [{"action": "stuxnet.*",
                               "since": 10000.0, "until": 12000.0}],
    }

    sections = {}
    for shape, filter_sets in shapes.items():
        linear_s, linear_sum = _time_queries(trace.query_linear,
                                             filter_sets, repetitions)
        indexed_s, indexed_sum = _time_queries(trace.query,
                                               filter_sets, repetitions)
        assert indexed_sum == linear_sum  # equivalence, cheaply re-checked
        sections[shape] = {
            "linear_seconds": linear_s,
            "indexed_seconds": indexed_s,
            "speedup": linear_s / indexed_s if indexed_s else float("inf"),
            "matches_per_query": linear_sum // max(1, repetitions),
        }

    #: The floor applies to the selective shapes a campaign benchmark
    #: issues hundreds of; the match-heavy prefix scan is reported but
    #: output-size-bound, so it carries no assertion.
    asserted = ("exact-actor", "exact-actor-action", "time-window",
                "window-and-action")
    floor_speedup = min(sections[shape]["speedup"] for shape in asserted)

    _update_bench("trace_query", {
        "records": len(trace),
        "repetitions": repetitions,
        "quick": quick,
        "shapes": sections,
        "asserted_shapes": list(asserted),
        "min_asserted_speedup": floor_speedup,
        "speedup_floor": QUERY_SPEEDUP_FLOOR,
    })

    print()
    for shape, section in sections.items():
        print("query[%s]: linear %.4fs, indexed %.4fs -> %.1fx"
              % (shape, section["linear_seconds"],
                 section["indexed_seconds"], section["speedup"]))
    print("wrote %s" % BENCH_PATH)

    assert floor_speedup >= QUERY_SPEEDUP_FLOOR, (
        "indexed query only %.1fx faster than the linear scan on a "
        "%d-record trace (floor: %.0fx)"
        % (floor_speedup, len(trace), QUERY_SPEEDUP_FLOOR))


def test_kernel_dispatch_throughput(quick):
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
    _update_bench("dispatch", {
        "events": events,
        "quick": quick,
        "wall_seconds": wall,
        "events_per_second": rate,
    })
    print()
    print("dispatch: %d events in %.3fs -> %d events/s"
          % (events, wall, rate))


def test_cancellation_compaction_throughput(quick):
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

    _update_bench("cancellation", {
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


def test_periodic_task_throughput(quick):
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
    _update_bench("periodic", {
        "events": dispatched,
        "intervals_seconds": [30.0, 60.0],
        "quick": quick,
        "wall_seconds": wall,
        "events_per_second": rate,
    })
    print()
    print("periodic: %d events in %.3fs -> %d events/s"
          % (dispatched, wall, rate))
