"""Kernel event dispatch: ordering, cancellation, periodics, budgets."""

import pytest

from repro.sim import Kernel, ScheduleInPastError, SimulationError


def test_events_dispatch_in_time_order(kernel):
    seen = []
    kernel.call_later(5.0, lambda: seen.append("b"))
    kernel.call_later(1.0, lambda: seen.append("a"))
    kernel.call_later(9.0, lambda: seen.append("c"))
    kernel.run()
    assert seen == ["a", "b", "c"]
    assert kernel.now == 9.0


def test_simultaneous_events_keep_insertion_order(kernel):
    seen = []
    for label in "abcde":
        kernel.call_later(7.0, lambda l=label: seen.append(l))
    kernel.run()
    assert seen == list("abcde")


def test_cancelled_event_does_not_fire(kernel):
    seen = []
    event = kernel.call_later(1.0, lambda: seen.append("x"))
    event.cancel()
    kernel.run()
    assert seen == []


def test_cannot_schedule_in_the_past(kernel):
    kernel.call_later(1.0, lambda: None)
    kernel.run()
    with pytest.raises(ScheduleInPastError):
        kernel.call_at(0.5, lambda: None)
    with pytest.raises(ScheduleInPastError):
        kernel.call_later(-1.0, lambda: None)


def test_run_until_stops_and_advances_clock(kernel):
    seen = []
    kernel.call_later(10.0, lambda: seen.append("late"))
    kernel.run(until=5.0)
    assert seen == []
    assert kernel.now == 5.0
    kernel.run()
    assert seen == ["late"]


def test_events_scheduled_during_dispatch_run(kernel):
    seen = []

    def first():
        seen.append("first")
        kernel.call_later(1.0, lambda: seen.append("second"))

    kernel.call_later(1.0, first)
    kernel.run()
    assert seen == ["first", "second"]
    assert kernel.now == 2.0


def test_periodic_task_fires_until_stopped(kernel):
    ticks = []
    task = kernel.every(10.0, lambda: ticks.append(kernel.now))
    kernel.run(until=35.0)
    assert ticks == [10.0, 20.0, 30.0]
    task.stop()
    kernel.run_for(50.0)
    assert len(ticks) == 3
    assert task.stopped


def test_periodic_task_stopping_itself_mid_fire(kernel):
    ticks = []
    holder = {}

    def tick():
        ticks.append(kernel.now)
        if len(ticks) == 2:
            holder["task"].stop()

    holder["task"] = kernel.every(5.0, tick)
    kernel.run_for(100.0)
    assert len(ticks) == 2


def test_periodic_rejects_nonpositive_interval(kernel):
    # NaN compares False against every bound, so it must fail up front
    # rather than later inside call_later with a message about `delay`.
    for interval in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="interval"):
            kernel.every(interval, lambda: None)
    for jitter in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="jitter"):
            kernel.every(5.0, lambda: None, jitter=jitter)
    # A skipped firing must land where call_later would put it, so an
    # idle predicate needs a fixed interval and a counter to move.
    with pytest.raises(ValueError, match="jitter-free"):
        kernel.every(5.0, lambda: None, jitter=1.0, idle=lambda: True,
                     skipped=lambda n: None)
    with pytest.raises(ValueError, match="together"):
        kernel.every(5.0, lambda: None, idle=lambda: True)
    assert kernel.pending_events == 0


def test_runaway_simulation_raises(kernel):
    def reschedule():
        kernel.call_later(0.1, reschedule)

    kernel.call_later(0.1, reschedule)
    with pytest.raises(SimulationError):
        kernel.run(max_events=100)


def test_call_at_datetime_uses_epoch(kernel):
    from datetime import datetime, timezone

    seen = []
    kernel.call_at_datetime(datetime(2010, 1, 1, 0, 1, tzinfo=timezone.utc),
                            lambda: seen.append(kernel.now))
    kernel.run()
    assert seen == [60.0]


def test_dispatched_and_pending_counters(kernel):
    kernel.call_later(1.0, lambda: None)
    kernel.call_later(2.0, lambda: None)
    assert kernel.pending_events == 2
    kernel.run(until=1.5)
    assert kernel.dispatched_events == 1
    assert kernel.pending_events == 1


def test_determinism_same_seed_same_trace():
    def build(seed):
        k = Kernel(seed=seed)
        for i in range(20):
            delay = k.rng.uniform(0, 100)
            k.call_later(delay, lambda i=i: k.trace.record("actor", "act-%d" % i))
        k.run()
        return [(r.time, r.action) for r in k.trace]

    assert build(99) == build(99)
    assert build(99) != build(100)


def test_call_at_and_call_later_reject_nan(kernel):
    """Regression: NaN compares False against every bound, so a
    NaN-scheduled event used to slip past both the in-past guard and
    ``run(until=...)``'s stop condition, corrupting heap order."""
    nan = float("nan")
    with pytest.raises(ValueError):
        kernel.call_at(nan, lambda: None)
    with pytest.raises(ValueError):
        kernel.call_later(nan, lambda: None)
    # The queue stayed clean: a bounded run still honours `until`.
    seen = []
    kernel.call_later(1.0, lambda: seen.append("ok"))
    kernel.run(until=5.0)
    assert seen == ["ok"]
    assert kernel.pending_events == 0


def test_budget_abort_leaves_the_next_event_queued(kernel):
    """The event that would exceed ``max_events`` stays dispatchable."""
    seen = []
    for index in range(5):
        kernel.call_later(float(index + 1), lambda i=index: seen.append(i))
    with pytest.raises(SimulationError):
        kernel.run(max_events=3)
    assert seen == [0, 1, 2]
    assert kernel.pending_events == 2
    kernel.run()
    assert seen == [0, 1, 2, 3, 4]
    assert kernel.dispatched_events == 5


def test_budget_equal_to_queue_size_drains_without_error(kernel):
    for index in range(4):
        kernel.call_later(1.0 + index, lambda: None)
    assert kernel.run(max_events=4) == 4


def test_event_queue_compacts_cancelled_backlog(kernel):
    """Mass cancellation (a campaign suicide) rebuilds the heap from
    the live events instead of letting cancelled entries linger."""
    events = [kernel.call_later(1000.0 + i, lambda: None, "doomed")
              for i in range(2000)]
    survivors = [kernel.call_later(10.0 + i, lambda: None, "live")
                 for i in range(10)]
    for event in events:
        event.cancel()
    queue = kernel._queue
    assert len(queue) == len(survivors)
    # The compaction keeps the heap within 2x of the live population.
    assert len(queue._heap) <= 2 * len(queue) + queue.COMPACT_MIN_GARBAGE
    assert kernel.run() == len(survivors)


def test_cancelling_a_dispatched_event_keeps_counts_consistent(kernel):
    event = kernel.call_later(1.0, lambda: None)
    kernel.call_later(2.0, lambda: None)
    kernel.run(until=1.5)
    event.cancel()  # already dispatched; must not double-decrement
    assert kernel.pending_events == 1
    assert kernel.run() == 1


def test_batched_dispatch_metric_matches_counter(kernel):
    for index in range(7):
        kernel.call_later(float(index + 1), lambda: None)
    kernel.run(until=3.5)
    assert kernel.metrics.value("sim.events_dispatched") == 3
    assert kernel.dispatched_events == 3
    kernel.run()
    assert kernel.metrics.value("sim.events_dispatched") == 7
    assert kernel.dispatched_events == 7
