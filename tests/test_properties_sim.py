"""Property-based tests: event kernel ordering invariants."""

from hypothesis import given, settings, strategies as st

from repro.sim import EventQueue, Kernel
from repro.sim.errors import SimulationError


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       max_size=40))
def test_dispatch_order_is_nondecreasing(delays):
    kernel = Kernel(seed=0)
    seen = []
    for delay in delays:
        kernel.call_later(delay, lambda d=delay: seen.append(kernel.now))
    kernel.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
    if delays:
        assert kernel.now == max(delays)


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=30),
       cutoff=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_run_until_dispatches_exactly_the_due_events(delays, cutoff):
    kernel = Kernel(seed=0)
    fired = []
    for index, delay in enumerate(delays):
        kernel.call_later(delay, lambda i=index: fired.append(i))
    kernel.run(until=cutoff)
    expected = {i for i, d in enumerate(delays) if d <= cutoff}
    assert set(fired) == expected
    assert kernel.now == cutoff


@settings(max_examples=30, deadline=None)
@given(interval=st.floats(min_value=0.5, max_value=1000.0,
                          allow_nan=False),
       horizon=st.floats(min_value=0.0, max_value=10_000.0,
                         allow_nan=False))
def test_periodic_fire_count_matches_floor(interval, horizon):
    kernel = Kernel(seed=0)
    ticks = []
    kernel.every(interval, lambda: ticks.append(kernel.now))
    kernel.run(until=horizon)
    # The kernel reschedules by repeated float addition, so the oracle
    # must accumulate the same way: `int(horizon / interval)` can be
    # off by one when the running sum drifts across the horizon (e.g.
    # interval=0.8, horizon≈784 fires 980 ticks where division says
    # 979).  The drift itself stays within one tick of the closed form.
    expected = 0
    when = interval
    while when <= horizon:
        expected += 1
        when += interval
    assert len(ticks) == expected
    assert abs(expected - int(horizon / interval)) <= 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       count=st.integers(min_value=0, max_value=30))
def test_trace_is_deterministic_per_seed(seed, count):
    def build():
        kernel = Kernel(seed=seed)
        for i in range(count):
            kernel.call_later(kernel.rng.uniform(0, 100),
                              lambda i=i: kernel.trace.record("a", "e%d" % i))
        kernel.run()
        return [(r.time, r.action) for r in kernel.trace]

    assert build() == build()


#: Few distinct times, so many pushes collide and only the sequence
#: number orders them.
_QUEUE_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.5, 4.0, 4.0, 9.0])

_QUEUE_OPS = st.lists(st.one_of(
    st.tuples(st.just("push"), _QUEUE_TIMES),
    # Bursts big enough that mass cancels cross the compaction floor.
    st.tuples(st.just("burst"), _QUEUE_TIMES, st.integers(1, 120)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("cancel_every"), st.integers(1, 4)),
    st.tuples(st.just("pop"), st.sampled_from([None, 0.0, 1.0, 3.0, 9.0])),
    st.tuples(st.just("restore")),
), max_size=60)


@settings(max_examples=150, deadline=None)
@given(ops=_QUEUE_OPS)
def test_event_queue_matches_sorted_reference(ops):
    """Random push/cancel/pop_due/restore sequences
    dispatch exactly as a list sorted by ``(time, sequence)`` would,
    and ``len()`` tracks the live count through compaction."""
    queue = EventQueue()
    handles = []    # every Event pushed
    live = {}       # reference: label -> (time, sequence)
    sequence = 0

    def due(until):
        keys = [key for key in live.values()
                if until is None or key[0] <= until]
        return min(keys) if keys else None

    def pop(until):
        expected = due(until)
        event = queue.pop_due(until)
        if expected is None:
            assert event is None
            return None
        assert (event.time, event.sequence) == expected
        assert live.pop(event.label) == expected
        return event

    for op in ops:
        kind = op[0]
        if kind in ("push", "burst"):
            for _ in range(op[2] if kind == "burst" else 1):
                label = "e%d" % sequence
                event = queue.push(op[1], lambda: None, label)
                assert event.sequence == sequence
                live[label] = (op[1], sequence)
                handles.append(event)
                sequence += 1
        elif kind == "cancel" and handles:
            # Any handle: live, cancelled twice, or already dispatched.
            event = handles[op[1] % len(handles)]
            event.cancel()
            live.pop(event.label, None)
        elif kind == "cancel_every":
            for event in handles[::op[1]]:
                event.cancel()
                live.pop(event.label, None)
        elif kind == "pop":
            pop(op[1])
        elif kind == "restore":
            # A budget abort: popped, not dispatched, put back.
            event = pop(None)
            if event is not None:
                queue.restore(event)
                live[event.label] = (event.time, event.sequence)
        assert len(queue) == len(live)

    while live:
        pop(None)
    assert queue.pop_due(None) is None
    assert len(queue) == 0


#: Intervals for the idle-skip property: repeats make equal-phase ties
#: common, and 0.1 / 7.3 accumulate float error when added repeatedly.
_SKIP_INTERVALS = st.sampled_from([0.1, 0.25, 1.0, 7.3, 30.0, 60.0])
_SKIP_TIMES = st.sampled_from([0.0, 0.3, 1.0, 5.0, 12.5, 60.0])

_SKIP_CASE = st.fixed_dictionaries({
    # (interval, start time, firings that do work before going idle)
    "tasks": st.lists(st.tuples(_SKIP_INTERVALS, _SKIP_TIMES,
                                st.integers(0, 3)),
                      min_size=1, max_size=4),
    # (time, kind, task index): ordinary events that toggle a task's
    # idleness, record a plain event, or stop a task.
    "events": st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
        st.sampled_from(["toggle", "toggle", "plain", "stop"]),
        st.integers(0, 3)), max_size=12),
    "cuts": st.lists(st.floats(min_value=0.0, max_value=400.0,
                               allow_nan=False), min_size=1, max_size=4),
    "max_events": st.one_of(st.integers(1, 40), st.integers(40, 20_000)),
})


def _run_skip_case(case, predicates):
    """Run one case; return everything a skip window must not change."""
    kernel = Kernel(seed=0)
    tasks = case["tasks"]
    work = [firings for _, _, firings in tasks]
    idle = [firings == 0 for firings in work]
    counters = [0] * len(tasks)
    handles = [None] * len(tasks)
    log = []

    def fire(i):
        counters[i] += 1
        if not idle[i]:
            log.append(("fire", i, kernel.now, counters[i]))
            work[i] -= 1
            idle[i] = work[i] <= 0

    def skipped(i, count):
        counters[i] += count

    def start(i, interval):
        options = {}
        if predicates:
            options = {"idle": lambda: idle[i],
                       "skipped": lambda count: skipped(i, count)}
        handles[i] = kernel.every(interval, lambda: fire(i),
                                  "task:%d" % i, **options)

    def ordinary(kind, i):
        log.append((kind, i, kernel.now))
        if kind == "toggle":
            idle[i] = not idle[i]
        elif kind == "stop" and handles[i] is not None:
            handles[i].stop()

    for i, (interval, begin, _) in enumerate(tasks):
        kernel.call_at(begin, lambda i=i, dt=interval: start(i, dt),
                       "start:%d" % i)
    for when, kind, i in case["events"]:
        kernel.call_at(when, lambda k=kind, i=i % len(tasks): ordinary(k, i),
                       kind)
    error = None
    observed = []
    for cut in sorted(case["cuts"]):
        try:
            kernel.run(until=cut, max_events=case["max_events"])
        except SimulationError as exc:
            error = str(exc)
            break
        finally:
            observed.append((kernel.now, kernel.dispatched_events,
                             kernel.metrics.value("sim.events_dispatched"),
                             list(counters),
                             [(time, sequence, event.label, event.cancelled)
                              for time, sequence, event
                              in sorted(kernel._queue._heap)]))
    return {"log": log, "observed": observed, "error": error}


@settings(max_examples=200, deadline=None)
@given(case=_SKIP_CASE)
def test_idle_skip_matches_dispatching_every_firing(case):
    """Skipping idle periodic firings is invisible: callbacks that do
    work run in the same order at the same times, and counters, the
    clock at every cut, the heap (times, sequences, cancelled entries),
    and any runaway error are those of a run that dispatches every
    firing.  Cuts and event budgets land inside skip windows as well as
    at their edges."""
    assert _run_skip_case(case, True) == _run_skip_case(case, False)
