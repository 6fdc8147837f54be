"""Property-based tests: event kernel ordering invariants."""

from hypothesis import given, settings, strategies as st

from repro.sim import EventQueue, Kernel


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
    st.tuples(st.just("reload")),
), max_size=60)


@settings(max_examples=150, deadline=None)
@given(ops=_QUEUE_OPS)
def test_event_queue_matches_sorted_reference(ops):
    """Random push/cancel/pop_due/restore/snapshot-reload sequences
    dispatch exactly as a list sorted by ``(time, sequence)`` would,
    and ``len()`` tracks the live count through compaction."""
    queue = EventQueue()
    handles = []    # every Event pushed (or rebuilt by a reload)
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
        elif kind == "reload":
            state = queue.snapshot_entries()
            queue = EventQueue()
            queue.load_entries(state, lambda label: (lambda: None))
            assert queue.snapshot_entries() == state
            # Dispatched handles stay detached; queued ones are rebuilt.
            rebuilt = {event.label: event for _, _, event in queue._heap}
            handles = [rebuilt.get(event.label, event) for event in handles]
        assert len(queue) == len(live)

    while live:
        pop(None)
    assert queue.pop_due(None) is None
    assert len(queue) == 0
