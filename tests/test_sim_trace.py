"""Trace log recording and querying."""

from hypothesis import given, settings, strategies as st

from repro.sim import Kernel
from repro.sim.trace import TraceLog


def _populated_kernel():
    kernel = Kernel(seed=0)
    kernel.trace.record("alice", "login", "server-1")
    kernel.clock.advance_to(10.0)
    kernel.trace.record("bob", "login", "server-1")
    kernel.clock.advance_to(20.0)
    kernel.trace.record("alice", "flame.upload", "server-2", size=100)
    kernel.trace.record("alice", "flame.suicide")
    return kernel


def test_records_carry_time_and_detail():
    kernel = _populated_kernel()
    record = kernel.trace.query(action="flame.upload")[0]
    assert record.time == 20.0
    assert record.detail == {"size": 100}
    assert record.target == "server-2"


def test_query_by_actor_and_action():
    trace = _populated_kernel().trace
    assert len(trace.query(actor="alice")) == 3
    assert len(trace.query(action="login")) == 2
    assert len(trace.query(actor="alice", action="login")) == 1


def test_prefix_query_with_star():
    trace = _populated_kernel().trace
    assert len(trace.query(action="flame.*")) == 2
    assert trace.count(action="flame.*") == 2


def test_query_time_window():
    trace = _populated_kernel().trace
    assert len(trace.query(since=5.0, until=15.0)) == 1
    assert len(trace.query(since=20.0)) == 2


def test_first_and_last():
    trace = _populated_kernel().trace
    assert trace.first(actor="alice").action == "login"
    assert trace.last(actor="alice").action == "flame.suicide"
    assert trace.first(actor="nobody") is None


def test_target_filter_with_none_target():
    trace = _populated_kernel().trace
    # flame.suicide has no target; a target filter must not match it.
    assert trace.query(target="server-1", action="flame.suicide") == []


def test_target_filter_honours_trailing_star_prefix():
    """Regression: ``target`` filters use the same trailing-``*``
    prefix syntax as ``actor``/``action`` — the figure exporters rely
    on filtering by hostname family (``target="server-*"``)."""
    trace = _populated_kernel().trace
    assert len(trace.query(target="server-*")) == 3
    assert len(trace.query(target="server-1*")) == 2
    assert len(trace.query(actor="alice", target="server-*")) == 2
    assert trace.count(target="nomatch-*") == 0
    # A record with no target never matches, even the match-all prefix.
    assert len(trace.query(target="*")) == 3
    assert trace.first(target="server-2*").detail == {"size": 100}


def test_actions_and_timeline():
    trace = _populated_kernel().trace
    assert "flame.upload" in trace.actions()
    timeline = trace.timeline(actor="bob")
    assert timeline == [(10.0, "bob", "login", "server-1")]


def test_dump_and_len():
    trace = _populated_kernel().trace
    assert len(trace) == 4
    text = trace.dump(limit=2)
    assert "alice" in text and text.count("\n") == 1


# -- Hypothesis: filters compose ---------------------------------------------

class _Clock:
    """Settable stand-in for SimClock; lets tests stamp arbitrary times."""

    def __init__(self):
        self.now = 0.0


#: A few fixed instants, so generated logs hold records with equal
#: times and the window bounds land exactly on record times.
_instants = st.sampled_from([0.0, 25.0, 50.0, 75.0, 100.0])
_names = st.sampled_from(
    ["a", "b", "ab", "abc", "flame.upload", "flame.suicide", "stuxnet-cnc",
     "stuxnet-plc", "host-1", "host-2", ""])
_targets = st.one_of(st.none(), _names)
_patterns = st.one_of(
    st.none(),
    _names,
    _names.map(lambda n: n + "*"),
    st.sampled_from(["*", "fl*", "flame.*", "stuxnet*", "host-*", "zz*"]))
_bounds = st.one_of(st.none(), _instants,
                    st.floats(min_value=-10.0, max_value=110.0,
                              allow_nan=False))


@st.composite
def _trace_logs(draw):
    clock = _Clock()
    trace = TraceLog(clock)
    entries = draw(st.lists(
        st.tuples(st.one_of(_instants,
                            st.floats(min_value=0.0, max_value=100.0,
                                      allow_nan=False)),
                  _names, _names, _targets),
        max_size=60))
    if draw(st.booleans()):
        entries.sort(key=lambda entry: entry[0])
    for when, actor, action, target in entries:
        clock.now = when
        trace.record(actor, action, target=target)
    return trace


def _intersection(trace, *selections):
    """Records of ``trace`` present in every selection, in append order."""
    members = [{id(record) for record in selection}
               for selection in selections]
    return [record for record in trace
            if all(id(record) in member for member in members)]


@given(trace=_trace_logs(), actor=_patterns, action=_patterns,
       target=_patterns, since=_bounds, until=_bounds)
@settings(max_examples=200, deadline=None)
def test_filters_compose_and_windows_cut_inclusively(trace, actor, action,
                                                     target, since, until):
    """A combined-filter query is the order-preserving intersection of
    its single-filter queries; adding ``since``/``until`` cuts that
    result at those times, inclusive at both ends."""
    unwindowed = trace.query(actor=actor, action=action, target=target)
    assert unwindowed == _intersection(
        trace, trace.query(actor=actor), trace.query(action=action),
        trace.query(target=target))
    windowed = trace.query(actor=actor, action=action, target=target,
                           since=since, until=until)
    assert windowed == [
        record for record in unwindowed
        if (since is None or record.time >= since)
        and (until is None or record.time <= until)]
    assert trace.count(actor=actor, action=action, target=target,
                       since=since, until=until) == len(windowed)
    assert trace.first(actor=actor, action=action, target=target,
                       since=since, until=until) is (
        windowed[0] if windowed else None)
    assert trace.last(actor=actor, action=action, target=target,
                      since=since, until=until) is (
        windowed[-1] if windowed else None)
