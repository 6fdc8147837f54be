"""The observability layer: spans, metrics, and exporters."""

import io
import json
import math

import pytest

from repro.obs.export import (
    FIGURES,
    export_digest,
    export_figures,
    figure_edges,
    jsonable,
    prometheus_text,
    trace_lines,
    write_jsonl,
)
from repro.obs.metrics import (
    BYTE_BUCKETS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.spans import STATUS_ERROR, STATUS_OK, STATUS_OPEN, SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0


# -- spans ---------------------------------------------------------------------


def test_context_manager_spans_nest_and_close():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span("campaign", seed=7) as outer:
        clock.now = 10.0
        with recorder.span("stage") as inner:
            clock.now = 25.0
        assert recorder.current is outer
    assert recorder.current is None
    assert outer.span_id == 1 and inner.span_id == 2
    assert inner.parent_id == outer.span_id
    assert inner.start == 10.0 and inner.end == 25.0
    assert inner.duration == 15.0
    assert outer.status == STATUS_OK
    assert outer.attrs == {"seed": 7}


def test_span_error_status_on_exception():
    recorder = SpanRecorder(FakeClock())
    with pytest.raises(RuntimeError):
        with recorder.span("doomed"):
            raise RuntimeError("boom")
    (span,) = recorder.spans("doomed")
    assert span.status == STATUS_ERROR
    assert span.finished


def test_begin_finish_spans_parent_onto_the_open_stack():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span("campaign"):
        async_span = recorder.begin("report", host="A")
    # The simulation moves on; the report resolves much later.
    clock.now = 500.0
    assert async_span.status == STATUS_OPEN
    assert async_span.duration is None
    recorder.finish(async_span)
    assert async_span.parent_id == 1
    assert async_span.end == 500.0
    # finish() is idempotent: a second close cannot rewrite the end.
    clock.now = 900.0
    recorder.finish(async_span, status=STATUS_ERROR)
    assert async_span.end == 500.0 and async_span.status == STATUS_OK


def test_span_queries_names_prefix_and_tree():
    recorder = SpanRecorder(FakeClock())
    with recorder.span("flame.campaign"):
        with recorder.span("flame.collect"):
            pass
        with recorder.span("flame.collect"):
            pass
    assert recorder.names() == {"flame.campaign", "flame.collect"}
    assert len(recorder.spans("flame.*")) == 3
    assert len(recorder.spans("flame.collect")) == 2
    assert recorder.by_id(1).name == "flame.campaign"
    assert recorder.by_id(99) is None
    tree = recorder.tree()
    assert [s.name for s in tree[None]] == ["flame.campaign"]
    assert [s.name for s in tree["flame.campaign"]] == ["flame.collect"] * 2


def test_kernel_owns_a_span_recorder(kernel):
    with kernel.span("stage", label="x") as span:
        kernel.run_for(30.0)
    assert span.duration == 30.0
    assert kernel.spans.names() == {"stage"}


# -- metrics -------------------------------------------------------------------


def test_counter_is_monotone():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 5


def test_counter_rejects_nan_increment():
    counter = Counter("c")
    counter.inc(2)
    with pytest.raises(ValueError):
        counter.inc(float("nan"))
    assert counter.value == 2


def test_counter_rejects_infinite_increment():
    counter = Counter("events.seen")
    counter.inc(2)
    with pytest.raises(ValueError, match="events.seen"):
        counter.inc(float("inf"))
    assert counter.value == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_gauge_rejects_non_finite_values(value):
    gauge = Gauge("pending.entries")
    gauge.set(4)
    for move in (gauge.set, gauge.inc, gauge.dec):
        with pytest.raises(ValueError, match="pending.entries"):
            move(value)
    assert gauge.value == 4


def test_histogram_rejects_non_finite_observation():
    hist = Histogram("entry.bytes", bounds=(1.0, 10.0))
    hist.observe(3.0)
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="entry.bytes"):
            hist.observe(value)
    assert hist.bucket_counts() == [0, 1, 0]
    assert (hist.count, hist.sum) == (1, 3.0)


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(10)
    gauge.dec(3)
    gauge.inc()
    assert gauge.value == 8


def test_histogram_bucket_assignment_is_le_semantics():
    hist = Histogram("h", bounds=(1.0, 10.0))
    for value in (0.5, 1.0, 5.0, 10.0, 11.0):
        hist.observe(value)
    # le-1 catches 0.5 and 1.0; le-10 catches 5 and 10; 11 overflows.
    assert hist.bucket_counts() == [2, 2, 1]
    assert hist.count == 5
    assert hist.sum == pytest.approx(27.5)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=())
    with pytest.raises(ValueError):
        Histogram("h", bounds=(5.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", bounds=(1.0, 1.0))


def test_registry_get_or_create_and_kind_conflicts():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    registry.inc("a", 2)
    assert registry.value("a") == 2
    assert registry.value("missing", default=-1) == -1
    with pytest.raises(TypeError):
        registry.gauge("a")
    registry.observe("h", 3.0)
    with pytest.raises(ValueError):
        registry.histogram("h", buckets=BYTE_BUCKETS)
    with pytest.raises(TypeError):
        registry.value("h")
    assert "a" in registry and "missing" not in registry
    assert registry.names() == ["a", "h"]


def test_snapshot_is_sorted_and_primitive():
    registry = MetricsRegistry()
    registry.inc("z.count")
    registry.set_gauge("a.level", 3)
    registry.observe("m.size", 42.0)
    snapshot = registry.snapshot()
    assert list(snapshot) == sorted(snapshot)
    assert snapshot["z.count"] == {"type": "counter", "value": 1}
    assert snapshot["a.level"] == {"type": "gauge", "value": 3}
    assert snapshot["m.size"]["type"] == "histogram"
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_merge_snapshots_adds_counters_and_histograms():
    left = MetricsRegistry()
    right = MetricsRegistry()
    left.inc("c", 2)
    right.inc("c", 3)
    right.inc("only_right")
    left.set_gauge("g", 5)
    right.set_gauge("g", 2)
    for value in (1.0, 100.0):
        left.observe("h", value)
    right.observe("h", 100.0)
    merged = merge_snapshots(left.snapshot(), right.snapshot())
    assert merged["c"]["value"] == 5
    assert merged["only_right"]["value"] == 1
    assert merged["g"]["value"] == 5
    assert merged["h"]["count"] == 3
    assert merged["h"]["sum"] == pytest.approx(201.0)
    assert merged["h"]["counts"] == [
        a + b for a, b in zip(left.snapshot()["h"]["counts"],
                              right.snapshot()["h"]["counts"])]


def test_merge_rejects_mismatched_kinds_and_bounds():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.inc("x")
    b.set_gauge("x", 1)
    with pytest.raises(ValueError):
        merge_snapshots(a.snapshot(), b.snapshot())
    c = MetricsRegistry()
    d = MetricsRegistry()
    c.observe("h", 1.0, buckets=(1.0, 2.0))
    d.observe("h", 1.0, buckets=(1.0, 3.0))
    with pytest.raises(ValueError):
        merge_snapshots(c.snapshot(), d.snapshot())


def test_kernel_counts_dispatched_events(kernel):
    fired = []
    kernel.call_later(1.0, lambda: fired.append(1), "tick")
    kernel.call_later(2.0, lambda: fired.append(2), "tock")
    kernel.run_for(5.0)
    assert len(fired) == 2
    assert kernel.metrics.value("sim.events_dispatched") == 2


# -- exporters -----------------------------------------------------------------


def test_jsonable_normalises_awkward_values():
    class Opaque:
        pass

    assert jsonable({"b": b"xyz", 2: Opaque(), "f": math.inf,
                     "n": float("nan"), "t": (1, True, None)}) == {
        "2": "<Opaque>", "b": "<3 bytes>", "f": "inf", "n": "nan",
        "t": [1, True, None]}
    assert jsonable({2.5, 1.0}) == [1.0, 2.5]


def _run_toy_simulation(seed=1):
    from repro.sim import Kernel

    kernel = Kernel(seed=seed)
    with kernel.span("toy.stage", depth=1):
        kernel.trace.record("toy", "did-thing", "host-1", size=b"abc")
        kernel.run_for(10.0)
    kernel.metrics.inc("toy.count", 3)
    kernel.metrics.observe("toy.sizes", 2.0)
    return kernel


def test_write_jsonl_shape_and_meta_header():
    kernel = _run_toy_simulation()
    stream = io.StringIO()
    count = write_jsonl(kernel, stream, meta={"campaign": "toy", "seed": 1})
    lines = [json.loads(line) for line in
             stream.getvalue().strip().split("\n")]
    assert count == len(lines)
    meta, rest = lines[0], lines[1:]
    assert meta["kind"] == "meta" and meta["campaign"] == "toy"
    assert meta["spans"] == 1 and meta["records"] == 1
    kinds = [line["kind"] for line in rest]
    # Three metrics: the kernel's own event counter plus the two toys.
    assert kinds == ["span", "record", "metric", "metric", "metric"]
    assert rest[0]["name"] == "toy.stage"
    assert rest[1]["detail"] == {"size": "<3 bytes>"}
    assert [line["name"] for line in rest[2:]] == [
        "sim.events_dispatched", "toy.count", "toy.sizes"]


def test_export_digest_matches_written_lines_and_is_stable():
    first = _run_toy_simulation()
    second = _run_toy_simulation()
    assert export_digest(first) == export_digest(second)
    second.metrics.inc("toy.count")
    assert export_digest(first) != export_digest(second)
    # The digest is exactly the hash of the serialised lines.
    import hashlib

    stream = io.StringIO()
    write_jsonl(first, stream)
    by_hand = hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()
    assert export_digest(first) == by_hand


def test_prometheus_text_renders_all_kinds():
    registry = MetricsRegistry()
    registry.inc("net.http-requests", 7)
    registry.set_gauge("9lives", 2)
    registry.observe("h", 1.0, buckets=(1.0, 2.0))
    registry.observe("h", 99.0, buckets=(1.0, 2.0))
    text = prometheus_text(registry.snapshot())
    assert "# TYPE net_http_requests counter" in text
    assert "net_http_requests 7" in text
    assert "# TYPE _9lives gauge" in text
    assert '_bucket{le="1"} 1' in text
    assert '_bucket{le="+Inf"} 2' in text
    assert "h_sum 100" in text
    assert "h_count 2" in text
    assert prometheus_text({}) == ""


def test_figure_edges_counts_and_dedupes():
    kernel = _run_toy_simulation()
    kernel.trace.record("stuxnet", "infection", "HOST-A", via="usb")
    kernel.trace.record("stuxnet", "stuxnet-rpc-update", "HOST-B")
    kernel.trace.record("stuxnet", "stuxnet-rpc-update", "HOST-B")
    with kernel.span("stuxnet.campaign"):
        with kernel.span("stuxnet.usb_entry"):
            pass
    edges = figure_edges(kernel, "fig1-stuxnet-operation")
    by_key = {(e["src"], e["dst"], e["label"]): e["count"] for e in edges}
    # Record matches both the actor filter and the action filter: once.
    assert by_key[("stuxnet", "HOST-B", "stuxnet-rpc-update")] == 2
    assert by_key[("stuxnet", "HOST-A", "infection")] == 1
    assert by_key[("root", "stuxnet.campaign", "stage")] == 1
    assert by_key[("stuxnet.campaign", "stuxnet.usb_entry", "stage")] == 1
    assert [tuple(sorted(e)) for e in edges] == sorted(
        tuple(sorted(e)) for e in edges)
    with pytest.raises(KeyError):
        figure_edges(kernel, "fig7-unknown")


def test_export_figures_covers_every_figure(kernel):
    assert set(export_figures(kernel)) == set(FIGURES)


def test_instrumentation_does_not_disturb_seeded_rng(kernel):
    """Spans and metrics must not consume randomness or queue events."""
    from repro.sim import Kernel

    expected = [kernel.rng.fork("probe").uniform(0, 1) for _ in range(3)]
    fresh = Kernel(seed=1)
    with fresh.span("noise"):
        fresh.metrics.inc("noise.count")
        fresh.metrics.observe("noise.h", 1.0)
    observed = [fresh.rng.fork("probe").uniform(0, 1) for _ in range(3)]
    assert observed == expected
    assert fresh.pending_events == 0
