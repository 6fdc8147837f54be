"""Property-based tests: the sweep engine's aggregation and scheduling.

The statistics the ensemble reports (mean/stddev/percentiles/CI) are
what turns the paper's single-trajectory anecdotes into defensible
distributions, so they get invariant-level scrutiny: percentile
monotonicity, mean bounded by the sample extremes, confidence intervals
that shrink as replicas accumulate, and explicit empty/single-replica
behaviour.

The scheduling layer gets the same treatment: chunk assignment must
dispatch every replica index exactly once under arbitrary chunking and
supervisor-style re-splitting, the adaptive fallback decision must be a
pure function of its inputs, the warm-pool row codec must round-trip
arbitrary replica payloads exactly, and ``SweepResult.merge_replicas``
must yield the merged ensemble's aggregates even when the merged rows
came through the codec.
"""

import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ensemble import (
    ReplicaResult,
    aggregate,
    percentile,
    replica_seed,
    summarize,
)
from repro.sim.sweep import (
    PARALLEL_BREAK_EVEN_SECONDS,
    SweepResult,
    adaptive_chunk_size,
    shard_chunks,
    should_fallback,
)
from repro.sim.workerpool import decode_replica_row, encode_replica_row

finite = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)

samples = st.lists(finite, min_size=1, max_size=200)


def tolerance(value):
    """Float-rounding slack for comparisons against ``value``."""
    return 1e-9 * (1.0 + abs(value))


@settings(max_examples=100, deadline=None)
@given(values=samples)
def test_percentiles_are_monotonic(values):
    stats = summarize(values)
    ladder = [stats["min"], stats["p5"], stats["p25"], stats["p50"],
              stats["p75"], stats["p95"], stats["max"]]
    for low, high in zip(ladder, ladder[1:]):
        assert low <= high + tolerance(high)


@settings(max_examples=100, deadline=None)
@given(values=samples)
def test_mean_lies_within_min_and_max(values):
    stats = summarize(values)
    assert stats["min"] - tolerance(stats["min"]) <= stats["mean"]
    assert stats["mean"] <= stats["max"] + tolerance(stats["max"])


@settings(max_examples=100, deadline=None)
@given(values=samples)
def test_stddev_and_ci_are_nonnegative_and_consistent(values):
    stats = summarize(values)
    assert stats["stddev"] >= 0.0
    assert stats["ci95"] >= 0.0
    assert stats["ci_low"] <= stats["mean"] <= stats["ci_high"]
    assert stats["n"] == len(values)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(finite, min_size=2, max_size=100))
def test_ci_shrinks_as_replicas_accumulate(values):
    """Doubling the sample (same empirical distribution) tightens the CI.

    Sample stddev cannot grow when every point is duplicated, and n
    doubles, so the normal-approximation half-width must shrink (or
    stay zero for degenerate samples).
    """
    single = summarize(values)
    doubled = summarize(values + values)
    assert doubled["ci95"] <= single["ci95"] + tolerance(single["ci95"])
    if single["stddev"] > 1e-6:
        assert doubled["ci95"] < single["ci95"]


def test_summarize_rejects_an_empty_ensemble():
    with pytest.raises(ValueError):
        summarize([])


@settings(max_examples=50, deadline=None)
@given(value=finite)
def test_single_replica_collapses_every_statistic(value):
    stats = summarize([value])
    for key in ("mean", "min", "max", "p5", "p25", "p50", "p75", "p95",
                "ci_low", "ci_high"):
        assert stats[key] == pytest.approx(value)
    assert stats["stddev"] == 0.0
    assert stats["ci95"] == 0.0
    assert stats["n"] == 1


@settings(max_examples=50, deadline=None)
@given(values=samples)
def test_percentile_endpoints_are_the_extremes(values):
    ordered = sorted(values)
    assert percentile(ordered, 0) == pytest.approx(ordered[0])
    assert percentile(ordered, 100) == pytest.approx(ordered[-1])
    assert percentile(ordered, 50) == pytest.approx(summarize(values)["p50"])


def test_percentile_input_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -1)


def test_aggregate_of_empty_ensemble_is_empty():
    assert aggregate([]) == {}


def test_aggregate_keeps_numeric_keys_and_drops_strings():
    replicas = [
        {"destroyed": 3, "tripped": True, "first_wipe_at": "2012-08-15"},
        {"destroyed": 5, "tripped": False, "first_wipe_at": "2012-08-15"},
    ]
    stats = aggregate(replicas)
    assert set(stats) == {"destroyed", "tripped"}
    assert stats["destroyed"]["n"] == 2
    assert stats["destroyed"]["mean"] == pytest.approx(4.0)
    # Booleans aggregate as 0/1 fractions.
    assert stats["tripped"]["mean"] == pytest.approx(0.5)


def test_aggregate_handles_keys_missing_from_some_replicas():
    stats = aggregate([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
    assert stats["a"]["n"] == 2
    assert stats["b"]["n"] == 1


@settings(max_examples=50, deadline=None)
@given(values=st.lists(finite, min_size=2, max_size=50))
def test_stddev_matches_the_textbook_formula(values):
    stats = summarize(values)
    mean = sum(values) / len(values)
    expected = math.sqrt(sum((v - mean) ** 2 for v in values)
                         / (len(values) - 1))
    assert stats["stddev"] == pytest.approx(expected, rel=1e-6, abs=1e-6)


# -- scheduling: chunking, re-splitting, fallback, row codec -------------------

#: Resume pending sets are arbitrary unique index lists — neither
#: zero-based nor contiguous.
index_sets = st.lists(st.integers(min_value=0, max_value=999),
                      unique=True, min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(indices=index_sets, chunk=st.integers(min_value=1, max_value=17))
def test_chunking_dispatches_every_index_exactly_once(indices, chunk):
    chunks = shard_chunks(indices, chunk)
    assert [index for piece in chunks for index in piece] == indices
    assert all(1 <= len(piece) <= chunk for piece in chunks)
    # Chunk assignment is deterministic for a fixed config: same
    # input, same sharding, every time.
    assert chunks == shard_chunks(indices, chunk)


@settings(max_examples=60, deadline=None)
@given(indices=index_sets, chunk=st.integers(min_value=1, max_value=7),
       attempts_allowed=st.integers(min_value=1, max_value=3),
       data=st.data())
def test_resplitting_preserves_exactly_once_completion(indices, chunk,
                                                       attempts_allowed,
                                                       data):
    """Model of the supervisor's crash handling: a worker dying at an
    arbitrary position inside a chunk completes the prefix, charges the
    replica it was on one attempt (retried as a singleton chunk until
    its attempts run out, then quarantined), and re-queues the
    untouched tail as its own chunk.  Whatever crash schedule Hypothesis
    picks, every index must end up completed or quarantined exactly
    once."""
    queue = deque(shard_chunks(indices, chunk))
    attempts = {index: 0 for index in indices}
    completed = []
    quarantined = []
    while queue:
        current = queue.popleft()
        crash_at = data.draw(
            st.integers(min_value=0, max_value=len(current)),
            label="crash position")
        completed.extend(current[:crash_at])
        if crash_at == len(current):
            continue
        poison = current[crash_at]
        attempts[poison] += 1
        tail = current[crash_at + 1:]
        if tail:
            queue.appendleft(tail)
        if attempts[poison] >= attempts_allowed:
            quarantined.append(poison)
        else:
            queue.append([poison])
    assert sorted(completed + quarantined) == sorted(indices)
    assert len(completed) + len(quarantined) == len(indices)


@settings(max_examples=100, deadline=None)
@given(replicas=st.integers(min_value=1, max_value=1000),
       workers=st.integers(min_value=1, max_value=64),
       probe=st.one_of(st.none(),
                       st.floats(min_value=0.0, max_value=10.0,
                                 allow_nan=False)))
def test_adaptive_chunk_sizing_is_pure_and_covering(replicas, workers,
                                                    probe):
    size = adaptive_chunk_size(replicas, workers, probe)
    assert size == adaptive_chunk_size(replicas, workers, probe)
    # Never coarser than the classic four-chunks-per-worker spread,
    # never below one.
    assert 1 <= size <= max(1, math.ceil(replicas / (workers * 4)))
    chunks = shard_chunks(range(replicas), size)
    assert [index for piece in chunks
            for index in piece] == list(range(replicas))


@settings(max_examples=100, deadline=None)
@given(replicas=st.integers(min_value=0, max_value=10_000),
       probe=st.one_of(st.none(),
                       st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False)),
       threshold=st.floats(min_value=1e-6, max_value=100.0,
                           allow_nan=False))
def test_fallback_decision_is_a_pure_threshold_function(replicas, probe,
                                                        threshold):
    decision = should_fallback(replicas, probe, threshold)
    assert decision == should_fallback(replicas, probe, threshold)
    if probe is None:
        assert decision is False
    else:
        assert decision == (replicas * probe < threshold)
    # The default threshold is the documented break-even constant.
    assert should_fallback(1, PARALLEL_BREAK_EVEN_SECONDS / 2.0) is True
    assert should_fallback(replicas, None) is False


json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=20))

measurement_maps = st.dictionaries(st.text(max_size=20), json_scalar,
                                   max_size=8)

metric_maps = st.dictionaries(
    st.text(max_size=15),
    st.dictionaries(st.text(max_size=10), json_scalar, max_size=4),
    max_size=4)


@settings(max_examples=60, deadline=None)
@given(index=st.integers(min_value=0, max_value=99_999),
       base_seed=st.integers(min_value=0, max_value=1000),
       measurements=measurement_maps, metrics=metric_maps,
       digest=st.text(max_size=64),
       trace_records=st.integers(min_value=0, max_value=2**40),
       events=st.integers(min_value=0, max_value=2**40),
       sim_seconds=st.floats(min_value=0.0, max_value=1e9,
                             allow_nan=False),
       wall_seconds=st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False))
def test_replica_row_codec_round_trips_exactly(index, base_seed,
                                               measurements, metrics,
                                               digest, trace_records,
                                               events, sim_seconds,
                                               wall_seconds):
    replica = ReplicaResult(
        index=index, seed=replica_seed(base_seed, index),
        measurements=measurements, trace_digest=digest,
        trace_records=trace_records, events_dispatched=events,
        sim_seconds=sim_seconds, wall_seconds=wall_seconds,
        metrics=metrics)
    decoded = decode_replica_row(encode_replica_row(replica), base_seed)
    assert decoded.as_dict() == replica.as_dict()


def _codec_replica(index, value, base_seed=5):
    replica = ReplicaResult(
        index=index, seed=replica_seed(base_seed, index),
        measurements={"value": value}, trace_digest="digest-%04d" % index,
        trace_records=1, events_dispatched=1, sim_seconds=1.0,
        wall_seconds=0.0, metrics={})
    # The merge must behave identically for rows that came home through
    # the warm pool's binary codec, hence the round trip here.
    return decode_replica_row(encode_replica_row(replica), base_seed)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(finite, min_size=2, max_size=12), data=st.data())
def test_merge_replicas_cache_invalidation_survives_codec_rows(values,
                                                               data):
    cut = data.draw(st.integers(min_value=1, max_value=len(values) - 1),
                    label="merge split")
    replicas = [_codec_replica(index, value)
                for index, value in enumerate(values)]
    result = SweepResult(spec=None, mode="parallel", workers=2,
                         chunk_size=1, base_seed=5,
                         replicas=replicas[:cut], wall_seconds=0.0)
    assert result.aggregate()["value"]["n"] == cut
    result.merge_replicas(replicas[cut:])
    after = result.aggregate()
    assert after["value"]["n"] == len(values)
    assert after == aggregate([replica.measurements
                               for replica in replicas])
    with pytest.raises(ValueError):
        result.merge_replicas([replicas[0]])
