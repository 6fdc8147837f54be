"""Golden determinism for the Monte-Carlo sweep engine.

Two pillars: (1) a campaign replica is a pure function of its seed —
the same seed yields an identical trace digest and identical
measurements run after run; (2) the parallel sweep path is bit-identical
to the serial fallback, replica for replica, regardless of worker count
or chunking.
"""

import pytest

from repro.core.ensemble import (
    CampaignSpec,
    replica_seed,
    run_replica,
    trace_digest,
)
from repro.sim.sweep import SweepConfig, run_sweep, shard_chunks

CAMPAIGN_NAMES = ("stuxnet", "flame", "shamoon")


@pytest.mark.parametrize("name", CAMPAIGN_NAMES)
def test_same_seed_yields_identical_trace_digest(name):
    spec = CampaignSpec.quick(name)
    first = run_replica(spec, 0, base_seed=123)
    second = run_replica(spec, 0, base_seed=123)
    assert first.trace_digest == second.trace_digest
    assert first.measurements == second.measurements
    assert first.trace_records == second.trace_records
    assert first.events_dispatched == second.events_dispatched
    assert first.sim_seconds == second.sim_seconds


@pytest.mark.parametrize("name", ("flame", "shamoon"))
def test_different_seeds_perturb_measurements(name):
    """Replica seeds must actually reach the campaign's RNG streams."""
    spec = CampaignSpec.quick(name)
    results = [run_replica(spec, index, base_seed=7) for index in range(3)]
    distinct = {tuple(sorted((k, str(v)) for k, v in r.measurements.items()))
                for r in results}
    assert len(distinct) > 1


def test_replica_seed_is_a_pure_function_of_base_and_index():
    assert replica_seed(7, 3) == replica_seed(7, 3)
    assert replica_seed(7, 3) != replica_seed(7, 4)
    assert replica_seed(7, 3) != replica_seed(8, 3)
    # Index formatting must not collide across magnitudes.
    assert replica_seed(0, 1) != replica_seed(0, 10)


@pytest.mark.parametrize("name", CAMPAIGN_NAMES)
def test_serial_and_parallel_sweeps_are_bit_identical(name):
    spec = CampaignSpec.quick(name)
    serial = run_sweep(spec, SweepConfig(
        replicas=3, workers=1, mode="serial", base_seed=42))
    parallel = run_sweep(spec, SweepConfig(
        replicas=3, workers=2, mode="parallel", base_seed=42,
        chunk_size=1))
    assert parallel.dispatch["path"] == "warm-pool"
    assert serial.measurements() == parallel.measurements()
    assert serial.digests() == parallel.digests()
    assert [r.seed for r in serial.replicas] == \
        [r.seed for r in parallel.replicas]
    assert [r.index for r in parallel.replicas] == [0, 1, 2]


def test_serial_and_parallel_metric_snapshots_are_identical():
    """Metric snapshots ride home with each replica; both dispatch
    paths must produce the same snapshot per replica, and therefore
    the same ensemble merge."""
    spec = CampaignSpec.quick("shamoon")
    serial = run_sweep(spec, SweepConfig(
        replicas=3, workers=1, mode="serial", base_seed=11))
    parallel = run_sweep(spec, SweepConfig(
        replicas=3, workers=2, mode="parallel", base_seed=11,
        chunk_size=1))
    assert parallel.dispatch["path"] == "warm-pool"
    assert serial.metrics() == parallel.metrics()
    assert serial.merged_metrics() == parallel.merged_metrics()
    assert serial.aggregate_metrics() == parallel.aggregate_metrics()
    # The snapshots are real: the wiper's headline counter is in them.
    merged = serial.merged_metrics()
    assert merged["shamoon.hosts_wiped"]["value"] == sum(
        r.metrics["shamoon.hosts_wiped"]["value"] for r in serial.replicas)


def test_replica_metrics_survive_as_dict_round_trip():
    spec = CampaignSpec.quick("stuxnet")
    replica = run_replica(spec, 0, base_seed=3)
    rendered = replica.as_dict()
    assert rendered["metrics"] == replica.metrics
    assert rendered["metrics"]["sim.events_dispatched"]["value"] == \
        replica.events_dispatched


def test_chunk_size_does_not_affect_results():
    spec = CampaignSpec.quick("stuxnet")
    by_one = run_sweep(spec, SweepConfig(
        replicas=4, workers=2, mode="parallel", base_seed=9,
        chunk_size=1))
    by_three = run_sweep(spec, SweepConfig(
        replicas=4, workers=2, mode="parallel", base_seed=9,
        chunk_size=3))
    assert by_one.dispatch["path"] == by_three.dispatch["path"] == "warm-pool"
    assert by_one.measurements() == by_three.measurements()
    assert by_one.digests() == by_three.digests()


def test_fault_profile_is_deterministic_and_visible_in_the_trace():
    spec = CampaignSpec.quick("flame", fault_profile="takedown-sweep")
    first = run_replica(spec, 0, base_seed=5)
    second = run_replica(spec, 0, base_seed=5)
    assert first.trace_digest == second.trace_digest
    assert first.measurements == second.measurements
    # The profile must change the trace relative to a clean run.
    clean = run_replica(CampaignSpec.quick("flame"), 0, base_seed=5)
    assert first.trace_digest != clean.trace_digest


def test_fault_profile_schedules_windows_for_campaign_domains():
    spec = CampaignSpec.quick("flame", fault_profile="takedown-sweep")
    campaign = spec.build(replica_seed(5, 0))
    windows = campaign.world.kernel.faults.windows()
    assert len(windows) == len(campaign.cnc_domains()) > 0
    assert {w.target for w in windows} == set(campaign.cnc_domains())


def test_shamoon_fault_epoch_anchors_to_the_campaign_window():
    spec = CampaignSpec.quick("shamoon", fault_profile="dns-blackout")
    campaign = spec.build(replica_seed(1, 0))
    window = campaign.world.kernel.faults.windows()[0]
    assert window.start >= campaign.fault_epoch() > 0


def test_trace_digest_reflects_trace_content(kernel):
    kernel.trace.record("a", "did", "x", value=1)
    before = trace_digest(kernel.trace)
    kernel.trace.record("a", "did", "y", value=2)
    assert trace_digest(kernel.trace) != before


def test_shard_indices_cover_every_replica_exactly_once():
    shards = shard_chunks(range(10), 3)
    assert shards == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
    covered = [i for shard in shard_chunks(range(7), 2) for i in shard]
    assert covered == list(range(7))


def test_spec_rejects_pinned_seed_and_unknown_names():
    with pytest.raises(ValueError):
        CampaignSpec("stuxnet", params={"seed": 1})
    with pytest.raises(ValueError):
        CampaignSpec("conficker")
    with pytest.raises(ValueError):
        CampaignSpec("flame", fault_profile="meteor-strike")


def test_sweep_config_rejects_non_integral_pool_shape():
    """Regression: ``replicas=2.5`` used to pass the ``< 1`` check and
    then raise a bare TypeError from ``range()`` deep inside
    ``run_sweep``; the config now validates integral types up front."""
    with pytest.raises(TypeError):
        SweepConfig(replicas=2.5)
    with pytest.raises(TypeError):
        SweepConfig(replicas="8")
    with pytest.raises(TypeError):
        SweepConfig(replicas=True)
    with pytest.raises(TypeError):
        SweepConfig(workers=1.5)
    with pytest.raises(TypeError):
        SweepConfig(chunk_size=2.0)
    with pytest.raises(ValueError):
        SweepConfig(replicas=0)
    with pytest.raises(ValueError):
        SweepConfig(workers=-1)
    with pytest.raises(ValueError):
        SweepConfig(chunk_size=0)
    config = SweepConfig(replicas=4, workers=2, chunk_size=1)
    assert (config.replicas, config.workers, config.chunk_size) == (4, 2, 1)
