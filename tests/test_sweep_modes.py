"""Mode-differential harness: every dispatch path, one payload.

The determinism pillar of the sweep engine, asserted at full strength:
for every registered campaign spec (including both epidemic scenarios),
serial, the worker pool under its default and supervised policies, and
adaptive-fallback dispatch must produce byte-identical ``SweepResult``
payloads — measurements, trace digests, merged metrics, aggregates —
across worker counts and chunk sizes.  The oracle is ``as_dict()`` equality after stripping only
the fields that are *documented* as wall-clock-bound (timings, pool
bookkeeping, the supervision report): everything derived from replica
data must match to the byte, which the canonical-JSON comparison
enforces.
"""

import json

import pytest

from repro.core.ensemble import CAMPAIGNS, CampaignSpec
from repro.sim import sweep
from repro.sim.sweep import SweepConfig, run_sweep

BASE_SEED = 1307
REPLICAS = 3

#: Dispatch bookkeeping that legitimately differs between modes: wall
#: clock, pool shape, and the (inherently nondeterministic) supervision
#: and dispatch reports.  Everything else must be byte-identical.
VOLATILE_TOP_LEVEL = ("wall_seconds", "mode", "workers", "chunk_size",
                      "supervision", "dispatch")

ALL_CAMPAIGNS = sorted(CAMPAIGNS)

#: The cheapest registered campaign carries the full pool-shape grid;
#: every campaign still gets each dispatch path once.
GRID_CAMPAIGN = "stuxnet-epidemic"
GRID_REPLICAS = 5


def canonical(result):
    """Canonical JSON for everything a sweep's replicas determine."""
    payload = result.as_dict()
    for key in VOLATILE_TOP_LEVEL:
        payload.pop(key, None)
    for replica in payload["replicas"]:
        replica.pop("wall_seconds", None)
    return json.dumps(payload, sort_keys=True, default=str)


_serial_cache = {}


def serial_payload(campaign, replicas=REPLICAS):
    """Cached canonical payload of the serial reference sweep."""
    key = (campaign, replicas)
    if key not in _serial_cache:
        result = run_sweep(
            CampaignSpec.quick(campaign),
            SweepConfig(replicas=replicas, mode="serial",
                        base_seed=BASE_SEED))
        assert result.dispatch["path"] == "serial"
        _serial_cache[key] = canonical(result)
    return _serial_cache[key]


@pytest.mark.parametrize("campaign", ALL_CAMPAIGNS)
def test_warm_pool_parallel_matches_serial(campaign):
    # mode="parallel" pins the pool path itself (the adaptive decision
    # has its own tests below): the quick epidemic replicas are cheap
    # enough to legitimately sit below break-even on a fast machine.
    result = run_sweep(
        CampaignSpec.quick(campaign),
        SweepConfig(replicas=REPLICAS, workers=2, mode="parallel",
                    base_seed=BASE_SEED))
    assert result.dispatch["path"] == "warm-pool"
    assert result.mode == "parallel"
    # Parallel sweeps never probe in-process.
    assert result.dispatch["probe_seconds"] is None
    assert canonical(result) == serial_payload(campaign)


@pytest.mark.parametrize("campaign", ALL_CAMPAIGNS)
def test_adaptive_auto_decision_is_still_byte_identical(campaign):
    # Leave the adaptive machinery fully enabled and let it choose:
    # whichever path it picks on this machine, the payload must match
    # the serial reference byte for byte.
    result = run_sweep(
        CampaignSpec.quick(campaign),
        SweepConfig(replicas=REPLICAS, workers=2, mode="auto",
                    base_seed=BASE_SEED))
    assert result.dispatch["path"] in ("warm-pool", "serial-fallback")
    assert result.dispatch["probe_seconds"] > 0
    assert canonical(result) == serial_payload(campaign)


@pytest.mark.parametrize("campaign", ALL_CAMPAIGNS)
def test_supervised_matches_serial(campaign):
    result = run_sweep(
        CampaignSpec.quick(campaign),
        SweepConfig(replicas=REPLICAS, workers=2, mode="supervised",
                    base_seed=BASE_SEED))
    assert result.dispatch["path"] == "warm-pool"
    assert result.mode == "supervised"
    # Supervised sweeps never probe in-process.
    assert result.dispatch["probe_seconds"] is None
    assert result.complete()
    assert canonical(result) == serial_payload(campaign)


@pytest.mark.parametrize("campaign", ALL_CAMPAIGNS)
def test_adaptive_fallback_matches_serial(campaign, monkeypatch):
    # An absurd break-even forces the fallback decision; the payload
    # must not budge, because the fallback runs the very same
    # run_replica from the very same pure per-replica seeds.
    monkeypatch.setattr(sweep, "PARALLEL_BREAK_EVEN_SECONDS", 1e9)
    result = run_sweep(
        CampaignSpec.quick(campaign),
        SweepConfig(replicas=REPLICAS, workers=2, mode="auto",
                    base_seed=BASE_SEED))
    assert result.dispatch["path"] == "serial-fallback"
    assert result.dispatch["break_even_seconds"] == 1e9
    assert result.dispatch["estimated_seconds"] < 1e9
    assert canonical(result) == serial_payload(campaign)
    # mode="parallel" takes no probe and so never falls back, however
    # high the break-even.
    pinned = run_sweep(
        CampaignSpec.quick(campaign),
        SweepConfig(replicas=REPLICAS, workers=2, mode="parallel",
                    base_seed=BASE_SEED))
    assert pinned.dispatch["path"] == "warm-pool"
    assert pinned.dispatch["probe_seconds"] is None
    assert canonical(pinned) == serial_payload(campaign)


@pytest.mark.parametrize("workers", (1, 2, 4))
@pytest.mark.parametrize("chunk_size", (1, 3, None))
def test_parallel_grid_is_payload_invariant(workers, chunk_size):
    config = SweepConfig(replicas=GRID_REPLICAS, workers=workers,
                         chunk_size=chunk_size, mode="parallel",
                         base_seed=BASE_SEED)
    result = run_sweep(CampaignSpec.quick(GRID_CAMPAIGN), config)
    assert result.dispatch["path"] == "warm-pool"
    assert canonical(result) == serial_payload(GRID_CAMPAIGN,
                                               GRID_REPLICAS)


@pytest.mark.parametrize("workers", (1, 2, 4))
@pytest.mark.parametrize("chunk_size", (1, 3, None))
def test_supervised_grid_is_payload_invariant(workers, chunk_size):
    config = SweepConfig(replicas=GRID_REPLICAS, workers=workers,
                         chunk_size=chunk_size, mode="supervised",
                         base_seed=BASE_SEED)
    result = run_sweep(CampaignSpec.quick(GRID_CAMPAIGN), config)
    assert result.complete()
    assert canonical(result) == serial_payload(GRID_CAMPAIGN,
                                               GRID_REPLICAS)


def test_dispatch_record_names_the_path_taken():
    """`dispatch` is the machine-checkable record of which path ran."""
    spec = CampaignSpec.quick(GRID_CAMPAIGN)
    serial = run_sweep(spec, SweepConfig(replicas=2, mode="serial",
                                         base_seed=BASE_SEED))
    assert serial.dispatch["path"] == "serial"
    assert serial.dispatch["requested_mode"] == "serial"
    pooled = run_sweep(spec, SweepConfig(
        replicas=2, workers=2, mode="parallel", base_seed=BASE_SEED,
        chunk_size=1))
    assert pooled.dispatch["path"] == "warm-pool"
    assert pooled.dispatch["requested_mode"] == "parallel"
    assert pooled.dispatch["probe_seconds"] is None
    # auto on a single-replica ensemble resolves to serial outright.
    auto = run_sweep(spec, SweepConfig(replicas=1, workers=4,
                                       base_seed=BASE_SEED))
    assert auto.dispatch["requested_mode"] == "auto"
    assert auto.dispatch["path"] == "serial"
    rendered = pooled.as_dict()
    assert rendered["dispatch"] is pooled.dispatch
