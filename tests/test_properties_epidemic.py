"""Property-based tests: epidemic pool and model invariants."""

import base64
import json
import sys
from array import array

from hypothesis import given, settings, strategies as st

from repro.core import CampaignWorld
import pytest

from repro.epidemic import (
    EXPOSED,
    EpidemicModel,
    HostPool,
    INFECTIOUS,
    RECOVERED,
    SUSCEPTIBLE,
    TransmissionProfile,
    VECTORS,
    demote_host,
    promote_host,
)
from repro.sim import Kernel
from repro.sim.checkpoint import canonical_json

REGIONS = (("alpha", 3.0), ("beta", 1.0), ("gamma", 0.5))

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31)


def build_model(seed, usb, lan, c2, recovery, hosts, epochs,
                latency=1, initial=2):
    kernel = Kernel(seed=seed)
    profile = TransmissionProfile(
        "prop", usb_rate=usb, lan_rate=lan, c2_rate=c2,
        recovery_rate=recovery, latency_epochs=latency,
        region_weights=REGIONS)
    model = EpidemicModel(kernel, profile, hosts, epochs)
    model.seed_initial(initial)
    model.start()
    kernel.run(until=model.horizon_seconds())
    return model


@settings(max_examples=25, deadline=None)
@given(seed=seeds, usb=rates, lan=rates, c2=rates, recovery=rates,
       hosts=st.integers(min_value=3, max_value=60),
       epochs=st.integers(min_value=1, max_value=8))
def test_host_count_is_conserved(seed, usb, lan, c2, recovery, hosts,
                                 epochs):
    """Compartments partition the population at every epoch."""
    model = build_model(seed, usb, lan, c2, recovery, hosts, epochs)
    assert len(model.curve) == epochs + 1
    for point in model.curve:
        total = (point["susceptible"] + point["exposed"]
                 + point["infectious"] + point["recovered"])
        assert total == hosts
    assert sum(model.pool.counts) == hosts
    assert sum(model.pool.region_counts) == hosts


@settings(max_examples=25, deadline=None)
@given(seed=seeds, usb=rates, lan=rates, c2=rates, recovery=rates,
       hosts=st.integers(min_value=3, max_value=60),
       epochs=st.integers(min_value=1, max_value=8))
def test_cumulative_infections_never_decrease(seed, usb, lan, c2,
                                              recovery, hosts, epochs):
    """S only drains, so the cumulative curve is monotone — recovery
    removes infectiousness, never history."""
    model = build_model(seed, usb, lan, c2, recovery, hosts, epochs)
    cumulative = [point["cumulative"] for point in model.curve]
    susceptible = [point["susceptible"] for point in model.curve]
    assert cumulative == sorted(cumulative)
    assert susceptible == sorted(susceptible, reverse=True)
    for point in model.curve:
        assert point["cumulative"] == hosts - point["susceptible"]


@settings(max_examples=20, deadline=None)
@given(seed=seeds, hosts=st.integers(min_value=3, max_value=60),
       epochs=st.integers(min_value=1, max_value=8))
def test_zero_transmission_freezes_the_state(seed, hosts, epochs):
    """All-zero rates: nothing moves, and — the stronger claim — no
    randomness is consumed, so a dead epidemic costs no draws."""
    model = build_model(seed, 0.0, 0.0, 0.0, 0.0, hosts, epochs)
    fresh = Kernel(seed=seed).rng.fork("epidemic:prop")
    assert canonical_json(model.snapshot_state()["rng"]) == \
        canonical_json(fresh.getstate())
    first = model.curve[0]
    for point in model.curve[1:]:
        for key in ("susceptible", "exposed", "infectious", "recovered",
                    "cumulative"):
            assert point[key] == first[key]
        assert point["new_infections"] == 0


@settings(max_examples=15, deadline=None)
@given(seed=seeds, usb=rates, lan=rates, c2=rates, recovery=rates,
       hosts=st.integers(min_value=3, max_value=40),
       epochs=st.integers(min_value=1, max_value=6))
def test_same_seed_runs_are_identical(seed, usb, lan, c2, recovery,
                                      hosts, epochs):
    one = build_model(seed, usb, lan, c2, recovery, hosts, epochs)
    two = build_model(seed, usb, lan, c2, recovery, hosts, epochs)
    assert one.curve == two.curve
    assert canonical_json(one.snapshot_state()) == \
        canonical_json(two.snapshot_state())


@settings(max_examples=15, deadline=None)
@given(seed=seeds,
       hosts=st.integers(min_value=5, max_value=40),
       epochs=st.integers(min_value=1, max_value=6),
       picks=st.integers(min_value=1, max_value=4))
def test_promotion_round_trip_preserves_pool_state(seed, hosts, epochs,
                                                   picks):
    """Promote arbitrary rows to full hosts and demote them untouched:
    the pool snapshot must be bit-for-bit what it was."""
    world = CampaignWorld(seed=seed)
    profile = TransmissionProfile(
        "prop", usb_rate=0.4, lan_rate=0.3, recovery_rate=0.1,
        region_weights=REGIONS)
    model = EpidemicModel(world.kernel, profile, hosts, epochs)
    model.seed_initial(2)
    model.start()
    world.kernel.run(until=model.horizon_seconds())
    pool = model.pool
    before = canonical_json(pool.snapshot_state())
    rng = world.kernel.rng.fork("pick")
    for index in rng.sample(range(hosts), min(picks, hosts)):
        host = promote_host(world, pool, index, profile.name)
        expected = pool.state_of(index)
        # The promoted host answers infection checks like its row did.
        assert host.is_infected_by(profile.name) == \
            (expected not in (SUSCEPTIBLE, RECOVERED))
        assert demote_host(pool, host, profile.name) == expected
    assert canonical_json(pool.snapshot_state()) == before


@settings(max_examples=15, deadline=None)
@given(seed=seeds, count=st.integers(min_value=1, max_value=80))
def test_pool_snapshot_round_trips(seed, count):
    """The snapshot's base64 arrays decode back to the pool's rows, and
    its counters are the ones those rows imply."""
    kernel = Kernel(seed=seed)
    pool = HostPool(count, REGIONS, kernel.rng.fork("pool"))
    rng = kernel.rng.fork("mutate")
    for index in range(count):
        roll = rng.random()
        if roll < 0.2:
            pool.seed(index, epoch=0)
        elif roll < 0.5:
            pool.expose(index, epoch=1, vector="usb")
            if roll < 0.35:
                pool.activate(index)
                if roll < 0.25:
                    pool.recover(index)
    snapshot = json.loads(canonical_json(pool.snapshot_state()))
    rows = {}
    for name, payload in snapshot["arrays"].items():
        rows[name] = array(payload["typecode"])
        rows[name].frombytes(base64.b64decode(payload["data"]))
        if sys.byteorder == "big":
            rows[name].byteswap()  # snapshots are little-endian
        assert payload["itemsize"] == rows[name].itemsize
        assert len(rows[name]) == count
    assert list(rows["state"]) == list(pool.state_view())
    assert list(rows["exposed_epoch"]) == list(pool.exposed_epoch_view())
    assert [pool.region_names[code] for code in rows["region"]] == \
        [pool.region_of(index) for index in range(count)]
    assert [VECTORS[code] for code in rows["vector"]] == \
        [pool.vector_of(index) for index in range(count)]
    assert snapshot["counts"] == pool.counts == \
        [list(rows["state"]).count(code) for code in range(4)]
    tally = {}
    for code, vector in zip(rows["state"], rows["vector"]):
        if code != SUSCEPTIBLE:
            tally[VECTORS[vector]] = tally.get(VECTORS[vector], 0) + 1
    assert snapshot["vector_counts"] == pool.vector_counts == tally


pool_edits = st.lists(st.one_of(
    st.tuples(st.just("expose_all"),
              st.lists(st.tuples(st.integers(0, 11),
                                 st.integers(1, len(VECTORS) - 1)),
                       max_size=8)),
    st.tuples(st.just("activate_all"),
              st.lists(st.integers(0, 11), max_size=8)),
    st.tuples(st.just("recover"), st.integers(0, 11)),
    st.tuples(st.just("force_state"),
              st.tuples(st.integers(0, 11), st.integers(0, 3))),
), max_size=25)


@settings(max_examples=100, deadline=None)
@given(seed=seeds, edits=pool_edits)
def test_incremental_counters_match_a_rescan(seed, edits):
    """Batch transitions, single transitions and write-backs — legal or
    not — leave every incremental counter equal to an O(N) rescan of
    the rows, and ``vector_counts`` equal to a host-by-host replay of
    the claims in first-claim key order."""
    pool = HostPool(12, REGIONS, Kernel(seed=seed).rng.fork("pool"))
    claims = {}
    for kind, arg in edits:
        if kind == "expose_all":
            # The reference claims host by host until the first
            # illegal one, which is where the batch must stop too.
            moved = set()
            for index, code in arg:
                if pool.state_of(index) != SUSCEPTIBLE or index in moved:
                    break
                moved.add(index)
                claims[VECTORS[code]] = claims.get(VECTORS[code], 0) + 1
            call = lambda: pool.expose_all(  # noqa: E731
                [i for i, _ in arg], [c for _, c in arg], epoch=1)
        else:
            call = lambda: getattr(pool, kind)(  # noqa: E731
                *(arg if kind == "force_state" else (arg,)))
        try:
            call()
        except ValueError:
            pass
        states = list(pool.state_view())
        regions = list(pool.region_view())
        assert pool.counts == [states.count(code) for code in range(4)]
        infectious = [0] * len(REGIONS)
        infected = [0] * len(REGIONS)
        for state, region in zip(states, regions):
            infectious[region] += state == INFECTIOUS
            infected[region] += state != SUSCEPTIBLE
        assert pool.infectious_by_region == infectious
        assert list(pool.infected_by_region().values()) == infected
        assert list(pool.vector_counts.items()) == list(claims.items())
    assert pool.cumulative_infections() == sum(
        pool.infected_by_region().values())


def test_batch_transition_stops_at_the_first_illegal_host():
    pool = HostPool(10, REGIONS, Kernel(seed=1).rng.fork("pool"))
    with pytest.raises(ValueError, match="host 4 is exposed"):
        pool.expose_all([2, 4, 4, 6], [2, 3, 3, 4], epoch=3)
    assert [pool.state_of(i) for i in (2, 4, 6)] == \
        [EXPOSED, EXPOSED, SUSCEPTIBLE]
    assert pool.counts == [8, 2, 0, 0]
    assert list(pool.vector_counts.items()) == [("usb", 1), ("lan", 1)]
    with pytest.raises(ValueError, match="host 6 is susceptible"):
        pool.activate_all([4, 6, 2])
    assert pool.counts == [8, 1, 1, 0]
    with pytest.raises(ValueError, match="vector codes"):
        pool.expose_all([7], [0], epoch=3)
