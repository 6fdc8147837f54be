"""Units for the epidemic engine: pool, model, provider, tier seams.

The seam regressions at the bottom pin the latent winsim assumptions
the :class:`~repro.winsim.SimHost` interface extraction surfaced: the
network layers used to reach straight into ``host.config`` and
``host.vfs`` and would have crashed (or silently misbehaved) on any
host that wasn't a full ``WindowsHost``.  Now the contract is typed —
``Lan.attach`` validates the interface, and SMB probes capabilities
instead of attributes.
"""

from bisect import bisect_right

import pytest

from repro.core import CampaignWorld
from repro.epidemic import (
    EXPOSED,
    EpidemicModel,
    HostPool,
    INFECTIOUS,
    RECOVERED,
    SUSCEPTIBLE,
    TransmissionProfile,
    assign_regions,
    demote_host,
    promote_host,
)
from repro.epidemic import scenarios
from repro.epidemic.scenarios import STUXNET_REGIONS, StuxnetEpidemicCampaign
from repro.netsim import Lan
from repro.netsim.network import NetworkError
from repro.netsim.smb import SmbError, smb_accessible, smb_copy_file
from repro.sim import Kernel
from repro.sim.errors import SimulationError
from repro.winsim import SimHost, WindowsHost

REGIONS = (("east", 2.0), ("west", 1.0))


@pytest.fixture
def pool(kernel):
    return HostPool(20, REGIONS, kernel.rng.fork("pool"))


# -- region assignment --------------------------------------------------------

def test_assign_regions_is_deterministic_per_stream(kernel):
    one = assign_regions(kernel.rng.fork("r"), 50, REGIONS)
    two = assign_regions(Kernel(seed=1).rng.fork("r"), 50, REGIONS)
    assert list(one) == list(two)
    assert set(one) <= {0, 1}


def test_assign_regions_rejects_bad_weights(kernel):
    rng = kernel.rng.fork("r")
    with pytest.raises(ValueError):
        assign_regions(rng, 5, ())
    with pytest.raises(ValueError):
        assign_regions(rng, 5, (("a", -1.0), ("b", 2.0)))
    with pytest.raises(ValueError):
        assign_regions(rng, 5, (("a", 0.0),))


def _bisect_regions(rng, count, region_weights):
    """The per-host reference: one draw, bisected into the running sum."""
    cumulative = []
    total = 0.0
    for _, weight in region_weights:
        total += float(weight)
        cumulative.append(total)
    top = len(cumulative) - 1
    return [min(bisect_right(cumulative, rng.random() * total), top)
            for _ in range(count)]


@pytest.mark.parametrize("weights", [
    STUXNET_REGIONS,                              # inexact partial sums
    (("a", 0.1), ("b", 0.2), ("c", 0.0), ("d", 0.7)),  # inexact total
], ids=["stuxnet", "inexact-total"])
def test_assign_regions_matches_the_bisect_reference(weights):
    draws = 120_000
    regions = assign_regions(Kernel(seed=5).rng.fork("r"), draws, weights)
    assert regions.typecode == "h"
    assert list(regions) == _bisect_regions(
        Kernel(seed=5).rng.fork("r"), draws, weights)


def test_region_weights_skew_assignment(kernel):
    regions = assign_regions(kernel.rng.fork("r"), 3000,
                             (("heavy", 9.0), ("light", 1.0)))
    heavy = sum(1 for code in regions if code == 0)
    assert 0.85 < heavy / 3000 < 0.95


# -- pool transitions ---------------------------------------------------------

def test_pool_lifecycle_updates_every_counter(pool):
    region = pool.region_of(4)
    code = pool.region_names.index(region)
    pool.expose(4, epoch=2, vector="usb")
    assert pool.counts == [19, 1, 0, 0]
    assert pool.vector_of(4) == "usb"
    assert pool.exposed_epoch_of(4) == 2
    pool.activate(4)
    assert pool.counts == [19, 0, 1, 0]
    assert pool.infectious_by_region[code] == 1
    pool.recover(4)
    assert pool.counts == [19, 0, 0, 1]
    assert pool.infectious_by_region[code] == 0
    assert pool.cumulative_infections() == 1
    assert pool.vector_counts == {"usb": 1}


def test_pool_rejects_illegal_transitions(pool):
    pool.seed(0)
    with pytest.raises(ValueError):
        pool.expose(0, epoch=1, vector="lan")   # already infectious
    with pytest.raises(ValueError):
        pool.activate(1)                         # still susceptible
    with pytest.raises(ValueError):
        pool.recover(1)
    with pytest.raises(ValueError):
        pool.expose(1, epoch=1, vector="carrier-pigeon")


def test_force_state_repairs_counters_both_ways(pool):
    pool.seed(3)
    pool.force_state(3, SUSCEPTIBLE)
    assert pool.counts == [20, 0, 0, 0]
    assert pool.vector_of(3) == "none"
    assert pool.exposed_epoch_of(3) == -1
    assert pool.infectious_by_region == [0, 0]
    assert pool.infected_by_region() == {"east": 0, "west": 0}
    pool.force_state(3, INFECTIOUS)
    code = pool.region_names.index(pool.region_of(3))
    assert pool.counts[INFECTIOUS] == 1
    assert pool.infectious_by_region[code] == 1
    assert pool.infected_by_region()[pool.region_of(3)] == 1


# -- model --------------------------------------------------------------------

def test_model_validates_profile_and_schedule(kernel):
    with pytest.raises(ValueError):
        TransmissionProfile("bad", usb_rate=1.5)
    with pytest.raises(ValueError):
        TransmissionProfile("bad", latency_epochs=0)
    with pytest.raises(ValueError):
        EpidemicModel(kernel, TransmissionProfile("ok"), 10, 0)


def test_disclosure_damps_transmission_and_boosts_recovery():
    profile = TransmissionProfile(
        "d", usb_rate=0.4, recovery_rate=0.1, disclosure_epoch=5,
        disclosure_damp=0.5, disclosure_recovery_boost=0.2)
    assert profile.rates_at(4) == (0.4, 0.0, 0.0, 0.1)
    usb, lan, c2, recovery = profile.rates_at(5)
    assert usb == pytest.approx(0.2)
    assert recovery == pytest.approx(0.3)


def test_model_registers_as_state_provider(kernel):
    model = EpidemicModel(kernel, TransmissionProfile("p"), 10, 3)
    assert kernel.state_providers == ["epidemic:p"]
    with pytest.raises(SimulationError):
        EpidemicModel(kernel, TransmissionProfile("p"), 10, 3)
    assert model.provider_name == "epidemic:p"


def test_model_requires_seeding_before_start(kernel):
    model = EpidemicModel(kernel, TransmissionProfile("p"), 10, 3)
    with pytest.raises(RuntimeError):
        model.start()
    model.seed_initial(2)
    with pytest.raises(RuntimeError):
        model.seed_initial(2)


def test_epoch_records_trace_spans_and_metrics(kernel):
    model = EpidemicModel(
        kernel, TransmissionProfile("p", usb_rate=0.5,
                                    region_weights=REGIONS), 30, 4)
    model.seed_initial(2)
    model.start()
    kernel.run(until=model.horizon_seconds())
    assert model.finished
    assert "epidemic.epoch" in kernel.spans.names()
    epochs = [r for r in kernel.trace
              if r.actor == "epidemic" and r.action == "epoch"]
    assert len(epochs) == 4
    assert kernel.metrics.counter("epidemic.infections").value == \
        model.curve[-1]["cumulative"] - 2
    assert kernel.metrics.gauge("epidemic.infectious").value == \
        model.curve[-1]["infectious"]


# -- promotion ----------------------------------------------------------------

def test_promote_infectious_row_carries_infection():
    world = CampaignWorld(seed=3)
    pool = HostPool(10, REGIONS, world.kernel.rng.fork("pool"))
    pool.expose(4, epoch=3, vector="lan")
    host = promote_host(world, pool, 4, "wormx")
    assert isinstance(host, WindowsHost)
    assert host.is_infected_by("wormx")
    infection = host.infections["wormx"]
    assert (infection.vector, infection.exposed_epoch,
            infection.active) == ("lan", 3, False)
    assert demote_host(pool, host, "wormx") == EXPOSED


def test_demote_writes_back_full_fidelity_outcomes():
    world = CampaignWorld(seed=3)
    pool = HostPool(10, REGIONS, world.kernel.rng.fork("pool"))
    pool.seed(1)
    cured = promote_host(world, pool, 1, "wormx")
    cured.remove_infection("wormx")           # disinfected at full tier
    assert demote_host(pool, cured, "wormx") == RECOVERED
    assert pool.state_of(1) == RECOVERED

    clean = promote_host(world, pool, 2, "wormx")
    assert not clean.is_infected_by("wormx")
    assert demote_host(pool, clean, "wormx") == SUSCEPTIBLE

    with pytest.raises(ValueError):
        demote_host(pool, world.make_host("STRAY-01"), "wormx")


@pytest.mark.parametrize("cure", [False, True])
def test_promote_samples_resyncs_only_after_a_state_change(monkeypatch,
                                                           cure):
    """A demotion that writes back the promoted state leaves the
    iteration orders valid; one that changes it must rebuild them."""
    campaign = StuxnetEpidemicCampaign(host_count=300, epochs=4,
                                       promote_samples=2)
    model = campaign.model
    resyncs = []
    resync = model.resync_from_pool
    monkeypatch.setattr(model, "resync_from_pool",
                        lambda: resyncs.append(1) or resync())

    def demote(pool, host, name):
        if cure:
            host.remove_infection(name)
        return demote_host(pool, host, name)

    monkeypatch.setattr(scenarios, "demote_host", demote)
    campaign.run()
    # Seeding fills the orders through one resync of its own.
    assert len(resyncs) == (2 if cure else 1)
    pool = model.pool
    assert model._infectious == sorted(
        pool.indices_in_state(INFECTIOUS),
        key=pool.exposed_epoch_view().__getitem__)
    assert len(campaign.result["promoted"]) == 2
    assert pool.counts[RECOVERED] >= (2 if cure else 0)


def test_promoted_host_is_a_first_class_network_citizen():
    """A promoted pool row joins a LAN and speaks SMB like any host."""
    world = CampaignWorld(seed=4)
    pool = HostPool(10, REGIONS, world.kernel.rng.fork("pool"))
    pool.seed(7)
    host = promote_host(world, pool, 7, "wormx",
                        file_and_print_sharing=True)
    lan = Lan(world.kernel, "edge", internet=world.internet)
    lan.attach(host)
    assert host.nic is not None
    assert host.smb_sharing_enabled()


# -- winsim seam regressions --------------------------------------------------

class MinimalHost(SimHost):
    """A reduced-fidelity host: exactly the SimHost contract, no more."""


def test_windows_host_is_a_sim_host(host):
    assert isinstance(host, SimHost)
    assert host.smb_sharing_enabled() == host.config.file_and_print_sharing


def test_lan_attach_accepts_any_sim_host(kernel):
    lan = Lan(kernel, "lab")
    minimal = MinimalHost(kernel, "TINY-01")
    ip = lan.attach(minimal)
    assert minimal.nic == (lan, ip)
    assert lan.host_by_name("TINY-01") is minimal


def test_lan_attach_rejects_non_sim_hosts(kernel):
    """The latent seam: attach used to accept any object and crash
    later, deep in NetBIOS or SMB, with an AttributeError."""
    lan = Lan(kernel, "lab")
    with pytest.raises(NetworkError, match="SimHost interface"):
        lan.attach(object())


def test_smb_against_reduced_fidelity_host_fails_typed(kernel):
    """SMB file operations on a vfs-less host raise SmbError with a
    promotion hint — not AttributeError on ``host.config``."""
    lan = Lan(kernel, "lab")
    src = MinimalHost(kernel, "SRC-01")
    dst = MinimalHost(kernel, "DST-01")
    lan.attach(src)
    lan.attach(dst)
    dst.accepted_credentials.add("cred")
    # Capability probe answers False instead of crashing on config.
    assert not smb_accessible(lan, src, dst, "cred")

    class SharingMinimalHost(MinimalHost):
        def smb_sharing_enabled(self):
            return True

    open_dst = SharingMinimalHost(kernel, "DST-02")
    lan.attach(open_dst)
    open_dst.accepted_credentials.add("cred")
    with pytest.raises(SmbError, match="no filesystem fidelity"):
        smb_copy_file(lan, src, open_dst, "cred", b"payload",
                      "c:\\temp\\drop.exe")
