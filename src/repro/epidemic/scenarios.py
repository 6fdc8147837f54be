"""Population-scale epidemic campaigns calibrated to the paper.

The paper reports *populations*, not machines: Stuxnet's ~100,000
infections with the September 2010 country breakdown (Iran 58.85%,
Indonesia 18.22%, India 8.31%, ...) and Flame's ~1,000 victims
concentrated in Iran (189), Israel/Palestine (98), Sudan (32), Syria
(30).  These campaigns drive the hybrid tier at that scale: a
million-host :class:`~repro.epidemic.pool.HostPool` stepped by the
compartmental model, with a handful of infectious rows promoted to full
:class:`~repro.winsim.WindowsHost` fidelity at the end — enough to
inspect an actual infection without paying for a million filesystems.

Transmission profiles are loosely calibrated to each weapon's known
vectors: Stuxnet is USB-heavy (the air-gap crossing that escaped into
the wild) with a token C2 channel over its two futbol domains; Flame is
LAN-heavy (WPAD MITM plus the fake Windows Update) with a stronger C2
dependence and a *disclosure event* — the May 2012 publication after
which AV signatures shipped and the operators broadcast the suicide
command, modelled as damped transmission plus boosted recovery.
"""

from repro.core.environments import CampaignWorld
from repro.epidemic.model import (
    EpidemicModel,
    SECONDS_PER_DAY,
    TransmissionProfile,
)
from repro.epidemic.pool import INFECTIOUS
from repro.epidemic.promote import demote_host, promote_host
from repro.malware.stuxnet import STUXNET_DOMAINS

#: Stuxnet victim distribution, September 2010 (paper §II, Symantec
#: dossier): percentage of infected hosts by country.
STUXNET_REGIONS = (
    ("iran", 58.85),
    ("indonesia", 18.22),
    ("india", 8.31),
    ("azerbaijan", 2.57),
    ("united-states", 1.56),
    ("pakistan", 1.28),
    ("other", 9.21),
)

#: Flame victim counts by country (paper §III, Kaspersky telemetry).
FLAME_REGIONS = (
    ("iran", 189.0),
    ("israel-palestine", 98.0),
    ("sudan", 32.0),
    ("syria", 30.0),
    ("lebanon", 18.0),
    ("saudi-arabia", 10.0),
    ("egypt", 5.0),
)

#: A slice of Flame's ~80-domain C&C pool (§III.C names the
#: traffic-themed registrations).
FLAME_EPIDEMIC_DOMAINS = (
    "traffic-spot.biz",
    "traffic-spot.com",
    "smart-access.net",
    "quick-net.info",
)


def stuxnet_profile():
    """USB-dominant spread with a light C2 assist and slow cleanup."""
    return TransmissionProfile(
        "stuxnet-epidemic",
        usb_rate=0.45,
        lan_rate=0.25,
        c2_rate=0.02,
        c2_domains=STUXNET_DOMAINS,
        region_weights=STUXNET_REGIONS,
        latency_epochs=1,
        recovery_rate=0.01,
    )


def flame_profile():
    """LAN/MITM-dominant spread, C2-dependent, with the May 2012
    disclosure: transmission collapses and cleanup surges once the
    campaign goes public."""
    return TransmissionProfile(
        "flame-epidemic",
        usb_rate=0.08,
        lan_rate=0.5,
        c2_rate=0.05,
        c2_domains=FLAME_EPIDEMIC_DOMAINS,
        region_weights=FLAME_REGIONS,
        latency_epochs=2,
        recovery_rate=0.005,
        disclosure_epoch=20,
        disclosure_damp=0.9,
        disclosure_recovery_boost=0.30,
    )


class EpidemicCampaign:
    """Base driver: seed, spread for ``epochs`` days, promote samples.

    Subclasses pin the transmission profile and default seed; the
    sweep engine constructs them via ``cls(seed=..., **params)`` like
    every other campaign.
    """

    def __init__(self, profile, seed, host_count=1_000_000, epochs=30,
                 epoch_days=1.0, initial_infections=5, promote_samples=2):
        self.world = CampaignWorld(seed=seed)
        self.profile = profile
        self.host_count = host_count
        self.epochs = epochs
        self.initial_infections = initial_infections
        self.promote_samples = promote_samples
        #: Built (and registered as a kernel state provider) at
        #: construction, so every checkpoint of the run carries it.
        self.model = EpidemicModel(
            self.world.kernel, profile, host_count, epochs,
            epoch_seconds=epoch_days * SECONDS_PER_DAY)
        self.result = None

    def cnc_domains(self):
        """The campaign's C&C domains, for fault-profile targeting."""
        return list(self.profile.c2_domains)

    def fault_epoch(self):
        """Virtual time at which the campaign's action begins."""
        return 0.0

    def run(self):
        kernel = self.world.kernel
        model = self.model
        with kernel.span("epidemic.campaign", hosts=self.host_count,
                         epochs=self.epochs):
            with kernel.span("epidemic.seed",
                             infections=self.initial_infections):
                model.seed_initial(self.initial_infections)
                model.start()
            with kernel.span("epidemic.spread", epochs=self.epochs):
                kernel.run(until=model.horizon_seconds())
            with kernel.span("epidemic.promote",
                             samples=self.promote_samples):
                promoted = self._promote_samples()
        pool = model.pool
        curve = model.curve
        peak = max(curve, key=lambda point: point["infectious"])
        total_infected = pool.cumulative_infections()
        final = pool.compartments()
        self.result = {
            "host_count": self.host_count,
            "epochs": self.epochs,
            "initial_infections": self.initial_infections,
            "total_infected": total_infected,
            "attack_rate": total_infected / self.host_count,
            "peak_infectious": peak["infectious"],
            "peak_epoch": peak["epoch"],
            "final": final,
            "infections_by_vector": dict(pool.vector_counts),
            "infected_by_region": pool.infected_by_region(),
            "curve": curve,
            "promoted": promoted,
            "c2_impaired_epochs": sum(
                1 for point in curve if point["c2_availability"] < 1.0),
        }
        return self.result

    def _promote_samples(self):
        """Promote a few infectious rows to full fidelity and back.

        The promotion round-trip is part of every run on purpose: it
        exercises the tier boundary (a promoted host must carry its
        infection; demotion must leave the pool counters intact) at
        campaign scale, not just in unit tests.
        """
        pool = self.model.pool
        infectious = pool.indices_in_state(INFECTIOUS)
        count = min(self.promote_samples, len(infectious))
        if count <= 0:
            return []
        rng = self.world.kernel.rng.fork(
            "epidemic-promote:%s" % self.model.label)
        promoted = []
        changed = False
        for index in sorted(rng.sample(infectious, count)):
            host = promote_host(self.world, pool, index,
                                self.profile.name)
            if not host.is_infected_by(self.profile.name):
                raise RuntimeError(
                    "promotion lost the infection for pool host %d"
                    % index)
            if demote_host(pool, host, self.profile.name) != \
                    host.promoted_state:
                changed = True
            promoted.append(host.hostname)
        if changed:
            self.model.resync_from_pool()
        return promoted


class StuxnetEpidemicCampaign(EpidemicCampaign):
    """Stuxnet in the wild: the escape the 417 code never intended."""

    def __init__(self, seed=2010, **kwargs):
        super().__init__(stuxnet_profile(), seed, **kwargs)


class FlameEpidemicCampaign(EpidemicCampaign):
    """Flame's quiet years and loud death: spread, disclosure, suicide."""

    def __init__(self, seed=2012, **kwargs):
        super().__init__(flame_profile(), seed, **kwargs)
