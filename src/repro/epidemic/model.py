"""The compartmental epidemic stepper driving a :class:`HostPool`.

A discrete-time S/E/I/R model in the spirit of "Malware Epidemics
Effects in a Lanchester Conflict Model" (PAPERS.md), parameterised per
campaign by a :class:`TransmissionProfile`: how strongly the malware
spreads over USB couriers (global, proportional to total prevalence),
over LANs (regional, proportional to regional prevalence), and via
C2-pushed propagation (damped by the fault engine — a DNS takedown or
sinkhole of the profile's C&C domains measurably slows the epidemic).

The stepping spec — shared verbatim with the full-fidelity oracle in
:mod:`repro.epidemic.oracle`, which implements it independently over
real ``WindowsHost`` objects — is:

1. Per-epoch hazards come from the compartment counts *at the start of
   the epoch*.  For a host in region ``r``::

       p_usb = usb_rate * I_total / N
       p_lan = lan_rate * I_r / N_r
       p_c2  = c2_rate * c2_availability     (0 when I_total == 0)
       p     = 1 - (1 - p_usb)(1 - p_lan)(1 - p_c2)

   ``c2_availability`` is the fraction of the profile's C&C domains the
   fault engine currently resolves normally (no blackout, takedown, or
   sinkhole) — a pure, RNG-free read of the fault schedule.
2. Susceptible hosts are visited in ascending index order; each draws
   exactly one uniform and is exposed when it falls below its region's
   hazard, immediately followed by one more uniform attributing the
   transmission vector proportionally to the three hazard shares.  An
   epoch whose hazards are all zero consumes no draws at all.
3. Infectious hosts are visited in exposure order — ``(exposed_epoch,
   index)``, which append-only bookkeeping maintains for free — and
   each draws one uniform against the recovery rate (skipped entirely
   when the effective recovery rate is zero).
4. Exposed hosts whose latency has elapsed turn infectious,
   deterministically, with no draws.
5. This epoch's new exposures join the exposed queue.

All draws come from one dedicated ``fork("epidemic:<label>")`` stream,
so the model never perturbs (and is never perturbed by) any other
randomness in the kernel.  The model registers itself as a kernel state
provider: checkpoints snapshot the pool arrays, the model RNG, and the
per-epoch infection curve, so every state digest covers the epidemic.
"""

from repro.epidemic.pool import (
    EXPOSED,
    HostPool,
    INFECTIOUS,
    RECOVERED,
    STATE_NAMES,
    SUSCEPTIBLE,
    VECTORS,
)

SECONDS_PER_DAY = 86400.0

_USB, _LAN, _C2 = (VECTORS.index(name) for name in ("usb", "lan", "c2"))


def _exposed_by(exposed, exposed_epoch, epoch):
    """How many leading hosts of ``exposed`` (in exposure order, so
    ascending ``exposed_epoch``) left S at or before ``epoch``."""
    low, high = 0, len(exposed)
    while low < high:
        middle = (low + high) // 2
        if exposed_epoch[exposed[middle]] <= epoch:
            low = middle + 1
        else:
            high = middle
    return low


def c2_availability(kernel, domains):
    """Fraction of C&C domains the fault engine leaves resolvable.

    RNG-free: :meth:`FaultInjector.dns_disposition` reads the fault
    schedule without consuming randomness, so both fidelity tiers
    observe identical availability at identical virtual times.
    Returns 1.0 for profiles with no C2 channel.
    """
    domains = tuple(domains)
    if not domains:
        return 1.0
    faults = kernel.faults
    resolvable = sum(1 for domain in domains
                     if faults.dns_disposition(domain) is None)
    return resolvable / len(domains)


def _check_rate(name, value, low=0.0, high=1.0):
    value = float(value)
    if not low <= value <= high:
        raise ValueError("%s must be within [%g, %g], got %r"
                         % (name, low, high, value))
    return value


class TransmissionProfile:
    """Per-campaign spread parameters for the compartmental model.

    Parameters
    ----------
    name:
        Campaign label (doubles as the infection name promoted hosts
        register).
    usb_rate, lan_rate, c2_rate:
        Per-epoch transmission pressure of each channel, in [0, 1].
    c2_domains:
        The C&C domains whose fault-engine disposition damps
        ``c2_rate`` (takedown/sinkhole/blackout -> unavailable).
    region_weights:
        ``(region, weight)`` pairs — the paper's victim distribution.
    latency_epochs:
        Epochs between exposure and infectiousness (>= 1, so an
        exposure never spreads within its own epoch).
    recovery_rate:
        Per-epoch probability an infectious host is cleaned.
    disclosure_epoch:
        When set, the epoch the campaign becomes public — AV signatures
        ship, operators panic (Flame's suicide command): transmission
        is damped by ``disclosure_damp`` and recovery is boosted by
        ``disclosure_recovery_boost`` from that epoch on.
    """

    def __init__(self, name, usb_rate=0.0, lan_rate=0.0, c2_rate=0.0,
                 c2_domains=(), region_weights=(("world", 1.0),),
                 latency_epochs=1, recovery_rate=0.0,
                 disclosure_epoch=None, disclosure_damp=0.0,
                 disclosure_recovery_boost=0.0):
        if not name or not isinstance(name, str):
            raise ValueError("profile name must be a non-empty string, "
                             "got %r" % (name,))
        self.name = name
        self.usb_rate = _check_rate("usb_rate", usb_rate)
        self.lan_rate = _check_rate("lan_rate", lan_rate)
        self.c2_rate = _check_rate("c2_rate", c2_rate)
        self.c2_domains = tuple(c2_domains)
        self.region_weights = tuple((str(region), float(weight))
                                    for region, weight in region_weights)
        if not isinstance(latency_epochs, int) or latency_epochs < 1:
            raise ValueError("latency_epochs must be an integer >= 1, "
                             "got %r" % (latency_epochs,))
        self.latency_epochs = latency_epochs
        self.recovery_rate = _check_rate("recovery_rate", recovery_rate)
        if disclosure_epoch is not None and (
                not isinstance(disclosure_epoch, int)
                or disclosure_epoch < 0):
            raise ValueError("disclosure_epoch must be None or an integer "
                             ">= 0, got %r" % (disclosure_epoch,))
        self.disclosure_epoch = disclosure_epoch
        self.disclosure_damp = _check_rate("disclosure_damp",
                                           disclosure_damp)
        self.disclosure_recovery_boost = _check_rate(
            "disclosure_recovery_boost", disclosure_recovery_boost)

    def rates_at(self, epoch):
        """Effective ``(usb, lan, c2, recovery)`` rates for one epoch."""
        usb, lan, c2 = self.usb_rate, self.lan_rate, self.c2_rate
        recovery = self.recovery_rate
        if self.disclosure_epoch is not None and \
                epoch >= self.disclosure_epoch:
            keep = 1.0 - self.disclosure_damp
            usb *= keep
            lan *= keep
            c2 *= keep
            recovery = min(1.0, recovery + self.disclosure_recovery_boost)
        return usb, lan, c2, recovery

    def __repr__(self):
        return ("TransmissionProfile(%r, usb=%g, lan=%g, c2=%g, "
                "latency=%d, recovery=%g)"
                % (self.name, self.usb_rate, self.lan_rate, self.c2_rate,
                   self.latency_epochs, self.recovery_rate))


class EpidemicModel:
    """Steps a :class:`HostPool` through seeded compartmental epochs.

    The model owns the pool (built here so both fidelity tiers share
    the region-assignment fork label), schedules itself on the kernel
    as self-rescheduling ``epidemic.step:<label>`` events, and registers
    as the kernel state provider ``epidemic:<label>`` so checkpoints
    carry the pool arrays and the model RNG.
    """

    EVENT_LABEL = "epidemic.step"

    def __init__(self, kernel, profile, host_count, epochs,
                 epoch_seconds=SECONDS_PER_DAY, label=None):
        if not isinstance(epochs, int) or epochs < 1:
            raise ValueError("epochs must be an integer >= 1, got %r"
                             % (epochs,))
        if not epoch_seconds > 0:
            raise ValueError("epoch_seconds must be positive, got %r"
                             % (epoch_seconds,))
        self._kernel = kernel
        self.profile = profile
        self._label = label or profile.name
        self.pool = HostPool(
            host_count, profile.region_weights,
            kernel.rng.fork("epidemic-regions:%s" % self._label))
        self._rng = kernel.rng.fork("epidemic:%s" % self._label)
        self._epochs = epochs
        self._epoch_seconds = float(epoch_seconds)
        self._epoch = 0
        self._curve = []
        self._seeded = False
        self._started = False
        #: Iteration orders (see module docstring): ascending indices /
        #: exposure order, all reconstructible from the pool arrays
        #: (:meth:`resync_from_pool`; seeding fills them).
        self._susceptible = []
        self._exposed = []
        self._infectious = []
        kernel.register_state_provider(self.provider_name, self)

    # -- identity -------------------------------------------------------------

    @property
    def label(self):
        return self._label

    @property
    def provider_name(self):
        return "epidemic:%s" % self._label

    @property
    def event_label(self):
        return "%s:%s" % (self.EVENT_LABEL, self._label)

    @property
    def epoch(self):
        """Epochs stepped so far (0 until the first step fires)."""
        return self._epoch

    @property
    def epochs(self):
        return self._epochs

    @property
    def curve(self):
        """Per-epoch infection-curve records (list of dicts)."""
        return list(self._curve)

    @property
    def finished(self):
        return self._epoch >= self._epochs

    # -- driving --------------------------------------------------------------

    def seed_initial(self, count, vector="initial"):
        """Pick ``count`` patient zeros from a dedicated seeding fork."""
        if self._seeded:
            raise RuntimeError("epidemic %r is already seeded" % self._label)
        if not 0 < count <= self.pool.count:
            raise ValueError(
                "initial infections must be within [1, %d], got %r"
                % (self.pool.count, count))
        rng = self._kernel.rng.fork("epidemic-seed:%s" % self._label)
        chosen = sorted(rng.sample(range(self.pool.count), count))
        for index in chosen:
            self.pool.seed(index, epoch=0, vector=vector)
        self.resync_from_pool()
        self._seeded = True
        self._record_epoch(new_infections=count, c2_availability=1.0)
        self._kernel.trace.record("epidemic", "seeded", self._label,
                                  infections=count)
        return chosen

    def start(self):
        """Schedule the per-epoch stepping events on the kernel."""
        if not self._seeded:
            raise RuntimeError("seed_initial() must run before start()")
        if self._started:
            raise RuntimeError("epidemic %r is already started"
                               % self._label)
        self._started = True
        if self._epoch < self._epochs:
            self._kernel.call_later(self._epoch_seconds, self._on_step,
                                    self.event_label)

    def horizon_seconds(self):
        """Virtual seconds from seeding to the final epoch's step."""
        return self._epochs * self._epoch_seconds

    def _on_step(self):
        self._epoch += 1
        with self._kernel.span("epidemic.epoch", label=self._label,
                               epoch=self._epoch):
            new_infections, recoveries, availability = self._step_epoch()
            self._record_epoch(new_infections=new_infections,
                               c2_availability=availability)
            point = self._curve[-1]
            self._kernel.trace.record(
                "epidemic", "epoch", self._label, epoch=self._epoch,
                susceptible=point["susceptible"], exposed=point["exposed"],
                infectious=point["infectious"],
                recovered=point["recovered"],
                new_infections=new_infections,
                c2_availability=availability)
            metrics = self._kernel.metrics
            metrics.inc("epidemic.infections", new_infections)
            metrics.inc("epidemic.recoveries", recoveries)
            metrics.gauge("epidemic.infectious").set(
                self.pool.counts[INFECTIOUS])
            metrics.gauge("epidemic.susceptible").set(
                self.pool.counts[SUSCEPTIBLE])
        if self._epoch < self._epochs:
            self._kernel.call_later(self._epoch_seconds, self._on_step,
                                    self.event_label)

    def c2_availability(self):
        """See the module-level :func:`c2_availability`."""
        return c2_availability(self._kernel, self.profile.c2_domains)

    def _step_epoch(self):
        """One epoch of the spec; returns (new infections, recoveries,
        c2 availability)."""
        pool = self.pool
        total = pool.count
        i_total = pool.counts[INFECTIOUS]
        availability = self.c2_availability()
        usb, lan, c2, recovery = self.profile.rates_at(self._epoch)
        p_usb = usb * i_total / total
        p_c2 = c2 * availability if i_total else 0.0
        hazards = []
        shares = []
        any_hazard = False
        for code, population in enumerate(pool.region_counts):
            infectious_here = pool.infectious_by_region[code]
            p_lan = (lan * infectious_here / population) if population \
                else 0.0
            hazard = 1.0 - (1.0 - p_usb) * (1.0 - p_lan) * (1.0 - p_c2)
            hazards.append(hazard)
            shares.append((p_usb, p_lan, p_c2))
            if hazard > 0.0:
                any_hazard = True

        hits = []
        if any_hazard:
            rand = self._rng.random
            region = pool.region_view()
            survivors = []
            keep = survivors.append
            caught = hits.append
            codes = []
            channel = codes.append
            for index in self._susceptible:
                code = region[index]
                if rand() < hazards[code]:
                    p_u, p_l, p_c = shares[code]
                    draw = rand() * (p_u + p_l + p_c)
                    if draw < p_u:
                        channel(_USB)
                    elif draw < p_u + p_l:
                        channel(_LAN)
                    else:
                        channel(_C2)
                    caught(index)
                else:
                    keep(index)
            self._susceptible = survivors
            pool.expose_all(hits, codes, self._epoch)

        recoveries = 0
        if recovery > 0.0 and self._infectious:
            rand = self._rng.random
            still_infectious = []
            keep = still_infectious.append
            for index in self._infectious:
                if rand() < recovery:
                    pool.recover(index)
                    recoveries += 1
                else:
                    keep(index)
            self._infectious = still_infectious

        exposed = self._exposed
        ready = _exposed_by(exposed, pool.exposed_epoch_view(),
                            self._epoch - self.profile.latency_epochs)
        if ready:
            pool.activate_all(exposed[:ready])
            self._infectious += exposed[:ready]
            del exposed[:ready]

        exposed += hits
        return len(hits), recoveries, availability

    def _record_epoch(self, new_infections, c2_availability):
        counts = self.pool.counts
        self._curve.append({
            "epoch": self._epoch,
            "susceptible": counts[SUSCEPTIBLE],
            "exposed": counts[EXPOSED],
            "infectious": counts[INFECTIOUS],
            "recovered": counts[RECOVERED],
            "cumulative": self.pool.cumulative_infections(),
            "new_infections": new_infections,
            "c2_availability": c2_availability,
        })

    # -- state provider (checkpoint extension) ---------------------------------

    def snapshot_state(self):
        """Pool arrays + model RNG + curve: the checkpoint payload."""
        return {
            "label": self._label,
            "epoch": self._epoch,
            "epochs": self._epochs,
            "epoch_seconds": self._epoch_seconds,
            "seeded": self._seeded,
            "started": self._started,
            "rng": self._rng.getstate(),
            "curve": [dict(point) for point in self._curve],
            "pool": self.pool.snapshot_state(),
        }

    def resync_from_pool(self):
        """Rebuild the iteration orders from the pool arrays.

        The spec's orders are pure functions of the arrays: susceptible
        hosts ascend by index, exposed and infectious hosts sort by
        ``(exposed_epoch, index)`` — exactly the order append-only
        stepping produced them in.  A stable sort by ``exposed_epoch``
        of the ascending indices gives that order.  Also the repair
        hook after out-of-band pool edits (a demotion write-back).
        """
        pool = self.pool
        order = pool.exposed_epoch_view().__getitem__
        self._susceptible = pool.indices_in_state(SUSCEPTIBLE)
        self._exposed = sorted(pool.indices_in_state(EXPOSED), key=order)
        self._infectious = sorted(pool.indices_in_state(INFECTIOUS),
                                  key=order)

    def __repr__(self):
        return ("EpidemicModel(%r, epoch %d/%d, S/E/I/R=%r)"
                % (self._label, self._epoch, self._epochs,
                   self.pool.counts))
