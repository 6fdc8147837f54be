"""Deterministic fault injection for the simulated substrate.

The paper's most distinctive machinery exists to *survive failure*:
Flame's 80-domain rotation outlives takedowns and sinkholing (§III.B),
its hidden USB database is a degraded-mode exfil channel for when no
C&C is reachable, and Stuxnet ships two redundant futbol domains.  None
of that machinery is exercised by a perfectly reliable substrate, so
the :class:`FaultInjector` lets a scenario break things on purpose:
DNS blackouts, registrar takedowns, sinkholing campaigns, per-site
outages, packet loss, and added latency — all seeded, clock-driven,
and recorded in the kernel's :class:`~repro.sim.trace.TraceLog` so two
runs with the same seed produce identical fault schedules and traces.

Faults surface through the *existing* network error taxonomy
(``NoRouteError``/``NetworkError``): clients cannot tell an injected
takedown from a real one, which is exactly the point.
"""

import math


class FaultKind:
    """Canonical names for the supported fault classes."""

    DNS_BLACKOUT = "dns-blackout"  # resolutions answer NXDOMAIN
    TAKEDOWN = "takedown"          # registrar seizure: permanent NXDOMAIN
    SINKHOLE = "sinkhole"          # resolutions answer the research sinkhole
    OUTAGE = "outage"              # server (or LAN uplink) refuses traffic
    PACKET_LOSS = "packet-loss"    # probabilistic request drop
    LATENCY = "latency"            # added seconds per request

    ALL = (DNS_BLACKOUT, TAKEDOWN, SINKHOLE, OUTAGE, PACKET_LOSS, LATENCY)


#: Scope key for faults applied to the whole simulated internet.
GLOBAL_SCOPE = "internet"

#: Requests whose accumulated injected latency reaches this threshold
#: behave as client-side timeouts (a latency fault severe enough to be
#: indistinguishable from an outage).
REQUEST_TIMEOUT = 30.0


def lan_scope(lan_name):
    """Scope key addressing one LAN's uplink."""
    return "lan:%s" % lan_name


class FaultWindow:
    """One scheduled fault: a kind, a target, and a time interval.

    ``end=None`` means the fault never lifts (a takedown).  ``param``
    carries the kind-specific payload: drop probability, added seconds,
    or the sinkhole address.
    """

    __slots__ = ("kind", "target", "start", "end", "param", "fired")

    def __init__(self, kind, target, start, end=None, param=None):
        if end is not None and end < start:
            raise ValueError("fault window ends before it starts: "
                             "[%r, %r)" % (start, end))
        self.kind = kind
        self.target = target
        self.start = start
        self.end = end
        self.param = param
        #: How many times this window actually affected a request.
        self.fired = 0

    def active_at(self, now):
        return self.start <= now and (self.end is None or now < self.end)

    def as_dict(self):
        """Stable description, used for schedule comparison in tests."""
        return {"kind": self.kind, "target": self.target,
                "start": self.start, "end": self.end, "param": self.param}

    def __repr__(self):
        span = ("[%.1f, inf)" % self.start if self.end is None
                else "[%.1f, %.1f)" % (self.start, self.end))
        return "FaultWindow(%s, %r, %s)" % (self.kind, self.target, span)


class FaultInjector:
    """Schedules and applies seeded, clock-driven fault windows.

    Owned by the :class:`~repro.sim.events.Kernel`; the network
    substrate consults it on every DNS resolution and HTTP dispatch.
    Probabilistic faults draw from a dedicated forked RNG stream so
    enabling fault injection never perturbs the draws other components
    make from the kernel's main stream.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.rng = kernel.rng.fork("faults")
        self._windows = []
        self.stats = {
            "windows_scheduled": 0,
            "dns_faults": 0,
            "outage_refusals": 0,
            "packets_dropped": 0,
            "latency_hits": 0,
            "timeouts": 0,
            "latency_seconds": 0.0,
        }

    # -- scheduling -----------------------------------------------------------

    def _add(self, kind, target, start, end, param=None):
        start = self.kernel.clock.now if start is None else float(start)
        window = FaultWindow(kind, target, start, end, param)
        self._windows.append(window)
        self.stats["windows_scheduled"] += 1
        self.kernel.metrics.inc("faults.windows_scheduled")
        self.kernel.metrics.inc("faults.windows_scheduled.%s" % kind)
        self.kernel.trace.record(
            "faults", "fault-scheduled", target, kind=kind, start=start,
            end=(math.inf if end is None else end), param=param,
        )
        return window

    def inject_dns_blackout(self, domain, start=None, duration=3600.0):
        """NXDOMAIN window for one domain (resolver failure, DNS filtering)."""
        start = self.kernel.clock.now if start is None else float(start)
        return self._add(FaultKind.DNS_BLACKOUT, domain.lower(), start,
                         start + duration)

    def inject_takedown(self, domain, at=None):
        """Registrar seizure: the domain stops resolving, permanently."""
        return self._add(FaultKind.TAKEDOWN, domain.lower(), at, None)

    def inject_sinkhole(self, domain, at=None,
                        sinkhole_address="sinkhole.research.net"):
        """Research sinkholing: resolutions succeed — to the sinkhole."""
        return self._add(FaultKind.SINKHOLE, domain.lower(), at, None,
                         param=sinkhole_address)

    def inject_outage(self, target, start=None, duration=3600.0):
        """Take a server address (or a :func:`lan_scope` uplink) dark."""
        start = self.kernel.clock.now if start is None else float(start)
        return self._add(FaultKind.OUTAGE, target, start, start + duration)

    def inject_packet_loss(self, probability, start=None, duration=3600.0,
                           scope=GLOBAL_SCOPE):
        """Drop each in-scope request with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1], got %r"
                             % probability)
        start = self.kernel.clock.now if start is None else float(start)
        return self._add(FaultKind.PACKET_LOSS, scope, start,
                         start + duration, param=probability)

    def inject_latency(self, seconds, start=None, duration=3600.0,
                       scope=GLOBAL_SCOPE):
        """Add ``seconds`` to every in-scope request.

        Delivery in the substrate is synchronous, so latency is recorded
        rather than consuming virtual time — but once a request's total
        added latency reaches :data:`REQUEST_TIMEOUT` it fails like an
        outage, which is what the retry layer reacts to.
        """
        if seconds < 0:
            raise ValueError("latency must be non-negative, got %r" % seconds)
        start = self.kernel.clock.now if start is None else float(start)
        return self._add(FaultKind.LATENCY, scope, start, start + duration,
                         param=seconds)

    def inject_takedown_campaign(self, domains, start=None, interval=0.0):
        """Staggered registrar seizures: domain *i* falls at
        ``start + i * interval`` (the order researchers actually worked
        through Flame's rotation).  Returns the windows."""
        start = self.kernel.clock.now if start is None else float(start)
        return [self.inject_takedown(domain, at=start + index * interval)
                for index, domain in enumerate(domains)]

    # -- checkpointing --------------------------------------------------------

    def snapshot_state(self):
        """Primitive rendering of the schedule, stats, and RNG stream.

        ``fired`` counts travel with each window and the forked RNG
        state with the schedule, so a replay whose packet-loss dice or
        hit attribution drift fails its state digest check.
        """
        return {
            "windows": [
                {"kind": w.kind, "target": w.target, "start": w.start,
                 "end": w.end, "param": w.param, "fired": w.fired}
                for w in self._windows
            ],
            "stats": dict(self.stats),
            "rng": self.rng.getstate(),
        }

    # -- introspection --------------------------------------------------------

    def windows(self, kind=None):
        """Scheduled windows, in injection order (deterministic)."""
        return [w for w in self._windows if kind is None or w.kind == kind]

    def schedule(self):
        """The full schedule as comparable dicts (for determinism tests)."""
        return [w.as_dict() for w in self._windows]

    # -- query hooks (called by the network substrate) ------------------------

    def _fire(self, window, stat, target, detail):
        window.fired += 1
        self.stats[stat] += 1
        metrics = self.kernel.metrics
        metrics.inc("faults.window_hits")
        metrics.inc("faults.%s" % stat)
        self.kernel.trace.record("faults", "fault-injected", target,
                                 kind=window.kind, **detail)

    def dns_disposition(self, domain):
        """How injected faults affect resolving ``domain`` right now.

        Returns ``None`` (no fault), ``("nxdomain", None)``, or
        ``("sinkhole", address)``.  The latest matching injection wins,
        so a sinkhole layered over a blackout behaves like the real
        sequence of countermeasures.
        """
        domain = domain.lower()
        now = self.kernel.clock.now
        disposition = None
        for window in self._windows:
            if window.target != domain or not window.active_at(now):
                continue
            if window.kind in (FaultKind.DNS_BLACKOUT, FaultKind.TAKEDOWN):
                disposition = ("nxdomain", None, window)
            elif window.kind == FaultKind.SINKHOLE:
                disposition = ("sinkhole", window.param, window)
        if disposition is None:
            return None
        action, value, window = disposition
        self._fire(window, "dns_faults", domain, {"disposition": action})
        return action, value

    def site_down(self, target):
        """Is an outage window currently open for this address/uplink?"""
        now = self.kernel.clock.now
        for window in self._windows:
            if (window.kind == FaultKind.OUTAGE and window.target == target
                    and window.active_at(now)):
                self._fire(window, "outage_refusals", target, {})
                return True
        return False

    def should_drop(self, *scopes):
        """Draw the packet-loss dice for a request across ``scopes``.

        One draw per active window, in injection order, so the consumed
        randomness — and therefore the trace — is seed-deterministic.
        """
        now = self.kernel.clock.now
        for window in self._windows:
            if (window.kind == FaultKind.PACKET_LOSS
                    and window.target in scopes and window.active_at(now)):
                if self.rng.chance(window.param):
                    self._fire(window, "packets_dropped", window.target,
                               {"probability": window.param})
                    return True
        return False

    def extra_latency(self, *scopes):
        """Summed injected latency for a request across ``scopes``.

        Also records the contribution; callers compare the result
        against :data:`REQUEST_TIMEOUT` to decide whether the request
        effectively timed out (and report it via :meth:`note_timeout`).
        """
        now = self.kernel.clock.now
        total = 0.0
        for window in self._windows:
            if (window.kind == FaultKind.LATENCY
                    and window.target in scopes and window.active_at(now)):
                total += window.param
                self.stats["latency_seconds"] += window.param
                self._fire(window, "latency_hits", window.target,
                           {"added_seconds": window.param})
        return total

    def note_timeout(self, target):
        """Record that accumulated latency turned into a client timeout."""
        self.stats["timeouts"] += 1
        self.kernel.metrics.inc("faults.timeouts")
        self.kernel.trace.record("faults", "fault-timeout", target)
