"""Monte-Carlo ensembles: replica specs, worker-side reduction, aggregation.

The paper's headline numbers (984 centrifuges degraded, ~30,000 Aramco
machines wiped, Flame's staged exfiltration volumes) are single
trajectories.  A credible reproduction reports them as *distributions*:
run N seeded replicas of a campaign, reduce each run to its scalar
measurements inside the worker, and summarise per measurement key.

This module is the process-boundary-safe half of the sweep engine: a
:class:`CampaignSpec` is a picklable description of one campaign
configuration, :func:`run_replica` turns (spec, replica index, base
seed) into a small :class:`ReplicaResult`, and :func:`aggregate` /
:func:`summarize` compute the ensemble statistics.  The scheduling half
(worker pools, sharding, serial fallback) lives in
:mod:`repro.sim.sweep`.
"""

import math
import time
from datetime import datetime, timezone

from repro.core.campaign import (
    FlameEspionageCampaign,
    ShamoonWiperCampaign,
    StuxnetNatanzCampaign,
)
from repro.epidemic.scenarios import (
    FlameEpidemicCampaign,
    StuxnetEpidemicCampaign,
)

#: The sweepable campaigns, by CLI name.
CAMPAIGNS = {
    "stuxnet": StuxnetNatanzCampaign,
    "flame": FlameEspionageCampaign,
    "shamoon": ShamoonWiperCampaign,
    "stuxnet-epidemic": StuxnetEpidemicCampaign,
    "flame-epidemic": FlameEpidemicCampaign,
}

#: Scaled-down parameter presets: every campaign finishes in well under a
#: second, so a 16-replica ensemble is an interactive experiment.  The
#: CLI's ``repro sweep`` uses these unless ``--full`` asks for the
#: paper-scale defaults.
QUICK_PARAMS = {
    "stuxnet": {
        "centrifuge_count": 12,
        "workstation_count": 1,
        "duration_days": 10,
    },
    "flame": {
        "victim_count": 3,
        "domain_count": 6,
        "server_count": 3,
        "duration_weeks": 1,
        "docs_per_host": 2,
    },
    "shamoon": {
        "host_count": 20,
        "docs_per_host": 2,
        "start": datetime(2012, 8, 14, tzinfo=timezone.utc),
        "end": datetime(2012, 8, 16, tzinfo=timezone.utc),
    },
    "stuxnet-epidemic": {
        "host_count": 400,
        "epochs": 10,
        "initial_infections": 3,
        "promote_samples": 2,
    },
    "flame-epidemic": {
        "host_count": 400,
        "epochs": 10,
        "initial_infections": 3,
        "promote_samples": 2,
    },
}


def replica_seed(base_seed, index):
    """Derived seed for replica ``index`` of an ensemble.

    Mirrors :meth:`repro.sim.rng.DeterministicRandom.fork`: the child
    seed is a pure function of (base seed, replica index), so the i-th
    replica draws the same stream no matter how replicas are sharded
    across workers — or whether a pool is used at all.
    """
    return "%r|replica-%04d" % (base_seed, index)


# -- fault profiles ------------------------------------------------------------

def _profile_flaky_network(campaign, probability=0.2, latency_seconds=5.0,
                           duration_days=30.0):
    """Global packet loss plus added latency over the campaign's action."""
    faults = campaign.world.kernel.faults
    start = campaign.fault_epoch()
    duration = duration_days * 86400.0
    faults.inject_packet_loss(probability, start=start, duration=duration)
    faults.inject_latency(latency_seconds, start=start, duration=duration)


def _profile_takedown_sweep(campaign, start_days=2.0, interval_days=1.0):
    """Staggered registrar seizures across the campaign's C&C domains."""
    faults = campaign.world.kernel.faults
    start = campaign.fault_epoch() + start_days * 86400.0
    faults.inject_takedown_campaign(campaign.cnc_domains(), start=start,
                                    interval=interval_days * 86400.0)


def _profile_dns_blackout(campaign, start_days=1.0, duration_days=7.0):
    """Every C&C domain goes NXDOMAIN for a window, then recovers."""
    faults = campaign.world.kernel.faults
    start = campaign.fault_epoch() + start_days * 86400.0
    for domain in campaign.cnc_domains():
        faults.inject_dns_blackout(domain, start=start,
                                   duration=duration_days * 86400.0)


#: Named fault-injection profiles a spec can ask for.  Each is applied
#: to a freshly built campaign before ``run()``; the injector draws from
#: its own forked RNG stream, so profiles never perturb the campaign's
#: other randomness (same seed, same infections — only the faults vary).
FAULT_PROFILES = {
    "flaky-network": _profile_flaky_network,
    "takedown-sweep": _profile_takedown_sweep,
    "dns-blackout": _profile_dns_blackout,
}


class CampaignSpec:
    """Pickle-safe description of one campaign configuration.

    Holds only primitives (campaign name, constructor kwargs, run
    kwargs, fault-profile name + kwargs), so a spec crosses process
    boundaries cheaply and identically; workers rebuild the campaign
    object on their side of the fence.
    """

    __slots__ = ("campaign", "params", "run_params", "fault_profile",
                 "fault_params")

    def __init__(self, campaign, params=None, run_params=None,
                 fault_profile=None, fault_params=None):
        if campaign not in CAMPAIGNS:
            raise ValueError("unknown campaign %r (expected one of %s)"
                             % (campaign, sorted(CAMPAIGNS)))
        if fault_profile is not None and fault_profile not in FAULT_PROFILES:
            raise ValueError("unknown fault profile %r (expected one of %s)"
                             % (fault_profile, sorted(FAULT_PROFILES)))
        self.params = dict(params or {})
        if "seed" in self.params:
            raise ValueError("specs must not pin a seed: the sweep engine "
                             "derives one per replica via replica_seed()")
        self.campaign = campaign
        self.run_params = dict(run_params or {})
        self.fault_profile = fault_profile
        self.fault_params = dict(fault_params or {})

    @classmethod
    def quick(cls, campaign, **kwargs):
        """A spec using the scaled-down :data:`QUICK_PARAMS` preset."""
        return cls(campaign, params=dict(QUICK_PARAMS[campaign]), **kwargs)

    def build(self, seed):
        """Construct the campaign object for one replica."""
        campaign = CAMPAIGNS[self.campaign](seed=seed, **self.params)
        if self.fault_profile is not None:
            FAULT_PROFILES[self.fault_profile](campaign, **self.fault_params)
        return campaign

    def as_dict(self):
        return {
            "campaign": self.campaign,
            "params": {k: str(v) if isinstance(v, datetime) else v
                       for k, v in sorted(self.params.items())},
            "run_params": dict(sorted(self.run_params.items())),
            "fault_profile": self.fault_profile,
            "fault_params": dict(sorted(self.fault_params.items())),
        }

    def __repr__(self):
        profile = (", fault_profile=%r" % self.fault_profile
                   if self.fault_profile else "")
        return "CampaignSpec(%r%s)" % (self.campaign, profile)


# -- worker-side reduction -----------------------------------------------------

def reduce_measurements(raw):
    """Flatten a campaign result dict to scalars that survive pickling.

    Numbers pass through (bools become 0/1 so they aggregate as
    fractions), one level of nested dict flattens to ``key.subkey``,
    and containers reduce to ``key.count`` — full structures (and the
    event trace) stay on the worker's side of the process boundary.
    """
    out = {}
    for key, value in raw.items():
        if isinstance(value, bool):
            out[key] = int(value)
        elif isinstance(value, (int, float)):
            out[key] = value
        elif isinstance(value, str) or value is None:
            out[key] = value
        elif isinstance(value, dict):
            for sub, subvalue in value.items():
                if isinstance(subvalue, bool):
                    subvalue = int(subvalue)
                if isinstance(subvalue, (int, float)):
                    out["%s.%s" % (key, sub)] = subvalue
        elif isinstance(value, (list, tuple, set, frozenset)):
            out["%s.count" % key] = len(value)
    return out


def trace_digest(trace):
    """SHA-256 digest of a :class:`~repro.sim.trace.TraceLog`.

    The golden-determinism tests compare digests, not traces: two runs
    with the same seed must agree record for record, and the digest is
    the only trace artefact cheap enough to ship back from a worker.
    It is the trace's own running digest (:meth:`TraceLog.digest`), so
    it equals the trace hash inside every checkpoint state digest.
    """
    return trace.digest()


class ReplicaResult:
    """What one replica sends home: scalars, a digest, and counters."""

    __slots__ = ("index", "seed", "measurements", "trace_digest",
                 "trace_records", "events_dispatched", "sim_seconds",
                 "wall_seconds", "metrics")

    def __init__(self, index, seed, measurements, trace_digest,
                 trace_records, events_dispatched, sim_seconds,
                 wall_seconds, metrics=None):
        self.index = index
        self.seed = seed
        self.measurements = measurements
        self.trace_digest = trace_digest
        self.trace_records = trace_records
        self.events_dispatched = events_dispatched
        self.sim_seconds = sim_seconds
        self.wall_seconds = wall_seconds
        #: Metrics-registry snapshot (primitive dicts; see
        #: :meth:`repro.obs.metrics.MetricsRegistry.snapshot`).
        self.metrics = metrics or {}

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self):
        return ("ReplicaResult(index=%d, seed=%r, digest=%s..., "
                "events=%d)" % (self.index, self.seed,
                                self.trace_digest[:12],
                                self.events_dispatched))


class ReplicaFailure:
    """Structured record of a replica an ensemble could not complete.

    The supervised sweep path produces one of these instead of killing
    the whole ensemble when a replica keeps crashing its worker, timing
    out, or raising; it also marks replicas abandoned at a sweep
    deadline.  ``quarantined`` distinguishes a *poison* replica (failed
    every allowed attempt — retried on resume only when asked) from a
    merely *unfinished* one (deadline/interrupt salvage — always
    retried on resume).  ``history`` keeps one entry per failed attempt
    (``attempt``, ``reason``, ``detail``), so the failure report says
    not just that a replica died but how, each time.
    """

    __slots__ = ("index", "seed", "attempts", "reason", "quarantined",
                 "history")

    #: Failure reasons the supervisor records.
    REASONS = ("worker-crash", "timeout", "hang", "error", "deadline")

    def __init__(self, index, seed, attempts, reason, quarantined=True,
                 history=None):
        self.index = index
        self.seed = seed
        self.attempts = attempts
        self.reason = reason
        self.quarantined = bool(quarantined)
        self.history = [dict(entry) for entry in (history or [])]

    def as_dict(self):
        return {
            "index": self.index,
            "seed": self.seed,
            "attempts": self.attempts,
            "reason": self.reason,
            "quarantined": self.quarantined,
            "history": [dict(entry) for entry in self.history],
        }

    def __repr__(self):
        return ("ReplicaFailure(index=%d, attempts=%d, reason=%r, "
                "quarantined=%r)" % (self.index, self.attempts,
                                     self.reason, self.quarantined))


def run_replica(spec, index, base_seed=0):
    """Build, fault, and run one seeded replica; return its reduction.

    This is the unit of work both the serial fallback and the worker
    pool execute — which is what makes the two paths bit-identical per
    seed.
    """
    started = time.perf_counter()
    campaign = spec.build(replica_seed(base_seed, index))
    raw = campaign.run(**spec.run_params)
    kernel = campaign.world.kernel
    return ReplicaResult(
        index=index,
        seed=replica_seed(base_seed, index),
        measurements=reduce_measurements(raw),
        trace_digest=trace_digest(kernel.trace),
        trace_records=len(kernel.trace),
        events_dispatched=kernel.dispatched_events,
        sim_seconds=kernel.now,
        wall_seconds=time.perf_counter() - started,
        metrics=kernel.metrics.snapshot(),
    )


# -- aggregation ---------------------------------------------------------------

def percentile(sorted_values, q):
    """Linear-interpolated percentile ``q`` (0..100) of a sorted list."""
    if not sorted_values:
        raise ValueError("percentile() of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be within [0, 100], got %r" % q)
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = (len(sorted_values) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(sorted_values[low])
    fraction = position - low
    return (sorted_values[low] * (1.0 - fraction)
            + sorted_values[high] * fraction)


#: z-score for a two-sided 95% interval under the normal approximation.
Z_95 = 1.959963984540054


def summarize(values):
    """Summary statistics for one measurement key across replicas.

    The confidence interval is the normal-approximation interval for
    the mean (``Z_95 * stddev / sqrt(n)``): half-width ``ci95``, bounds
    ``ci_low``/``ci_high``.  With one replica the spread statistics are
    all zero — a single trajectory carries no dispersion information.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summarize() needs at least one value")
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        stddev = math.sqrt(variance)
    else:
        stddev = 0.0
    ordered = sorted(values)
    ci95 = Z_95 * stddev / math.sqrt(n)
    return {
        "n": n,
        "mean": mean,
        "stddev": stddev,
        "min": ordered[0],
        "max": ordered[-1],
        "p5": percentile(ordered, 5),
        "p25": percentile(ordered, 25),
        "p50": percentile(ordered, 50),
        "p75": percentile(ordered, 75),
        "p95": percentile(ordered, 95),
        "ci95": ci95,
        "ci_low": mean - ci95,
        "ci_high": mean + ci95,
    }


def aggregate(results):
    """Per-measurement-key :func:`summarize` over an ensemble.

    ``results`` may be :class:`ReplicaResult` objects or plain
    measurement mappings.  Only numeric keys aggregate; strings (like
    Shamoon's ``first_wipe_at``) are identity-checked by the
    determinism tests instead.  Returns ``{}`` for an empty ensemble.
    """
    series = {}
    for result in results:
        measurements = getattr(result, "measurements", result)
        for key, value in measurements.items():
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                series.setdefault(key, []).append(value)
    return {key: summarize(values) for key, values in sorted(series.items())}


def merge_metric_snapshots(results):
    """Ensemble-wide metric totals: one snapshot as if a single
    registry had observed every replica (counters/histograms add,
    gauges take the max — see :func:`repro.obs.metrics.merge_snapshots`).

    ``results`` may be :class:`ReplicaResult` objects or raw snapshot
    mappings.
    """
    from repro.obs.metrics import merge_snapshots

    snapshots = [getattr(result, "metrics", result) for result in results]
    return merge_snapshots(*snapshots)


def aggregate_metrics(results):
    """Per-metric :func:`summarize` across an ensemble's replicas.

    Counters and gauges summarise their scalar value; histograms
    summarise their observation count (their full merged shape is in
    :func:`merge_metric_snapshots`).  Returns ``{}`` for an empty
    ensemble.
    """
    series = {}
    for result in results:
        snapshot = getattr(result, "metrics", result)
        for name, entry in snapshot.items():
            value = (entry["count"] if entry["type"] == "histogram"
                     else entry["value"])
            series.setdefault(name, []).append(value)
    return {name: summarize(values)
            for name, values in sorted(series.items())}
