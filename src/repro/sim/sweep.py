"""Process-parallel Monte-Carlo sweep engine.

Shards N seeded campaign replicas across a worker pool.  Three
properties make the ensemble trustworthy:

1. **Deterministic sharding** — replica *i*'s seed is a pure function
   of (base seed, *i*) (:func:`repro.core.ensemble.replica_seed`), so
   results are independent of worker count, chunk size, and dispatch
   order.
2. **Worker-side reduction** — each worker runs the full campaign but
   ships home only a :class:`~repro.core.ensemble.ReplicaResult`
   (scalars plus a trace digest); full event traces never cross the
   process boundary.
3. **A bit-identical serial fallback** — both paths execute the same
   :func:`~repro.core.ensemble.run_replica`, so ``mode="serial"``
   reproduces the parallel results exactly, replica for replica.

``SweepConfig.mode`` alone picks the dispatch path.  ``"serial"`` runs
in-process; the other three run on the supervised worker pool of
:mod:`repro.sim.workerpool` (spec shipped once per worker, compact
binary result rows; each sweep forks its own pool and closes it):

* ``"parallel"`` sends every pending replica to the pool under the
  fail-fast policy, with explicit or spread-sized chunks;
* ``"auto"`` (the default) is adaptive: a timed in-process probe of
  the first pending replica sizes the chunks
  (:func:`adaptive_chunk_size`) and, when the whole remaining ensemble
  costs less than the parallelism break-even, skips process dispatch
  entirely (:func:`should_fallback`); with one worker or one replica
  it is plain serial;
* ``"supervised"`` runs the pool under a retry-and-quarantine
  :class:`~repro.sim.workerpool.SupervisorConfig` and never probes
  in-process.

Which path actually ran is recorded in :attr:`SweepResult.dispatch` so
tests can assert on it.

This module sits in :mod:`repro.sim` but drives :mod:`repro.core`
campaigns — the one place the layering inverts — so it imports the
ensemble helpers lazily inside functions to keep package import order
acyclic.
"""

import math
import os
import time

#: Estimated remaining serial seconds below which process dispatch
#: cannot pay for itself: pool warm-up, task framing, and row decoding
#: cost on the order of low hundreds of milliseconds, so an ensemble
#: cheaper than this finishes sooner run in-process.  ``run_sweep``
#: reads it at call time.  Measured on 2 vCPUs with quick
#: ``stuxnet-epidemic`` replicas, in a process that has already run one
#: (≈0.01 s a replica), when workers still came from a running fork
#: server and paid ≈0.05 s each to derive their RSA keys: 16 replicas run
#: serially in 0.18 s against 0.22 s on a fresh 2-worker pool, 32 in
#: 0.41 s against 0.36 s, 64 in 0.87 s against 0.62 s, so the break-even
#: lay between 0.2 and 0.4 s of serial work there.  Workers forked from
#: the sweep process start without either cost.  In a cold process (a
#: fresh ``repro sweep``) the probe also times the one-time key
#: derivation and first-use costs (≈0.09 s in all), so its estimate
#: reads high and every cold sweep of quick replicas takes the pool.
PARALLEL_BREAK_EVEN_SECONDS = 0.2

#: Target wall-clock seconds per dispatched chunk when sizing chunks
#: from the measured probe: large enough to amortise per-chunk framing,
#: small enough to keep workers load-balanced and checkpoints fresh.
CHUNK_TARGET_SECONDS = 0.25


def should_fallback(replicas, probe_seconds,
                    threshold=PARALLEL_BREAK_EVEN_SECONDS):
    """True when dispatching ``replicas`` to a pool cannot pay off.

    A pure function of its arguments (property-tested as such), so the
    adaptive path stays deterministic given the same probe measurement.
    ``probe_seconds`` is None when nothing was measured (probe skipped),
    which always means "do not fall back".
    """
    if probe_seconds is None:
        return False
    return replicas * probe_seconds < threshold


def adaptive_chunk_size(replicas, workers, probe_seconds,
                        target_seconds=CHUNK_TARGET_SECONDS):
    """Chunk size derived from a measured per-replica cost.

    Starts from the classic four-chunks-per-worker spread (amortises
    per-task overhead while smoothing uneven replicas) and shrinks it
    so no chunk is expected to exceed ``target_seconds`` — expensive
    replicas stream back (and checkpoint) nearly one at a time, cheap
    ones batch up.  A pure function of its arguments; with no probe
    measurement it reduces to the spread alone.
    """
    if replicas < 1:
        return 1
    spread = max(1, math.ceil(replicas / (workers * 4)))
    if not probe_seconds or probe_seconds <= 0:
        return spread
    by_cost = target_seconds / probe_seconds
    # Compare before int(): a subnormal probe makes the ratio overflow
    # to inf, and the cost cap can only ever shrink the spread anyway.
    if by_cost >= spread:
        return spread
    return max(1, int(by_cost))


def _integral(name, value):
    """Validate a pool-shape parameter as a true positive integer.

    A float like ``replicas=2.5`` would pass a bare ``< 1`` check and
    then blow up as a ``TypeError`` deep inside ``range()`` in
    ``run_sweep``; bools are ints but are always a caller mistake here.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an integer, got %r" % (name, value))
    if value < 1:
        raise ValueError("%s must be >= 1, got %r" % (name, value))
    return value


class SweepConfig:
    """How to run an ensemble: size, pool shape, and dispatch mode.

    ``mode`` is the only thing that picks the path (see the module
    docstring): ``"serial"``, ``"parallel"`` (every replica on the warm
    worker pool, stopping at the first failed replica), ``"auto"``
    (probe, then the pool or an in-process fallback) or
    ``"supervised"`` (the pool, retrying and quarantining failed
    replicas instead).
    """

    __slots__ = ("replicas", "workers", "chunk_size", "base_seed", "mode")

    MODES = ("auto", "serial", "parallel", "supervised")

    def __init__(self, replicas=16, workers=None, chunk_size=None,
                 base_seed=0, mode="auto"):
        replicas = _integral("replicas", replicas)
        if workers is None:
            workers = os.cpu_count() or 1
        workers = _integral("workers", workers)
        if chunk_size is not None:
            chunk_size = _integral("chunk_size", chunk_size)
        if mode not in self.MODES:
            raise ValueError("mode must be one of %s, got %r"
                             % (self.MODES, mode))
        self.replicas = replicas
        self.workers = workers
        self.chunk_size = chunk_size
        self.base_seed = base_seed
        self.mode = mode

    def resolved_mode(self):
        """The dispatch mode ``run_sweep`` will actually use."""
        if self.mode != "auto":
            return self.mode
        if self.workers > 1 and self.replicas > 1:
            return "parallel"
        return "serial"

    def resolved_chunk_size(self):
        """The explicit chunk size, else :func:`adaptive_chunk_size`'s
        unprobed four-chunks-per-worker spread."""
        if self.chunk_size is not None:
            return self.chunk_size
        return adaptive_chunk_size(self.replicas, self.workers, None)

    def __repr__(self):
        return ("SweepConfig(replicas=%d, workers=%d, chunk_size=%r, "
                "base_seed=%r, mode=%r)"
                % (self.replicas, self.workers, self.chunk_size,
                   self.base_seed, self.mode))


def shard_chunks(indices, chunk_size):
    """Split an arbitrary replica-index list into consecutive chunks.

    The resume path runs only the indices a manifest is missing, which
    need not start at zero or be contiguous — but chunking stays purely
    positional, so sharding still never affects per-replica results.
    """
    indices = list(indices)
    return [indices[start:start + chunk_size]
            for start in range(0, len(indices), chunk_size)]


class SweepResult:
    """An ensemble's replicas plus how they were produced."""

    __slots__ = ("spec", "mode", "workers", "chunk_size", "base_seed",
                 "replicas", "wall_seconds", "failures", "supervision",
                 "dispatch")

    def __init__(self, spec, mode, workers, chunk_size, base_seed,
                 replicas, wall_seconds, failures=None, supervision=None,
                 dispatch=None):
        self.spec = spec
        self.mode = mode
        self.workers = workers
        self.chunk_size = chunk_size
        self.base_seed = base_seed
        #: :class:`~repro.core.ensemble.ReplicaResult` list, by index.
        self.replicas = replicas
        self.wall_seconds = wall_seconds
        #: :class:`~repro.core.ensemble.ReplicaFailure` list, by index —
        #: replicas the supervised path could not complete.  Aggregation
        #: tolerates the gaps: every derived view runs over whatever
        #: replicas exist.
        self.failures = list(failures or [])
        #: Supervision report (counters, spans) from the worker pool;
        #: None when no pool ran.  Kept separate from the replica data
        #: because it is inherently wall-clock-bound and therefore
        #: nondeterministic.
        self.supervision = supervision
        #: How dispatch actually went: which path ran ("serial",
        #: "serial-fallback", "warm-pool"), and the probe measurement
        #: and break-even that steered it.  Wall-clock-bound like
        #: ``supervision``, so kept apart from the replica data — tests
        #: assert on ``dispatch["path"]``, never on the timings.
        self.dispatch = dispatch or {}

    def measurements(self):
        """Per-replica measurement dicts, in replica order."""
        return [replica.measurements for replica in self.replicas]

    def digests(self):
        """Per-replica trace digests, in replica order."""
        return [replica.trace_digest for replica in self.replicas]

    def metrics(self):
        """Per-replica metric snapshots, in replica order."""
        return [replica.metrics for replica in self.replicas]

    def quarantined(self):
        """Indices of poison replicas quarantined by a supervised run."""
        return sorted(failure.index for failure in self.failures
                      if failure.quarantined)

    def complete(self):
        """True when every requested replica produced a result."""
        return not self.failures

    def merged_metrics(self):
        """One ensemble-wide metrics snapshot (counters/histograms add)."""
        from repro.core.ensemble import merge_metric_snapshots

        return merge_metric_snapshots(self.replicas)

    def aggregate(self):
        """Summary statistics per measurement key (see ensemble module)."""
        from repro.core.ensemble import aggregate

        return aggregate(self.replicas)

    def aggregate_metrics(self):
        """Summary statistics per metric across replicas."""
        from repro.core.ensemble import aggregate_metrics

        return aggregate_metrics(self.replicas)

    def merge_replicas(self, more):
        """Splice replicas recovered from a resume manifest into this
        result, keeping index order.

        A duplicate index is always a caller bug (the resume path only
        re-runs replicas the manifest did *not* record) and raises
        rather than picking a winner.
        """
        merged = {replica.index: replica for replica in self.replicas}
        for replica in more:
            if replica.index in merged:
                raise ValueError(
                    "merge_replicas() got replica index %d twice"
                    % replica.index)
            merged[replica.index] = replica
        self.replicas = [merged[index] for index in sorted(merged)]
        return self

    def as_dict(self):
        """JSON-ready rendering (CLI ``--json`` and BENCH_sweep.json)."""
        return {
            "spec": self.spec.as_dict(),
            "mode": self.mode,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "base_seed": self.base_seed,
            "replica_count": len(self.replicas),
            "failure_count": len(self.failures),
            "quarantined": self.quarantined(),
            "wall_seconds": self.wall_seconds,
            "distinct_trace_digests": len(set(self.digests())),
            "replicas": [replica.as_dict() for replica in self.replicas],
            "failures": [failure.as_dict() for failure in self.failures],
            "aggregate": self.aggregate(),
            "metrics_merged": self.merged_metrics(),
            "metrics_aggregate": self.aggregate_metrics(),
            "supervision": self.supervision,
            "dispatch": self.dispatch,
        }

    def __repr__(self):
        failed = (", %d failed" % len(self.failures)
                  if self.failures else "")
        return ("SweepResult(%r, %d replicas%s, mode=%s, %.2fs)"
                % (self.spec, len(self.replicas), failed, self.mode,
                   self.wall_seconds))


def run_sweep(spec, config, checkpoint_dir=None, resume=False,
              supervision=None, retry_quarantined=True):
    """Run an ensemble of seeded replicas of ``spec`` as ``config`` says.

    Returns a :class:`SweepResult` whose replicas are always in index
    order, whichever path produced them.

    With ``checkpoint_dir`` the sweep is resumable: a fresh
    ``MANIFEST.jsonl`` pinning (spec, base seed, replica count) lands
    first, then each replica's reduction is appended as one line the
    moment it streams back from a worker.  ``resume=True`` loads that
    manifest, validates it against the requested spec/config (raising
    the typed :class:`~repro.sim.errors.CheckpointError` on any
    mismatch), short-circuits every recorded replica, and runs only the
    missing ones — per-replica seeding makes the merged result
    byte-identical to an uninterrupted sweep, down to the trace digests.

    ``"parallel"`` and ``"auto"`` sweeps run the pool under the
    fail-fast policy (:data:`~repro.sim.workerpool.FAIL_FAST`): the
    first failed replica raises its typed error.  ``mode="supervised"``
    runs the same pool under ``supervision`` (a
    :class:`~repro.sim.workerpool.SupervisorConfig`; the default one
    when None) instead: crashes, hangs, and timeouts cost single
    replica attempts instead of the ensemble, and poison replicas land
    as :attr:`SweepResult.failures` (quarantine records persist in the
    manifest).  Passing ``supervision`` with any other mode raises
    ``ValueError``.  Supervised sweeps skip the in-process cost probe,
    so a poison replica never runs in this process.  On resume,
    quarantined replicas are retried by default;
    ``retry_quarantined=False`` skips them and carries their failure
    records into the result instead — both choices are deterministic,
    because a retried replica re-runs from its pure ``replica_seed``.

    A ``KeyboardInterrupt`` mid-sweep tears the worker pool down hard
    but keeps the checkpoint manifest intact: every replica recorded
    before the interrupt is already flushed (one appended line per
    replica; a torn last line is dropped on load), so ``--resume``
    afterwards loses at most the work that was in flight.
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    mode = config.resolved_mode()
    if supervision is not None and mode != "supervised":
        raise ValueError("supervision is the policy of mode='supervised'; "
                         "this sweep's mode is %r" % config.mode)
    if mode == "supervised" and supervision is None:
        from repro.sim.workerpool import SupervisorConfig

        supervision = SupervisorConfig()
    from repro.core.ensemble import run_replica

    manifest = None
    completed = {}
    carried_failures = []
    if checkpoint_dir is not None:
        from repro.core.resume import SweepCheckpoint

        if resume:
            manifest = SweepCheckpoint.load(checkpoint_dir)
            manifest.validate_against(spec, config)
            completed = manifest.completed()
            if not retry_quarantined:
                carried_failures = [
                    failure
                    for index, failure in sorted(manifest.failures().items())
                    if failure.quarantined and index not in completed]
        else:
            manifest = SweepCheckpoint.create(checkpoint_dir, spec, config)
    skipped = {failure.index for failure in carried_failures}
    pending = [index for index in range(config.replicas)
               if index not in completed and index not in skipped]

    def record(replica):
        if manifest is not None:
            manifest.record(replica)
        return replica

    chunk_size = config.resolved_chunk_size()
    started = time.perf_counter()
    failures = []
    supervision_report = None
    workers_used = 1
    break_even = PARALLEL_BREAK_EVEN_SECONDS
    dispatch = {
        "requested_mode": config.mode,
        "path": "serial" if mode == "serial" else "warm-pool",
        "probe_seconds": None,
        "estimated_seconds": None,
        "break_even_seconds": break_even,
    }
    replicas = []
    rest = pending
    if config.mode == "auto" and mode == "parallel" and pending:
        # Cost probe: run the first pending replica in-process and time
        # it.  The measurement steers adaptive chunk sizing and the
        # serial fallback; the probe replica is a full, recorded result,
        # so probing never duplicates work.
        probe_started = time.perf_counter()
        replicas.append(record(run_replica(spec, pending[0],
                                           config.base_seed)))
        probe = time.perf_counter() - probe_started
        rest = pending[1:]
        dispatch["probe_seconds"] = probe
        dispatch["estimated_seconds"] = probe * len(rest)
        if rest and should_fallback(len(rest), probe, break_even):
            # Below break-even: process dispatch would cost more than it
            # buys.  Finish in-process — byte-identical, because both
            # paths run the same run_replica from the same pure
            # per-replica seeds.
            dispatch["path"] = "serial-fallback"
    if dispatch["path"] != "warm-pool":
        replicas.extend(record(run_replica(spec, index, config.base_seed))
                        for index in rest)
    elif rest:
        from repro.sim.workerpool import FAIL_FAST, WorkerPool

        if mode == "parallel" and config.chunk_size is None:
            chunk_size = adaptive_chunk_size(len(rest), config.workers,
                                             dispatch["probe_seconds"])
        with WorkerPool(spec, config.base_seed, config.workers) as pool:
            outcome = pool.run(
                shard_chunks(rest, chunk_size), supervision or FAIL_FAST,
                record=record,
                record_failure=(manifest.record_failure
                                if manifest is not None else None))
        replicas.extend(outcome.replicas)
        failures = outcome.failures
        supervision_report = outcome.report
        workers_used = outcome.report["workers"]
    replicas.sort(key=lambda replica: replica.index)
    failures = sorted(failures + carried_failures,
                      key=lambda failure: failure.index)
    result = SweepResult(
        spec=spec,
        mode=mode,
        workers=workers_used,
        chunk_size=chunk_size,
        base_seed=config.base_seed,
        replicas=replicas,
        wall_seconds=time.perf_counter() - started,
        failures=failures,
        supervision=supervision_report,
        dispatch=dispatch,
    )
    if completed:
        result.merge_replicas(completed.values())
    return result
