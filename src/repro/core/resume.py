"""Checkpointed runs and deterministic resume for campaigns and sweeps.

The envelope format and the kernel state digest live in
:mod:`repro.sim.checkpoint`; this module is the policy layer that
decides *when* to checkpoint and *how* to come back:

* :class:`CheckpointStore` — a campaign checkpoint directory is one
  append-only ``MANIFEST.jsonl``: a header line with the run's meta,
  then one line per checkpoint (``tag``, ``events``, ``sim_seconds``,
  ``state_digest``); the ``final`` line also carries the result and
  metrics.
* :class:`CampaignCheckpointer` — hooks a live campaign's kernel so a
  checkpoint lands at every kill-chain stage boundary (via the span
  recorder's finish listener).
* :func:`run_checkpointed` / :func:`resume_checkpointed` — the
  replay-based resume protocol.  Campaign callbacks are closures, so a
  mid-run kernel cannot be "continued"; every run is fully determined
  by its seed, so resuming re-executes the campaign from zero and
  checks each checkpoint the replay produces against the recorded
  chain — tag, event count, state digest — raising
  :class:`~repro.sim.errors.CheckpointError` at the first divergence
  and appending only after the whole recorded prefix has matched.  The
  chain is thus both the recovery mechanism and the strongest
  correctness oracle the kernel has.
* :class:`SweepCheckpoint` — a sweep's checkpoint directory is the
  same store: a ``sweep-manifest`` header pinning the spec, base seed
  and replica count, then one line per completed replica and one per
  quarantined replica, the last line per index winning.  On resume,
  finished replicas short-circuit straight from the manifest and only
  the missing ones re-run; deterministic per-replica seeding makes the
  merged result byte-identical to an uninterrupted sweep.  The pending
  set re-enters ``run_sweep``, which forks its own worker pool for it
  (:mod:`repro.sim.workerpool`) and closes it when the sweep ends; when
  the pending set is small, the adaptive fallback skips process
  dispatch for it entirely.
"""

import json
import os

from repro.core.ensemble import ReplicaFailure, ReplicaResult, replica_seed
from repro.sim.checkpoint import (
    KIND_CHECKPOINT,
    KIND_MANIFEST,
    KIND_SWEEP,
    envelope_line,
    make_envelope,
    state_digest,
    verify_envelope,
)
from repro.sim.errors import CheckpointError

#: Tag of the checkpoint written after a campaign run completes; its
#: manifest line carries the campaign result and metrics, so a finished
#: run short-circuits on resume instead of replaying.
FINAL_TAG = "final"


def _ensure_directory(directory):
    """Create a checkpoint directory, with failures surfaced as the
    typed :class:`CheckpointError` (a path through a regular file, a
    permission-denied parent, a read-only filesystem) rather than the
    raw ``OSError`` leaking out of the store."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise CheckpointError(
            "cannot create checkpoint directory %s: %s: %s"
            % (directory, type(exc).__name__, exc)) from exc
    return directory


class CheckpointStore:
    """A checkpoint directory: one append-only manifest file.

    ``MANIFEST.jsonl`` holds a header envelope (the run's meta) and then
    one ``campaign-checkpoint`` envelope per line.  The header's
    ``kind`` names what the directory records: ``checkpoint-manifest``
    for a campaign's stage chain, ``sweep-manifest`` for a sweep's
    replica and failure lines (:class:`SweepCheckpoint`); ``None``
    loads either.  Lines are only ever appended.
    """

    MANIFEST = "MANIFEST.jsonl"

    def __init__(self, directory, kind=KIND_MANIFEST):
        self.directory = directory
        self.kind = kind
        self.meta = None
        self._entries = []

    @property
    def manifest_path(self):
        return os.path.join(self.directory, self.MANIFEST)

    def _write(self, data, mode="ab", keep=None):
        """Write ``data`` to the manifest, first cutting it to ``keep``
        bytes if given; OS failures raise :class:`CheckpointError`."""
        try:
            with open(self.manifest_path, mode) as stream:
                if keep is not None:
                    stream.truncate(keep)
                stream.write(data)
        except OSError as exc:
            raise CheckpointError(
                "cannot write checkpoint manifest %s: %s: %s"
                % (self.manifest_path, type(exc).__name__, exc)) from exc

    def initialise(self, meta=None):
        """Start a fresh manifest (header line only) for a recorded run."""
        from repro.obs.export import jsonable

        _ensure_directory(self.directory)
        self.meta = {str(k): jsonable(v) for k, v in (meta or {}).items()}
        self._write(envelope_line(make_envelope(
            self.kind, {}, meta=self.meta)).encode("utf-8"), mode="wb")
        self._entries = []
        return self

    def load(self):
        """Read and verify the manifest; returns ``self``.

        A torn last line — no trailing newline, or not JSON — is what a
        crash mid-append leaves: it is dropped and truncated away.  Any
        other bad line raises :class:`CheckpointError`.
        """
        path = self.manifest_path
        try:
            with open(path, "rb") as stream:
                data = stream.read()
        except OSError as exc:
            raise CheckpointError(
                "cannot read checkpoint manifest %s: %s: %s"
                % (path, type(exc).__name__, exc)) from exc
        *lines, tail = data.split(b"\n")
        envelopes = []
        for number, raw in enumerate(lines, 1):
            try:
                envelope = json.loads(raw)
            except ValueError as exc:
                if number < len(lines) or tail:
                    raise CheckpointError(
                        "checkpoint manifest %s line %d is not JSON: %s"
                        % (path, number, exc)) from exc
                break
            envelopes.append(verify_envelope(
                envelope, kind=self.kind if number == 1
                else KIND_CHECKPOINT, path="%s line %d" % (path, number)))
        if not envelopes:
            raise CheckpointError(
                "checkpoint manifest %s has no intact header line" % path)
        intact = sum(len(raw) + 1 for raw in lines[:len(envelopes)])
        if intact < len(data):
            self._write(b"", keep=intact)
        self.meta = dict(envelopes[0]["meta"])
        self._entries = [envelope["state"] for envelope in envelopes[1:]]
        return self

    def entries(self):
        """Recorded checkpoint entries, in write order."""
        return [dict(entry) for entry in self._entries]

    def append(self, entry):
        """Append one checkpoint entry as a manifest line."""
        self._write(envelope_line(
            make_envelope(KIND_CHECKPOINT, entry)).encode("utf-8"))
        self._entries.append(entry)
        return entry

    def final_entry(self):
        """The run-completed entry, or None if the run was interrupted."""
        if self._entries and self._entries[-1]["tag"] == FINAL_TAG:
            return dict(self._entries[-1])
        return None


def interrupt_after(directory, keep):
    """Crash simulator: forget all but the first ``keep`` manifest lines.

    Cuts a campaign or sweep manifest to its header plus the first
    ``keep`` lines — exactly the on-disk state a crash right after line
    ``keep`` landed leaves, because lines are only ever appended.  Used
    by the differential tests and the CI resume-equivalence step.
    """
    store = CheckpointStore(directory, kind=None).load()
    if not 0 <= keep <= len(store._entries):
        raise ValueError("cannot keep %r of %d checkpoints"
                         % (keep, len(store._entries)))
    with open(store.manifest_path, "rb") as stream:
        lines = stream.read().split(b"\n")
    store._write(b"", keep=sum(len(line) + 1 for line in lines[:keep + 1]))
    return store.load()


class CampaignCheckpointer:
    """Stage-boundary checkpoints for one live campaign kernel.

    A checkpoint is the kernel's ``(tag, events, sim_seconds,
    state_digest)`` at the moment a kill-chain span closes.  The first
    ``len(recorded)`` checkpoints — the chain an interrupted run left —
    are checked against ``recorded`` instead of being appended; the
    first mismatch raises :class:`CheckpointError`, and every later
    checkpoint (including :meth:`finalize`) raises it again, so a
    diverged replay never writes to the store.  Digesting is pure
    observation, so a checkpointed run's trace is identical to an
    uninstrumented run of the same seed — the golden-trace suite pins
    this.
    """

    def __init__(self, campaign, store, recorded=()):
        self.kernel = campaign.world.kernel
        self.store = store
        self.recorded = list(recorded)
        #: Checkpoints taken so far, verified or appended.
        self.taken = 0
        self._error = None
        self._listener = self.kernel.spans.on_finish(self._stage_finished)

    def _stage_finished(self, span):
        self.checkpoint("stage:%s" % span.name)

    def checkpoint(self, tag, **extra):
        """Take checkpoint ``tag`` now: verify it or append it."""
        if self._error is not None:
            raise self._error
        kernel = self.kernel
        entry = {"tag": tag, "events": kernel.dispatched_events,
                 "sim_seconds": kernel.clock.now,
                 "state_digest": state_digest(kernel)}
        entry.update(extra)
        index = self.taken
        self.taken += 1
        if index >= len(self.recorded):
            return self.store.append(entry)
        old = self.recorded[index]
        for key in ("tag", "events", "state_digest"):
            if old[key] != entry[key]:
                self._error = CheckpointError(
                    "replay diverged from the interrupted run at "
                    "checkpoint %d (%r): recorded %s=%r, replay produced "
                    "%s=%r" % (index + 1, old["tag"], key, old[key], key,
                               entry[key]))
                raise self._error
        return entry

    def finalize(self, result=None):
        """Record the run-completed checkpoint with result and metrics.

        The result goes through :func:`jsonable_ordered` so dict-valued
        measurements keep their insertion order and a resume that
        short-circuits to this checkpoint prints byte-identically.
        """
        from repro.obs.export import jsonable_ordered

        return self.checkpoint(FINAL_TAG, result=jsonable_ordered(result),
                               metrics=self.kernel.metrics.snapshot())

    def detach(self):
        """Unhook from the kernel's span recorder."""
        if self._listener is not None:
            self.kernel.spans.remove_finish_listener(self._listener)
            self._listener = None


class ResumeReport:
    """What a resume (or checkpointed run) produced and verified.

    ``metrics`` is the run's final metrics snapshot.  ``kernel`` and
    ``campaign`` are the live objects of a run that executed, and None
    when a finished run short-circuited.
    """

    __slots__ = ("result", "metrics", "kernel", "campaign", "store",
                 "verified", "replayed_events", "short_circuited")

    def __init__(self, result, metrics, kernel, campaign, store, verified=0,
                 replayed_events=0, short_circuited=False):
        self.result = result
        self.metrics = metrics
        self.kernel = kernel
        self.campaign = campaign
        self.store = store
        #: How many recorded checkpoints the replay re-verified.
        self.verified = verified
        #: Event count covered by the verified prefix.
        self.replayed_events = replayed_events
        #: True when a final checkpoint made re-execution unnecessary.
        self.short_circuited = short_circuited

    def __repr__(self):
        return ("ResumeReport(verified=%d, replayed_events=%d, "
                "short_circuited=%r)" % (self.verified,
                                         self.replayed_events,
                                         self.short_circuited))


def _record(factory, store, run, recorded=()):
    """Build a campaign with ``factory()`` and run it checkpointed,
    verifying ``recorded`` before appending anything to ``store``."""
    campaign = factory()
    checkpointer = CampaignCheckpointer(campaign, store, recorded)
    try:
        result = (run or (lambda c: c.run()))(campaign)
        final = checkpointer.finalize(result)
    finally:
        checkpointer.detach()
    return ResumeReport(result=result, metrics=final["metrics"],
                        kernel=campaign.world.kernel, campaign=campaign,
                        store=store, verified=len(recorded),
                        replayed_events=(recorded[-1]["events"] if recorded
                                         else 0))


def run_checkpointed(factory, directory, meta=None, run=None):
    """Build a campaign with ``factory()``, run it with checkpointing.

    ``run(campaign)`` defaults to ``campaign.run()``.  Starts a fresh
    manifest in ``directory``.  Returns a :class:`ResumeReport` (with
    ``verified == 0`` — nothing existed to verify against).
    """
    return _record(factory, CheckpointStore(directory).initialise(meta),
                   run)


def resume_checkpointed(factory, directory, meta=None, run=None):
    """Resume an interrupted checkpointed run from ``directory``.

    * A finished run (final checkpoint present) short-circuits: the
      result and metrics come from the final manifest line, and no
      kernel is built at all.
    * An interrupted run replays: the campaign is rebuilt from the
      deterministic ``factory`` and re-run, and each checkpoint the
      interrupted run recorded must match the replay's as it is
      produced — same tag, same event count, same state digest — or
      :class:`CheckpointError` reports the exact divergence point with
      the manifest untouched.  Past the recorded prefix the replay
      appends its own checkpoints.

    ``meta``, when given, must equal the manifest's recorded meta; this
    catches resuming with the wrong campaign, seed, or parameters
    before any work happens.
    """
    from repro.obs.export import jsonable

    store = CheckpointStore(directory).load()
    if meta is not None:
        wanted = {str(k): jsonable(v) for k, v in meta.items()}
        if store.meta != wanted:
            raise CheckpointError(
                "checkpoint directory %s was recorded for a different "
                "run: manifest meta %r, resume requested %r"
                % (directory, store.meta, wanted))
    prior = store.entries()
    final = store.final_entry()
    if final is not None:
        return ResumeReport(result=final["result"],
                            metrics=final["metrics"],
                            kernel=None, campaign=None, store=store,
                            verified=len(prior),
                            replayed_events=final["events"],
                            short_circuited=True)
    return _record(factory, store, run, recorded=prior)


# -- sweep manifests -----------------------------------------------------------

class SweepCheckpoint:
    """Resume manifest for a Monte-Carlo sweep, on :class:`CheckpointStore`.

    The header line (kind ``sweep-manifest``) pins the spec, base seed,
    and replica count; each completed replica appends one
    ``{"replica": ...}`` line, and each quarantine recorded by the
    supervised path one ``{"failure": ...}`` line.  Lines fold in order
    and the last line for an index wins, so a replica line after a
    failure line for the same index clears that failure.  Per-replica
    seeds are a pure function of (base seed, index), so the recorded
    replicas splice into a resumed sweep byte-for-byte as if the sweep
    had never stopped; a resume then *deterministically* either retries
    a poison replica (the default) or skips it and carries its failure
    record into the resumed result.
    """

    def __init__(self, store):
        self.store = store

    @classmethod
    def create(cls, directory, spec, config):
        """Start a fresh manifest for (spec, config) in ``directory``;
        lines an earlier run left there are truncated away."""
        return cls(CheckpointStore(directory, KIND_SWEEP).initialise({
            "spec": spec.as_dict(),
            "base_seed": config.base_seed,
            "replicas": config.replicas,
        }))

    @classmethod
    def load(cls, directory):
        """Read and validate an existing manifest, every line of it."""
        manifest = cls(CheckpointStore(directory, KIND_SWEEP).load())
        manifest._fold()
        return manifest

    def validate_against(self, spec, config):
        """Reject a resume whose spec/config cannot splice with ours.

        Replica results are only reusable if the spec, base seed, and
        ensemble size match; pool shape (workers, chunking, mode) is
        free to differ — sharding never affects per-replica results.
        """
        from repro.obs.export import jsonable

        recorded = self.store.meta
        problems = ["%s %r != recorded %r" % (key, wanted, recorded[key])
                    for key, wanted in (("spec", jsonable(spec.as_dict())),
                                        ("base_seed", config.base_seed),
                                        ("replicas", config.replicas))
                    if recorded[key] != wanted]
        if problems:
            raise CheckpointError(
                "cannot resume sweep from %s: %s"
                % (self.store.directory, "; ".join(problems)))

    def record(self, replica):
        """Append one completed replica's reduction to the manifest."""
        from repro.obs.export import jsonable

        return self.store.append({"replica": jsonable(replica.as_dict())})

    def record_failure(self, failure):
        """Append one quarantined replica's failure record."""
        from repro.obs.export import jsonable

        return self.store.append({"failure": jsonable(failure.as_dict())})

    def _fold(self):
        """``(completed, failures)`` index maps from the manifest lines.

        Every line must name an index in the sweep's range and carry
        that index's derived seed, and a completed replica is final: a
        line after it for the same index is a manifest inconsistency.
        All of these raise :class:`CheckpointError` — a damaged manifest
        should be noticed, not silently spliced or re-run.
        """
        replicas = self.store.meta["replicas"]
        base_seed = self.store.meta["base_seed"]
        completed, failures = {}, {}
        for number, entry in enumerate(self.store.entries(), 2):
            where = "sweep manifest %s line %d" % (self.store.manifest_path,
                                                   number)
            if "replica" in entry:
                record = _from_dict(ReplicaResult, entry["replica"], where)
            else:
                record = _from_dict(ReplicaFailure, entry.get("failure"),
                                    where)
            index = record.index
            if not (isinstance(index, int) and 0 <= index < replicas):
                raise CheckpointError(
                    "%s records index %r outside the sweep's 0..%d range"
                    % (where, index, replicas - 1))
            if record.seed != replica_seed(base_seed, index):
                raise CheckpointError(
                    "%s records seed %r for replica %d, expected %r"
                    % (where, record.seed, index,
                       replica_seed(base_seed, index)))
            if index in completed:
                raise CheckpointError(
                    "%s records replica %d again after it completed"
                    % (where, index))
            if "replica" in entry:
                completed[index] = record
                failures.pop(index, None)
            else:
                failures[index] = record
        return completed, failures

    def completed(self):
        """Validated ``{index: ReplicaResult}`` for every completed replica."""
        return self._fold()[0]

    def failures(self):
        """Validated ``{index: ReplicaFailure}`` for every replica whose
        last manifest line is a quarantine record."""
        return self._fold()[1]


def _from_dict(cls, payload, where):
    """Rebuild a :class:`ReplicaResult` or :class:`ReplicaFailure` from
    its ``as_dict`` rendering."""
    try:
        return cls(**{slot: payload[slot] for slot in cls.__slots__})
    except (KeyError, TypeError) as exc:
        raise CheckpointError(
            "%s holds a malformed %s: %s: %s"
            % (where, cls.__name__, type(exc).__name__, exc)) from exc
