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
* :class:`SweepCheckpoint` — the sweep manifest: one spec/config
  fingerprint plus one atomically-written result file per completed
  replica.  On resume, finished replicas short-circuit straight from
  the manifest and only the missing ones re-run; deterministic
  per-replica seeding makes the merged result byte-identical to an
  uninterrupted sweep.  The pending set re-enters ``run_sweep`` with
  the same (spec, base seed, workers) triple, so in-process resumes
  (retry loops, salvage-then-retry) land on the process-wide warm
  worker pool (:mod:`repro.sim.workerpool`) instead of paying worker
  start-up again; and when the pending set is small, the adaptive
  fallback skips process dispatch for it entirely.
"""

import json
import os

from repro.core.ensemble import ReplicaFailure, ReplicaResult
from repro.sim.checkpoint import (
    KIND_CHECKPOINT,
    KIND_FAILURE,
    KIND_MANIFEST,
    KIND_REPLICA,
    KIND_SWEEP,
    envelope_line,
    make_envelope,
    read_checkpoint,
    state_digest,
    verify_envelope,
    write_checkpoint,
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


def _list_directory(directory):
    """List a checkpoint directory, wrapping unreadable/permission-
    denied directories in :class:`CheckpointError`."""
    try:
        return os.listdir(directory)
    except OSError as exc:
        raise CheckpointError(
            "cannot read checkpoint directory %s: %s: %s"
            % (directory, type(exc).__name__, exc)) from exc


class CheckpointStore:
    """A campaign checkpoint directory: one append-only manifest file.

    ``MANIFEST.jsonl`` holds a header envelope (kind
    ``checkpoint-manifest``, the run's meta) and then one
    ``campaign-checkpoint`` envelope per checkpoint.  Lines are only
    ever appended.
    """

    MANIFEST = "MANIFEST.jsonl"

    def __init__(self, directory):
        self.directory = directory
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
            KIND_MANIFEST, {}, meta=self.meta)).encode("utf-8"), mode="wb")
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
                envelope, kind=KIND_MANIFEST if number == 1
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
    """Crash simulator: forget all but the first ``keep`` checkpoints.

    Cuts the manifest to its header plus the first ``keep`` lines —
    exactly the on-disk state a crash right after checkpoint ``keep``
    landed leaves, because lines are only ever appended.  Used by the
    differential tests and the CI resume-equivalence step.
    """
    store = CheckpointStore(directory).load()
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
    """Resume manifest for a Monte-Carlo sweep.

    ``sweep.json`` pins the spec, base seed, and replica count; each
    completed replica lands as an atomically-written
    ``replica-NNNN.json``.  Per-replica seeds are a pure function of
    (base seed, index), so a manifest's replicas splice into a resumed
    sweep byte-for-byte as if the sweep had never stopped.

    The supervised sweep path additionally persists quarantine records
    as ``failure-NNNN.json``: a resume then *deterministically* either
    retries a poison replica (the default — and a success supersedes
    the record) or skips it and carries the structured failure into the
    resumed result.
    """

    SWEEP_MANIFEST = "sweep.json"
    REPLICA_PATTERN = "replica-%04d.json"
    FAILURE_PATTERN = "failure-%04d.json"

    def __init__(self, directory, payload):
        self.directory = directory
        self._payload = payload

    @classmethod
    def create(cls, directory, spec, config):
        """Start a fresh manifest for (spec, config) in ``directory``."""
        _ensure_directory(directory)
        payload = {
            "spec": spec.as_dict(),
            "base_seed": config.base_seed,
            "replicas": config.replicas,
        }
        manifest = cls(directory, payload)
        write_checkpoint(manifest.manifest_path,
                         make_envelope(KIND_SWEEP, payload))
        return manifest

    @classmethod
    def load(cls, directory):
        """Read and validate an existing manifest."""
        path = os.path.join(directory, cls.SWEEP_MANIFEST)
        envelope = read_checkpoint(path, kind=KIND_SWEEP)
        return cls(directory, envelope["state"])

    @property
    def manifest_path(self):
        return os.path.join(self.directory, self.SWEEP_MANIFEST)

    def validate_against(self, spec, config):
        """Reject a resume whose spec/config cannot splice with ours.

        Replica results are only reusable if the spec, base seed, and
        ensemble size match; pool shape (workers, chunking, mode) is
        free to differ — sharding never affects per-replica results.
        """
        problems = []
        if self._payload["spec"] != spec.as_dict():
            problems.append("spec %r != recorded %r"
                            % (spec.as_dict(), self._payload["spec"]))
        if self._payload["base_seed"] != config.base_seed:
            problems.append("base_seed %r != recorded %r"
                            % (config.base_seed,
                               self._payload["base_seed"]))
        if self._payload["replicas"] != config.replicas:
            problems.append("replicas %r != recorded %r"
                            % (config.replicas, self._payload["replicas"]))
        if problems:
            raise CheckpointError(
                "cannot resume sweep from %s: %s"
                % (self.directory, "; ".join(problems)))

    def replica_path(self, index):
        return os.path.join(self.directory, self.REPLICA_PATTERN % index)

    def failure_path(self, index):
        return os.path.join(self.directory, self.FAILURE_PATTERN % index)

    def record(self, replica):
        """Persist one completed replica's reduction, atomically.

        A completed replica supersedes any quarantine record a previous
        (supervised) pass left for the same index, so a retry pass that
        finally succeeds leaves the manifest clean.
        """
        from repro.obs.export import jsonable

        payload = {"replica": jsonable(replica.as_dict())}
        path = write_checkpoint(self.replica_path(replica.index),
                                make_envelope(KIND_REPLICA, payload))
        self.clear_failure(replica.index)
        return path

    def record_failure(self, failure):
        """Persist one quarantined replica's failure record, atomically."""
        from repro.obs.export import jsonable

        payload = {"failure": jsonable(failure.as_dict())}
        return write_checkpoint(self.failure_path(failure.index),
                                make_envelope(KIND_FAILURE, payload))

    def clear_failure(self, index):
        """Drop the quarantine record for ``index``, if one exists."""
        try:
            os.remove(self.failure_path(index))
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise CheckpointError(
                "cannot remove failure record %s: %s: %s"
                % (self.failure_path(index), type(exc).__name__,
                   exc)) from exc

    def failures(self):
        """Validated ``{index: ReplicaFailure}`` for every quarantine
        record in the manifest directory."""
        out = {}
        for name in sorted(_list_directory(self.directory)):
            if not (name.startswith("failure-") and name.endswith(".json")):
                continue
            envelope = read_checkpoint(os.path.join(self.directory, name),
                                       kind=KIND_FAILURE)
            failure = _failure_from_dict(envelope["state"]["failure"])
            if name != self.FAILURE_PATTERN % failure.index:
                raise CheckpointError(
                    "failure record %s records index %d (expected file %s)"
                    % (name, failure.index,
                       self.FAILURE_PATTERN % failure.index))
            out[failure.index] = failure
        return out

    def completed(self):
        """Validated ``{index: ReplicaResult}`` for every recorded file.

        Any replica file that fails validation raises the typed error —
        a corrupted manifest should be noticed, not silently re-run.
        Files beyond the manifest's replica range are rejected too.
        """
        out = {}
        for name in sorted(_list_directory(self.directory)):
            if not (name.startswith("replica-") and name.endswith(".json")):
                continue
            envelope = read_checkpoint(os.path.join(self.directory, name),
                                       kind=KIND_REPLICA)
            replica = _replica_from_dict(envelope["state"]["replica"])
            if not 0 <= replica.index < self._payload["replicas"]:
                raise CheckpointError(
                    "replica file %s has index %d outside the sweep's "
                    "0..%d range" % (name, replica.index,
                                     self._payload["replicas"] - 1))
            if name != self.REPLICA_PATTERN % replica.index:
                raise CheckpointError(
                    "replica file %s records index %d (expected file %s)"
                    % (name, replica.index,
                       self.REPLICA_PATTERN % replica.index))
            out[replica.index] = replica
        return out


def _replica_from_dict(payload):
    """Rebuild a :class:`ReplicaResult` from its ``as_dict`` rendering."""
    try:
        return ReplicaResult(**{slot: payload[slot]
                                for slot in ReplicaResult.__slots__})
    except (KeyError, TypeError) as exc:
        raise CheckpointError(
            "malformed replica payload: %s: %s"
            % (type(exc).__name__, exc)) from exc


def _failure_from_dict(payload):
    """Rebuild a :class:`ReplicaFailure` from its ``as_dict`` rendering."""
    try:
        return ReplicaFailure(**{slot: payload[slot]
                                 for slot in ReplicaFailure.__slots__})
    except (KeyError, TypeError) as exc:
        raise CheckpointError(
            "malformed failure payload: %s: %s"
            % (type(exc).__name__, exc)) from exc
