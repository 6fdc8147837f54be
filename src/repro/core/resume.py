"""Checkpointed runs and deterministic resume for campaigns and sweeps.

The kernel-level snapshot format lives in :mod:`repro.sim.checkpoint`;
this module is the policy layer that decides *when* to snapshot and
*how* to come back:

* :class:`CheckpointStore` — one directory of numbered checkpoint files
  plus a digest-protected ``MANIFEST.json`` describing them.
* :class:`CampaignCheckpointer` — hooks a live campaign's kernel so a
  checkpoint lands at every kill-chain stage boundary (via the span
  recorder's finish listener) and, optionally, every N dispatched
  events (via the kernel's checkpoint hook).
* :func:`run_checkpointed` / :func:`resume_checkpointed` — the
  replay-based resume protocol.  Campaign callbacks are closures, so a
  mid-run kernel snapshot cannot simply be "continued"; instead, every
  run is fully determined by its seed, so resuming re-executes the
  campaign from zero and demands that the interrupted run's recorded
  checkpoint chain — tag by tag, event count by event count, state
  digest by state digest — is a bit-identical prefix of the replay.
  Divergence raises :class:`~repro.sim.errors.CheckpointError`; the
  checkpoint chain is thus both the recovery mechanism and the
  strongest correctness oracle the kernel has.
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

import os

from repro.core.ensemble import ReplicaFailure, ReplicaResult
from repro.sim.checkpoint import (
    KIND_FAILURE,
    KIND_MANIFEST,
    KIND_REPLICA,
    KIND_SWEEP,
    make_envelope,
    read_checkpoint,
    snapshot_kernel,
    write_checkpoint,
)
from repro.sim.errors import CheckpointError

#: Tag of the checkpoint written after a campaign run completes; its
#: meta carries the campaign result, so a finished run short-circuits
#: on resume instead of replaying.
FINAL_TAG = "final"


def _slug(tag):
    """Filesystem-safe rendering of a checkpoint tag."""
    return "".join(ch if ch.isalnum() or ch in ".-" else "-"
                   for ch in tag) or "checkpoint"


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
    """One directory of checkpoint files described by a manifest.

    The manifest is rewritten (atomically) after every append, so at
    any instant the directory is self-describing: files the manifest
    does not mention are as good as absent, which is what makes a
    SIGKILL mid-append recoverable.
    """

    MANIFEST = "MANIFEST.json"

    def __init__(self, directory):
        self.directory = directory
        self._manifest = None

    @property
    def manifest_path(self):
        return os.path.join(self.directory, self.MANIFEST)

    def initialise(self, meta=None, every_events=None):
        """Create (or reset) the manifest for a fresh recorded run."""
        _ensure_directory(self.directory)
        from repro.obs.export import jsonable

        self._manifest = {
            "meta": {str(k): jsonable(v) for k, v in (meta or {}).items()},
            "every_events": every_events,
            "checkpoints": [],
        }
        self._write_manifest()
        return self

    def _write_manifest(self):
        write_checkpoint(self.manifest_path,
                         make_envelope(KIND_MANIFEST, self._manifest))

    def load(self):
        """Read and validate the manifest; returns ``self``."""
        envelope = read_checkpoint(self.manifest_path, kind=KIND_MANIFEST)
        self._manifest = envelope["state"]
        return self

    @property
    def meta(self):
        return dict(self._manifest["meta"])

    @property
    def every_events(self):
        return self._manifest["every_events"]

    def entries(self):
        """Recorded checkpoint descriptors, in write order."""
        return [dict(entry) for entry in self._manifest["checkpoints"]]

    def append(self, envelope, tag):
        """Write one checkpoint file and record it in the manifest."""
        sequence = len(self._manifest["checkpoints"]) + 1
        filename = "ckpt-%04d-%s.json" % (sequence, _slug(tag))
        write_checkpoint(os.path.join(self.directory, filename), envelope)
        self._manifest["checkpoints"].append({
            "file": filename,
            "tag": tag,
            "events": envelope["state"]["dispatched"],
            "sim_seconds": envelope["state"]["clock"]["now"],
            "state_digest": envelope["state_digest"],
        })
        self._write_manifest()
        return filename

    def read(self, entry):
        """Load and validate the checkpoint file behind one entry."""
        from repro.sim.checkpoint import KIND_KERNEL

        return read_checkpoint(os.path.join(self.directory, entry["file"]),
                               kind=KIND_KERNEL)

    def latest(self):
        """The newest entry, or None for an empty store."""
        checkpoints = self._manifest["checkpoints"]
        return dict(checkpoints[-1]) if checkpoints else None

    def final_entry(self):
        """The run-completed entry, or None if the run was interrupted."""
        for entry in reversed(self._manifest["checkpoints"]):
            if entry["tag"] == FINAL_TAG:
                return dict(entry)
        return None


def interrupt_after(directory, keep):
    """Crash simulator: forget all but the first ``keep`` checkpoints.

    Rewrites the manifest as if the recording process had been killed
    right after checkpoint ``keep`` landed — which, because appends are
    atomic and the manifest is rewritten per append, is exactly the
    on-disk state such a crash leaves.  Used by the differential tests
    and the CI resume-equivalence step.
    """
    store = CheckpointStore(directory).load()
    entries = store._manifest["checkpoints"]
    if not 0 <= keep <= len(entries):
        raise ValueError("cannot keep %r of %d checkpoints"
                         % (keep, len(entries)))
    del entries[keep:]
    store._write_manifest()
    return store


class CampaignCheckpointer:
    """Auto-checkpoint hooks for one live campaign kernel.

    Writes a snapshot into ``directory`` at every kill-chain stage
    boundary (span finish) and, if ``every_events`` is given, every N
    dispatched events.  Snapshotting is pure observation, so a
    checkpointed run's trace digest is identical to an uninstrumented
    run of the same seed — the golden-trace suite pins this.
    """

    def __init__(self, campaign, directory, meta=None, every_events=None,
                 stage_boundaries=True, fresh=True):
        self.kernel = campaign.world.kernel
        self.store = CheckpointStore(directory)
        if fresh:
            self.store.initialise(meta=meta, every_events=every_events)
        else:
            self.store.load()
        self.meta = dict(meta or {})
        self._listener = None
        if stage_boundaries:
            self._listener = self.kernel.spans.on_finish(self._stage_finished)
        if every_events is not None:
            self.kernel.set_checkpoint_hook(self._periodic, every_events)

    def _stage_finished(self, span):
        self.checkpoint("stage:%s" % span.name)

    def _periodic(self, kernel):
        self.checkpoint("periodic")

    def checkpoint(self, tag, extra_meta=None):
        """Snapshot the kernel now, under ``tag``."""
        meta = dict(self.meta)
        meta["tag"] = tag
        if extra_meta:
            meta.update(extra_meta)
        envelope = snapshot_kernel(self.kernel, meta=meta)
        self.store.append(envelope, tag)
        return envelope

    def finalize(self, result=None):
        """Record the run-completed checkpoint, with the result in meta.

        The result goes through :func:`jsonable_ordered` so dict-valued
        measurements keep their insertion order and a resume that
        short-circuits to this checkpoint prints byte-identically.
        """
        from repro.obs.export import jsonable_ordered

        return self.checkpoint(
            FINAL_TAG, extra_meta={"result": jsonable_ordered(result)})

    def detach(self):
        """Unhook from the kernel (listeners + periodic hook)."""
        if self._listener is not None:
            self.kernel.spans.remove_finish_listener(self._listener)
            self._listener = None
        self.kernel.set_checkpoint_hook(None)


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

    def as_dict(self):
        return {
            "verified_checkpoints": self.verified,
            "replayed_events": self.replayed_events,
            "short_circuited": self.short_circuited,
        }

    def __repr__(self):
        return ("ResumeReport(verified=%d, replayed_events=%d, "
                "short_circuited=%r)" % (self.verified,
                                         self.replayed_events,
                                         self.short_circuited))


def run_checkpointed(factory, directory, meta=None, run=None,
                     every_events=None):
    """Build a campaign with ``factory()``, run it with checkpointing.

    ``run(campaign)`` defaults to ``campaign.run()``.  Returns a
    :class:`ResumeReport` (with ``verified == 0`` — nothing existed to
    verify against).
    """
    campaign = factory()
    checkpointer = CampaignCheckpointer(campaign, directory, meta=meta,
                                        every_events=every_events)
    try:
        result = (run or (lambda c: c.run()))(campaign)
        final = checkpointer.finalize(result)
    finally:
        checkpointer.detach()
    return ResumeReport(result=result, metrics=final["state"]["metrics"],
                        kernel=campaign.world.kernel, campaign=campaign,
                        store=checkpointer.store)


def resume_checkpointed(factory, directory, meta=None, run=None):
    """Resume an interrupted checkpointed run from ``directory``.

    * A finished run (final checkpoint present) short-circuits: the
      result and metrics come from the final checkpoint, and no kernel
      is built at all.
    * An interrupted run replays: the campaign is rebuilt from the
      deterministic ``factory`` and re-run with the same checkpoint
      policy, and every checkpoint the interrupted run managed to
      record must match the replay's — same tag, same event count, same
      state digest — or :class:`CheckpointError` reports the exact
      divergence point.

    ``meta``, when given, must equal the manifest's recorded meta; this
    catches resuming with the wrong campaign, seed, or parameters
    before any work happens.
    """
    from repro.obs.export import jsonable

    store = CheckpointStore(directory).load()
    if meta is not None:
        recorded = store.meta
        wanted = {str(k): jsonable(v) for k, v in meta.items()}
        if recorded != wanted:
            raise CheckpointError(
                "checkpoint directory %s was recorded for a different "
                "run: manifest meta %r, resume requested %r"
                % (directory, recorded, wanted))
    prior = store.entries()
    every_events = store.every_events
    final = store.final_entry()
    if final is not None:
        envelope = store.read(final)
        return ResumeReport(result=envelope["meta"].get("result"),
                            metrics=envelope["state"]["metrics"],
                            kernel=None, campaign=None, store=store,
                            verified=len(prior),
                            replayed_events=final["events"],
                            short_circuited=True)
    replay = run_checkpointed(factory, directory, meta=store.meta, run=run,
                              every_events=every_events)
    fresh = replay.store.entries()
    if len(fresh) < len(prior):
        raise CheckpointError(
            "replay recorded %d checkpoints but the interrupted run had "
            "already recorded %d — the runs cannot be the same "
            "simulation" % (len(fresh), len(prior)))
    for index, (old, new) in enumerate(zip(prior, fresh)):
        for key in ("tag", "events", "state_digest"):
            if old[key] != new[key]:
                raise CheckpointError(
                    "replay diverged from the interrupted run at "
                    "checkpoint %d (%r): recorded %s=%r, replay produced "
                    "%s=%r" % (index + 1, old["tag"], key, old[key], key,
                               new[key]))
    return ResumeReport(result=replay.result, metrics=replay.metrics,
                        kernel=replay.kernel, campaign=replay.campaign,
                        store=replay.store,
                        verified=len(prior),
                        replayed_events=(prior[-1]["events"] if prior
                                         else 0))


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
