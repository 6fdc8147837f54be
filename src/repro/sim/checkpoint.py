"""Deterministic kernel snapshots: a versioned JSON checkpoint format.

A checkpoint captures everything the kernel owns that is pure data —
clock, RNG streams (main + fault-injector fork), dispatch counters, the
event heap (including cancelled entries awaiting lazy compaction), the
full trace log (its records, in append order), the span recorder, the
metrics registry, and the fault schedule — as one canonical JSON
envelope protected by SHA-256 digests.

Two digests live in the envelope:

* ``state_digest`` hashes only the kernel state.  Two runs that reach
  the same cut with identical state produce identical ``state_digest``
  values, which is what the replay-equivalence harness compares.
* ``digest`` hashes the whole envelope body (meta + state +
  state_digest) and is the file-integrity check: a corrupted,
  truncated, or tampered checkpoint fails :func:`read_checkpoint` with
  a typed :class:`~repro.sim.errors.CheckpointError` instead of
  crashing deep in deserialization.

What is *not* captured: event callbacks.  They are arbitrary Python
closures, so a restored queue holds each pending event's time,
sequence, and label with the callback left unbound — dispatching an
unbound event raises ``CheckpointError``.  Drivers that want to
*continue* a restored kernel pass ``callbacks`` (a label-pattern →
callable registry) to :func:`restore_kernel`; the campaign resume path
in :mod:`repro.core.resume` sidesteps rebinding entirely by replaying
the deterministic run from zero and using the recorded ``state_digest``
chain as its bit-identical correctness oracle.
"""

import hashlib
import json
import os
from datetime import datetime

from repro.sim.clock import SimClock
from repro.sim.errors import (
    CheckpointDigestError,
    CheckpointError,
    CheckpointVersionError,
)

#: Bump whenever the envelope or state payload shape changes; readers
#: reject other versions with :class:`CheckpointVersionError`.
CHECKPOINT_VERSION = 2

#: Envelope kinds: each file type declares what it is, so a sweep
#: replica file can never be mistaken for a kernel snapshot.
KIND_KERNEL = "kernel-checkpoint"
KIND_MANIFEST = "checkpoint-manifest"
KIND_SWEEP = "sweep-manifest"
KIND_REPLICA = "sweep-replica"
KIND_FAILURE = "sweep-failure"


def canonical_json(value):
    """The one serialisation every digest in this format is taken over.

    Sorted keys, no whitespace, no NaN/Infinity literals — so a payload
    has exactly one byte representation and digests are reproducible
    across processes and platforms.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def payload_digest(payload):
    """SHA-256 hex digest of a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def make_envelope(kind, payload, meta=None):
    """Wrap a state payload in the versioned, digest-protected envelope."""
    state_digest = payload_digest(payload)
    meta = dict(meta or {})
    body = {"meta": meta, "state": payload, "state_digest": state_digest}
    return {
        "format": CHECKPOINT_VERSION,
        "kind": kind,
        "meta": meta,
        "state": payload,
        "state_digest": state_digest,
        "digest": payload_digest(body),
    }


def verify_envelope(envelope, kind=None, path=None):
    """Validate an envelope's shape, version, and both digests.

    Returns the envelope on success; raises the matching typed error
    otherwise.  ``path`` only decorates error messages.
    """
    if not isinstance(envelope, dict):
        raise CheckpointError(
            "checkpoint%s is not a JSON object"
            % (" %s" % path if path else ""))
    missing = {"format", "kind", "meta", "state", "state_digest",
               "digest"} - set(envelope)
    if missing:
        raise CheckpointError(
            "checkpoint%s is missing required fields: %s"
            % (" %s" % path if path else "", sorted(missing)))
    if envelope["format"] != CHECKPOINT_VERSION:
        raise CheckpointVersionError(CHECKPOINT_VERSION, envelope["format"],
                                     path=path)
    if kind is not None and envelope["kind"] != kind:
        raise CheckpointError(
            "checkpoint%s has kind %r, expected %r"
            % (" %s" % path if path else "", envelope["kind"], kind))
    body = {"meta": envelope["meta"], "state": envelope["state"],
            "state_digest": envelope["state_digest"]}
    found = payload_digest(body)
    if found != envelope["digest"]:
        raise CheckpointDigestError(envelope["digest"], found, path=path)
    state_found = payload_digest(envelope["state"])
    if state_found != envelope["state_digest"]:
        raise CheckpointDigestError(envelope["state_digest"], state_found,
                                    path=path)
    return envelope


def write_checkpoint(path, envelope):
    """Atomically write an envelope to ``path``.

    Write-to-temp + ``os.replace`` means a crash (even SIGKILL) mid-
    write leaves either the previous file or no file — never a
    truncated one; the digest check in :func:`read_checkpoint` is the
    backstop for every other corruption mode.

    The file keeps the payload's own key order (digests are taken over
    the canonical sorted form regardless), so dict-valued state — e.g.
    a campaign result's ``infection_vectors`` tally — round-trips in
    insertion order and a resumed run prints byte-identically.
    """
    tmp = "%s.tmp" % path
    try:
        with open(tmp, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(envelope, separators=(",", ":"),
                                    allow_nan=False))
            stream.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        # An unwritable or vanished checkpoint directory is a caller-
        # facing condition, not an internal bug: surface it as the same
        # typed error every other checkpoint failure mode uses.
        raise CheckpointError(
            "cannot write checkpoint %s: %s: %s"
            % (path, type(exc).__name__, exc)) from exc
    return path


def read_checkpoint(path, kind=None):
    """Read and fully validate an envelope from ``path``.

    Every failure mode — unreadable file, truncated or non-JSON
    content, missing fields, version mismatch, digest mismatch — maps
    to a typed :class:`CheckpointError` subclass.
    """
    try:
        with open(path, encoding="utf-8") as stream:
            envelope = json.load(stream)
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            "cannot read checkpoint %s: %s: %s"
            % (path, type(exc).__name__, exc)) from exc
    return verify_envelope(envelope, kind=kind, path=path)


# -- kernel snapshot / restore -------------------------------------------------

def kernel_state(kernel):
    """The raw state payload for one kernel (no envelope, no digests).

    Kernels carrying registered state providers (see
    :meth:`repro.sim.events.Kernel.register_state_provider`) gain an
    ``extensions`` section — absent otherwise, so checkpoints of plain
    kernels are byte-identical to the pre-extension format.
    """
    state = {
        "clock": {
            "epoch": kernel.clock.epoch.isoformat(),
            "now": kernel.clock.now,
        },
        "rng": kernel.rng.getstate(),
        "dispatched": kernel.dispatched_events,
        "queue": kernel._queue.snapshot_entries(),
        "trace": kernel.trace.snapshot_state(),
        "spans": kernel.spans.snapshot_state(),
        "metrics": kernel.metrics.snapshot(),
        "faults": kernel.faults.snapshot_state(),
    }
    extensions = {name: provider.snapshot_state()
                  for name, provider in kernel._state_providers.items()}
    for name, payload in kernel._pending_extension_state.items():
        # Restored-but-unclaimed state passes through, so re-snapshotting
        # a restored kernel never silently drops an extension.
        extensions.setdefault(name, payload)
    if extensions:
        state["extensions"] = extensions
    return state


def snapshot_kernel(kernel, meta=None):
    """Capture a kernel as a validated checkpoint envelope.

    Pure observation: consumes no randomness, schedules no events,
    records no trace — snapshotting never perturbs the seeded run.
    """
    from repro.obs.export import jsonable_ordered

    meta = {str(key): jsonable_ordered(value)
            for key, value in (meta or {}).items()}
    return make_envelope(KIND_KERNEL, kernel_state(kernel), meta=meta)


def state_digest(kernel):
    """The state digest a checkpoint of ``kernel`` would record now."""
    return payload_digest(kernel_state(kernel))


def _unbound_callback(label):
    """Placeholder for a restored event whose callback was not re-bound."""

    def _raise():
        raise CheckpointError(
            "event %r was restored from a checkpoint without a callback "
            "binding; pass callbacks={...} to restore_kernel() (or use "
            "the replay-based resume in repro.core.resume)" % label)

    return _raise


def _make_resolver(callbacks):
    """Turn a label→callable mapping into the queue's resolve function.

    Keys match an event label exactly, or by prefix with a trailing
    ``*`` (the :meth:`TraceLog.query` convention); unmatched labels get
    a placeholder that raises :class:`CheckpointError` if dispatched.
    """
    callbacks = dict(callbacks or {})
    exact = {key: fn for key, fn in callbacks.items()
             if not key.endswith("*")}
    prefixes = sorted(((key[:-1], fn) for key, fn in callbacks.items()
                       if key.endswith("*")),
                      key=lambda item: -len(item[0]))

    def resolve(label):
        factory = exact.get(label)
        if factory is None:
            for prefix, fn in prefixes:
                if label.startswith(prefix):
                    factory = fn
                    break
        if factory is None:
            return _unbound_callback(label)
        return factory(label)

    return resolve


def restore_kernel(envelope, kernel=None, callbacks=None):
    """Rehydrate a kernel from a checkpoint envelope.

    With ``kernel=None`` a fresh kernel is built on the checkpointed
    epoch; otherwise the supplied kernel (which must share that epoch
    and not have advanced past the checkpoint) is overwritten in place.
    Everything that is pure data — clock, RNG streams, counters, trace,
    spans, metrics, fault schedule — restores exactly; pending events
    restore with callbacks resolved through ``callbacks`` (see
    :func:`_make_resolver`), unbound by default.

    ``callbacks`` values are factories: ``factory(label)`` returns the
    callable to dispatch for that label.
    """
    verify_envelope(envelope, kind=KIND_KERNEL)
    state = envelope["state"]
    try:
        epoch = datetime.fromisoformat(state["clock"]["epoch"])
        now = float(state["clock"]["now"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            "malformed clock state: %s: %s"
            % (type(exc).__name__, exc)) from exc
    from repro.sim.events import Kernel

    if kernel is None:
        kernel = Kernel(seed=0, epoch=epoch)
    else:
        if kernel.clock.epoch != SimClock(epoch).epoch:
            raise CheckpointError(
                "cannot restore onto a kernel with epoch %s; checkpoint "
                "was taken on epoch %s"
                % (kernel.clock.epoch.isoformat(), epoch.isoformat()))
        if kernel.clock.now > now:
            raise CheckpointError(
                "cannot restore to t=%.6f on a kernel already at t=%.6f "
                "(the virtual clock never moves backwards)"
                % (now, kernel.clock.now))
    kernel.clock.advance_to(now)
    kernel.rng.setstate(state["rng"])
    kernel._dispatched = int(state["dispatched"])
    try:
        kernel._queue.load_entries(state["queue"],
                                   _make_resolver(callbacks))
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            "malformed queue state: %s: %s"
            % (type(exc).__name__, exc)) from exc
    kernel.trace.load_state(state["trace"])
    kernel.spans.load_state(state["spans"])
    _restore_metrics(kernel.metrics, state["metrics"])
    kernel.faults.load_state(state["faults"])
    pending = {}
    for name in sorted(state.get("extensions", {})):
        payload = state["extensions"][name]
        provider = kernel._state_providers.get(name)
        if provider is not None:
            try:
                provider.load_state(payload)
            except CheckpointError:
                raise
            except Exception as exc:
                raise CheckpointError(
                    "malformed extension state for %r: %s: %s"
                    % (name, type(exc).__name__, exc)) from exc
        else:
            # No provider yet: hold the payload for a later
            # register_state_provider() call (the resume short-circuit
            # restores onto a bare kernel before components exist).
            pending[name] = payload
    kernel._pending_extension_state = pending
    return kernel


def _restore_metrics(registry, snapshot):
    """Overwrite a registry's contents with a checkpointed snapshot.

    Existing metric objects are updated in place (the kernel holds a
    direct reference to its ``sim.events_dispatched`` counter, which
    must keep its identity); metrics absent from the snapshot are
    dropped.
    """
    try:
        for name in sorted(snapshot):
            entry = snapshot[name]
            metric_type = entry["type"]
            if metric_type == "counter":
                registry.counter(name).value = entry["value"]
            elif metric_type == "gauge":
                registry.gauge(name).value = entry["value"]
            elif metric_type == "histogram":
                histogram = registry.histogram(name, entry["bounds"])
                histogram.counts = list(entry["counts"])
                histogram.sum = entry["sum"]
                histogram.count = entry["count"]
            else:
                raise CheckpointError(
                    "unknown metric type %r for %r" % (metric_type, name))
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            "malformed metrics state: %s: %s"
            % (type(exc).__name__, exc)) from exc
    for name in list(registry._metrics):
        if name not in snapshot:
            del registry._metrics[name]
