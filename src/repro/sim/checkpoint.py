"""Versioned, digest-protected JSON envelopes and the kernel state digest.

Every checkpoint artefact — each line of a campaign's or a sweep's
``MANIFEST.jsonl`` — is one canonical JSON envelope
``{format, kind, meta, state, state_digest, digest}``:

* ``state_digest`` hashes only the payload (``state``).
* ``digest`` hashes the whole envelope body (meta + state +
  state_digest) and is the integrity check: a corrupted, truncated, or
  tampered envelope fails :func:`verify_envelope` with a typed
  :class:`~repro.sim.errors.CheckpointError` instead of crashing deep
  in deserialization.

A kernel is never written out, only digested: :func:`state_digest`
hashes :func:`kernel_state` — clock, RNG streams, dispatch counter,
metrics, fault schedule, registered extensions, and digests of the event
heap, the trace log and the span recorder.  The trace and span digests
fold each record once, so digesting at every stage boundary of a run
costs time linear in its records.  Event callbacks are closures and
are not captured.  Resume is replay: :mod:`repro.core.resume` re-runs
the deterministic campaign from zero and demands that it reproduce the
recorded ``state_digest`` chain bit for bit.
"""

import hashlib
import json

from repro.sim.errors import (
    CheckpointDigestError,
    CheckpointError,
    CheckpointVersionError,
)

#: Bump whenever the envelope or state payload shape changes; readers
#: reject other versions with :class:`CheckpointVersionError`.
CHECKPOINT_VERSION = 4

#: Envelope kinds: a manifest's header declares what the directory
#: records, so a sweep manifest can never be mistaken for a campaign's;
#: every later line of either is a ``campaign-checkpoint`` envelope.
KIND_MANIFEST = "checkpoint-manifest"
KIND_CHECKPOINT = "campaign-checkpoint"
KIND_SWEEP = "sweep-manifest"


def canonical_json(value):
    """The one serialisation every digest in this format is taken over.

    Sorted keys, no whitespace, no NaN/Infinity literals — so a payload
    has exactly one byte representation and digests are reproducible
    across processes and platforms.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def payload_digest(payload):
    """SHA-256 hex digest of a payload's canonical JSON.

    A payload with no canonical form (a NaN or infinity anywhere in it)
    raises :class:`CheckpointError`, not the encoder's bare
    ``ValueError``.
    """
    try:
        text = canonical_json(payload)
    except ValueError as exc:
        raise CheckpointError(
            "payload has no canonical JSON form: %s" % exc) from exc
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def envelope_line(envelope):
    """One envelope as a single newline-terminated JSON text line.

    The line keeps the payload's own key order (digests are taken over
    the canonical sorted form regardless), so dict-valued state — e.g.
    a campaign result's ``infection_vectors`` tally — round-trips in
    insertion order and a resumed run prints byte-identically.
    """
    return json.dumps(envelope, separators=(",", ":"),
                      allow_nan=False) + "\n"


# -- kernel state ---------------------------------------------------------------

def kernel_state(kernel):
    """The state payload :func:`state_digest` hashes for one kernel.

    The event heap, the trace log and the span recorder enter as
    digests (:meth:`~repro.sim.events.EventQueue.digest`,
    :meth:`~repro.sim.trace.TraceLog.digest`,
    :meth:`~repro.obs.spans.SpanRecorder.digest`), not as entry lists.
    Kernels carrying registered state providers (see
    :meth:`repro.sim.events.Kernel.register_state_provider`) gain an
    ``extensions`` section — absent otherwise.

    Pure observation: consumes no randomness, schedules no events,
    records no trace — digesting never perturbs the seeded run.
    """
    state = {
        "clock": {
            "epoch": kernel.clock.epoch.isoformat(),
            "now": kernel.clock.now,
        },
        "rng": kernel.rng.getstate(),
        "dispatched": kernel.dispatched_events,
        "queue": kernel._queue.digest(),
        "trace": kernel.trace.digest(),
        "spans": kernel.spans.digest(),
        "metrics": kernel.metrics.snapshot(),
        "faults": kernel.faults.snapshot_state(),
    }
    extensions = {name: provider.snapshot_state()
                  for name, provider in kernel._state_providers.items()}
    if extensions:
        state["extensions"] = extensions
    return state


def state_digest(kernel):
    """SHA-256 hex digest of ``kernel``'s state: a checkpoint's identity."""
    return payload_digest(kernel_state(kernel))
