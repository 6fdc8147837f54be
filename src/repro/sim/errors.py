"""Exception hierarchy for the simulation kernel."""


class SimulationError(Exception):
    """Base class for every error raised by the simulation kernel."""


class ScheduleInPastError(SimulationError):
    """Raised when an event is scheduled before the current virtual time."""

    def __init__(self, now, when):
        super().__init__(
            "cannot schedule event at t=%.6f; clock is already at t=%.6f"
            % (when, now)
        )
        self.now = now
        self.when = when


class SupervisionError(SimulationError):
    """A pooled sweep could not keep its worker pool productive.

    Raised for supervisor-level breakdowns (e.g. workers dying faster
    than the restart budget allows), as opposed to the per-replica
    failures below, which are recoverable and normally end up as
    structured ``ReplicaFailure`` records instead of exceptions.
    """


class ReplicaTimeoutError(SupervisionError):
    """A replica exhausted its retries by exceeding the wall-clock
    timeout every time (raised only under ``on_failure="fail"``)."""

    def __init__(self, index, attempts, timeout):
        super().__init__(
            "replica %d exceeded the %.3fs wall-clock timeout on all "
            "%d attempt%s" % (index, timeout, attempts,
                              "" if attempts == 1 else "s"))
        self.index = index
        self.attempts = attempts
        self.timeout = timeout


class PoisonReplicaError(SupervisionError):
    """A replica failed every allowed attempt (raised only under
    ``on_failure="fail"``; ``on_failure="quarantine"`` records a
    ``ReplicaFailure`` instead and lets the sweep finish).  ``detail``
    is the last attempt's detail, e.g. ``"TypeError: ..."``."""

    def __init__(self, index, attempts, reason, detail=None):
        last = "%s (%s)" % (reason, detail) if detail else reason
        super().__init__(
            "replica %d failed %d attempt%s (last failure: %s)"
            % (index, attempts, "" if attempts == 1 else "s", last))
        self.index = index
        self.attempts = attempts
        self.reason = reason
        self.detail = detail


class CheckpointError(SimulationError):
    """A checkpoint could not be written, read, or verified.

    Every failure mode of the snapshot/resume layer surfaces as this
    type (or a subclass below) at the file boundary, so callers never
    see a raw ``JSONDecodeError``/``KeyError`` from deep inside
    deserialization when a checkpoint is corrupted or truncated.
    """


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written by an incompatible format version."""

    def __init__(self, expected, found, path=None):
        where = " in %s" % path if path else ""
        super().__init__(
            "checkpoint format version mismatch%s: this build reads "
            "version %r, file declares %r" % (where, expected, found)
        )
        self.expected = expected
        self.found = found
        self.path = path


class CheckpointDigestError(CheckpointError):
    """A checkpoint's content does not match its recorded SHA-256."""

    def __init__(self, expected, found, path=None):
        where = " in %s" % path if path else ""
        super().__init__(
            "checkpoint digest mismatch%s: recorded %s..., content "
            "hashes to %s... (corrupted or tampered file)"
            % (where, str(expected)[:12], str(found)[:12])
        )
        self.expected = expected
        self.found = found
        self.path = path
