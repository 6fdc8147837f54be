"""Structured trace log.

Each figure in the paper is an architecture/data-flow diagram; the
benchmark harness regenerates them by replaying the trace of a simulated
campaign.  A :class:`TraceRecord` is one arrow in such a diagram: who did
what to whom, when, with what details.

``TraceLog`` is an append-only list of records, and :meth:`TraceLog.query`
is one linear scan over it.  A campaign replica writes a few hundred to
a few thousand records and queries them at most a handful of times, so
the scan is cheap and no index pays for itself.

:meth:`TraceLog.digest` folds the records into a running SHA-256 from a
cursor, so hashing the log at every checkpoint of a run costs one pass
over it in total rather than one pass per checkpoint.
"""

import hashlib


class TraceRecord:
    """One immutable entry in the simulation trace."""

    __slots__ = ("time", "actor", "action", "target", "detail")

    def __init__(self, time, actor, action, target=None, detail=None):
        self.time = time
        self.actor = actor
        self.action = action
        self.target = target
        self.detail = dict(detail) if detail else {}

    def __repr__(self):
        target = " -> %s" % self.target if self.target else ""
        return "[t=%10.2f] %s %s%s %s" % (
            self.time,
            self.actor,
            self.action,
            target,
            self.detail or "",
        )


def _matches(value, pattern):
    """The per-field filter predicate of :meth:`TraceLog.query`.

    ``None`` pattern matches everything; a ``None`` value matches no
    pattern; a trailing ``*`` turns the pattern into a prefix match.
    """
    if pattern is None:
        return True
    if value is None:
        return False
    if pattern.endswith("*"):
        return value.startswith(pattern[:-1])
    return value == pattern


def _stable(value):
    """Process-independent rendering of a trace-detail value.

    ``repr`` of a primitive is stable across interpreters; the default
    ``repr`` of an arbitrary object embeds its memory address, which
    would make digests differ between workers — so objects render as
    their type name.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, dict):
        items = sorted((str(k), _stable(v)) for k, v in value.items())
        return "{%s}" % ",".join("%s=%s" % item for item in items)
    if isinstance(value, (list, tuple, set, frozenset)):
        parts = [_stable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            parts = sorted(parts)
        return "[%s]" % ",".join(parts)
    return "<%s>" % type(value).__name__


class TraceLog:
    """Append-only record of everything that happened in a simulation."""

    def __init__(self, clock):
        self._clock = clock
        self._records = []
        self._hash = hashlib.sha256()
        self._folded = 0

    # -- recording ---------------------------------------------------------------

    def record(self, actor, action, target=None, **detail):
        """Append a record stamped with the current virtual time."""
        entry = TraceRecord(self._clock.now, actor, action, target, detail)
        self._records.append(entry)
        return entry

    # -- digest ----------------------------------------------------------------

    def digest(self):
        """SHA-256 hex digest of every record appended so far.

        Each record hashes as one ``time|actor|action|target|detail``
        line.  Records are folded into a running hash from a cursor, so
        repeated calls during a run (one per checkpoint) cost one pass
        over the log in total.  A record is hashed as it stands when it
        is first folded.
        """
        # Feed the hash in ~64 KiB batches: one encode+update per buffer
        # instead of per record.  UTF-8 encoding distributes over
        # concatenation, so the digest is that of the per-line feed.
        update = self._hash.update
        buffered = []
        buffered_bytes = 0
        for record in self._records[self._folded:]:
            line = "%r|%s|%s|%s|%s\n" % (record.time, record.actor,
                                         record.action, record.target,
                                         _stable(record.detail))
            buffered.append(line)
            buffered_bytes += len(line)
            if buffered_bytes >= 65536:
                update("".join(buffered).encode("utf-8", "backslashreplace"))
                buffered = []
                buffered_bytes = 0
        if buffered:
            update("".join(buffered).encode("utf-8", "backslashreplace"))
        self._folded = len(self._records)
        return self._hash.hexdigest()

    # -- container protocol ------------------------------------------------------

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    # -- queries -----------------------------------------------------------------

    def query(self, actor=None, action=None, target=None, since=None, until=None):
        """Return records matching every given filter, in append order.

        ``actor``, ``action``, and ``target`` all match exactly, except
        that a trailing ``*`` turns the filter into a prefix match —
        this applies uniformly to all three, so namespaced actions
        (``action="flame.*"``) and hostname families
        (``target="aramco-*"``) filter the same way.  A record with no
        target never matches a ``target`` filter, even ``"*"``.
        ``since`` and ``until`` bound the record time inclusively.
        """
        out = []
        for rec in self._records:
            if not _matches(rec.actor, actor):
                continue
            if not _matches(rec.action, action):
                continue
            if not _matches(rec.target, target):
                continue
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time > until:
                continue
            out.append(rec)
        return out

    def count(self, **filters):
        """Number of records matching :meth:`query` filters."""
        return len(self.query(**filters))

    def actions(self):
        """Set of distinct action names seen so far."""
        return {record.action for record in self._records}

    def first(self, **filters):
        """Earliest matching record, or None."""
        matching = self.query(**filters)
        return matching[0] if matching else None

    def last(self, **filters):
        """Latest matching record, or None."""
        matching = self.query(**filters)
        return matching[-1] if matching else None

    def timeline(self, **filters):
        """Matching records as (time, actor, action, target) tuples."""
        return [(r.time, r.actor, r.action, r.target) for r in self.query(**filters)]

    def dump(self, limit=None):
        """Human-readable rendering of the trace (or its first ``limit`` rows)."""
        rows = self._records if limit is None else self._records[:limit]
        return "\n".join(repr(r) for r in rows)
