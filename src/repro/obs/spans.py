"""Kill-chain spans: named stages with virtual start/end times.

A :class:`Span` groups the flat :class:`~repro.sim.trace.TraceRecord`
stream into the stages the paper's figures are drawn from — e.g.
``stuxnet.usb_entry``, ``stuxnet.step7_infect``, ``flame.beetlejuice``,
``shamoon.wipe``.  Spans nest: the recorder keeps a stack, so a driver
span opened while a campaign span is live becomes its child, and the
exported trace reconstructs the whole kill chain as a tree.

Two APIs:

* ``with kernel.span("flame.beetlejuice", host=...):`` — the context
  manager, for stages that start and end inside one call frame (virtual
  time may still advance in between, e.g. around ``kernel.run_for``);
* :meth:`SpanRecorder.begin` / :meth:`SpanRecorder.finish` — for stages
  whose start and end live in different event callbacks (a retried
  report whose outcome arrives via ``on_success``/``on_give_up``).

Recording a span consumes no randomness and schedules no events, so
instrumented and uninstrumented runs of the same seed are identical.

:meth:`SpanRecorder.digest` hashes the recorder for checkpoints: closed
spans fold into a running SHA-256 in finish order, so only the open
spans are rendered again at each checkpoint.
"""

import hashlib
from contextlib import contextmanager

#: Span states.  ``open`` means the simulation ended before the stage
#: did — visible in exports rather than silently dropped.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_OPEN = "open"


class Span:
    """One named kill-chain stage with virtual start/end times."""

    __slots__ = ("span_id", "name", "start", "end", "parent_id", "status",
                 "attrs")

    def __init__(self, span_id, name, start, parent_id=None, attrs=None):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent_id = parent_id
        self.status = STATUS_OPEN
        self.attrs = dict(attrs) if attrs else {}

    @property
    def finished(self):
        return self.status != STATUS_OPEN

    @property
    def duration(self):
        """Virtual seconds the stage covered (None while still open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def as_dict(self):
        """Stable primitive rendering (export + digest input)."""
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self):
        end = "..." if self.end is None else "%.2f" % self.end
        return "Span(#%d %s [%.2f, %s] %s)" % (
            self.span_id, self.name, self.start, end, self.status)


class SpanRecorder:
    """Owns every span of one simulation, in begin order.

    Attached to the kernel next to the :class:`~repro.sim.trace.TraceLog`;
    span ids are a simple sequence, so two seeded runs produce identical
    recorders.
    """

    def __init__(self, clock):
        self._clock = clock
        self._spans = []
        self._stack = []
        self._next_id = 1
        self._finish_listeners = []
        #: Live spans by id, in begin order.
        self._open = {}
        #: Spans closed since the last :meth:`digest`, in finish order.
        self._unfolded = []
        self._hash = hashlib.sha256()

    # -- recording ------------------------------------------------------------

    def on_finish(self, listener):
        """Register ``listener(span)`` to fire whenever a span closes.

        This is the stage-boundary hook the checkpoint layer uses: a
        campaign stage finishing is exactly the cut point a resumable
        run wants a checkpoint at.  Listeners must be pure observers —
        recording no spans, scheduling no events, drawing no
        randomness.  Returns ``listener`` so callers can detach it
        later with :meth:`remove_finish_listener`.
        """
        self._finish_listeners.append(listener)
        return listener

    def remove_finish_listener(self, listener):
        """Detach a listener registered with :meth:`on_finish`."""
        if listener in self._finish_listeners:
            self._finish_listeners.remove(listener)

    def begin(self, name, parent=None, **attrs):
        """Open a span now; the caller must :meth:`finish` it later.

        ``parent`` defaults to the innermost span opened via the context
        manager (the enclosing campaign stage), so asynchronous driver
        spans still hang off the right branch of the kill chain.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(self._next_id, name, self._clock.now,
                    parent_id=parent.span_id if parent else None,
                    attrs=attrs)
        self._next_id += 1
        self._spans.append(span)
        self._open[span.span_id] = span
        return span

    def finish(self, span, status=STATUS_OK):
        """Close a span at the current virtual time."""
        if span.finished:
            return span
        span.end = self._clock.now
        span.status = status
        self._open.pop(span.span_id, None)
        self._unfolded.append(span)
        for listener in self._finish_listeners:
            listener(span)
        return span

    @contextmanager
    def span(self, name, **attrs):
        """Open a child span for the duration of the ``with`` block."""
        span = self.begin(name, **attrs)
        self._stack.append(span)
        try:
            yield span
        except BaseException:
            self.finish(span, STATUS_ERROR)
            raise
        finally:
            self._stack.pop()
            if not span.finished:
                self.finish(span, STATUS_OK)

    @property
    def current(self):
        """The innermost live context-manager span, or None."""
        return self._stack[-1] if self._stack else None

    # -- checkpointing --------------------------------------------------------

    def digest(self):
        """SHA-256 hex digest of the whole recorder state.

        Closed spans are folded into a running hash in finish order,
        each as one canonical JSON line; the open spans, the context
        stack and the next span id are rendered in full on top of it.
        Attrs pass through :func:`repro.obs.export.jsonable`.
        """
        from repro.obs.export import jsonable
        from repro.sim.checkpoint import canonical_json

        def render(span):
            entry = span.as_dict()
            entry["attrs"] = jsonable(entry["attrs"])
            return entry

        for span in self._unfolded:
            self._hash.update(
                ("%s\n" % canonical_json(render(span))).encode("utf-8"))
        self._unfolded = []
        tail = self._hash.copy()
        tail.update(canonical_json({
            "next_id": self._next_id,
            "stack": [span.span_id for span in self._stack],
            "open": [render(span) for span in self._open.values()],
        }).encode("utf-8"))
        return tail.hexdigest()

    # -- introspection --------------------------------------------------------

    def __len__(self):
        return len(self._spans)

    def __iter__(self):
        return iter(self._spans)

    def spans(self, name=None):
        """Spans in begin order; ``name`` matches exactly, or by prefix
        with a trailing ``*`` (the :meth:`TraceLog.query` convention)."""
        if name is None:
            return list(self._spans)
        if name.endswith("*"):
            prefix = name[:-1]
            return [s for s in self._spans if s.name.startswith(prefix)]
        return [s for s in self._spans if s.name == name]

    def names(self):
        """Set of distinct span names recorded so far."""
        return {span.name for span in self._spans}

    def by_id(self, span_id):
        """Span with the given id, or None (ids are 1-based, dense)."""
        index = span_id - 1
        if 0 <= index < len(self._spans):
            span = self._spans[index]
            if span.span_id == span_id:
                return span
        for span in self._spans:
            if span.span_id == span_id:
                return span
        return None

    def tree(self):
        """``{parent_name_or_None: [child spans]}`` adjacency mapping."""
        children = {}
        for span in self._spans:
            parent = self.by_id(span.parent_id) if span.parent_id else None
            children.setdefault(parent.name if parent else None,
                                []).append(span)
        return children
