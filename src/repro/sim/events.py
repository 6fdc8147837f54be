"""Event queue and kernel: the heart of the discrete-event simulation."""

import hashlib
import math
import struct
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from operator import attrgetter, itemgetter

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.sim.clock import SimClock
from repro.sim.errors import ScheduleInPastError, SimulationError
from repro.sim.faults import FaultInjector
from repro.sim.rng import DeterministicRandom
from repro.sim.trace import TraceLog

_SEQUENCE = itemgetter(1)
_CANCELLED = attrgetter("cancelled")
_LABEL = attrgetter("label")


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, sequence)`` — their heap entry in
    :class:`EventQueue` — so that simultaneous events dispatch in the
    order they were scheduled, a property the replayed figure traces
    rely on.

    ``task`` is the :class:`PeriodicTask` whose next firing this is,
    set only for tasks with an idle predicate (see
    :meth:`EventQueue.skip_idle`).
    """

    __slots__ = ("time", "sequence", "callback", "label", "cancelled",
                 "task", "_queue")

    def __init__(self, time, sequence, callback, label):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.task = None
        self._queue = None

    def cancel(self):
        """Mark the event so the kernel skips it at dispatch time."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._note_cancelled()
                self._queue = None

    def __repr__(self):
        state = " (cancelled)" if self.cancelled else ""
        return "Event(t=%.3f, %r)%s" % (self.time, self.label, state)


class EventQueue:
    """Min-heap of pending events ordered by (time, insertion order).

    Heap entries are ``(time, sequence, event)`` tuples, so ``heapq``
    compares them in C; ``(time, sequence)`` is unique per queue, so
    the :class:`Event` in the third slot is never compared.

    Cancelled events stay in the heap until they surface (lazy
    deletion); when they pile up faster than they surface — a campaign
    cancelling thousands of pending retries at suicide time — the queue
    compacts itself, rebuilding the heap from the live events only.
    """

    #: Compact only once at least this many cancelled entries linger,
    #: so small queues never pay the heapify.
    COMPACT_MIN_GARBAGE = 64

    #: Most firings one :meth:`skip_idle` window advances; a window
    #: with no other event to bound it ends here and the next begins.
    MAX_SKIP = 1 << 10

    def __init__(self):
        self._heap = []
        self._sequence = 0
        #: Count of non-cancelled events, maintained incrementally so
        #: ``len()`` is O(1) even with millions of pending events.
        self._live = 0

    def push(self, time, callback, label):
        sequence = self._sequence
        event = Event(time, sequence, callback, label)
        event._queue = self
        self._sequence = sequence + 1
        self._live += 1
        heappush(self._heap, (time, sequence, event))
        return event

    def pop(self):
        """Remove and return the next non-cancelled event, or None."""
        return self.pop_due(None)

    def pop_due(self, until):
        """Pop the next live event if it is due by ``until``.

        Folds ``peek_time`` + ``pop`` into a single heap traversal for
        the kernel's dispatch loop.  Returns None when the queue is
        drained or the next live event lies beyond ``until``; in the
        latter case the event stays queued.
        """
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                continue
            if until is not None and time > until:
                return None
            heappop(heap)
            self._live -= 1
            # Detach: cancelling an already-dispatched event must
            # not decrement the live counter again.
            event._queue = None
            return event
        return None

    def restore(self, event):
        """Re-queue an event popped but not dispatched (budget aborts)."""
        event._queue = self
        self._live += 1
        heappush(self._heap, (event.time, event.sequence, event))

    def skip_idle(self, first, until, limit):
        """Advance idle periodic firings without dispatching them.

        ``first`` was just popped and its task is idle.  Every further
        idle task firing that heads the heap joins it; the heap entry
        left on top after that bounds the window, as do ``until`` and
        ``limit`` (the most firings the caller may still dispatch).  An
        idle firing changes nothing but its task's counter, so no
        predicate can change inside the window, and the firings due
        before its bound are exactly those a dispatch loop would make.

        Each firing's time is its predecessor's plus the interval,
        added one at a time as :meth:`Kernel.call_later` adds it.  A
        firing's heap sequence is the next free one when its
        predecessor fired, so its rank in the merged order of the
        window decides it: entries at equal times order by the firings
        that created them, which is what :func:`_created_before`
        compares.  The window's firings are always a prefix of that
        order, so a run cut short by ``limit`` sees the state it would
        have seen after dispatching them one by one.

        Tasks' counters move by their firing counts and each popped
        event is re-queued with the ``(time, sequence)`` it would have
        had.  Returns ``(count, time, label)`` of the window's last
        firing; with ``count == 0`` nothing fired, the other members
        are back in the heap and ``first`` must be dispatched normally.
        """
        heap = self._heap
        members = [first]
        while heap:
            time, _, event = heap[0]
            task = event.task
            if (event.cancelled or task is None
                    or (until is not None and time > until)
                    or not task.idle()):
                break
            heappop(heap)
            event._queue = None
            self._live -= 1
            members.append(event)
        stop = heap[0][0] if heap else math.inf
        if until is not None:
            stop = min(stop, math.nextafter(until, math.inf))
        cap = min(limit, self.MAX_SKIP)
        # Each member's firing times due before ``stop``, at most ``cap``
        # of them: enough to hold the first ``cap`` firings overall.
        firings = []
        for event in members:
            time = event.time
            interval = event.task._interval
            times = [time]
            append = times.append
            for _ in range(cap - 1):
                time += interval
                if time >= stop:
                    break
                append(time)
            firings.append(times)
        counts = [len(times) for times in firings]
        if sum(counts) > cap:
            # Cut at a time: the firings before the (cap + 1)-th
            # earliest one are a prefix of the merged order.
            cut = sorted(t for times in firings for t in times)[cap]
            counts = [bisect_left(times, cut) for times in firings]
        total = sum(counts)
        if not total:
            for event in members[1:]:
                self.restore(event)
            return 0, None, None
        sequences = [event.sequence for event in members]
        ranks = []
        for j, count in enumerate(counts):
            # Rank of member j's last firing in the merged order.
            rank = index = count - 1
            if count:
                time = firings[j][index]
                for m, other in enumerate(firings):
                    if m == j:
                        continue
                    low = bisect_left(other, time, 0, counts[m])
                    high = bisect_right(other, time, low, counts[m])
                    rank += low
                    for b in range(low, high):
                        rank += _created_before(firings, sequences,
                                                m, b, j, index)
            ranks.append(rank)
        base = self._sequence
        self._sequence = base + total
        for event, times, count, rank in zip(members, firings, counts, ranks):
            if not count:
                self.restore(event)
                continue
            if rank == total - 1:
                last_time, last_label = times[count - 1], event.label
            task = event.task
            task.skipped(count)
            event.time = times[count - 1] + task._interval
            event.sequence = base + rank
            self.restore(event)
        return total, last_time, last_label

    def peek_time(self):
        """Time of the next live event, or None if the queue is drained."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def digest(self):
        """SHA-256 hex digest of the heap, for a checkpoint.

        Entries are hashed in sequence order (sequences are unique per
        queue) — not raw heap-array order — so equivalent queues digest
        identically; cancelled entries that have not yet surfaced (or
        been compacted away) count with their flag, and so does the
        push counter, so the digest pins the compaction accounting too.
        Callbacks are not data: only each event's label is hashed.
        Times and sequences are packed as little-endian binary, which
        keeps a digest at every checkpoint cheap next to the run.
        """
        entries = sorted(self._heap, key=_SEQUENCE)
        count = len(entries)
        times, sequences, events = zip(*entries) if entries else ((),) * 3
        digest = hashlib.sha256(struct.pack(
            "<2q%dd%dq" % (count, count), self._sequence, count,
            *times, *sequences))
        digest.update(bytes(map(_CANCELLED, events)))
        digest.update("\n".join(map(_LABEL, events))
                      .encode("utf-8", "backslashreplace"))
        return digest.hexdigest()

    def _note_cancelled(self):
        """Bookkeeping from :meth:`Event.cancel`: maybe compact.

        Compaction triggers when cancelled entries both exceed the
        minimum garbage floor and outnumber the live events, keeping
        the heap within 2x of its live size at O(live) amortised cost.
        """
        self._live -= 1
        garbage = len(self._heap) - self._live
        if garbage >= self.COMPACT_MIN_GARBAGE and garbage > self._live:
            self._heap = [entry for entry in self._heap
                          if not entry[2].cancelled]
            heapify(self._heap)

    def __len__(self):
        return self._live

    def __bool__(self):
        return self.peek_time() is not None


def _created_before(firings, sequences, m, b, j, a):
    """Whether firing ``b`` of skip-window member ``m`` is queued ahead
    of firing ``a`` of member ``j`` at the same time.

    Firing 0 is the entry already queued, whose sequence predates the
    window; every later firing's entry was created by the firing before
    it, so ties recurse to those.
    """
    while b and a:
        b -= 1
        a -= 1
        mine, theirs = firings[m][b], firings[j][a]
        if mine != theirs:
            return mine < theirs
    if b or a:
        return not b
    return sequences[m] < sequences[j]


class PeriodicTask:
    """A callback rescheduled every ``interval`` seconds until stopped.

    Models the recurring jobs the paper describes: the C&C server's
    30-minute stolen-file cleanup, a beacon interval, an AV scan sweep.

    A jitter-free task may carry an ``idle()`` predicate: true when a
    firing now would change nothing but the owner's own firing
    counter, with ``skipped(n)`` moving that counter as ``n`` firings
    would.  The predicate may read only state that events change, never
    the clock.  :meth:`Kernel.run` then advances runs of idle firings
    without dispatching them (see :meth:`EventQueue.skip_idle`).
    """

    def __init__(self, kernel, interval, callback, label, jitter=0.0,
                 idle=None, skipped=None):
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError("interval must be a finite number > 0, "
                             "got %r" % (interval,))
        if not (math.isfinite(jitter) and jitter >= 0):
            raise ValueError("jitter must be a finite number >= 0, "
                             "got %r" % (jitter,))
        if (idle is None) != (skipped is None):
            raise ValueError("idle and skipped must be given together")
        if idle is not None and jitter:
            raise ValueError("an idle predicate needs a jitter-free task")
        self._kernel = kernel
        self._interval = interval
        self._callback = callback
        self._label = label
        self._jitter = jitter
        self.idle = idle
        self.skipped = skipped
        self._stopped = False
        self._pending = None
        self._schedule_next()

    @property
    def stopped(self):
        return self._stopped

    def stop(self):
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _schedule_next(self):
        delay = self._interval
        if self._jitter:
            delay += self._kernel.rng.uniform(-self._jitter, self._jitter)
            delay = max(delay, 1e-9)
        self._pending = self._kernel.call_later(delay, self._fire, self._label)
        if self.idle is not None:
            self._pending.task = self

    def _fire(self):
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._schedule_next()


class Kernel:
    """Owns the clock, the event queue, the RNG, and the trace log.

    Typical use::

        kernel = Kernel(seed=7)
        kernel.call_later(60.0, do_something, "usb-insertion")
        kernel.run()
        print(kernel.trace.dump())
    """

    #: Safety valve: a simulation dispatching more events than this is
    #: assumed to be stuck in a self-rescheduling loop.
    DEFAULT_MAX_EVENTS = 5_000_000

    def __init__(self, seed=0, epoch=None):
        self.clock = SimClock() if epoch is None else SimClock(epoch)
        self.rng = DeterministicRandom(seed)
        self.trace = TraceLog(self.clock)
        #: Observability: kill-chain spans and the metrics registry.
        #: Both are pure recorders — they consume no randomness and
        #: schedule no events, so instrumentation never perturbs a
        #: seeded run.
        self.spans = SpanRecorder(self.clock)
        self.metrics = MetricsRegistry()
        self.faults = FaultInjector(self)
        self._queue = EventQueue()
        self._dispatched = 0
        self._events_metric = self.metrics.counter("sim.events_dispatched")
        #: Named components whose state travels inside kernel
        #: checkpoints (see :meth:`register_state_provider`).
        self._state_providers = {}

    @property
    def now(self):
        return self.clock.now

    @property
    def now_dt(self):
        return self.clock.now_dt

    @property
    def dispatched_events(self):
        """Number of events dispatched so far."""
        return self._dispatched

    @property
    def pending_events(self):
        """Number of live events still queued."""
        return len(self._queue)

    def call_at(self, when, callback, label="event"):
        """Schedule ``callback`` at absolute virtual time ``when``.

        NaN is rejected explicitly (mirroring :meth:`run_for`): it
        compares False against every bound, so it would slip past both
        an in-past guard written as ``when < now`` and
        ``run(until=...)``'s stop condition, corrupting the heap order
        along the way.  The single ``not when >= now`` test catches
        both NaN and the past; only a failing call tells them apart.
        """
        if not when >= self.clock.now:
            if math.isnan(when):
                raise ValueError(
                    "call_at() time must be a non-NaN number of seconds, "
                    "got %r" % when)
            raise ScheduleInPastError(self.clock.now, when)
        return self._queue.push(when, callback, label)

    def call_later(self, delay, callback, label="event"):
        """Schedule ``callback`` after ``delay`` seconds of virtual time.

        NaN is rejected for the same reason as in :meth:`call_at` — a
        NaN delay would schedule a NaN-timed event that defeats every
        ordering and stop-condition comparison downstream — and by the
        same single comparison.
        """
        if not delay >= 0:
            if math.isnan(delay):
                raise ValueError(
                    "call_later() delay must be a non-NaN number of "
                    "seconds, got %r" % delay)
            raise ScheduleInPastError(self.clock.now, self.clock.now + delay)
        return self._queue.push(self.clock.now + delay, callback, label)

    def call_at_datetime(self, moment, callback, label="event"):
        """Schedule ``callback`` at an absolute calendar datetime.

        This is how hardcoded trigger dates are armed — e.g. Shamoon's
        wiper detonating at 2012-08-15 08:08 UTC.
        """
        return self.call_at(self.clock.to_seconds(moment), callback, label)

    def every(self, interval, callback, label="periodic", jitter=0.0,
              idle=None, skipped=None):
        """Create a :class:`PeriodicTask` firing every ``interval`` seconds.

        ``idle``/``skipped`` let the kernel advance the task's idle
        firings without dispatching them (see :class:`PeriodicTask`).
        """
        return PeriodicTask(self, interval, callback, label, jitter=jitter,
                            idle=idle, skipped=skipped)

    def span(self, name, **attrs):
        """Open a named kill-chain span for the duration of a ``with``
        block (see :class:`repro.obs.spans.SpanRecorder`).

        Virtual time may advance inside the block (e.g. around
        :meth:`run_for`), so the span's start/end times delimit the
        stage in the simulated timeline.
        """
        return self.spans.span(name, **attrs)

    def register_state_provider(self, name, provider):
        """Attach a named component whose state rides in checkpoints.

        ``provider`` must expose ``snapshot_state()`` (a JSON-safe
        payload, captured without perturbing the run).  The state
        :func:`repro.sim.checkpoint.kernel_state` renders gains an
        ``extensions`` section mapping each registered name to its
        provider's payload, so the provider's state is part of every
        state digest the replay resume verifies.

        Returns the provider for chaining.
        """
        if not isinstance(name, str) or not name:
            raise TypeError("provider name must be a non-empty string, "
                            "got %r" % (name,))
        if name in self._state_providers:
            raise SimulationError(
                "state provider %r is already registered" % name)
        self._state_providers[name] = provider
        return provider

    @property
    def state_providers(self):
        """Registered provider names, sorted (read-only view)."""
        return sorted(self._state_providers)

    def run(self, until=None, max_events=DEFAULT_MAX_EVENTS):
        """Dispatch events until the queue drains (or ``until`` seconds).

        Returns the number of events dispatched by this call.

        This is the hot path of every simulation: each iteration makes
        a single heap access (:meth:`EventQueue.pop_due` folds the old
        peek+pop pair), the per-event attribute lookups are hoisted out
        of the loop, and the ``sim.events_dispatched`` metric and
        :attr:`dispatched_events` counter advance after every dispatch,
        so a checkpoint taken by a callback inside a long ``run()``
        records the count so far.

        A popped firing of an idle periodic task starts a skip window
        (:meth:`EventQueue.skip_idle`): its idle firings count as
        dispatched events without a callback, the clock moves to the
        last of them, and the budget sees them as if each had been
        dispatched.
        """
        if until is not None and not math.isfinite(until):
            raise ValueError("run() until must be a finite number of "
                             "seconds, got %r" % (until,))
        dispatched = 0
        last_label = None
        queue = self._queue
        pop_due = queue.pop_due
        advance_to = self.clock.advance_to
        events_metric = self._events_metric
        while True:
            event = pop_due(until)
            if event is None:
                break
            if dispatched >= max_events:
                # Raise *before* dispatching event max_events + 1,
                # so a budget of N never executes more than N
                # callbacks; the undispatched event stays queued.
                queue.restore(event)
                raise SimulationError(
                    "dispatched %d events without draining; runaway "
                    "simulation (last event label: %r)"
                    % (dispatched, last_label)
                )
            count = 0
            task = event.task
            if task is not None and task.idle():
                count, time, label = queue.skip_idle(
                    event, until, max_events - dispatched)
                if count:
                    advance_to(time)
                    last_label = label
            if not count:
                advance_to(event.time)
                event.callback()
                last_label = event.label
                count = 1
            dispatched += count
            self._dispatched += count
            events_metric.value += count
        if until is not None and until > self.clock.now:
            self.clock.advance_to(until)
        return dispatched

    def run_for(self, duration, max_events=DEFAULT_MAX_EVENTS):
        """Run for ``duration`` seconds of virtual time from now.

        A negative, infinite or NaN duration is always a caller bug (a
        miscomputed interval), so it raises rather than silently
        no-opping or moving the clock to infinity.
        """
        duration = float(duration)
        if not (math.isfinite(duration) and duration >= 0):
            raise ValueError(
                "run_for() duration must be a finite non-negative number "
                "of seconds, got %r" % duration
            )
        return self.run(until=self.clock.now + duration, max_events=max_events)
