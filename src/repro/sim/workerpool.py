"""Sweep worker processes: one supervised pool per sweep.

Every parallel sweep runs on a :class:`WorkerPool`:

* **One pool per sweep.**  Each sweep forks its own pool and closes it:
  :func:`repro.sim.sweep.run_sweep` holds the pool in a ``with`` block
  for exactly one sweep.  A pool owns up to N worker processes for one
  ``(spec, base_seed)``.  Each receives the pickle-safe
  ``CampaignSpec`` exactly **once**, as a process argument; every task
  is just a chunk of replica indices, never the spec again.
* **Forked warm.**  Workers are forked straight from the process that
  runs the sweep, so they inherit its imports and its cache of derived
  RSA keys: no fork server starts and no worker derives a key its
  parent already holds.  Each closes, after the fork, the parent-side
  pipe ends it inherited, so a parent that dies leaves none of them
  blocked on a pipe it holds both ends of.  Where ``fork`` is missing
  the workers are spawned and import the campaign stack themselves.
* **Compact result rows.**  Workers ship each finished replica home as
  a struct-framed binary row (:func:`encode_replica_row`) instead of a
  pickled ``ReplicaResult``.  The replica's seed is *not* shipped: it
  is a pure function of ``(base_seed, index)`` and is recomputed on
  decode, which is both smaller and a standing determinism check.
* **Always supervised.**  Workers announce each replica (``start``),
  report its outcome (``ok``/``error``), say when a chunk is drained
  (``idle``) and heartbeat from a side thread every
  :data:`HEARTBEAT_SECONDS`, so crashes, hangs (no heartbeat for
  :data:`HANG_TIMEOUT_SECONDS`) and timeouts are always detected.  A
  dead worker costs only its in-flight replica: the untouched tail of
  its chunk is re-queued as its own chunk (*re-splitting*) and a fresh
  worker takes its place.

What a failure *does* is a per-run policy, a :class:`SupervisorConfig`
passed to :meth:`WorkerPool.run`.  ``"parallel"`` and ``"auto"`` sweeps
use :data:`FAIL_FAST` (no retries; the first failure raises the typed
:class:`~repro.sim.errors.PoisonReplicaError` or
:class:`~repro.sim.errors.ReplicaTimeoutError`).  Supervised sweeps
retry a failed replica after a deterministic jittered backoff
(:data:`RETRY_BACKOFF`, scheduled by
:func:`repro.sim.retry.deterministic_backoff`) until its attempts run
out, then record a structured
:class:`~repro.core.ensemble.ReplicaFailure` (``on_failure=
"quarantine"``) or raise (``on_failure="fail"``).  Either way the run
returns every completed :class:`~repro.core.ensemble.ReplicaResult`
plus a machine-readable supervision report.

One lifecycle rule covers every policy: a sweep closes its pool.  A
sweep that returns closes it in order; anything that escapes (a typed
replica error, a record-callback exception, ``KeyboardInterrupt``, a
:class:`~repro.sim.errors.SupervisionError`) terminates it, so no
worker process outlives its sweep.

Determinism is preserved throughout: a retried replica re-runs
:func:`~repro.core.ensemble.run_replica` from its pure
``replica_seed``, so a salvaged sweep merged with a later retry pass is
byte-identical to an undisturbed run.  Only the supervision report
(restart counters, wall-clock spans) is nondeterministic, and it is
kept apart from the replica data for exactly that reason.

Like :mod:`repro.sim.sweep`, this module drives :mod:`repro.core`
campaigns from inside :mod:`repro.sim`, so the ensemble imports happen
lazily inside functions to keep package import order acyclic.
"""

import json
import multiprocessing
import os
import struct
import threading
import time
from collections import deque
from itertools import count
from multiprocessing import connection as _connection
from multiprocessing.util import register_after_fork

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import STATUS_ERROR, SpanRecorder
from repro.sim.errors import (
    PoisonReplicaError,
    ReplicaTimeoutError,
    SupervisionError,
)
from repro.sim.retry import RetryPolicy, deterministic_backoff

#: Wall-clock grace given to workers at orderly shutdown before SIGKILL.
_SHUTDOWN_GRACE_SECONDS = 2.0

#: How long an injected "hang"/"freeze" sleeps — far beyond any timeout
#: a test or the chaos gate would configure, so the pool always wins
#: the race.
_CHAOS_SLEEP_SECONDS = 3600.0

#: Exit code an injected worker crash dies with (mimics ``os._exit``
#: after a segfault handler; distinguishable in process tables).
_CHAOS_EXIT_CODE = 70

#: Longest the supervisor sleeps between checks for timeouts, hangs
#: and due retries.
POLL_SECONDS = 0.05

#: How often a busy worker's side thread heartbeats.  Workers read it
#: in their own process, so a parent-side override never reaches them.
HEARTBEAT_SECONDS = 0.25

#: Silence after which a busy worker counts as hung and is killed:
#: twenty missed heartbeats.
HANG_TIMEOUT_SECONDS = 20 * HEARTBEAT_SECONDS

#: Shape of the deterministic jittered backoff before a replica's
#: retries: 50 ms doubling to a 2 s cap.  How many retries a replica
#: gets is each run's ``max_replica_retries``, not this policy's
#: ``max_attempts``.
RETRY_BACKOFF = RetryPolicy(base_delay=0.05, multiplier=2.0, max_delay=2.0,
                            jitter=0.25)

#: Fixed row header: index, trace_records, events_dispatched,
#: sim_seconds, wall_seconds.
_ROW_HEADER = struct.Struct("<IQQdd")
_LEN = struct.Struct("<I")


def pool_start_method():
    """The start method sweep workers run under: ``fork`` where the
    platform has it, else ``spawn`` (which always works because the
    worker entrypoint and everything it pickles are module-level)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def pool_context():
    """A multiprocessing context for warm sweep workers.

    Under ``fork`` every worker, each restart after a crash included,
    is a copy of the sweep process: its imports and its derived RSA
    keys come with it, and it must close the parent-side pipe ends it
    inherits (:meth:`WorkerPool._spawn` arranges that).
    """
    return multiprocessing.get_context(pool_start_method())


# -- result-row codec ----------------------------------------------------------

def _pack_blob(obj):
    blob = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(blob)) + blob


def encode_replica_row(replica):
    """Pack a ``ReplicaResult`` into a compact binary row.

    Fixed struct header for the scalars, then length-prefixed UTF-8
    fields: the trace digest, and compact-JSON blobs for the
    measurement and metric snapshots (both are primitive-only by
    construction, so JSON round-trips them exactly).  The seed is
    omitted on purpose — see :func:`decode_replica_row`.
    """
    digest = replica.trace_digest.encode("utf-8")
    return b"".join((
        _ROW_HEADER.pack(replica.index, replica.trace_records,
                         replica.events_dispatched, replica.sim_seconds,
                         replica.wall_seconds),
        _LEN.pack(len(digest)), digest,
        _pack_blob(replica.measurements),
        _pack_blob(replica.metrics),
    ))


def decode_replica_row(row, base_seed):
    """Rebuild a ``ReplicaResult`` from :func:`encode_replica_row` output.

    The seed is recomputed from ``(base_seed, index)`` rather than
    shipped: it is a pure function of the two
    (:func:`repro.core.ensemble.replica_seed`), so carrying it across
    the pipe would only be bytes spent re-stating an invariant.
    """
    from repro.core.ensemble import ReplicaResult, replica_seed

    (index, trace_records, events_dispatched,
     sim_seconds, wall_seconds) = _ROW_HEADER.unpack_from(row)
    offset = _ROW_HEADER.size
    fields = []
    for _ in range(3):
        (size,) = _LEN.unpack_from(row, offset)
        offset += _LEN.size
        fields.append(row[offset:offset + size])
        offset += size
    digest, measurements, metrics = fields
    return ReplicaResult(
        index=index,
        seed=replica_seed(base_seed, index),
        measurements=json.loads(measurements.decode("utf-8")),
        trace_digest=digest.decode("utf-8"),
        trace_records=trace_records,
        events_dispatched=events_dispatched,
        sim_seconds=sim_seconds,
        wall_seconds=wall_seconds,
        metrics=json.loads(metrics.decode("utf-8")),
    )


# -- failure policy ------------------------------------------------------------

class ChaosPlan:
    """Deterministic failure injection for pooled sweeps.

    Maps replica index to a per-attempt sequence of behaviours:
    ``{3: ("crash", "ok")}`` means replica 3's first attempt kills its
    worker with ``os._exit`` and its second runs normally; attempts
    beyond the sequence run normally.  Behaviours:

    * ``ok`` — run the replica normally;
    * ``crash`` — ``os._exit`` the worker (crash isolation path);
    * ``hang`` — sleep forever while still heartbeating (replica
      wall-clock timeout path);
    * ``freeze`` — sleep forever *and* stop heartbeating (hang
      detection path);
    * ``error`` — raise inside the replica (in-process failure path).

    Used by the crash-injection test suite and the CI chaos gate; a
    plan is plain data and crosses the process boundary with the task.
    """

    BEHAVIORS = ("ok", "crash", "hang", "freeze", "error")

    def __init__(self, behaviors=None):
        self._behaviors = {}
        for index, sequence in (behaviors or {}).items():
            if isinstance(sequence, str):
                sequence = (sequence,)
            sequence = tuple(sequence)
            for token in sequence:
                if token not in self.BEHAVIORS:
                    raise ValueError(
                        "unknown chaos behaviour %r for replica %r "
                        "(expected one of %s)"
                        % (token, index, list(self.BEHAVIORS)))
            self._behaviors[index] = sequence

    def behavior(self, index, attempt):
        """Behaviour for 1-based ``attempt`` of ``index`` (None = ok)."""
        sequence = self._behaviors.get(index)
        if not sequence or attempt > len(sequence):
            return None
        token = sequence[attempt - 1]
        return None if token == "ok" else token

    def __bool__(self):
        return bool(self._behaviors)

    def __repr__(self):
        return "ChaosPlan(%r)" % (self._behaviors,)


class SupervisorConfig:
    """How one pool run treats failures.

    * ``replica_timeout`` — wall-clock seconds one replica attempt may
      take before its worker is killed (None = unlimited).
    * ``sweep_deadline`` — wall-clock seconds the whole ensemble may
      take; on expiry the sweep salvages what completed and records the
      rest as non-quarantined (retriable) failures.
    * ``max_replica_retries`` — failed attempts a replica may retry;
      a replica gets ``1 + max_replica_retries`` attempts total before
      quarantine.
    * ``on_failure`` — ``"quarantine"`` records a ``ReplicaFailure``
      and keeps sweeping; ``"fail"`` raises the typed error instead.
    * ``chaos`` — an optional :class:`ChaosPlan` for fault injection.

    The supervisor's own timings are module constants, not settings:
    :data:`POLL_SECONDS`, :data:`HEARTBEAT_SECONDS`,
    :data:`HANG_TIMEOUT_SECONDS` and :data:`RETRY_BACKOFF`.
    """

    __slots__ = ("replica_timeout", "sweep_deadline", "max_replica_retries",
                 "on_failure", "chaos")

    ON_FAILURE = ("quarantine", "fail")

    def __init__(self, replica_timeout=None, sweep_deadline=None,
                 max_replica_retries=2, on_failure="quarantine", chaos=None):
        for name, value in (("replica_timeout", replica_timeout),
                            ("sweep_deadline", sweep_deadline)):
            if value is not None and not value > 0:
                raise ValueError("%s must be positive or None, got %r"
                                 % (name, value))
        if isinstance(max_replica_retries, bool) or \
                not isinstance(max_replica_retries, int) or \
                max_replica_retries < 0:
            raise ValueError("max_replica_retries must be an integer >= 0, "
                             "got %r" % (max_replica_retries,))
        if on_failure not in self.ON_FAILURE:
            raise ValueError("on_failure must be one of %s, got %r"
                             % (list(self.ON_FAILURE), on_failure))
        self.replica_timeout = replica_timeout
        self.sweep_deadline = sweep_deadline
        self.max_replica_retries = max_replica_retries
        self.on_failure = on_failure
        self.chaos = chaos

    def __repr__(self):
        return ("SupervisorConfig(replica_timeout=%r, sweep_deadline=%r, "
                "max_replica_retries=%d, on_failure=%r)"
                % (self.replica_timeout, self.sweep_deadline,
                   self.max_replica_retries, self.on_failure))


#: The policy of default (``mode="parallel"``/``"auto"``) sweeps: the
#: first failed attempt raises its typed error and the sweep stops.
FAIL_FAST = SupervisorConfig(max_replica_retries=0, on_failure="fail")


# -- worker side ---------------------------------------------------------------

def _worker_main(worker_id, spec, base_seed, tasks, results):
    """Sweep worker: run chunks off ``tasks``, report on ``results``.

    The campaign spec and base seed arrive once, as process arguments.
    A task is a chunk's list of ``(index, chaos behaviour)`` items, and
    ``None`` asks for an orderly exit.

    Protocol (all messages lead with a tag and the worker id):
    ``("start", wid, index)`` before each replica, ``("ok", wid, index,
    row_bytes)`` / ``("error", wid, index, type, detail)`` after it,
    ``("idle", wid)`` after each chunk, and ``("hb", wid, index)`` from
    the heartbeat thread while a chunk is in progress.  The ``start``
    marker is what lets the pool attribute a crash to exactly one
    replica.
    """
    from repro.core.ensemble import run_replica

    send_lock = threading.Lock()
    wake = threading.Event()
    state = {"index": None, "busy": False, "frozen": False}

    def send(message):
        # Connection.send is not thread-safe; the heartbeat thread and
        # the main loop share the pipe.
        with send_lock:
            results.send(message)

    def beat():
        # Sleeps without a timeout while idle, so a worker parked
        # between runs neither wakes nor fills its result pipe; a new
        # task sets ``wake`` to start the beat.
        while not state["frozen"]:
            wake.wait(HEARTBEAT_SECONDS if state["busy"] else None)
            wake.clear()
            if state["busy"] and not state["frozen"]:
                try:
                    send(("hb", worker_id, state["index"]))
                except OSError:
                    return

    threading.Thread(target=beat, daemon=True).start()

    try:
        while True:
            items = tasks.recv()
            if items is None:
                return
            state["busy"] = True
            wake.set()
            for index, behavior in items:
                state["index"] = index
                send(("start", worker_id, index))
                if behavior == "crash":
                    os._exit(_CHAOS_EXIT_CODE)
                if behavior == "freeze":
                    state["frozen"] = True
                if behavior in ("hang", "freeze"):
                    time.sleep(_CHAOS_SLEEP_SECONDS)
                try:
                    if behavior == "error":
                        raise RuntimeError("chaos: injected replica error")
                    replica = run_replica(spec, index, base_seed)
                except Exception as exc:
                    send(("error", worker_id, index,
                          type(exc).__name__, str(exc)))
                else:
                    send(("ok", worker_id, index,
                          encode_replica_row(replica)))
                state["index"] = None
            state["busy"] = False
            send(("idle", worker_id))
    except (EOFError, OSError, KeyboardInterrupt):
        # Parent went away (or is tearing us down): just exit.
        return


# -- parent side ---------------------------------------------------------------

class _WallClock:
    """Monotonic wall-clock shim so a pool run can record spans.

    Campaign spans run on virtual time; supervision happens in real
    time, so its spans get their own zero-based monotonic clock.
    """

    def __init__(self):
        self._t0 = time.perf_counter()

    @property
    def now(self):
        return time.perf_counter() - self._t0


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("wid", "process", "tasks", "results", "remaining",
                 "current", "started", "last_beat", "span", "idle")

    def __init__(self, wid, process, tasks, results):
        self.wid = wid
        self.process = process
        self.tasks = tasks
        self.results = results
        self.span = None
        self.remaining = []
        self.current = None
        self.started = None
        self.last_beat = time.monotonic()
        self.idle = True


class PoolOutcome:
    """What one pool run produced: results, failures, report."""

    __slots__ = ("replicas", "failures", "report")

    def __init__(self, replicas, failures, report):
        #: Completed :class:`ReplicaResult` objects, in index order.
        self.replicas = replicas
        #: :class:`ReplicaFailure` records, in index order.
        self.failures = failures
        #: Machine-readable supervision report (counters, spans).
        self.report = report

    def __repr__(self):
        return ("PoolOutcome(%d replicas, %d failures)"
                % (len(self.replicas), len(self.failures)))


class WorkerPool:
    """Up to N sweep workers for one ``(spec, base_seed)``.

    Use it as a context manager, as :func:`~repro.sim.sweep.run_sweep`
    does for each sweep: a clean exit closes the pool, an exception
    terminates it.  Within the block the workers outlive individual
    :meth:`run` calls: a run dispatches its chunks, the workers drain
    them and go idle, and a second run reuses them.  Workers are
    spawned on demand, so a dead one is simply reaped and replaced.
    """

    def __init__(self, spec, base_seed, workers):
        if isinstance(workers, bool) or not isinstance(workers, int) \
                or workers < 1:
            raise ValueError("workers must be an integer >= 1, got %r"
                             % (workers,))
        self.spec = spec
        self.base_seed = base_seed
        self.workers = workers
        self.closed = False
        self._context = pool_context()
        self._wids = count(1)
        self._workers = {}

    def pids(self):
        return [worker.process.pid for worker in self._workers.values()]

    def _spawn(self):
        wid = next(self._wids)
        task_recv, task_send = self._context.Pipe(duplex=False)
        result_recv, result_send = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(wid, self.spec, self.base_seed, task_recv, result_send),
            daemon=True, name="sweep-worker-%d" % wid)
        # A forked worker inherits the parent's ends of every pipe, its
        # own included: holding both ends, it would never see its
        # parent die.  This fork and every later one close them.
        for end in (task_send, result_recv):
            register_after_fork(end, type(end).close)
        process.start()
        # Close the parent's copies of the child's pipe ends: recv on
        # the result pipe then raises EOFError when the child dies, and
        # a send to a dead child's task pipe fails — the crash signals.
        task_recv.close()
        result_send.close()
        worker = self._workers[wid] = _Worker(wid, process, task_send,
                                              result_recv)
        return worker

    def _discard(self, worker):
        """Kill (if needed) and bury one worker."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.tasks.close()
        worker.results.close()
        del self._workers[worker.wid]

    def run(self, chunks, supervision, record=None, record_failure=None):
        """Run ``chunks`` of replica indices under ``supervision``.

        ``record(replica)`` fires (in this process) the moment a
        replica completes — the sweep manifest hook; ``record_failure``
        fires when a replica is quarantined.  Returns a
        :class:`PoolOutcome` and leaves the pool warm; anything raised
        (the typed failure under ``on_failure="fail"``, a
        :class:`SupervisionError`, a callback's exception,
        ``KeyboardInterrupt``) terminates the pool first.
        """
        if self.closed:
            raise RuntimeError("cannot dispatch on a closed WorkerPool")
        try:
            return self._run(chunks, supervision, record, record_failure)
        except BaseException:
            self.terminate()
            raise

    def _run(self, chunks, supervision, record, record_failure):
        from repro.core.ensemble import ReplicaFailure, replica_seed

        base_seed = self.base_seed
        #: Chunks awaiting dispatch: (indices, earliest wall time to run).
        ready = deque((list(chunk), 0.0) for chunk in chunks if chunk)
        pending = [index for chunk, _ in ready for index in chunk]
        clock = _WallClock()
        spans = SpanRecorder(clock)
        metrics = MetricsRegistry()
        target_workers = max(1, min(self.workers, len(ready)))
        root = spans.begin("sweep.supervise", replicas=len(pending),
                           workers=target_workers)

        attempts_allowed = supervision.max_replica_retries + 1
        chaos = supervision.chaos or ChaosPlan()
        replica_timeout = supervision.replica_timeout
        deadline_at = (time.monotonic() + supervision.sweep_deadline
                       if supervision.sweep_deadline is not None else None)

        attempts = {index: 0 for index in pending}
        history = {index: [] for index in pending}
        completed = {}
        failures = {}
        backoffs = {}
        restarts = 0
        #: Every replica may legitimately kill a worker once per
        #: attempt; anything far beyond that is a broken substrate,
        #: which must surface as an error, not a busy loop.
        restart_budget = (len(pending) * attempts_allowed
                          + 2 * target_workers + 8)
        salvaged = False
        pool = self._workers

        def begin_worker_span(worker):
            worker.span = spans.begin("supervisor.worker", parent=root,
                                      worker=worker.wid)

        for worker in pool.values():
            begin_worker_span(worker)

        def spawn():
            worker = self._spawn()
            begin_worker_span(worker)
            metrics.inc("supervisor.workers_spawned")

        def event_span(name, status=None, **attrs):
            span = spans.begin(name, parent=root, **attrs)
            spans.finish(span, status or STATUS_ERROR)

        def fail_attempt(index, reason, detail=None):
            """Charge one failed attempt; retry or quarantine."""
            n = attempts[index]
            history[index].append({"attempt": n, "reason": reason,
                                   "detail": detail})
            if n >= attempts_allowed:
                failure = ReplicaFailure(
                    index=index, seed=replica_seed(base_seed, index),
                    attempts=n, reason=reason, quarantined=True,
                    history=history[index])
                failures[index] = failure
                metrics.inc("supervisor.replicas_quarantined")
                event_span("supervisor.quarantine", replica=index,
                           reason=reason, attempts=n)
                if record_failure is not None:
                    record_failure(failure)
                if supervision.on_failure == "fail":
                    if reason == "timeout":
                        raise ReplicaTimeoutError(index, n, replica_timeout)
                    raise PoisonReplicaError(index, n, reason, detail)
                return
            # Retry as a singleton chunk after a deterministic backoff:
            # the schedule is a pure function of (base seed, replica
            # seed), so a re-run of the same degraded sweep retries on
            # an identical timetable.
            schedule = backoffs.get(index)
            if schedule is None:
                schedule = backoffs[index] = deterministic_backoff(
                    RETRY_BACKOFF, base_seed, replica_seed(base_seed, index),
                    attempts=max(attempts_allowed - 1, 0))
            delay = schedule[min(n, len(schedule)) - 1] if schedule else 0.0
            ready.append(([index], time.monotonic() + delay))
            metrics.inc("supervisor.replica_retries")
            event_span("supervisor.retry", status="ok", replica=index,
                       attempt=n, reason=reason, backoff=delay)

        def reap(worker, reason, detail=None):
            """Bury a failed worker; re-queue and re-split its chunk."""
            nonlocal restarts
            self._discard(worker)
            restarts += 1
            metrics.inc("supervisor.worker_restarts")
            spans.finish(worker.span, STATUS_ERROR)
            if worker.current is not None:
                fail_attempt(worker.current, reason, detail)
            if worker.remaining:
                # The untouched tail of the chunk is innocent: dispatch
                # it as its own chunk so it never re-fails with the
                # poison replica (chunk re-splitting).
                ready.appendleft((list(worker.remaining), 0.0))
                metrics.inc("supervisor.chunks_resplit")
            if restarts > restart_budget:
                raise SupervisionError(
                    "worker restart budget exhausted (%d restarts for a "
                    "%d-replica sweep): the substrate is failing faster "
                    "than replicas can complete" % (restarts, len(pending)))

        def handle(worker, message):
            tag = message[0]
            now = time.monotonic()
            worker.last_beat = now
            if tag == "start":
                index = message[2]
                worker.current = index
                worker.started = now
                if index in worker.remaining:
                    worker.remaining.remove(index)
                attempts[index] += 1
            elif tag == "ok":
                index, payload = message[2], message[3]
                replica = decode_replica_row(payload, base_seed)
                if record is not None:
                    record(replica)
                completed[index] = replica
                worker.current = None
                worker.started = None
                metrics.inc("supervisor.replicas_completed")
            elif tag == "error":
                index, kind, detail = message[2], message[3], message[4]
                worker.current = None
                worker.started = None
                metrics.inc("supervisor.replica_errors")
                fail_attempt(index, "error", "%s: %s" % (kind, detail))
            elif tag == "idle":
                worker.idle = True
                worker.current = None
                worker.started = None
                worker.remaining = []
            # "hb" only refreshes last_beat, done above.

        def dispatch():
            now = time.monotonic()
            idle = [worker for worker in pool.values() if worker.idle]
            for _ in range(len(ready)):
                if not idle:
                    return
                chunk, not_before = ready[0]
                if not_before > now:
                    # Not due yet (retry backoff): rotate past it so due
                    # chunks behind it still dispatch this round.
                    ready.rotate(-1)
                    continue
                ready.popleft()
                worker = idle.pop()
                items = [(index, chaos.behavior(index, attempts[index] + 1))
                         for index in chunk]
                try:
                    worker.tasks.send(items)
                except OSError:
                    # The worker died while idle (between chunks or
                    # between runs): no replica was charged, so put
                    # the chunk back and let a fresh worker take it.
                    ready.appendleft((chunk, not_before))
                    metrics.inc("supervisor.worker_crashes")
                    reap(worker, "worker-crash")
                    continue
                worker.idle = False
                worker.remaining = list(chunk)
                worker.current = None
                worker.started = None
                worker.last_beat = now

        def next_wakeup():
            """Shortest sleep that cannot miss a timeout or a due retry."""
            timeout = POLL_SECONDS
            now = time.monotonic()
            for chunk, not_before in ready:
                if not_before > now:
                    timeout = min(timeout, not_before - now)
            return max(timeout, 0.001)

        def police(now):
            for worker in list(pool.values()):
                if worker.idle:
                    continue
                if worker.current is not None and \
                        replica_timeout is not None and \
                        now - worker.started > replica_timeout:
                    metrics.inc("supervisor.replica_timeouts")
                    reap(worker, "timeout",
                         "exceeded %.3fs wall-clock timeout"
                         % replica_timeout)
                elif now - worker.last_beat > HANG_TIMEOUT_SECONDS:
                    metrics.inc("supervisor.worker_hangs")
                    reap(worker, "hang",
                         "no heartbeat for %.3fs" % (now - worker.last_beat))

        def unfinished():
            return len(completed) + len(failures) < len(pending)

        # Run until every replica is resolved and every worker has
        # reported its chunk drained, so the pool is left idle and warm.
        while unfinished() or any(not w.idle for w in pool.values()):
            now = time.monotonic()
            if deadline_at is not None and now > deadline_at:
                salvaged = True
                metrics.inc("supervisor.deadline_expired")
                break
            busy = sum(1 for worker in pool.values() if not worker.idle)
            while len(pool) < target_workers and \
                    len(pool) < len(ready) + busy:
                spawn()
            dispatch()
            conns = {worker.results: worker for worker in pool.values()}
            if not conns:
                # Nothing live (every chunk is backing off): sleep until
                # the next retry is due.
                time.sleep(next_wakeup())
            else:
                for conn in _connection.wait(list(conns),
                                             timeout=next_wakeup()):
                    worker = conns[conn]
                    if worker.wid not in pool:
                        continue
                    try:
                        while conn.poll():
                            handle(worker, conn.recv())
                    except (EOFError, OSError):
                        metrics.inc("supervisor.worker_crashes")
                        reap(worker, "worker-crash",
                             "worker process died (exit code %r)"
                             % worker.process.exitcode)
            police(time.monotonic())

        for worker in list(pool.values()):
            if not worker.idle:
                # Deadline salvage: a worker still mid-chunk may be
                # stuck, and its late results belong to no run.
                self._discard(worker)
                spans.finish(worker.span, STATUS_ERROR)
            else:
                spans.finish(worker.span)
        if salvaged:
            # Whatever never completed is recorded as a retriable
            # (non-quarantined) failure — resume re-runs it.
            for index in pending:
                if index not in completed and index not in failures:
                    failures[index] = ReplicaFailure(
                        index=index, seed=replica_seed(base_seed, index),
                        attempts=attempts[index], reason="deadline",
                        quarantined=False, history=history[index])
        spans.finish(root, STATUS_ERROR if salvaged else "ok")

        report = {
            "workers": target_workers,
            "worker_restarts": restarts,
            "replicas_completed": len(completed),
            "replicas_failed": len(failures),
            "quarantined": sorted(index for index, failure
                                  in failures.items()
                                  if failure.quarantined),
            "salvaged": salvaged,
            "wall_seconds": clock.now,
            "metrics": metrics.snapshot(),
            "spans": [span.as_dict() for span in spans],
        }
        return PoolOutcome(
            replicas=[completed[index] for index in sorted(completed)],
            failures=[failures[index] for index in sorted(failures)],
            report=report,
        )

    def close(self):
        """Orderly shutdown: ask workers to exit, then reap."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers.values():
            try:
                worker.tasks.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_SECONDS
        for worker in list(self._workers.values()):
            worker.process.join(max(deadline - time.monotonic(), 0.0))
            self._discard(worker)

    def terminate(self):
        """Hard shutdown: kill every worker."""
        self.closed = True
        for worker in list(self._workers.values()):
            self._discard(worker)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def __repr__(self):
        return ("WorkerPool(%d workers, %s, spec=%r)"
                % (self.workers, "closed" if self.closed else "warm",
                   getattr(self.spec, "name", None)))


# -- retired -------------------------------------------------------------------

def shutdown_shared_pool():
    """A no-op, kept only because ``benchmarks/e2e/test_e2e_smoke.py``
    imports it.  Each sweep forks its own pool and closes it, so there
    is no process-wide pool to shut down."""
