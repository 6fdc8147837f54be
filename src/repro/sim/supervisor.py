"""Supervised sweep execution: crash isolation, timeouts, quarantine.

The plain parallel sweep path trusts its ``multiprocessing.Pool``
completely: a worker that segfaults, gets OOM-killed, or spins forever
inside a replica (easy to provoke via Flame's Lua-scripted modules)
wedges or destroys the whole ensemble.  At the replica counts the
Monte-Carlo experiments call for, per-replica failure is a certainty,
not an edge case — so this module replaces the pool with a real
supervisor:

* **Crash isolation.**  Each worker is an owned ``Process`` with its
  own task/result pipes.  A dead worker (detected by pipe EOF) costs
  only its in-flight chunk: the replica it was running is charged one
  failed attempt, the untouched remainder of the chunk is re-queued
  as its own chunk (*re-splitting* — a poison replica never re-fails
  its neighbours), and a fresh worker is spawned in its place.
* **Timeouts and heartbeats.**  Every worker sends a ``start`` marker
  per replica plus periodic heartbeats from a side thread.  A replica
  that outlives ``replica_timeout`` is killed and charged a failed
  attempt; a worker whose heartbeats stop (process frozen, not merely
  slow) is killed the same way.  ``sweep_deadline`` bounds the whole
  ensemble.
* **Bounded retry with quarantine.**  A failed replica is re-dispatched
  (as a singleton chunk, after a deterministic jittered backoff — see
  :func:`repro.sim.retry.deterministic_backoff`) until its attempts run
  out; then it becomes a structured
  :class:`~repro.core.ensemble.ReplicaFailure` instead of an exception
  (``on_failure="quarantine"``, the default) or raises the typed
  :class:`~repro.sim.errors.PoisonReplicaError` (``on_failure="fail"``).
* **Partial-result salvage.**  Whatever happens, the supervisor returns
  every completed :class:`~repro.core.ensemble.ReplicaResult` plus a
  machine-readable failure report; a deadline or interrupt degrades the
  ensemble instead of destroying it.

Determinism is preserved throughout: a retried replica re-runs
:func:`~repro.core.ensemble.run_replica` from its pure ``replica_seed``,
so a salvaged sweep merged with a later retry pass is byte-identical to
an undisturbed run.  Only the *supervision report* (restart counters,
wall-clock spans) is inherently nondeterministic, and it is kept apart
from the replica data for exactly that reason.

Like :mod:`repro.sim.sweep`, this module drives :mod:`repro.core`
campaigns from inside :mod:`repro.sim`, so the ensemble imports happen
lazily inside functions to keep package import order acyclic.
"""

import os
import threading
import time
from collections import deque
from itertools import count
from multiprocessing import connection as _connection

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import STATUS_ERROR, SpanRecorder
from repro.sim.errors import (
    PoisonReplicaError,
    ReplicaTimeoutError,
    SupervisionError,
)
from repro.sim.retry import RetryPolicy, deterministic_backoff

#: How long an injected "hang"/"freeze" sleeps — far beyond any timeout
#: a test or the chaos gate would configure, so the supervisor always
#: wins the race.
_CHAOS_SLEEP_SECONDS = 3600.0

#: Exit code an injected worker crash dies with (mimics ``os._exit``
#: after a segfault handler; distinguishable in process tables).
_CHAOS_EXIT_CODE = 70

#: Wall-clock grace given to workers at shutdown before SIGKILL.
_SHUTDOWN_GRACE_SECONDS = 2.0


class ChaosPlan:
    """Deterministic failure injection for the supervised sweep path.

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
    """How the supervisor polices its workers.

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
    * ``heartbeat_interval`` / ``hang_timeout`` — workers heartbeat
      every ``heartbeat_interval`` seconds; a busy worker silent for
      ``hang_timeout`` (default ``20 x heartbeat_interval``) is treated
      as hung and killed.
    * ``retry_policy`` — the :class:`~repro.sim.retry.RetryPolicy`
      shaping the (deterministic, jittered) backoff before a replica's
      retry attempts; the default backs off 50 ms doubling to a 2 s cap.
    * ``chaos`` — an optional :class:`ChaosPlan` for fault injection.
    """

    __slots__ = ("replica_timeout", "sweep_deadline", "max_replica_retries",
                 "on_failure", "poll_interval", "heartbeat_interval",
                 "hang_timeout", "retry_policy", "chaos")

    ON_FAILURE = ("quarantine", "fail")

    def __init__(self, replica_timeout=None, sweep_deadline=None,
                 max_replica_retries=2, on_failure="quarantine",
                 poll_interval=0.05, heartbeat_interval=0.25,
                 hang_timeout=None, retry_policy=None, chaos=None):
        for name, value in (("replica_timeout", replica_timeout),
                            ("sweep_deadline", sweep_deadline),
                            ("hang_timeout", hang_timeout)):
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
        if not poll_interval > 0:
            raise ValueError("poll_interval must be positive, got %r"
                             % (poll_interval,))
        if not heartbeat_interval > 0:
            raise ValueError("heartbeat_interval must be positive, got %r"
                             % (heartbeat_interval,))
        self.replica_timeout = replica_timeout
        self.sweep_deadline = sweep_deadline
        self.max_replica_retries = max_replica_retries
        self.on_failure = on_failure
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        self.retry_policy = retry_policy
        self.chaos = chaos

    def resolved_hang_timeout(self):
        """Silence threshold before a busy worker counts as hung."""
        if self.hang_timeout is not None:
            return self.hang_timeout
        return 20.0 * self.heartbeat_interval

    def resolved_retry_policy(self):
        if self.retry_policy is not None:
            return self.retry_policy
        return RetryPolicy(max_attempts=max(2, self.max_replica_retries + 1),
                           base_delay=0.05, multiplier=2.0, max_delay=2.0,
                           jitter=0.25)

    def __repr__(self):
        return ("SupervisorConfig(replica_timeout=%r, sweep_deadline=%r, "
                "max_replica_retries=%d, on_failure=%r)"
                % (self.replica_timeout, self.sweep_deadline,
                   self.max_replica_retries, self.on_failure))


# -- worker side ---------------------------------------------------------------

def _worker_main(worker_id, spec, base_seed, tasks, results,
                 heartbeat_interval):
    """Supervised worker: run chunks off ``tasks``, report on ``results``.

    The campaign spec and base seed arrive once, as process arguments —
    a task is just the chunk's ``(index, chaos behaviour)`` items, so
    the spec never crosses the task pipe (same warm-worker economics as
    :mod:`repro.sim.workerpool`, which also supplies the compact binary
    row an ``ok`` message carries instead of a pickled replica dict).

    Protocol (all messages lead with a tag and the worker id):
    ``("start", wid, index)`` before each replica, ``("ok", wid, index,
    row_bytes)`` / ``("error", wid, index, type, detail)`` after it,
    ``("idle", wid)`` after each chunk, ``("hb", wid, index)`` from the
    heartbeat thread, ``("bye", wid)`` on orderly shutdown.  The
    ``start`` marker is what lets the supervisor attribute a crash to
    exactly one replica.
    """
    from repro.core.ensemble import run_replica
    from repro.sim.workerpool import encode_replica_row

    send_lock = threading.Lock()
    state = {"index": None, "stop": False, "frozen": False}

    def send(message):
        # Connection.send is not thread-safe; the heartbeat thread and
        # the main loop share the pipe.
        with send_lock:
            results.send(message)

    def beat():
        while not (state["stop"] or state["frozen"]):
            time.sleep(heartbeat_interval)
            if state["stop"] or state["frozen"]:
                return
            try:
                send(("hb", worker_id, state["index"]))
            except OSError:
                return

    threading.Thread(target=beat, daemon=True).start()

    try:
        while True:
            try:
                task = tasks.recv()
            except EOFError:
                return
            if task is None:
                send(("bye", worker_id))
                return
            for index, behavior in task:
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
            send(("idle", worker_id))
    finally:
        state["stop"] = True


# -- supervisor side -----------------------------------------------------------

class _WallClock:
    """Monotonic wall-clock shim so the supervisor can record spans.

    Campaign spans run on virtual time; supervision happens in real
    time, so its spans get their own zero-based monotonic clock.
    """

    def __init__(self):
        self._t0 = time.perf_counter()

    @property
    def now(self):
        return time.perf_counter() - self._t0


class _Worker:
    """Supervisor-side handle for one worker process."""

    __slots__ = ("wid", "process", "tasks", "results", "remaining",
                 "current", "started", "last_beat", "span", "idle")

    def __init__(self, wid, process, tasks, results, span):
        self.wid = wid
        self.process = process
        self.tasks = tasks
        self.results = results
        self.span = span
        self.remaining = []
        self.current = None
        self.started = None
        self.last_beat = time.monotonic()
        self.idle = True

    @property
    def busy(self):
        return not self.idle


class SupervisionOutcome:
    """What a supervised dispatch produced: results, failures, report."""

    __slots__ = ("replicas", "failures", "report")

    def __init__(self, replicas, failures, report):
        #: Completed :class:`ReplicaResult` objects, in index order.
        self.replicas = replicas
        #: :class:`ReplicaFailure` records, in index order.
        self.failures = failures
        #: Machine-readable supervision report (counters, spans).
        self.report = report

    def __repr__(self):
        return ("SupervisionOutcome(%d replicas, %d failures)"
                % (len(self.replicas), len(self.failures)))


def supervise_sweep(spec, base_seed, pending, workers, chunk_size,
                    supervision, record=None, record_failure=None):
    """Run ``pending`` replica indices under supervision.

    ``record(replica)`` fires (in the supervisor process) the moment a
    replica completes — the sweep manifest hook; ``record_failure``
    fires when a replica is quarantined.  Returns a
    :class:`SupervisionOutcome`; raises only for supervisor-level
    breakdowns or, under ``on_failure="fail"``, the first quarantine.
    """
    from repro.core.ensemble import ReplicaFailure, replica_seed
    from repro.sim.sweep import shard_chunks
    from repro.sim.workerpool import decode_replica_row, pool_context

    pending = list(pending)
    clock = _WallClock()
    spans = SpanRecorder(clock)
    metrics = MetricsRegistry()
    root = spans.begin("sweep.supervise", replicas=len(pending),
                       workers=workers)

    attempts_allowed = supervision.max_replica_retries + 1
    chaos = supervision.chaos or ChaosPlan()
    policy = supervision.resolved_retry_policy()
    replica_timeout = supervision.replica_timeout
    hang_timeout = supervision.resolved_hang_timeout()
    deadline_at = (time.monotonic() + supervision.sweep_deadline
                   if supervision.sweep_deadline is not None else None)

    attempts = {index: 0 for index in pending}
    history = {index: [] for index in pending}
    completed = {}
    failures = {}
    backoffs = {}
    #: Chunks awaiting dispatch: (indices, earliest wall time to run).
    ready = deque((list(chunk), 0.0)
                  for chunk in shard_chunks(pending, chunk_size))
    initial_chunks = len(ready)
    target_workers = max(1, min(workers, initial_chunks))

    # Same warmed context as the plain warm pool: on the forkserver
    # path repro.core.ensemble is preloaded into the server, so every
    # worker — including each restart after a crash — is born with the
    # campaign stack imported instead of paying cold-start again.
    context = pool_context()
    pool = {}
    widgen = count(1)
    restarts = 0
    #: Every replica may legitimately kill a worker once per attempt;
    #: anything far beyond that is the supervisor spinning on a broken
    #: substrate, which must surface as an error, not a busy loop.
    restart_budget = len(pending) * attempts_allowed + 2 * target_workers + 8
    salvaged = False

    def spawn():
        wid = next(widgen)
        task_recv, task_send = context.Pipe(duplex=False)
        result_recv, result_send = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(wid, spec, base_seed, task_recv, result_send,
                  supervision.heartbeat_interval),
            daemon=True, name="sweep-worker-%d" % wid)
        process.start()
        # Close the parent's copies of the child's pipe ends: recv on
        # the result pipe can then raise EOFError when the child dies,
        # which is the crash-detection signal.
        task_recv.close()
        result_send.close()
        span = spans.begin("supervisor.worker", parent=root, worker=wid)
        worker = _Worker(wid, process, task_send, result_recv, span)
        pool[wid] = worker
        metrics.inc("supervisor.workers_spawned")
        return worker

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
                raise PoisonReplicaError(index, n, reason)
            return
        # Retry as a singleton chunk after a deterministic backoff: the
        # schedule is a pure function of (policy, base seed, replica
        # seed), so a re-run of the same degraded sweep retries on an
        # identical timetable.
        schedule = backoffs.get(index)
        if schedule is None:
            schedule = backoffs[index] = deterministic_backoff(
                policy, base_seed, replica_seed(base_seed, index),
                attempts=max(attempts_allowed - 1, 0))
        delay = schedule[min(n, len(schedule)) - 1] if schedule else 0.0
        ready.append(([index], time.monotonic() + delay))
        metrics.inc("supervisor.replica_retries")
        event_span("supervisor.retry", status="ok", replica=index,
                   attempt=n, reason=reason, backoff=delay)

    def reap(worker, reason, detail=None):
        """Kill/bury a worker; re-queue and re-split its chunk."""
        nonlocal restarts
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.tasks.close()
        worker.results.close()
        del pool[worker.wid]
        restarts += 1
        metrics.inc("supervisor.worker_restarts")
        spans.finish(worker.span, STATUS_ERROR)
        if worker.current is not None:
            fail_attempt(worker.current, reason, detail)
        if worker.remaining:
            # The untouched tail of the chunk is innocent: dispatch it
            # as its own chunk so it never re-fails with the poison
            # replica (chunk re-splitting).
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
        # "hb" and "bye" only refresh last_beat, done above.

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
            worker.tasks.send(items)
            worker.idle = False
            worker.remaining = list(chunk)
            worker.current = None
            worker.started = None
            worker.last_beat = now

    def next_wakeup():
        """Shortest sleep that cannot miss a timeout or a due retry."""
        timeout = supervision.poll_interval
        now = time.monotonic()
        for chunk, not_before in ready:
            if not_before > now:
                timeout = min(timeout, not_before - now)
        return max(timeout, 0.001)

    def police(now):
        for worker in list(pool.values()):
            if worker.idle:
                continue
            if worker.current is not None and replica_timeout is not None \
                    and now - worker.started > replica_timeout:
                metrics.inc("supervisor.replica_timeouts")
                reap(worker, "timeout",
                     "exceeded %.3fs wall-clock timeout" % replica_timeout)
            elif now - worker.last_beat > hang_timeout:
                metrics.inc("supervisor.worker_hangs")
                reap(worker, "hang",
                     "no heartbeat for %.3fs" % (now - worker.last_beat))

    def shutdown():
        grace_until = time.monotonic() + _SHUTDOWN_GRACE_SECONDS
        for worker in pool.values():
            if worker.idle:
                try:
                    worker.tasks.send(None)
                except OSError:
                    worker.process.kill()
            else:
                worker.process.kill()
        for worker in pool.values():
            worker.process.join(max(grace_until - time.monotonic(), 0.0))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.tasks.close()
            worker.results.close()
            if not worker.span.finished:
                spans.finish(worker.span)
        pool.clear()

    try:
        while pending and len(completed) + len(failures) < len(pending):
            now = time.monotonic()
            if deadline_at is not None and now > deadline_at:
                salvaged = True
                metrics.inc("supervisor.deadline_expired")
                break
            while len(pool) < target_workers and \
                    len(pool) < len(ready) + sum(1 for w in pool.values()
                                                 if w.busy):
                spawn()
            dispatch()
            conns = {worker.results: worker for worker in pool.values()}
            if not conns:
                # Nothing live (everything quarantined mid-reap or all
                # chunks are backing off): sleep until the next retry.
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
    finally:
        shutdown()

    if salvaged:
        # Deadline salvage: whatever never completed is recorded as a
        # retriable (non-quarantined) failure — resume re-runs it.
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
        "quarantined": sorted(index for index, failure in failures.items()
                              if failure.quarantined),
        "salvaged": salvaged,
        "wall_seconds": clock.now,
        "metrics": metrics.snapshot(),
        "spans": [span.as_dict() for span in spans],
    }
    return SupervisionOutcome(
        replicas=[completed[index] for index in sorted(completed)],
        failures=[failures[index] for index in sorted(failures)],
        report=report,
    )
