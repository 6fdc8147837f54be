"""Warm, reusable worker pool for the parallel sweep path.

``run_sweep(mode="parallel")`` used to build a fresh
``multiprocessing.Pool`` per sweep and pickle the full ``(spec,
base_seed, indices)`` payload with every chunk — pool churn plus
per-chunk spec pickling swamped the replica work, leaving the parallel
path *slower* than serial on the quick workloads.  This module is the
replacement:

* **Persistent workers.**  A :class:`WarmPool` owns N long-lived
  worker processes.  Each receives the pickle-safe ``CampaignSpec``
  exactly **once** at warm-up; every subsequent task is just a list of
  replica indices (a few dozen bytes), never the spec again.
* **Warm imports.**  Workers have :mod:`repro.core.ensemble` (and with
  it every campaign module) imported before their first task —
  preloaded into the fork server on the forkserver path, inherited
  through fork, imported at startup under spawn — so no replica pays
  import latency.
* **Compact result rows.**  Workers ship each finished replica home as
  a struct-framed binary row (:func:`encode_replica_row`) instead of a
  pickled ``ReplicaResult``: a fixed header of scalars plus
  length-prefixed compact-JSON blobs for the measurement and metric
  snapshots.  The replica's seed is *not* shipped at all — it is a pure
  function of ``(base_seed, index)`` and is recomputed on decode, which
  is both smaller and a standing determinism check.
* **Cross-sweep reuse.**  :func:`shared_pool` keeps one warm pool alive
  between sweeps keyed on ``(spec, base_seed, workers)``, so a resumed
  sweep (or a benchmark loop) stops paying pool start-up entirely.  An
  ``atexit`` hook shuts the survivor down.

Like :mod:`repro.sim.sweep`, this module drives :mod:`repro.core`
campaigns from inside :mod:`repro.sim`, so the ensemble imports happen
lazily inside functions to keep package import order acyclic.
"""

import atexit
import json
import multiprocessing
import struct
import time
from collections import deque
from multiprocessing import connection as _connection

from repro.sim.errors import SweepWorkerError

#: Start-method preference.  forkserver gives clean workers that are
#: still cheap to mint (and lets :mod:`repro.core.ensemble` be preloaded
#: into the server, so workers are born warm); fork is the fallback
#: where forkserver is missing; spawn always works because the worker
#: entrypoint and everything it pickles are module-level.
_PREFERRED_START_METHODS = ("forkserver", "fork", "spawn")

#: Wall-clock grace given to workers at orderly shutdown before SIGKILL.
_SHUTDOWN_GRACE_SECONDS = 2.0

# Result-pipe frame tags (first byte of every frame).
_FRAME_ROW = b"R"
_FRAME_ERROR = b"E"
_FRAME_DONE = b"D"

#: Fixed row header: index, trace_records, events_dispatched,
#: sim_seconds, wall_seconds.
_ROW_HEADER = struct.Struct("<IQQdd")
_LEN = struct.Struct("<I")
_ERROR_HEADER = struct.Struct("<I")


def pool_start_method():
    """The start method warm pools (and the supervisor) run under."""
    available = multiprocessing.get_all_start_methods()
    for method in _PREFERRED_START_METHODS:
        if method in available:
            return method
    return "spawn"


def pool_context(start_method=None):
    """A multiprocessing context configured for warm sweep workers.

    On the forkserver path the campaign stack is preloaded into the
    server process, so every worker it forks starts with its imports
    already done.
    """
    method = start_method or pool_start_method()
    context = multiprocessing.get_context(method)
    if method == "forkserver":
        context.set_forkserver_preload(["repro.core.ensemble"])
    return context


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


def _encode_error(index, exc):
    detail = "%s\x00%s" % (type(exc).__name__, exc)
    return (_FRAME_ERROR + _ERROR_HEADER.pack(index)
            + detail.encode("utf-8", "replace"))


def _decode_error(payload):
    (index,) = _ERROR_HEADER.unpack_from(payload)
    kind, _, detail = \
        payload[_ERROR_HEADER.size:].decode("utf-8").partition("\x00")
    return index, kind, detail


# -- worker side ---------------------------------------------------------------

def _pool_worker_main(tasks, results):
    """Warm-pool worker: one warm-up message, then chunks until None.

    The first message on ``tasks`` is ``(spec, base_seed)`` — the only
    time the spec crosses the pipe.  Every later message is a plain
    list of replica indices (``None`` = orderly shutdown).  Results go
    back as framed bytes: one ``R`` row per replica, an ``E`` error row
    when a replica raises (the worker stays alive and finishes its
    chunk), and a ``D`` marker when the chunk is drained.
    """
    from repro.core.ensemble import run_replica

    try:
        spec, base_seed = tasks.recv()
        while True:
            chunk = tasks.recv()
            if chunk is None:
                return
            for index in chunk:
                try:
                    replica = run_replica(spec, index, base_seed)
                except Exception as exc:
                    results.send_bytes(_encode_error(index, exc))
                else:
                    results.send_bytes(_FRAME_ROW
                                       + encode_replica_row(replica))
            results.send_bytes(_FRAME_DONE)
    except (EOFError, OSError, KeyboardInterrupt):
        # Parent went away (or is tearing us down): just exit.
        return


# -- parent side ---------------------------------------------------------------

class _PoolWorker:
    """Parent-side handle for one warm worker process."""

    __slots__ = ("wid", "process", "tasks", "results")

    def __init__(self, wid, process, tasks, results):
        self.wid = wid
        self.process = process
        self.tasks = tasks
        self.results = results


class WarmPool:
    """N persistent worker processes warmed for one ``(spec, base_seed)``.

    The pool outlives individual :meth:`run` calls: a sweep dispatches
    its chunks, the workers drain them and go idle, and the next sweep
    over the same spec reuses the same (still warm) processes.  Use
    :func:`shared_pool` for the process-wide reusable instance;
    construct directly for a private, single-sweep pool.
    """

    def __init__(self, spec, base_seed, workers, start_method=None):
        if isinstance(workers, bool) or not isinstance(workers, int) \
                or workers < 1:
            raise ValueError("workers must be an integer >= 1, got %r"
                             % (workers,))
        self.spec = spec
        self.base_seed = base_seed
        self.workers = workers
        self._context = pool_context(start_method)
        self._closed = False
        self._workers = [self._spawn(wid)
                         for wid in range(1, workers + 1)]

    def _spawn(self, wid):
        task_recv, task_send = self._context.Pipe(duplex=False)
        result_recv, result_send = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_pool_worker_main, args=(task_recv, result_send),
            daemon=True, name="sweep-warm-%d" % wid)
        process.start()
        # Close the parent's copies of the child's pipe ends: recv on
        # the result pipe can then raise EOFError when the child dies,
        # which is the crash-detection signal.
        task_recv.close()
        result_send.close()
        # The one and only spec transfer this worker will ever see.
        task_send.send((self.spec, self.base_seed))
        return _PoolWorker(wid, process, task_send, result_recv)

    def alive(self):
        """True while every worker process is up and the pool is open."""
        return (not self._closed
                and all(worker.process.is_alive()
                        for worker in self._workers))

    def pids(self):
        return [worker.process.pid for worker in self._workers]

    def run(self, chunks, on_replica=None):
        """Dispatch chunks of replica indices; return decoded replicas.

        Streams: ``on_replica`` (the sweep's manifest hook) fires the
        moment each row lands, so a crash mid-dispatch loses at most
        the in-flight chunks.  A replica exception inside a worker is
        reported, dispatch of *new* chunks stops, in-flight chunks
        drain, and the typed :class:`SweepWorkerError` is raised — with
        ``pool_broken=False``, because the workers themselves are
        healthy.  A worker *death* raises the same error with
        ``pool_broken=True``; the caller must then terminate the pool.
        """
        if self._closed:
            raise RuntimeError("cannot dispatch on a closed WarmPool")
        queue = deque(list(chunk) for chunk in chunks if chunk)
        idle = list(self._workers)
        busy = {}
        replicas = []
        errors = []
        while queue or busy:
            while queue and idle and not errors:
                worker = idle.pop()
                try:
                    worker.tasks.send(queue.popleft())
                except (OSError, ValueError):
                    # The worker's end of the task pipe is gone: the
                    # process died while idle.
                    raise SweepWorkerError(
                        None, "worker-crash",
                        "worker process died before dispatch (exit "
                        "code %r)" % (worker.process.exitcode,),
                        pool_broken=True)
                busy[worker.wid] = worker
            if not busy:
                break
            conns = {worker.results: worker for worker in busy.values()}
            for conn in _connection.wait(list(conns)):
                worker = conns[conn]
                try:
                    while conn.poll():
                        frame = conn.recv_bytes()
                        tag = frame[:1]
                        if tag == _FRAME_ROW:
                            replica = decode_replica_row(frame[1:],
                                                         self.base_seed)
                            if on_replica is not None:
                                on_replica(replica)
                            replicas.append(replica)
                        elif tag == _FRAME_ERROR:
                            errors.append(_decode_error(frame[1:]))
                        elif tag == _FRAME_DONE:
                            del busy[worker.wid]
                            idle.append(worker)
                except (EOFError, OSError):
                    raise SweepWorkerError(
                        None, "worker-crash",
                        "worker process died mid-chunk (exit code %r); "
                        "use mode=\"supervised\" for crash recovery"
                        % (worker.process.exitcode,),
                        pool_broken=True)
        if errors:
            index, kind, detail = errors[0]
            raise SweepWorkerError(index, kind, detail,
                                   dropped=len(errors) - 1)
        return replicas

    def close(self):
        """Orderly shutdown: ask idle workers to exit, then reap."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.tasks.send(None)
            except (OSError, ValueError):
                worker.process.kill()
        deadline = time.monotonic() + _SHUTDOWN_GRACE_SECONDS
        for worker in self._workers:
            worker.process.join(max(deadline - time.monotonic(), 0.0))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.tasks.close()
            worker.results.close()

    def terminate(self):
        """Hard shutdown: kill workers without draining (interrupt path)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.kill()
        for worker in self._workers:
            worker.process.join()
            worker.tasks.close()
            worker.results.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def __repr__(self):
        state = "closed" if self._closed else "warm"
        return ("WarmPool(%d workers, %s, spec=%r)"
                % (self.workers, state, getattr(self.spec, "name", None)))


# -- process-wide shared pool --------------------------------------------------

_shared = {"pool": None, "key": None}


def _shared_key(spec, base_seed, workers):
    return (json.dumps(spec.as_dict(), sort_keys=True, default=str),
            repr(base_seed), int(workers))


def shared_pool(spec, base_seed, workers):
    """The process-wide warm pool for ``(spec, base_seed, workers)``.

    Returns ``(pool, reused)``.  A live pool warmed for the same key is
    handed back as-is (``reused=True``) — this is what lets a resumed
    sweep, a sweep-after-failed-sweep, or a benchmark loop skip pool
    start-up entirely.  Any key change closes the old pool first: one
    warm pool per process, never a leak-prone collection of them.
    """
    key = _shared_key(spec, base_seed, workers)
    pool = _shared["pool"]
    if pool is not None and _shared["key"] == key and pool.alive():
        return pool, True
    shutdown_shared_pool()
    pool = WarmPool(spec, base_seed, workers)
    _shared["pool"] = pool
    _shared["key"] = key
    return pool, False


def invalidate_shared_pool(pool):
    """Terminate ``pool``; drop it from the shared slot if it is there."""
    pool.terminate()
    if _shared["pool"] is pool:
        _shared["pool"] = None
        _shared["key"] = None


def shutdown_shared_pool():
    """Close the shared pool, if any (atexit hook, key changes, tests)."""
    pool = _shared["pool"]
    _shared["pool"] = None
    _shared["key"] = None
    if pool is not None:
        pool.close()


atexit.register(shutdown_shared_pool)
