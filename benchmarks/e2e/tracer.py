"""Outside-in layer tracer for the end-to-end benchmark.

The tracer measures each layer of the simulator from the outside: it
wraps the public functions a layer exposes, records a span per call,
and leaves every file under ``src/`` untouched.  Installing it patches
class attributes and module-level function references; uninstalling
puts the original objects back, so an untraced sample that follows a
traced one runs exactly the original code.

A span's *self time* is its duration minus the time its child spans
cover.  Each wrapped call also costs time the program would not spend:
the part outside the child's timing window lands in the parent, the
part inside lands in the child.  :meth:`Tracer.calibrate` measures both
with wrapped no-op calls and :meth:`Tracer._finish` subtracts them, so
the reported self times estimate the untraced program.
"""

import importlib
import sys
import time
from contextlib import contextmanager

#: Functions wrapped as spans: (module, attribute, span name).  An
#: attribute ``Class.method`` patches the class; a bare function is
#: patched in its defining module and in every loaded ``repro`` module
#: that imported it by name.  A target missing from the program (renamed
#: or deleted by a later change) makes :meth:`Tracer.install` raise, so
#: the change must update this table rather than let a layer read zero.
TARGETS = (
    ("repro.sim.events", "Kernel.run", "sim.run"),
    ("repro.sim.trace", "TraceLog.record", "trace.record"),
    ("repro.core.ensemble", "trace_digest", "trace.digest"),
    ("repro.core.environments", "seed_user_documents", "core.seed_documents"),
    ("repro.crypto.rsa", "generate_keypair", "crypto.keygen"),
    ("repro.crypto.rsa", "RsaPublicKey.encrypt", "crypto.rsa"),
    ("repro.crypto.rsa", "RsaPublicKey.verify", "crypto.rsa"),
    ("repro.crypto.rsa", "RsaKeyPair.decrypt", "crypto.rsa"),
    ("repro.crypto.rsa", "RsaKeyPair.sign", "crypto.rsa"),
    ("repro.crypto.ciphers", "xor_stream", "crypto.xor_stream"),
    ("repro.crypto.sealed", "seal", "crypto.seal"),
    ("repro.crypto.sealed", "unseal", "crypto.seal"),
    ("repro.cnc.database", "MiniDatabase.select", "cnc.db_read"),
    ("repro.cnc.database", "MiniDatabase.select_one", "cnc.db_read"),
    ("repro.cnc.database", "MiniDatabase.count", "cnc.db_read"),
    ("repro.cnc.database", "MiniDatabase.insert", "cnc.db_write"),
    ("repro.cnc.database", "MiniDatabase.update", "cnc.db_write"),
    ("repro.cnc.database", "MiniDatabase.delete", "cnc.db_write"),
    ("repro.cnc.database", "MiniDatabase.delete_where", "cnc.db_write"),
    ("repro.malware.flame.modules", "LuaModule.call", "luavm.call"),
    ("repro.winsim.vfs", "VirtualFileSystem.write", "winsim.vfs_write"),
    ("repro.winsim.vfs", "VirtualFileSystem.overwrite_data",
     "winsim.vfs_write"),
    ("repro.winsim.vfs", "VirtualFileSystem.read", "winsim.vfs_read"),
    ("repro.winsim.vfs", "VirtualFileSystem.get", "winsim.vfs_read"),
    # Population work outside the per-epoch step: building the pool,
    # seeding, O(N) scans and moving hosts between fidelity tiers.
    ("repro.epidemic.pool", "HostPool.__init__", "epidemic.pool"),
    ("repro.epidemic.pool", "HostPool.indices_in_state", "epidemic.pool"),
    ("repro.epidemic.pool", "HostPool.infected_by_region", "epidemic.pool"),
    ("repro.epidemic.model", "EpidemicModel.seed_initial", "epidemic.pool"),
    ("repro.epidemic.model", "EpidemicModel.resync_from_pool",
     "epidemic.pool"),
    ("repro.epidemic.promote", "promote_host", "epidemic.pool"),
    ("repro.epidemic.promote", "demote_host", "epidemic.pool"),
    ("repro.sim.workerpool", "decode_replica_row", "sweep.decode"),
    # Worker start-up and reaping, measured at the process level so the
    # same spans cover the warm pool and the supervisor alike.
    ("multiprocessing.process", "BaseProcess.start", "sweep.spawn"),
    ("multiprocessing.process", "BaseProcess.join", "sweep.close"),
)

#: Spans whose calls carry a byte count (the first positional argument).
MEASURED = {"crypto.xor_stream"}

#: Kernel methods whose ``callback`` argument is wrapped, so every
#: dispatched event becomes a span named after its label family.
SCHEDULERS = ("call_at", "call_later")

#: Callback label families (the label text before the first ``:``)
#: that belong to a named layer; every other family is a malware
#: handler, traced as ``malware:<family>``.
CALLBACK_LAYERS = {
    "plc-scan": "plc.scan",
    "safety-poll": "plc.safety_poll",
    "cnc-cleanup": "cnc.cleanup",
    "epidemic.step": "epidemic.step",
}

#: Calls per calibration loop; the minimum of three loops is kept.
CALIBRATION_CALLS = 100_000


def callback_span(label):
    """Span name for a kernel callback scheduled under ``label``."""
    family = str(label).split(":", 1)[0]
    return CALLBACK_LAYERS.get(family, "malware:" + family)


def _noop(*args, **kwargs):
    return None


class Tracer:
    """Records spans and per-span-name self-time totals in memory.

    ``totals`` maps a span name to ``[self seconds, calls, amount,
    duration seconds]`` for the current sample; a call nested directly
    inside a span of the same name (``select_one`` calling ``select``)
    adds time but not a call.  ``spans`` keeps the full span records of
    the samples opened with ``keep=True``.
    """

    def __init__(self):
        self.totals = {}
        self.spans = []
        self.inside_cost = 0.0
        self.outside_cost = 0.0
        self.schedule_cost = 0.0
        self._stack = []
        self._keep = False
        self._next_id = 0
        self._sample = None
        self._patched = []
        self._wrappers = {}
        self._span_names = {}

    # -- spans -------------------------------------------------------------

    def _new_id(self):
        if not self._keep:
            return -1
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _finish(self, frame, end):
        name, start, child_time, child_calls, span_id, amount = frame
        duration = end - start
        own = (duration - self.inside_cost - child_time
               - child_calls * self.outside_cost)
        stack = self._stack
        parent = stack[-1] if stack else None
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0.0, 0, 0, 0.0]
        entry[0] += own
        if parent is None or parent[0] != name:
            entry[1] += 1
        entry[2] += amount
        entry[3] += duration
        if parent is not None:
            parent[2] += duration
            parent[3] += 1
        if span_id >= 0:
            self.spans.append((self._sample, span_id,
                               parent[4] if parent is not None else None,
                               name, start, end))

    def wrap(self, name, fn):
        """``fn`` wrapped so each call records a span called ``name``."""
        stack = self._stack
        clock = time.perf_counter
        finish = self._finish
        new_id = self._new_id
        measured = name in MEASURED

        def traced(*args, **kwargs):
            frame = [name, 0.0, 0.0, 0, new_id(),
                     len(args[0]) if measured and args else 0]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                finish(frame, end)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of benchmark code."""
        frame = [name, 0.0, 0.0, 0, self._new_id(), 0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._finish(frame, end)

    @contextmanager
    def sample(self, sample_id, keep):
        """Root span of one sample; resets :attr:`totals`.

        With ``keep`` every span of the sample is also kept in
        :attr:`spans`, tagged with ``sample_id``.
        """
        self.totals = {}
        self._sample = sample_id
        self._keep = bool(keep)
        try:
            with self.span("sample"):
                yield self
        finally:
            self._keep = False

    # -- patching ----------------------------------------------------------

    def _scheduler(self, original):
        tracer = self
        stack = self._stack
        names = self._span_names

        def schedule(kernel, when, callback, label="event"):
            name = names.get(label)
            if name is None:
                name = names[label] = callback_span(label)
            traced = tracer.wrap(name, callback)
            if stack:
                # Wrapping is tracing cost, not the caller's own work.
                stack[-1][2] += tracer.schedule_cost
            return original(kernel, when, traced, label)

        schedule.__wrapped__ = original
        return schedule

    def _set(self, holder, key, value):
        self._patched.append((holder, key, vars(holder)[key]))
        self._wrappers[id(value)] = value
        setattr(holder, key, value)

    def install(self):
        """Patch every target; raise if the program lacks one."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module_name, attribute, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner, _, key = attribute.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = vars(holder).get(key) if holder is not None else None
            if not callable(original):
                self.uninstall()
                raise LookupError("trace target %s.%s is missing from the "
                                  "program; update tracer.TARGETS"
                                  % (module_name, attribute))
            wrapped = self.wrap(name, original)
            if owner:
                self._set(holder, key, wrapped)
                continue
            for loaded in list(sys.modules.values()):
                if loaded is not module and not getattr(
                        loaded, "__name__", "").startswith("repro"):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, alias, wrapped)
        from repro.sim.events import Kernel

        for key in SCHEDULERS:
            self._set(Kernel, key, self._scheduler(vars(Kernel)[key]))

    def uninstall(self):
        """Put back every original object :meth:`install` replaced."""
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)
        # A module imported while the tracer was installed may have
        # copied a wrapper by name; point it back at the original too.
        wrappers = self._wrappers
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(loaded).items()):
                if wrappers.get(id(value)) is value:
                    setattr(loaded, alias, value.__wrapped__)
        wrappers.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- calibration -------------------------------------------------------

    def calibrate(self, calls=CALIBRATION_CALLS):
        """Measure the cost one wrapped call adds, inside and outside
        its span, and the cost of wrapping one scheduled callback."""
        clock = time.perf_counter
        loop = range(calls)
        wrapped = self.wrap("bench.noop", _noop)
        schedule = self._scheduler(_noop)
        raw = traced = inside = scheduled = float("inf")
        for _ in range(3):
            started = clock()
            for _ in loop:
                _noop()
            raw = min(raw, clock() - started)
            with self.span("bench.calibrate"):
                root = self._stack[-1]
                started = clock()
                for _ in loop:
                    wrapped()
                traced = min(traced, clock() - started)
                # The wrapped calls' own timing windows, summed.
                inside = min(inside, root[2])
            started = clock()
            for _ in loop:
                schedule(None, 0.0, _noop, "bench:noop")
            scheduled = min(scheduled, clock() - started)
        self.totals = {}
        self.inside_cost = max(inside - raw, 0.0) / calls
        self.outside_cost = max(traced - inside, 0.0) / calls
        self.schedule_cost = max(scheduled - raw, 0.0) / calls
        return self.inside_cost, self.outside_cost, self.schedule_cost
