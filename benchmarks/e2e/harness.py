"""Workloads and the sample loop of one benchmark batch.

A batch is one child process.  It imports the program, runs one
untimed quick-preset replica so imports and compile caches are warm,
then runs samples of one workload until it has run its share or its
deadline passes.  Garbage a sample leaves in reference cycles stays
until the interpreter collects it on its own (the benchmark never calls
``gc.collect()``), so a batch of back-to-back replicas pays for it the
way a sweep worker does; the batch ends with its process, which bounds
the memory one batch can pile up.

Untraced batches time their set-up and every sample under a
:class:`HostSpeed`, which reports the times at a fixed host speed; the
raw wall-clock times are kept beside them.

Nothing here imports ``repro`` at module level, so the parent process
can read the workload table without loading the program.
"""

import hashlib
import json
import signal
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

#: The seed a run uses when none is given, and the one
#: ``expected.json`` records digests for.
DEFAULT_SEED = 2013

#: The campaign every sweep replicates, at its quick preset.
SWEEP_CAMPAIGN = "stuxnet-epidemic"

#: Sweep workers: the number of cores of the machine the baseline was
#: measured on.  Fixed, so the load does not change with the host.
SWEEP_WORKERS = 2

#: Seconds between two reference slices while a timed sample runs.
SPEED_PERIOD_S = 0.05

#: CPU seconds one reference slice takes on the reference host: the
#: 2-vCPU machine the baseline was recorded on, at a quiet moment.
REFERENCE_SLICE_S = 0.00075

_MODULUS = (1 << 521) - 1
_BASE = 0x5DEECE66D
_EXPONENT = (1 << 127) - 1


def _reference_slice():
    """A fixed slice of the two kinds of work the simulator does:
    interpreted Python (dict updates, integer arithmetic, string
    conversion) and C big-integer arithmetic (the modular
    exponentiation behind its RSA), in about equal parts."""
    table = {}
    for i in range(1200):
        key = (i * 2654435761) & 0xFFFF
        table[key & 255] = table.get(key & 255, 0) + len(str(key))
    for k in range(3):
        pow(_BASE, _EXPONENT + k, _MODULUS)


class HostSpeed:
    """Measures how fast the host runs while a sample runs.

    The machine is shared: other jobs on it slow this process by up to
    about 2 times for seconds to minutes at a time, far more than the
    changes the benchmark must detect.  While :meth:`running`, a
    ``SIGALRM`` interval timer interrupts the program every
    ``SPEED_PERIOD_S`` and the handler times one reference slice, on the
    same core and at the same moment as the program's own work.  The
    program's code is not touched; the handler runs between two of its
    bytecodes.  A slice is timed in CPU time, so a sweep's own workers
    taking the core away from it do not count as a slow host.
    :meth:`scale` turns a duration measured meanwhile into seconds at
    the reference host speed.
    """

    def __init__(self):
        self.readings = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        started = time.perf_counter()
        cpu = time.thread_time()
        _reference_slice()
        self.readings.append(time.thread_time() - cpu)
        self.spent += time.perf_counter() - started

    @contextmanager
    def running(self):
        """Measure the host until the block ends; readings start afresh."""
        self.readings = []
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self):
        """Mean reference slice time over the reference host's (1.0
        when no slice ran)."""
        if not self.readings:
            return 1.0
        return sum(self.readings) / len(self.readings) / REFERENCE_SLICE_S

    def scale(self, wall):
        """Factor from a wall-clock span of ``wall`` seconds, measured
        in the last :meth:`running` block, to reference-host seconds:
        the reference slices' own time is left out of every part of the
        span in proportion, and the rest is divided by the slowdown."""
        return (wall - self.spent) / wall / self.slowdown()


def _measuring(speed):
    return speed.running() if speed is not None else nullcontext()


def _untraced(name):
    return nullcontext()


def _output_line(trace_digest, measurements):
    """A replica's outputs as one line: its trace digest and its
    reduced measurements.  Several campaigns record seed-independent
    traces, so the measurements are what tells two seeds apart."""
    return "%s %s" % (trace_digest, json.dumps(measurements, sort_keys=True))


def _digest_of(lines):
    """SHA-256 over output lines, one per replica."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Single:
    """A single-campaign workload: one sample is one replica.

    ``full`` holds the campaign parameters of a measured run; the
    ``quick`` preset is the campaign's ``CampaignSpec.quick`` one.  A
    batch process runs at most ``per_batch`` replicas.  ``recorded`` is
    how many samples ``expected.json`` keeps digests for.  ``work``
    names the unit ``work_per_s`` counts over the run phase (the build
    and the digest excluded): kernel events, or host-epochs for the
    population-scale epidemic.
    """

    kind = "single"

    def __init__(self, campaign, full, per_batch, recorded, work="events"):
        self.campaign = campaign
        self.full = full
        self.per_batch = per_batch
        self.recorded = recorded
        self.work = work

    def seed_key(self, name):
        return name

    def spec(self, preset):
        from repro.core.ensemble import CampaignSpec

        if preset == "quick":
            return CampaignSpec.quick(self.campaign)
        return CampaignSpec(self.campaign, params=self.full)

    def warm_up(self):
        from repro.core.ensemble import CampaignSpec, run_replica

        run_replica(CampaignSpec.quick(self.campaign), 0, "warm-up")

    def run(self, seed, preset, tracer, speed=None):
        from repro.core import ensemble

        spec = self.spec(preset)
        span = tracer.span if tracer is not None else _untraced
        clock = time.perf_counter
        with _measuring(speed):
            started = clock()
            with span("core.build"):
                campaign = spec.build(seed)
            built = clock()
            with span("campaign.run"):
                result = campaign.run(**spec.run_params)
            ran = clock()
            kernel = campaign.world.kernel
            # Looked up on the module at call time, so a traced sample
            # calls the traced function.
            digest = ensemble.trace_digest(kernel.trace)
            done = clock()
        scale = slowdown = 1.0
        if speed is not None:
            scale, slowdown = speed.scale(done - started), speed.slowdown()
        events = kernel.dispatched_events
        hosts = spec.params.get("host_count", 0)
        if self.work == "host_epochs":
            work = hosts * spec.params["epochs"]
        else:
            work = events
        record = {
            "build_s": built - started,
            "run_s": ran - built,
            "digest_s": done - ran,
            "wall_s": done - started,
            "slowdown": slowdown,
            "replica_s": (done - started) * scale,
            "events": events,
            "work_per_s": work / ((ran - built) * scale),
            "records": len(kernel.trace),
            "step_hosts": hosts,
            "digest": _digest_of([_output_line(
                digest, ensemble.reduce_measurements(result))]),
        }
        return record, None

    def check(self, record, result, seed, preset):
        problems = []
        if record["events"] <= 0:
            problems.append("no kernel events dispatched")
        if len(record["digest"]) != 64:
            problems.append("malformed trace digest %r" % record["digest"])
        return problems


class Sweep:
    """A sweep workload: one sample is one cold ``run_sweep``.

    Every sample runs in a fresh batch process with a fresh base seed,
    as ``repro sweep`` runs it, so no sample reuses a warm pool.
    ``replicas`` maps each preset to the sweep size.
    """

    kind = "sweep"
    per_batch = 1

    def __init__(self, mode, replicas, recorded):
        self.mode = mode
        self.replicas = replicas
        self.recorded = recorded

    def seed_key(self, name):
        # Both sweep workloads share seeds, so their digests must match.
        return "sweep"

    def spec(self, preset):
        from repro.core.ensemble import CampaignSpec

        return CampaignSpec.quick(SWEEP_CAMPAIGN)

    def warm_up(self):
        from repro.core.ensemble import run_replica

        run_replica(self.spec("quick"), 0, "warm-up")

    def run(self, seed, preset, tracer, speed=None):
        from repro.sim.sweep import SweepConfig, run_sweep

        spec = self.spec(preset)
        replicas = self.replicas[preset]
        config = SweepConfig(replicas=replicas, workers=SWEEP_WORKERS,
                             base_seed=seed, mode=self.mode)
        span = tracer.span if tracer is not None else _untraced
        with _measuring(speed):
            started = time.perf_counter()
            with span("sweep.run"):
                result = run_sweep(spec, config)
            wall = time.perf_counter() - started
        scale = slowdown = 1.0
        if speed is not None:
            scale, slowdown = speed.scale(wall), speed.slowdown()
        dispatch = result.dispatch or {}
        supervision = result.supervision or {}
        # Replica compute in the workers, as each worker timed it:
        # start-up, IPC and decoding left out.  The workers share the
        # host with the measured process, so the same slowdown applies.
        busy = sum(replica.wall_seconds for replica in result.replicas)
        record = {
            "wall_s": wall,
            "slowdown": slowdown,
            "replica_s": wall * scale / replicas,
            "work_per_s": len(result.replicas) * slowdown / busy
            if busy else 0.0,
            "events": sum(replica.events_dispatched
                          for replica in result.replicas),
            "replicas": len(result.replicas),
            "failures": len(result.failures),
            "path": dispatch.get("path", result.mode),
            "pool_reused": int(bool(dispatch.get("pool_reused"))),
            "fallback": int(dispatch.get("path") == "serial-fallback"),
            "probe_s": dispatch.get("probe_seconds") or 0.0,
            "efficiency": busy / (SWEEP_WORKERS * wall),
            "worker_restarts": supervision.get("worker_restarts", 0),
            "step_hosts": spec.params.get("host_count", 0),
            "digest": _digest_of([
                _output_line(replica.trace_digest, replica.measurements)
                for replica in result.replicas]),
        }
        return record, result

    def check(self, record, result, seed, preset):
        from repro.core.ensemble import run_replica

        replicas = self.replicas[preset]
        problems = []
        if result.failures:
            problems.append("%d replica(s) failed" % len(result.failures))
        indices = [replica.index for replica in result.replicas]
        if indices != list(range(replicas)):
            problems.append("replica indices %r, expected 0..%d"
                            % (indices, replicas - 1))
            return problems
        # Spot check: one replica, picked by the seed, run again
        # in-process must reproduce the digest a worker sent home.
        spot = int(hashlib.sha256(seed.encode("utf-8")).hexdigest(), 16) \
            % replicas
        again = run_replica(self.spec(preset), spot, seed)
        sent = result.replicas[spot]
        if _output_line(again.trace_digest, again.measurements) != \
                _output_line(sent.trace_digest, sent.measurements):
            problems.append("replica %d outputs differ from an in-process "
                            "re-run" % spot)
        return problems


#: The workloads, by name, at the sizes users run (the CLI defaults;
#: 150 Shamoon hosts).  ``per_batch`` keeps a batch near or under
#: 1.4 GB; README.md gives the reasons.
WORKLOADS = {
    "natanz": Single(
        "stuxnet", {"centrifuge_count": 984, "duration_days": 180},
        per_batch=3, recorded=12),
    "flame-exfil": Single(
        "flame", {"victim_count": 10, "duration_weeks": 2},
        per_batch=3, recorded=40),
    "aramco-wiper": Single(
        "shamoon", {"host_count": 150},
        per_batch=2, recorded=40),
    "epidemic-1m": Single(
        "stuxnet-epidemic", {"host_count": 1_000_000, "epochs": 30},
        per_batch=1, recorded=8, work="host_epochs"),
    "sweep-pool": Sweep("auto", {"full": 64, "quick": 8}, recorded=12),
    "sweep-supervised": Sweep("supervised", {"full": 64, "quick": 8},
                              recorded=12),
}


def sample_seed(seed, name, index):
    """Seed of sample ``index`` of workload ``name`` in a run."""
    return "%d|%s|%d" % (seed, WORKLOADS[name].seed_key(name), index)


def _attempt(workload, index, seed, preset, tracer, speed, keep):
    """One sample, with its checks; never raises for a sample error."""
    try:
        if tracer is None:
            record, result = workload.run(seed, preset, None, speed)
        else:
            with tracer.installed(), tracer.sample(index, keep):
                record, result = workload.run(seed, preset, tracer)
            record["layers"] = tracer.totals
        problems = workload.check(record, result, seed, preset)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return {"index": index, "seed": seed,
                "error": "%s: %s" % (type(exc).__name__, exc)}
    record.update(index=index, seed=seed, problems=problems)
    return record


def vm_hwm_kb(pid="self"):
    """Peak resident set (``VmHWM``) of process ``pid`` in KiB; 0 when
    it cannot be read."""
    try:
        with open("/proc/%s/status" % pid, encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _write_spans(tracer, path):
    """Append the kept spans, times relative to their sample's start."""
    origin = {}
    for sample, _, parent, _, start, _ in tracer.spans:
        if parent is None:
            origin[sample] = start
    with open(path, "a", encoding="utf-8") as stream:
        for sample, span_id, parent, name, start, end in tracer.spans:
            base = origin.get(sample, start)
            stream.write(json.dumps({
                "sample": sample, "span": span_id, "parent": parent,
                "name": name, "start": start - base, "end": end - base,
            }, separators=(",", ":")) + "\n")


def run_batch(job, started):
    """Run one batch described by ``job``; return its JSON-ready result.

    ``started`` is the ``perf_counter`` reading taken when the batch
    process began, so ``setup_s`` covers imports and the warm-up.  A
    traced batch does not measure the host speed: its times are wall
    clock.
    """
    name = job["workload"]
    workload = WORKLOADS[name]
    preset = job["preset"]
    speed = None if job["trace"] else HostSpeed()
    with _measuring(speed):
        workload.warm_up()
    setup_wall = time.perf_counter() - started
    setup_s = setup_wall * (speed.scale(setup_wall) if speed else 1.0)
    deadline = time.perf_counter() + job["seconds"]
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.calibrate()
    samples = []
    for index in range(job["first"], job["first"] + job["count"]):
        if samples and time.perf_counter() >= deadline:
            break
        seed = sample_seed(job["seed"], name, index)
        keep = not samples and bool(job.get("spans_path"))
        samples.append(_attempt(workload, index, seed, preset, tracer,
                                speed, keep))
    if tracer is not None and job.get("spans_path"):
        _write_spans(tracer, job["spans_path"])
    return {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "samples": samples,
        "vm_hwm_kb": vm_hwm_kb(),
    }
