"""End-to-end benchmark of the cyber-range simulator.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out PATH]

Each workload runs for ``--seconds`` (at least three samples) as a
sequence of batch processes, one at a time, while this process samples
the peak resident set of each batch's process group at 10 Hz.  It
prints every metric with its unit, checks the program's outputs (see
README.md) and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` runs every sample twice, in
an untraced and a traced batch with the same seeds, and reports the
per-layer metrics instead of the end-to-end ones.

``--record-expected`` rewrites ``expected.json`` with the output
digests of the selected workloads at the default seed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"
OUT_DIR = HERE / "out"

#: Every run measures at least this many samples, whatever its length.
#: Count metrics are read from the first ``MIN_SAMPLES`` samples, so two
#: runs with one seed compare them exactly.
MIN_SAMPLES = 3

#: Every timed run sets up at least this many batch processes.
MIN_SETUPS = 4

#: Wall-clock cap on one workload, set-up and checks included; it leaves
#: room to kill and reap a hung batch within three minutes.
WORKLOAD_LIMIT_S = 150.0

#: Seconds a batch's process group may take to exit after its leader.
EXIT_GRACE_S = 5.0

#: The two sweep workloads run the same sweeps (``Sweep.seed_key``)
#: through different worker substrates.  Whichever runs second in an
#: invocation must reproduce the other's digest for every shared seed.
SWEEP_TWINS = {"sweep-pool": "sweep-supervised",
               "sweep-supervised": "sweep-pool"}


def _program_root():
    """The checkout to benchmark: the working directory."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit("run.py: %s has no src/repro; run it from the root "
                         "of a checkout of the program" % root)
    return root


# -- batch process (child side) ----------------------------------------------

def _batch_main(job):
    root = _program_root()
    sys.path.insert(0, str(root / "src"))
    result = harness.run_batch(job, STARTED)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


# -- process-group monitor (parent side) -------------------------------------

def _group_members(pgid):
    """``{pid: state}`` of the processes in process group ``pgid``."""
    members = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return members
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, encoding="ascii",
                      errors="replace") as stat:
                data = stat.read()
        except OSError:
            continue
        fields = data[data.rindex(")") + 2:].split()
        if int(fields[2]) == pgid:
            members[int(entry)] = fields[0]
    return members


class GroupMonitor(threading.Thread):
    """Samples the peak ``VmHWM`` over a process group at 10 Hz.

    Sweep workers are grandchildren of the batch process (the fork
    server starts them), so ``RUSAGE_CHILDREN`` would miss them; the
    process group holds them all.
    """

    def __init__(self, pgid):
        super().__init__(daemon=True)
        self.pgid = pgid
        self.peak_kb = 0
        self._halt = threading.Event()

    def poll(self):
        for pid, state in _group_members(self.pgid).items():
            if state != "Z":
                self.peak_kb = max(self.peak_kb, harness.vm_hwm_kb(pid))

    def run(self):
        while not self._halt.wait(0.1):
            self.poll()

    def stop(self):
        self._halt.set()
        self.join()

    def reap(self):
        """Wait for the group to exit; kill stragglers; return how many
        processes outlived the batch process."""
        deadline = time.monotonic() + EXIT_GRACE_S
        while True:
            alive = [pid for pid, state in
                     _group_members(self.pgid).items() if state != "Z"]
            if not alive or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if alive:
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + EXIT_GRACE_S
            while time.monotonic() < deadline and any(
                    state != "Z"
                    for state in _group_members(self.pgid).values()):
                time.sleep(0.05)
        return len(alive)


def _run_batch_process(root, job, timeout):
    """Run one batch in a fresh process group; return its result dict
    with ``peak_kb`` and ``leaked`` added, or an ``error`` entry."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--batch", json.dumps(job)],
        cwd=str(root), env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    monitor = GroupMonitor(process.pid)
    monitor.start()
    error = None
    try:
        output, _ = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        output, _ = process.communicate()
        error = "batch exceeded its %.0f s limit" % timeout
    finally:
        monitor.stop()
        monitor.poll()
    leaked = monitor.reap()
    lines = output.strip().splitlines()
    if error is None and process.returncode != 0:
        error = "batch exited with code %d" % process.returncode
    if error is None:
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            error = "batch printed no result"
    if error is not None:
        return {"error": error, "leaked": leaked, "count": job["count"]}
    result["peak_kb"] = max(monitor.peak_kb, result.pop("vm_hwm_kb", 0))
    result["leaked"] = leaked
    return result


# -- one workload ------------------------------------------------------------

def run_workload(root, name, seed, seconds, trace, preset, wanted=None):
    """Run batches of workload ``name`` for ``seconds`` (or until
    ``wanted`` samples exist).

    Returns ``(batches, samples, extra)``: the untraced batches, their
    samples, and the batches run only to check them.  With ``trace``
    each untraced batch is followed by a traced batch of the same
    samples in a fresh process, so both halves of a pair start equally
    cold; the traced record of a sample is stored under ``"traced"``.
    """
    workload = harness.WORKLOADS[name]
    spans_path = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / ("%s.spans.jsonl" % name)
        if spans_path.exists():
            spans_path.unlink()
    started = time.monotonic()

    def batch(first, count, traced=False, deadline=1e9, spans=None):
        job = {"workload": name, "seed": seed, "preset": preset,
               "trace": int(traced), "first": first, "count": count,
               "seconds": deadline, "spans_path": spans}
        return _run_batch_process(
            root, job, WORKLOAD_LIMIT_S - (time.monotonic() - started))

    batches = []
    samples = []
    extra = []
    first = 0
    while True:
        elapsed = time.monotonic() - started
        if wanted is not None:
            if len(samples) >= wanted:
                break
        elif len(samples) >= MIN_SAMPLES and elapsed >= seconds:
            break
        if elapsed >= WORKLOAD_LIMIT_S:
            batches.append({"error": "workload time limit reached",
                            "count": 1, "leaked": 0})
            break
        count = workload.per_batch if wanted is None else \
            min(workload.per_batch, wanted - len(samples))
        # The first batch always runs its full share, so its peak
        # memory (``peak_rss_mb``) covers the same replicas every run.
        timed = batch(first, count, deadline=seconds - elapsed
                      if wanted is None and batches else 1e9)
        batches.append(timed)
        new = timed.get("samples", [])
        if trace and new:
            twin = batch(first, len(new), traced=True,
                         spans=None if extra else str(spans_path))
            extra.append(twin)
            traced = {s["index"]: s for s in twin.get("samples", [])}
            for sample in new:
                sample["traced"] = traced.get(sample["index"], {
                    "index": sample["index"],
                    "error": twin.get("error", "traced sample missing")})
        samples.extend(new)
        first += count
    while not trace and wanted is None and len(batches) < MIN_SETUPS:
        # A batch that only sets up, so ``setup_s`` is a median of
        # several set-ups even when few long samples fill the run.
        batches.append(batch(first, 0, deadline=0.0))
    last = workload.per_batch - 1
    if not trace and wanted is None and workload.kind == "single" \
            and last > 0 and any(s["index"] == last for s in samples):
        # Re-run the first batch's last sample, which ran after the
        # others in that batch, in a fresh process: a replica must not
        # depend on what ran before it.
        verify = batch(last, 1, deadline=0.0)
        verify["verifies"] = last
        extra.append(verify)
    return batches, samples, extra


# -- correctness -------------------------------------------------------------

def _load_json(path):
    try:
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)
    except FileNotFoundError:
        return {}


def sample_problems(sample, expected):
    """Everything wrong with one sample (empty when it is correct)."""
    if "error" in sample:
        return [sample["error"]]
    problems = list(sample.get("problems", []))
    index = sample["index"]
    if expected is not None and index < len(expected) \
            and sample["digest"] != expected[index]:
        problems.append("digest %s differs from expected.json"
                        % sample["digest"][:12])
    traced = sample.get("traced")
    if traced is not None:
        if "error" in traced or traced.get("problems"):
            problems.extend(["traced: %s" % p
                             for p in sample_problems(traced, None)])
        elif traced["digest"] != sample["digest"]:
            problems.append("traced digest differs from untraced digest")
    return problems


def check(name, seed, preset, batches, samples, extra, twins=None):
    """``(attempted, failed, problems, bad)`` for one workload run:
    ``bad`` holds the indices of the samples that failed.  ``twins``
    maps sample indices to the digests the other sweep substrate gave
    for the same seeds in this invocation."""
    expected = None
    recorded = _load_json(EXPECTED_JSON)
    if seed == harness.DEFAULT_SEED and recorded.get("seed") == seed:
        expected = recorded.get(preset, {}).get(name)
    by_index = {sample["index"]: sample for sample in samples}
    problems = []
    bad = set()

    def fail(sample, problem):
        bad.add(sample["index"])
        problems.append("sample %d: %s" % (sample["index"], problem))

    twins = twins or {}
    for sample in samples:
        for problem in sample_problems(sample, expected):
            fail(sample, problem)
        twin = twins.get(sample["index"])
        if twin is not None and sample.get("digest", twin) != twin:
            fail(sample, "digest differs from %s's for the same seed"
                 % SWEEP_TWINS[name])
    attempted = len(samples)
    failed = 0
    for batch in batches:
        if "error" in batch:
            # A batch that failed to set up counts as one failed sample.
            attempted += max(batch["count"], 1)
            failed += max(batch["count"], 1)
            problems.append(batch["error"])
    for batch in extra:
        if "verifies" in batch:
            original = by_index[batch["verifies"]]
            again = batch.get("samples", [{}])[0].get("digest")
            if again != original.get("digest"):
                fail(original, batch.get(
                    "error", "digest changed when re-run in a fresh process"))
        elif "error" in batch:
            # A failed traced batch: its samples already fail above.
            problems.append(batch["error"])
    for batch in batches + extra:
        if batch["leaked"]:
            failed += 1
            problems.append("%d process(es) outlived their batch"
                            % batch["leaked"])
    return attempted, failed + len(bad), problems, bad


# -- metrics -----------------------------------------------------------------

_NONE = (0.0, 0, 0, 0.0)


def _own(traced, name):
    return traced["layers"].get(name, _NONE)[0]


def _calls(traced, name):
    return traced["layers"].get(name, _NONE)[1]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _callbacks(traced):
    """Kernel events dispatched in the traced process: every event runs
    a wrapped callback."""
    from tracer import CALLBACK_LAYERS

    layers = set(CALLBACK_LAYERS.values())
    return sum(entry[1] for name, entry in traced["layers"].items()
               if name in layers or name.startswith("malware:"))


#: Per-layer metrics, from one untraced sample ``u`` and its traced
#: twin ``t``.  The layer each reads is named in README.md.
PER_LAYER = {
    "sim.events": lambda u, t: _callbacks(t),
    "sim.dispatch_self_s": lambda u, t: _own(t, "sim.run"),
    "sim.dispatch_ns_per_event": lambda u, t: _ratio(
        _own(t, "sim.run") * 1e9, _callbacks(t)),
    "plc.scan_s": lambda u, t: _own(t, "plc.scan"),
    "plc.safety_poll_s": lambda u, t: _own(t, "plc.safety_poll"),
    "plc.callbacks": lambda u, t: (_calls(t, "plc.scan")
                                   + _calls(t, "plc.safety_poll")),
    "crypto.keygen_s": lambda u, t: _own(t, "crypto.keygen"),
    "crypto.keygen_calls": lambda u, t: _calls(t, "crypto.keygen"),
    "crypto.xor_stream_s": lambda u, t: _own(t, "crypto.xor_stream"),
    "crypto.xor_stream_bytes": lambda u, t: t["layers"].get(
        "crypto.xor_stream", _NONE)[2],
    "crypto.rsa_s": lambda u, t: _own(t, "crypto.rsa"),
    "crypto.rsa_calls": lambda u, t: _calls(t, "crypto.rsa"),
    "crypto.seal_s": lambda u, t: _own(t, "crypto.seal"),
    "cnc.db_read_s": lambda u, t: _own(t, "cnc.db_read"),
    "cnc.db_read_calls": lambda u, t: _calls(t, "cnc.db_read"),
    "cnc.db_write_s": lambda u, t: _own(t, "cnc.db_write"),
    "cnc.db_write_calls": lambda u, t: _calls(t, "cnc.db_write"),
    "cnc.cleanup_s": lambda u, t: _own(t, "cnc.cleanup"),
    "luavm.call_s": lambda u, t: _own(t, "luavm.call"),
    "luavm.calls": lambda u, t: _calls(t, "luavm.call"),
    "epidemic.step_s": lambda u, t: _own(t, "epidemic.step"),
    "epidemic.pool_s": lambda u, t: _own(t, "epidemic.pool"),
    "epidemic.ns_per_host_epoch": lambda u, t: _ratio(
        _own(t, "epidemic.step") * 1e9,
        _calls(t, "epidemic.step") * t["step_hosts"]),
    "winsim.vfs_write_s": lambda u, t: _own(t, "winsim.vfs_write"),
    "winsim.vfs_write_calls": lambda u, t: _calls(t, "winsim.vfs_write"),
    "winsim.vfs_read_s": lambda u, t: _own(t, "winsim.vfs_read"),
    "core.build_s": lambda u, t: _own(t, "core.build"),
    "core.seed_documents_s": lambda u, t: _own(t, "core.seed_documents"),
    "trace.records": lambda u, t: _calls(t, "trace.record"),
    "trace.record_s": lambda u, t: _own(t, "trace.record"),
    "trace.digest_s": lambda u, t: _own(t, "trace.digest"),
    "malware.handlers_s": lambda u, t: sum(
        entry[0] for name, entry in t["layers"].items()
        if name.startswith("malware:")),
    "sweep.spawn_s": lambda u, t: _own(t, "sweep.spawn"),
    "sweep.close_s": lambda u, t: _own(t, "sweep.close"),
    "sweep.probe_s": lambda u, t: t.get("probe_s", 0.0),
    "sweep.decode_s": lambda u, t: _own(t, "sweep.decode"),
    "sweep.efficiency": lambda u, t: t.get("efficiency", 0.0),
    "sweep.pool_reused": lambda u, t: t.get("pool_reused", 0),
    "sweep.fallbacks": lambda u, t: t.get("fallback", 0),
    "sweep.worker_restarts": lambda u, t: t.get("worker_restarts", 0),
    "bench.trace_overhead": lambda u, t: t["wall_s"] / u["wall_s"] - 1,
    "bench.unattributed_share": lambda u, t: _ratio(
        _own(t, "sample") + _own(t, "campaign.run"),
        t["layers"].get("sample", _NONE)[3]),
}

#: Units of values that count work rather than time it.
COUNT_UNITS = ("count", "B")


def _stats(values):
    """Median (``value``), quartiles and count of ``values``."""
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def compute_metrics(benchmark, batches, good, trace):
    """Metric name -> stats (``value``, ``q1``, ``q3``, ``n``, ``unit``)
    over the correct samples ``good``; None without any."""
    if not good:
        return None
    metrics = {}
    if not trace:
        done = [batch for batch in batches if "error" not in batch]
        stats = {
            "setup_s": _stats([batch["setup_s"] for batch in done]),
            "replica_s": _stats([s["replica_s"] for s in good]),
            "peak_rss_mb": _stats([next(
                batch["peak_kb"] for batch in done if batch["samples"])
                / 1024.0]),
            "work_per_s": _stats([s["work_per_s"] for s in good]),
        }
        for entry in benchmark["end_to_end"]:
            metrics[entry["name"]] = dict(stats[entry["name"]],
                                          unit=entry["unit"])
        return metrics
    first = sorted(good, key=lambda s: s["index"])[:MIN_SAMPLES]
    for entry in benchmark["per_layer"]:
        name = entry["name"]
        chosen = first if entry["unit"] in COUNT_UNITS else good
        values = [PER_LAYER[name](s, s["traced"]) for s in chosen]
        metrics[name] = dict(_stats(values), unit=entry["unit"])
    return metrics


def host_summary(batches, good):
    """Wall-clock times and host slowdowns behind the reported metrics,
    for the record; empty without correct samples."""
    if not good:
        return {}
    done = [batch for batch in batches if "error" not in batch]
    return {
        "setup_wall_s": _stats([batch["setup_wall_s"] for batch in done]),
        "sample_wall_s": _stats([s["wall_s"] for s in good]),
        "slowdown": _stats([s["slowdown"] for s in good]),
    }


# -- output ------------------------------------------------------------------

def _environment(root):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(root),
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def _print_workload(name, report):
    print("== %s: %d sample(s) in %d batch(es), %d failed"
          % (name, report["attempted"], len(report["batches"]),
             report["failed"]))
    for problem in report["problems"]:
        print("   ! %s" % problem)
    for metric, stats in sorted((report["metrics"] or {}).items()):
        print("   %-28s %16.6g %-6s n=%d, q1 %.6g, q3 %.6g"
              % (metric, stats["value"], stats["unit"], stats["n"],
                 stats["q1"], stats["q3"]))
    for key, stats in sorted(report["host"].items()):
        print("   (%s) %*.6g        n=%d, q1 %.6g, q3 %.6g"
              % (key, 41 - len(key), stats["value"], stats["n"],
                 stats["q1"], stats["q3"]))


def _write_out(path, root, args, reports):
    """Store this run under its mode (``timed``/``traced``) in ``path``,
    keeping a run of the other mode already stored there."""
    document = _load_json(path)
    document.update(environment=_environment(root), seed=args.seed,
                    seconds=args.seconds, preset=args.preset)
    document["traced" if args.trace else "timed"] = reports
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=1, sort_keys=True)
        stream.write("\n")


def _record_expected(root, names, preset):
    """Rewrite the selected workloads' digests in ``expected.json``."""
    document = _load_json(EXPECTED_JSON)
    if document.get("seed") != harness.DEFAULT_SEED:
        document = {"seed": harness.DEFAULT_SEED}
    digests = document.setdefault(preset, {})
    for name in names:
        wanted = harness.WORKLOADS[name].recorded
        batches, samples, extra = run_workload(
            root, name, harness.DEFAULT_SEED, 0.0, 0, preset, wanted=wanted)
        _, failed, problems, _ = check(name, None, preset, batches,
                                       samples, extra)
        if failed:
            raise SystemExit("run.py: %s failed while recording: %s"
                             % (name, "; ".join(problems)))
        digests[name] = [s["digest"] for s in
                         sorted(samples, key=lambda s: s["index"])]
        print("recorded %d digests for %s (%s)" % (len(samples), name,
                                                    preset))
    with open(EXPECTED_JSON, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=1, sort_keys=True)
        stream.write("\n")


def main(argv=None):
    benchmark = _load_json(BENCHMARK_JSON)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(harness.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark.get("run_seconds", 15)),
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced samples")
    parser.add_argument("--quick", dest="preset", action="store_const",
                        const="quick", default="full",
                        help="tiny campaign sizes (smoke tests)")
    parser.add_argument("--out", help="also store the full report as JSON")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json instead of measuring")
    parser.add_argument("--batch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.batch is not None:
        _batch_main(json.loads(args.batch))
        return 0
    root = _program_root()
    names = args.workload or list(harness.WORKLOADS)
    if args.record_expected:
        _record_expected(root, names, args.preset)
        return 0
    reports = {}
    for name in names:
        batches, samples, extra = run_workload(
            root, name, args.seed, args.seconds, args.trace, args.preset)
        twin = reports.get(SWEEP_TWINS.get(name), {"samples": []})
        attempted, failed, problems, bad = check(
            name, args.seed, args.preset, batches, samples, extra,
            {s["index"]: s["digest"] for s in twin["samples"]
             if "digest" in s})
        good = [s for s in samples if s["index"] not in bad]
        reports[name] = {
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "problems": problems,
            "metrics": compute_metrics(benchmark, batches, good, args.trace),
            "host": host_summary(batches, good),
            "batches": [{key: value for key, value in batch.items()
                         if key != "samples"} for batch in batches + extra],
            "samples": samples,
        }
        _print_workload(name, reports[name])
    if args.out:
        _write_out(args.out, root, args, reports)
    if any(report["metrics"] is None for report in reports.values()):
        print("run.py: a workload produced no correct sample",
              file=sys.stderr)
        return 1
    metrics = {}
    for name, report in reports.items():
        for metric, stats in report["metrics"].items():
            key = metric if len(reports) == 1 else "%s/%s" % (name, metric)
            metrics[key] = {"value": stats["value"], "unit": stats["unit"]}
    attempted = sum(report["attempted"] for report in reports.values())
    failed = sum(report["failed"] for report in reports.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
