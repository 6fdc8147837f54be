"""Smoke test of the end-to-end benchmark.

    pytest benchmarks/e2e -q [--quick]

Runs every workload, timed and traced, for the minimum number of
samples (tiny campaign sizes with ``--quick``), and checks what the
benchmark promises: every metric of ``BENCHMARK.json`` is emitted with
its unit, no sample fails, traced and untraced digests agree, both
sweep substrates agree, no worker process outlives its batch, and a
traced sample leaves the program exactly as it found it.
"""

import json
import multiprocessing
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(request):
    return bool(request.config.getoption("--quick"))


@pytest.fixture(scope="module")
def report(quick, tmp_path_factory):
    """One timed and one traced run of every workload, at seconds=0."""
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    command = [sys.executable, str(HERE / "run.py"), "--seconds", "0",
               "--out", str(out)] + (["--quick"] if quick else [])
    finals = {}
    for trace in ("0", "1"):
        completed = subprocess.run(command + ["--trace", trace], cwd=ROOT,
                                   capture_output=True, text=True,
                                   timeout=900)
        assert completed.returncode == 0, \
            completed.stdout[-4000:] + completed.stderr[-4000:]
        finals[trace] = json.loads(completed.stdout.strip().splitlines()[-1])
    document = json.loads(out.read_text())
    document["finals"] = finals
    return document


def _samples(report, mode, workload):
    return {sample["index"]: sample
            for sample in report[mode][workload]["samples"]}


def test_every_metric_is_emitted_with_its_unit(report):
    names = [entry["name"] for entry in BENCHMARK["workloads"]]
    for mode, key, trace in (("timed", "end_to_end", "0"),
                             ("traced", "per_layer", "1")):
        assert sorted(report[mode]) == sorted(names)
        expected = {entry["name"]: entry["unit"] for entry in BENCHMARK[key]}
        for workload in names:
            metrics = report[mode][workload]["metrics"]
            assert {name: stats["unit"] for name, stats in metrics.items()} \
                == expected
            final = report["finals"][trace]["metrics"]
            for name, unit in expected.items():
                assert final["%s/%s" % (workload, name)]["unit"] == unit
    for workload in names:
        for stats in report["timed"][workload]["metrics"].values():
            assert stats["value"] > 0


def test_no_sample_fails(report):
    for mode in ("timed", "traced"):
        assert report["finals"]["0" if mode == "timed" else "1"]["correct"]
        for workload, run in report[mode].items():
            assert run["attempted"] >= 3, workload
            assert run["failed"] == 0, (workload, run["problems"])
            assert run["error_rate"] == 0


def test_traced_digests_equal_untraced_digests(report):
    for workload in report["traced"]:
        timed = _samples(report, "timed", workload)
        for index, sample in _samples(report, "traced", workload).items():
            assert sample["traced"]["digest"] == sample["digest"]
            if index in timed:
                assert timed[index]["digest"] == sample["digest"]


def test_both_sweep_substrates_agree(report):
    for mode in ("timed", "traced"):
        pool = _samples(report, mode, "sweep-pool")
        supervised = _samples(report, mode, "sweep-supervised")
        shared = sorted(set(pool) & set(supervised))
        assert shared
        assert [pool[i]["digest"] for i in shared] == \
            [supervised[i]["digest"] for i in shared]
        assert all(pool[i]["path"] == "warm-pool" for i in pool)
        assert all(pool[i]["pool_reused"] == 0 for i in pool)


def test_sweep_digest_differing_from_the_other_substrate_fails():
    import run

    samples = [{"index": i, "seed": "s%d" % i, "digest": "d%d" % i,
                "problems": []} for i in range(3)]
    twins = {0: "d0", 1: "other", 2: "d2"}
    attempted, failed, problems, bad = run.check(
        "sweep-supervised", 1, "full", [], samples, [], twins)
    assert (attempted, failed, bad) == (3, 1, {1})
    assert "sweep-pool" in problems[0]


def test_no_process_outlives_its_batch(report):
    for mode in ("timed", "traced"):
        for workload, run in report[mode].items():
            assert all(batch["leaked"] == 0 for batch in run["batches"]), \
                workload


def _patched_objects():
    """Identity of every object the tracer replaces while installed."""
    import importlib

    import tracer

    objects = {}
    for module_name, attribute, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        owner, _, key = attribute.rpartition(".")
        holder = getattr(module, owner) if owner else module
        objects[(module_name, attribute)] = vars(holder)[key]
    from repro.sim.events import Kernel

    for key in tracer.SCHEDULERS:
        objects[("Kernel", key)] = vars(Kernel)[key]
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for alias, value in vars(module).items():
                if callable(value):
                    objects[(name, alias)] = value
    return objects


@pytest.mark.parametrize("workload", ["flame-exfil", "sweep-pool"])
def test_traced_sample_restores_every_patched_object(workload):
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import tracer
    from repro.sim.events import Kernel
    from repro.sim.workerpool import shutdown_shared_pool

    before = _patched_objects()
    run_before = Kernel.run
    traced = tracer.Tracer()
    traced.calibrate(calls=1000)
    try:
        with traced.installed(), traced.sample(0, keep=True):
            assert Kernel.run is not run_before
            record, _ = harness.WORKLOADS[workload].run("smoke", "quick",
                                                        traced)
    finally:
        shutdown_shared_pool()
    assert record["digest"]
    assert traced.totals["sample"][1] == 1
    assert traced.spans
    after = _patched_objects()
    assert set(after) >= set(before)
    assert {key: after[key] for key in before} == before
    assert Kernel.run is run_before
    workers = [child.name for child in multiprocessing.active_children()
               if child.name.startswith(("sweep-warm-", "sweep-worker-"))]
    assert workers == []


@pytest.mark.parametrize("module, attribute", [
    ("repro.sim.events", "Kernel.renamed_away"),
    ("repro.sim.moved_away", "run"),
])
def test_missing_trace_target_raises_and_restores(monkeypatch, module,
                                                  attribute):
    sys.path.insert(0, str(ROOT / "src"))
    import tracer

    before = _patched_objects()
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        (module, attribute, "sim.run"),))
    with pytest.raises(LookupError, match=attribute):
        tracer.Tracer().install()
    monkeypatch.undo()
    assert _patched_objects() == before


def test_host_speed_reads_the_host_and_restores_the_signal_state():
    import harness

    handler = signal.getsignal(signal.SIGALRM)
    speed = harness.HostSpeed()
    with speed.running():
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
    assert len(speed.readings) >= 3
    assert 0.0 < speed.spent < 0.5
    assert speed.slowdown() > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "natanz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
