"""Compare a change against its parent with the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
        [--workload W ...] [--pairs N] [--seed S] [--seconds T] [--trace]

``PARENT_DIR`` and ``CHANGE_DIR`` are checkouts of the two commits.
This file's ``run.py`` measures both, so both sides run identical
benchmark code and settings.  Pair *k* runs each side once with seed
``S + k``; the parent goes first in even pairs and the change in odd
ones.  At least ten pairs are run.

For each (metric, workload) the report gives each side's median and
quartiles and the fraction of pairs the change won (ties count for
neither), then a verdict:

* ``improved``: the change won at least 9/10 of the pairs and its
  median beats the parent's by more than the parent's interquartile
  range;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's own interquartile range is wider than
  the bound, and not every change run beats every parent run;
* ``no-worse``: otherwise.

A gain does not count when the change fails more samples than the
parent: the workload's ``improved`` verdicts become ``unresolved`` and
a ``failed`` row reads ``worse``.  Per-layer metrics (``--trace``) have
no bound; they are only marked ``improved`` or ``-``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_PY = HERE / "run.py"
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

#: The rule needs at least this many pairs.
MIN_PAIRS = 10

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def pair_order(pair):
    """Sides in the order pair ``pair`` runs them."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def judge(parent, change, better, bound):
    """Verdict and statistics for one (metric, workload).

    ``parent`` and ``change`` hold one value per pair, in pair order;
    ``bound`` is the share of the parent's median the metric may worsen
    by, or None for a metric without one.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_share = wins / len(parent)
    spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    if win_share >= WIN_SHARE and gain > spread:
        verdict = "improved"
    elif bound is None:
        verdict = "-"
    elif spread > bound * abs(p_med):
        dominates = min(sign * c for c in change) > max(
            sign * p for p in parent)
        verdict = "no-worse" if dominates else "unresolved"
    elif -gain > bound * abs(p_med):
        verdict = "worse"
    else:
        verdict = "no-worse"
    return {"verdict": verdict, "win_share": win_share,
            "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3)}


def summarize(benchmark, runs, trace=False):
    """Rows ``(workload, metric, judgement)`` from paired run results.

    ``runs[side][workload]`` lists each pair's final JSON object from
    ``run.py`` (None when the run printed none), in pair order.
    """
    metrics = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    rows = []
    for workload in runs["parent"]:
        pairs = list(zip(runs["parent"][workload], runs["change"][workload]))
        failed = {side: sum(1 if result is None else result["failed"]
                            for result in runs[side][workload])
                  for side in ("parent", "change")}
        more_failures = failed["change"] > failed["parent"]
        complete = [(p, c) for p, c in pairs
                    if p is not None and c is not None]
        for entry in metrics:
            name = entry["name"]
            values = [(p["metrics"][name]["value"],
                       c["metrics"][name]["value"])
                      for p, c in complete
                      if name in p["metrics"] and name in c["metrics"]]
            if not values:
                continue
            judgement = judge([p for p, _ in values], [c for _, c in values],
                              entry["better"], entry.get("bound"))
            if more_failures and judgement["verdict"] == "improved":
                judgement["verdict"] = "unresolved"
            rows.append((workload, name, judgement))
        rows.append((workload, "failed", {
            "verdict": "worse" if more_failures else "no-worse",
            "win_share": None,
            "parent": (failed["parent"],) * 3,
            "change": (failed["change"],) * 3}))
    return rows


def run_once(checkout, workload, seed, seconds, trace):
    """The final JSON object of one benchmark run, or None."""
    completed = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=str(checkout), capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(completed.stderr)
        return None


def collect(checkouts, workloads, pairs, seed, seconds, trace):
    runs = {side: {workload: [] for workload in workloads}
            for side in checkouts}
    for workload in workloads:
        for pair in range(pairs):
            for side in pair_order(pair):
                result = run_once(checkouts[side], workload, seed + pair,
                                  seconds, trace)
                runs[side][workload].append(result)
                print("pair %d/%d %-16s %-6s %s"
                      % (pair + 1, pairs, workload, side,
                         "no result" if result is None else
                         "%d failed" % result["failed"]),
                      file=sys.stderr, flush=True)
    return runs


def _side(stats):
    q1, median, q3 = stats
    return "%.6g [%.6g, %.6g]" % (median, q1, q3)


def main(argv=None):
    with open(BENCHMARK_JSON, encoding="utf-8") as stream:
        benchmark = json.load(stream)
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", action="store_true",
                        help="compare per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error("the rule needs at least %d pairs" % MIN_PAIRS)
    runs = collect({"parent": args.parent, "change": args.change},
                   args.workload or names, args.pairs, args.seed,
                   args.seconds, args.trace)
    rows = summarize(benchmark, runs, args.trace)
    print("%-16s %-28s %-36s %-36s %5s  %s"
          % ("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "wins", "verdict"))
    for workload, metric, judgement in rows:
        wins = judgement["win_share"]
        print("%-16s %-28s %-36s %-36s %5s  %s"
              % (workload, metric, _side(judgement["parent"]),
                 _side(judgement["change"]),
                 "-" if wins is None else "%.2f" % wins,
                 judgement["verdict"]))
    return 1 if any(j["verdict"] == "worse" for _, _, j in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
