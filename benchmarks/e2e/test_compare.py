"""Unit tests of the comparator's verdict rule on synthetic runs."""

import compare

BENCHMARK = {
    "end_to_end": [
        {"name": "replica_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "work_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": "sim.dispatch_self_s", "unit": "s", "better": "lower"},
    ],
}

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def result(failed=0, **metrics):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in metrics.items()}}


def test_pairs_alternate_which_side_runs_first():
    assert [compare.pair_order(k) for k in range(4)] == [
        ("parent", "change"), ("change", "parent"),
        ("parent", "change"), ("change", "parent")]


def test_clear_speedup_is_improved():
    change = [value * 0.8 for value in PARENT]
    judgement = compare.judge(PARENT, change, "lower", 0.1)
    assert judgement["verdict"] == "improved"
    assert judgement["win_share"] == 1.0


def test_identical_runs_are_no_worse_and_ties_win_nothing():
    judgement = compare.judge(PARENT, list(PARENT), "lower", 0.1)
    assert judgement["verdict"] == "no-worse"
    assert judgement["win_share"] == 0.0


def test_slowdown_beyond_the_bound_is_worse():
    change = [value * 1.2 for value in PARENT]
    assert compare.judge(PARENT, change, "lower", 0.1)["verdict"] == "worse"


def test_slowdown_within_the_bound_is_no_worse():
    change = [value * 1.05 for value in PARENT]
    assert compare.judge(PARENT, change, "lower", 0.1)["verdict"] == \
        "no-worse"


def test_higher_is_better_direction():
    faster = [value * 1.3 for value in PARENT]
    slower = [value * 0.8 for value in PARENT]
    assert compare.judge(PARENT, faster, "higher", 0.1)["verdict"] == \
        "improved"
    assert compare.judge(PARENT, slower, "higher", 0.1)["verdict"] == \
        "worse"


def test_nine_tenths_of_wins_needed_for_a_gain():
    change = [value * 0.8 for value in PARENT]
    change[0] = change[1] = 2.0
    judgement = compare.judge(PARENT, change, "lower", 0.1)
    assert judgement["win_share"] == 0.8
    assert judgement["verdict"] == "no-worse"


def test_gain_smaller_than_parent_spread_is_not_improved():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    change = [value - 0.01 for value in parent]
    judgement = compare.judge(parent, change, "lower", 0.25)
    assert judgement["win_share"] == 1.0
    assert judgement["verdict"] == "no-worse"


def test_spread_wider_than_bound_is_unresolved():
    parent = [1.0, 1.4, 0.7, 1.2, 0.8, 1.0, 1.4, 0.7, 1.2, 0.8]
    change = [value * 1.01 for value in reversed(parent)]
    assert compare.judge(parent, change, "lower", 0.1)["verdict"] == \
        "unresolved"


def test_wide_spread_is_no_worse_when_every_change_run_wins():
    parent = [2.0, 2.8, 1.6, 2.4, 1.8, 2.0, 2.8, 1.6, 2.4, 1.8]
    change = [1.5, 1.1, 1.4, 1.2, 1.3, 1.5, 1.1, 1.4, 1.2, 1.55]
    judgement = compare.judge(parent, change, "lower", 0.1)
    assert judgement["verdict"] in ("improved", "no-worse")
    slightly = [1.59 - 0.001 * k for k in range(10)]
    assert compare.judge(parent, slightly, "lower", 0.1)["verdict"] == \
        "no-worse"


def test_metric_without_bound_is_only_marked_improved():
    assert compare.judge(PARENT, [v * 2 for v in PARENT], "lower",
                         None)["verdict"] == "-"
    assert compare.judge(PARENT, [v / 2 for v in PARENT], "lower",
                         None)["verdict"] == "improved"


def _runs(parent, change):
    return {"parent": {"natanz": parent}, "change": {"natanz": change}}


def test_summarize_judges_every_metric_and_counts_failures():
    parent = [result(replica_s=v, work_per_s=1 / v) for v in PARENT]
    change = [result(replica_s=v * 0.8, work_per_s=1 / (v * 0.8))
              for v in PARENT]
    rows = compare.summarize(BENCHMARK, _runs(parent, change))
    verdicts = {metric: j["verdict"] for _, metric, j in rows}
    assert verdicts == {"replica_s": "improved", "work_per_s": "improved",
                        "failed": "no-worse"}


def test_more_failures_void_a_gain():
    parent = [result(replica_s=v, work_per_s=1 / v) for v in PARENT]
    change = [result(failed=1 if k == 3 else 0, replica_s=v * 0.8,
                     work_per_s=1 / (v * 0.8))
              for k, v in enumerate(PARENT)]
    rows = compare.summarize(BENCHMARK, _runs(parent, change))
    verdicts = {metric: j["verdict"] for _, metric, j in rows}
    assert verdicts == {"replica_s": "unresolved",
                        "work_per_s": "unresolved", "failed": "worse"}


def test_missing_run_counts_as_failed_and_drops_its_pair():
    parent = [result(replica_s=v, work_per_s=1 / v) for v in PARENT]
    change = [result(replica_s=v, work_per_s=1 / v) for v in PARENT]
    change[4] = None
    rows = compare.summarize(BENCHMARK, _runs(parent, change))
    judged = {metric: j for _, metric, j in rows}
    assert judged["failed"]["verdict"] == "worse"
    assert judged["replica_s"]["verdict"] == "no-worse"


def test_traced_summary_reads_per_layer_metrics():
    parent = [result(**{"sim.dispatch_self_s": v}) for v in PARENT]
    change = [result(**{"sim.dispatch_self_s": v / 2}) for v in PARENT]
    rows = compare.summarize(BENCHMARK, _runs(parent, change), trace=True)
    verdicts = {metric: j["verdict"] for _, metric, j in rows}
    assert verdicts == {"sim.dispatch_self_s": "improved",
                        "failed": "no-worse"}
