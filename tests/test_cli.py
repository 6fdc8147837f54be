"""The `python -m repro` command line."""

import json

import pytest

from repro.__main__ import build_parser, main


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_stuxnet_subcommand(capsys):
    assert main(["stuxnet", "--days", "40", "--centrifuges", "50",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Stuxnet / Natanz" in out
    assert "centrifuges_destroyed" in out


def test_shamoon_subcommand_json(capsys):
    assert main(["--json", "shamoon", "--hosts", "30", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["hosts_wiped"] == 30
    assert payload["hosts_usable_after"] == 0


def test_flame_subcommand_with_suicide(capsys):
    assert main(["flame", "--victims", "4", "--weeks", "1",
                 "--suicide", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "Flame espionage" in out
    assert "active_infections" in out


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["explode"])


# -- the trace exporter --------------------------------------------------------

TRACE_ARGS = ["trace", "--campaign", "stuxnet", "--quick", "--seed", "7"]


def test_trace_subcommand_emits_valid_jsonl(capsys):
    assert main(TRACE_ARGS + ["--out", "-"]) == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.strip().split("\n")]
    assert lines[0]["kind"] == "meta"
    assert lines[0]["campaign"] == "stuxnet"
    assert lines[0]["seed"] == 7
    assert lines[0]["preset"] == "quick"
    kinds = {line["kind"] for line in lines}
    assert kinds == {"meta", "span", "record", "metric"}
    span_names = {line["name"] for line in lines
                  if line["kind"] == "span"}
    # The full Fig. 1 kill chain, settle to operation, is spanned.
    assert {"stuxnet.campaign", "stuxnet.settle", "stuxnet.usb_entry",
            "stuxnet.step7_infect", "stuxnet.operation",
            "stuxnet.infect"} <= span_names


def test_trace_same_seed_is_byte_identical(capsys):
    assert main(TRACE_ARGS + ["--out", "-"]) == 0
    first = capsys.readouterr().out
    assert main(TRACE_ARGS + ["--out", "-"]) == 0
    assert capsys.readouterr().out == first


def test_trace_writes_file_and_figures(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    figures = tmp_path / "figs"
    assert main(["trace", "--campaign", "shamoon", "--seed", "3",
                 "--out", str(out), "--figures", str(figures)]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert json.loads(lines[0])["kind"] == "meta"
    fig = json.loads((figures / "fig6-shamoon-components.json").read_text())
    assert fig["campaign"] == "shamoon"
    assert any(edge["label"] == "stage" for edge in fig["edges"])
    for edge in fig["edges"]:
        assert set(edge) == {"src", "dst", "label", "count"}


def test_trace_rejects_unknown_campaign(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--campaign", "conficker", "--out", "-"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_trace_rejects_quick_and_full_together():
    with pytest.raises(SystemExit) as excinfo:
        main(TRACE_ARGS + ["--full"])
    assert excinfo.value.code == 2


def _forbid_campaign_run(monkeypatch):
    """Make building any campaign fail the test: a bad output path must
    be reported before the simulation starts."""
    from repro.core import ensemble

    def refuse(**_params):
        raise AssertionError("campaign built despite a bad output path")

    for name in list(ensemble.CAMPAIGNS):
        monkeypatch.setitem(ensemble.CAMPAIGNS, name, refuse)


def test_trace_unwritable_out_is_a_usage_error(tmp_path, monkeypatch,
                                               capsys):
    _forbid_campaign_run(monkeypatch)
    with pytest.raises(SystemExit) as excinfo:
        main(TRACE_ARGS + ["--out", str(tmp_path / "absent" / "x.jsonl")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro trace: error: ")
    assert err.count("\n") == 1


def test_trace_figures_path_that_is_a_file_is_a_usage_error(
        tmp_path, monkeypatch, capsys):
    _forbid_campaign_run(monkeypatch)
    existing = tmp_path / "figs"
    existing.write_text("not a directory")
    out = tmp_path / "trace.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        main(TRACE_ARGS + ["--out", str(out), "--figures", str(existing)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro trace: error: ")
    assert err.count("\n") == 1


# -- the --metrics flag --------------------------------------------------------

def test_metrics_flag_json_shape(capsys):
    assert main(["--json", "shamoon", "--hosts", "10", "--seed", "4",
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert set(payload) == {"result", "metrics"}
    assert payload["result"]["hosts_wiped"] == 10
    metrics = payload["metrics"]
    assert metrics["shamoon.hosts_wiped"] == {"type": "counter",
                                              "value": 10}
    assert metrics["sim.events_dispatched"]["value"] > 0
    assert metrics["shamoon.infection_day"]["type"] == "histogram"


def test_metrics_flag_prometheus_text(capsys):
    assert main(["shamoon", "--hosts", "5", "--seed", "4",
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE shamoon_hosts_wiped counter" in out
    assert "shamoon_hosts_wiped 5" in out
    assert '_bucket{le="+Inf"}' in out


def test_metrics_flag_off_keeps_legacy_output(capsys):
    assert main(["--json", "shamoon", "--hosts", "5", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert "metrics" not in payload
    assert payload["hosts_wiped"] == 5


def test_sweep_metrics_flag(capsys):
    assert main(["--json", "sweep", "--campaign", "shamoon",
                 "--replicas", "2", "--serial", "--metrics"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    merged = payload["metrics_merged"]
    per_replica = [replica["metrics"] for replica in payload["replicas"]]
    assert len(per_replica) == 2
    assert merged["shamoon.hosts_wiped"]["value"] == sum(
        snapshot["shamoon.hosts_wiped"]["value"]
        for snapshot in per_replica)
    assert payload["metrics_aggregate"]["shamoon.hosts_wiped"]["n"] == 2


def test_sweep_without_metrics_flag_omits_metric_keys(capsys):
    assert main(["--json", "sweep", "--campaign", "shamoon",
                 "--replicas", "2", "--serial"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert "metrics_merged" not in payload
    assert "metrics_aggregate" not in payload


# -- checkpoint / resume flags -------------------------------------------------

def test_campaign_checkpoint_then_resume_round_trips(tmp_path, capsys):
    directory = str(tmp_path / "ckpt")
    args = ["shamoon", "--hosts", "10", "--seed", "4",
            "--checkpoint-dir", directory]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert (tmp_path / "ckpt" / "MANIFEST.jsonl").exists()
    assert main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "resume: verified" in second
    assert "no replay needed" in second
    # Identical measurements, with only the resume banner prepended.
    assert second.splitlines()[1:] == first.splitlines()


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_finished_run_resume_reprints_result_and_metrics(
        tmp_path, capsys, json_flag):
    """Resuming a finished run prints the recorded result and metrics
    exactly as the recording run did; only the text banner is new."""
    directory = str(tmp_path / "ckpt")
    args = json_flag + ["shamoon", "--hosts", "10", "--seed", "4",
                        "--checkpoint-dir", directory, "--metrics"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    if json_flag:
        assert second == first
        assert set(json.loads(second)) == {"result", "metrics"}
    else:
        banner, rest = second.split("\n", 1)
        assert banner.endswith("(finished run, no replay needed)")
        assert rest == first
        assert "# TYPE sim_events_dispatched counter" in rest


def test_resume_preserves_dict_valued_measurement_order(tmp_path, capsys):
    """Stuxnet's ``infection_vectors`` tally is a dict in insertion
    order; the checkpoint file must round-trip that order so a resumed
    finished run prints byte-identically (digests stay canonical)."""
    directory = str(tmp_path / "ckpt")
    args = ["stuxnet", "--days", "40", "--centrifuges", "60",
            "--seed", "9", "--checkpoint-dir", directory]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "infection_vectors" in first
    assert main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert second.splitlines()[1:] == first.splitlines()


def test_campaign_resume_replays_an_interrupted_run(tmp_path, capsys):
    from repro.core.resume import interrupt_after

    directory = str(tmp_path / "ckpt")
    args = ["shamoon", "--hosts", "10", "--seed", "4",
            "--checkpoint-dir", directory]
    assert main(args) == 0
    first = capsys.readouterr().out
    interrupt_after(directory, keep=2)
    assert main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "resume: verified 2 checkpoints" in second
    assert second.splitlines()[1:] == first.splitlines()


def test_campaign_checkpoint_dir_holds_one_manifest_file(tmp_path):
    """A campaign checkpoint directory is one JSONL manifest: a header,
    one line per stage boundary, and a final line; there is no
    ``--checkpoint-every`` flag."""
    directory = tmp_path / "ckpt"
    assert main(["shamoon", "--hosts", "10", "--seed", "4",
                 "--checkpoint-dir", str(directory)]) == 0
    assert [path.name for path in directory.iterdir()] == ["MANIFEST.jsonl"]
    lines = [json.loads(line) for line in
             (directory / "MANIFEST.jsonl").read_text().splitlines()]
    assert lines[0]["kind"] == "checkpoint-manifest"
    tags = [line["state"]["tag"] for line in lines[1:]]
    assert all(tag.startswith("stage:") for tag in tags[:-1])
    assert tags[-1] == "final"
    with pytest.raises(SystemExit):
        main(["shamoon", "--hosts", "10", "--checkpoint-dir",
              str(directory), "--checkpoint-every", "10"])


def test_resume_without_checkpoint_dir_is_rejected():
    with pytest.raises(SystemExit, match="checkpoint-dir"):
        main(["shamoon", "--hosts", "5", "--resume"])
    with pytest.raises(SystemExit, match="checkpoint-dir"):
        main(["sweep", "--campaign", "shamoon", "--replicas", "2",
              "--serial", "--resume"])


@pytest.mark.parametrize("flag", ["--workers", "--replicas",
                                  "--chunk-size"])
def test_sweep_rejects_bad_size_as_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--campaign", "shamoon", flag, "0"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "must be >= 1, got 0" in err
    assert "Traceback" not in err


def test_sweep_checkpoint_then_resume_matches(tmp_path, capsys):
    import os

    from repro import CampaignSpec, SweepConfig
    from repro.core.ensemble import run_replica
    from repro.core.resume import SweepCheckpoint

    directory = str(tmp_path / "sweep")
    base = ["--json", "sweep", "--campaign", "shamoon", "--replicas", "3",
            "--serial", "--seed", "6"]
    assert main(base) == 0
    out = capsys.readouterr().out
    baseline = json.loads(out[out.index("{"):])
    assert main(base + ["--checkpoint-dir", directory]) == 0
    capsys.readouterr()
    assert os.listdir(directory) == ["MANIFEST.jsonl"]
    # Replica 1 never landed: record only 0 and 2.
    spec = CampaignSpec.quick("shamoon")
    manifest = SweepCheckpoint.create(
        directory, spec, SweepConfig(replicas=3, base_seed=6))
    for index in (0, 2):
        manifest.record(run_replica(spec, index, 6))
    assert main(base + ["--checkpoint-dir", directory, "--resume"]) == 0
    out = capsys.readouterr().out
    resumed = json.loads(out[out.index("{"):])
    assert ([r["trace_digest"] for r in resumed["replicas"]]
            == [r["trace_digest"] for r in baseline["replicas"]])
    assert resumed["aggregate"] == baseline["aggregate"]
