"""Command-line interface: run the paper's campaigns from a shell.

Usage::

    python -m repro stuxnet  [--seed N] [--days D] [--centrifuges C] [--metrics]
    python -m repro flame    [--seed N] [--victims V] [--weeks W] [--suicide]
    python -m repro shamoon  [--seed N] [--hosts H]
    python -m repro epidemic [--scenario stuxnet|flame] [--hosts H]
                             [--epochs E] [--seed N] [--curve-out PATH]
    python -m repro sweep    --campaign NAME [--replicas N] [--workers W]
                             [--seed N] [--serial] [--fault-profile P] [--full]
    python -m repro trace    --campaign NAME [--quick|--full] [--seed N]
                             [--out PATH|-] [--figures DIR]

Each subcommand prints the campaign's headline measurements (``sweep``
prints ensemble statistics over N seeded replicas instead; ``trace``
exports the observability record — spans, trace, metrics — as JSONL);
exit code 0 means the simulation completed.  ``--metrics`` appends a
Prometheus-style metrics dump (or a ``metrics`` key under ``--json``).

The campaign subcommands and ``sweep`` also take ``--checkpoint-dir
DIR`` (record a resumable checkpoint manifest) and ``--resume``
(continue an interrupted run from that directory).  Either kind of
checkpoint directory is one append-only ``MANIFEST.jsonl``: a line per
kill-chain stage boundary for a campaign, a line per completed or
quarantined replica for a sweep.
"""

import argparse
import json
import sys

from repro import (
    CampaignSpec,
    FlameEspionageCampaign,
    ShamoonWiperCampaign,
    StuxnetNatanzCampaign,
    SweepConfig,
    ensemble_table,
    run_sweep,
)
from repro.core.ensemble import CAMPAIGNS, FAULT_PROFILES, QUICK_PARAMS
from repro.obs.export import (
    export_figures,
    prometheus_text,
    write_jsonl,
)


def _print_result(result, as_json):
    if as_json:
        print(json.dumps(result, indent=2, default=str))
        return
    width = max(len(key) for key in result)
    for key in sorted(result):
        print("  %-*s  %s" % (width, key, result[key]))


def _emit_campaign(args, header, result, metrics):
    """Shared tail of the single-campaign subcommands; ``metrics`` is
    the run's final metrics snapshot, printed only under ``--metrics``."""
    if args.json:
        payload = ({"result": result, "metrics": metrics} if args.metrics
                   else result)
        print(json.dumps(payload, indent=2, default=str))
        return
    print(header)
    _print_result(result, False)
    if args.metrics:
        print(prometheus_text(metrics), end="")


def _run_single(args, header, meta, factory, run=None):
    """Shared driver for the single-campaign subcommands.

    Without ``--checkpoint-dir`` this is a plain build-and-run.  With
    it, the run records a resumable checkpoint chain (one manifest line
    per kill-chain stage boundary); ``--resume`` replays an interrupted
    run against that chain — or short-circuits straight to the recorded
    result if the run had already finished.  ``meta`` pins the campaign name, seed, and
    parameters, so resuming with mismatched flags fails loudly instead
    of silently verifying the wrong simulation.
    """
    if getattr(args, "resume", False) and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.checkpoint_dir is None:
        campaign = factory()
        result = (run or (lambda c: c.run()))(campaign)
        metrics = campaign.world.kernel.metrics.snapshot()
    else:
        from repro.core.resume import resume_checkpointed, run_checkpointed

        if args.resume:
            report = resume_checkpointed(factory, args.checkpoint_dir,
                                         meta=meta, run=run)
        else:
            report = run_checkpointed(factory, args.checkpoint_dir,
                                      meta=meta, run=run)
        result = report.result
        metrics = report.metrics
        if args.resume and not args.json:
            print("resume: verified %d checkpoint%s%s"
                  % (report.verified,
                     "" if report.verified == 1 else "s",
                     " (finished run, no replay needed)"
                     if report.short_circuited else ""))
    _emit_campaign(args, header, result, metrics)


def _cmd_stuxnet(args):
    def factory():
        return StuxnetNatanzCampaign(seed=args.seed,
                                     centrifuge_count=args.centrifuges,
                                     duration_days=args.days)

    _run_single(args, "Stuxnet / Natanz (%d days):" % args.days,
                {"campaign": "stuxnet", "seed": args.seed,
                 "centrifuges": args.centrifuges, "days": args.days},
                factory)


def _cmd_flame(args):
    def factory():
        return FlameEspionageCampaign(seed=args.seed,
                                      victim_count=args.victims,
                                      duration_weeks=args.weeks)

    _run_single(args, "Flame espionage (%d victims, %d weeks):"
                % (args.victims, args.weeks),
                {"campaign": "flame", "seed": args.seed,
                 "victims": args.victims, "weeks": args.weeks,
                 "suicide": args.suicide},
                factory,
                run=lambda c: c.run(suicide_at_end=args.suicide))


def _cmd_shamoon(args):
    def factory():
        return ShamoonWiperCampaign(seed=args.seed, host_count=args.hosts)

    _run_single(args, "Shamoon wiper (%d hosts):" % args.hosts,
                {"campaign": "shamoon", "seed": args.seed,
                 "hosts": args.hosts},
                factory)


def _cmd_epidemic(args):
    from repro.epidemic import (
        FlameEpidemicCampaign,
        StuxnetEpidemicCampaign,
    )

    classes = {"stuxnet": StuxnetEpidemicCampaign,
               "flame": FlameEpidemicCampaign}

    def factory():
        return classes[args.scenario](
            seed=args.seed, host_count=args.hosts, epochs=args.epochs,
            initial_infections=args.initial_infections,
            promote_samples=args.promote_samples)

    def run(campaign):
        result = dict(campaign.run())
        # The full curve is an artefact, not a headline: keep the
        # printed result scannable and write the curve to a file on
        # request.
        curve = result.pop("curve")
        result["curve_epochs"] = len(curve)
        if args.curve_out is not None:
            with open(args.curve_out, "w", encoding="utf-8") as stream:
                json.dump({"scenario": args.scenario, "seed": args.seed,
                           "host_count": args.hosts, "epochs": args.epochs,
                           "curve": curve},
                          stream, indent=2, sort_keys=True)
                stream.write("\n")
            if not args.json:
                print("wrote %d curve points to %s"
                      % (len(curve), args.curve_out))
        return result

    _run_single(args, "Epidemic %s (%d hosts, %d epochs):"
                % (args.scenario, args.hosts, args.epochs),
                {"campaign": "epidemic", "scenario": args.scenario,
                 "seed": args.seed, "hosts": args.hosts,
                 "epochs": args.epochs,
                 "initial": args.initial_infections,
                 "promote": args.promote_samples},
                factory, run=run)


def _cmd_trace(args):
    import contextlib
    import os

    # Open the output and create the figures directory before the
    # campaign runs, so a bad path fails at once: one line and
    # argparse's usage-error status 2.
    try:
        if args.figures is not None:
            os.makedirs(args.figures, exist_ok=True)
        output = (contextlib.nullcontext(sys.stdout) if args.out == "-"
                  else open(args.out, "w", encoding="utf-8"))
    except OSError as exc:
        print("repro trace: error: %s" % exc, file=sys.stderr)
        raise SystemExit(2)
    params = {} if args.full else dict(QUICK_PARAMS[args.campaign])
    campaign = CAMPAIGNS[args.campaign](seed=args.seed, **params)
    meta = {"campaign": args.campaign, "seed": args.seed,
            "preset": "full" if args.full else "quick"}
    with output as stream:
        campaign.run()
        kernel = campaign.world.kernel
        lines = write_jsonl(kernel, stream, meta=meta)
    if args.out != "-":
        print("wrote %d lines (%d spans, %d records, %d metrics) to %s"
              % (lines, len(kernel.spans), len(kernel.trace),
                 len(kernel.metrics), args.out))
    if args.figures is not None:
        for figure, edges in sorted(export_figures(kernel).items()):
            path = os.path.join(args.figures, "%s.json" % figure)
            with open(path, "w", encoding="utf-8") as stream:
                json.dump({"figure": figure, "campaign": args.campaign,
                           "seed": args.seed, "edges": edges},
                          stream, indent=2, sort_keys=True)
                stream.write("\n")


def _cmd_sweep(args):
    if args.full:
        spec = CampaignSpec(args.campaign, fault_profile=args.fault_profile)
    else:
        spec = CampaignSpec.quick(args.campaign,
                                  fault_profile=args.fault_profile)
    supervision = None
    supervised = (args.supervised or args.replica_timeout is not None
                  or args.max_replica_retries is not None
                  or args.on_failure is not None)
    if supervised:
        if args.serial:
            raise SystemExit("--serial cannot be combined with supervision "
                             "flags: supervision needs worker processes")
        from repro.sim.workerpool import SupervisorConfig

        kwargs = {}
        if args.replica_timeout is not None:
            kwargs["replica_timeout"] = args.replica_timeout
        if args.max_replica_retries is not None:
            kwargs["max_replica_retries"] = args.max_replica_retries
        if args.on_failure is not None:
            kwargs["on_failure"] = args.on_failure
        supervision = SupervisorConfig(**kwargs)
    mode = "supervised" if supervised else ("serial" if args.serial
                                            else "auto")
    try:
        config = SweepConfig(replicas=args.replicas, workers=args.workers,
                             chunk_size=args.chunk_size, base_seed=args.seed,
                             mode=mode)
    except ValueError as exc:
        # A bad size is a usage error: one line and argparse's status 2.
        print("repro sweep: error: %s" % exc, file=sys.stderr)
        raise SystemExit(2)
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.skip_quarantined and not args.resume:
        raise SystemExit("--skip-quarantined only makes sense with --resume")
    result = run_sweep(spec, config, checkpoint_dir=args.checkpoint_dir,
                       resume=args.resume, supervision=supervision,
                       retry_quarantined=not args.skip_quarantined)
    if args.json:
        payload = result.as_dict()
        if not args.metrics:
            payload.pop("metrics_merged", None)
            payload.pop("metrics_aggregate", None)
        print(json.dumps(payload, indent=2, default=str))
        return
    profile = (" + %s faults" % spec.fault_profile
               if spec.fault_profile else "")
    print("Monte-Carlo sweep: %s%s, %d replicas (%s, %d worker%s, "
          "chunk %d) in %.2fs"
          % (args.campaign, profile, len(result.replicas), result.mode,
             result.workers, "" if result.workers == 1 else "s",
             result.chunk_size, result.wall_seconds))
    if result.dispatch:
        notes = []
        if result.dispatch.get("probe_seconds") is not None:
            notes.append("probe %.3fs/replica"
                         % result.dispatch["probe_seconds"])
        print("dispatch path: %s%s"
              % (result.dispatch.get("path", result.mode),
                 " (%s)" % ", ".join(notes) if notes else ""))
    print("distinct trace digests: %d / %d"
          % (len(set(result.digests())), len(result.replicas)))
    print(ensemble_table(
        "per-measurement statistics over %d replicas (base seed %r)"
        % (len(result.replicas), result.base_seed),
        result.aggregate()))
    if result.failures:
        print("incomplete: %d replica(s) failed (%d quarantined)"
              % (len(result.failures), len(result.quarantined())))
        for failure in result.failures:
            print("  replica %04d: %s after %d attempt(s)%s"
                  % (failure.index, failure.reason, failure.attempts,
                     " [quarantined]" if failure.quarantined else ""))
    if result.supervision is not None:
        report = result.supervision
        print("supervision: %d worker(s), %d restart(s), %d ok / %d "
              "failed%s in %.2fs"
              % (report["workers"], report["worker_restarts"],
                 report["replicas_completed"], report["replicas_failed"],
                 " (salvaged: deadline hit)" if report["salvaged"] else "",
                 report["wall_seconds"]))
    if args.metrics:
        print(prometheus_text(result.merged_metrics()), end="")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the simulated campaigns from "
                    "'Dissecting Cyber Weapons' (ICDCS 2013).",
    )
    parser.add_argument("--json", action="store_true",
                        help="print results as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_metrics_flag(subparser):
        subparser.add_argument(
            "--metrics", action="store_true",
            help="also dump the kernel metrics registry (Prometheus "
                 "text, or a 'metrics' key under --json)")

    def add_checkpoint_flags(subparser):
        subparser.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="record a resumable checkpoint manifest into DIR")
        subparser.add_argument(
            "--resume", action="store_true",
            help="resume an interrupted run from --checkpoint-dir "
                 "(replays deterministically and verifies the recorded "
                 "checkpoint chain)")

    stuxnet = sub.add_parser("stuxnet", help="the Natanz campaign (SII)")
    stuxnet.add_argument("--seed", type=int, default=2010)
    stuxnet.add_argument("--days", type=int, default=180)
    stuxnet.add_argument("--centrifuges", type=int, default=984)
    add_metrics_flag(stuxnet)
    add_checkpoint_flags(stuxnet)
    stuxnet.set_defaults(func=_cmd_stuxnet)

    flame = sub.add_parser("flame", help="the espionage campaign (SIII)")
    flame.add_argument("--seed", type=int, default=2012)
    flame.add_argument("--victims", type=int, default=10)
    flame.add_argument("--weeks", type=int, default=2)
    flame.add_argument("--suicide", action="store_true",
                       help="broadcast SUICIDE at the end")
    add_metrics_flag(flame)
    add_checkpoint_flags(flame)
    flame.set_defaults(func=_cmd_flame)

    shamoon = sub.add_parser("shamoon", help="the wiper campaign (SIV)")
    shamoon.add_argument("--seed", type=int, default=2012)
    shamoon.add_argument("--hosts", type=int, default=1000)
    add_metrics_flag(shamoon)
    add_checkpoint_flags(shamoon)
    shamoon.set_defaults(func=_cmd_shamoon)

    epidemic = sub.add_parser(
        "epidemic", help="population-scale hybrid-fidelity epidemic "
                         "(the paper's victim distributions at 10^6 "
                         "hosts)")
    epidemic.add_argument("--scenario", choices=("stuxnet", "flame"),
                          default="stuxnet")
    epidemic.add_argument("--seed", type=int, default=2010)
    epidemic.add_argument("--hosts", type=int, default=1_000_000)
    epidemic.add_argument("--epochs", type=int, default=30)
    epidemic.add_argument("--initial-infections", type=int, default=5)
    epidemic.add_argument("--promote-samples", type=int, default=2,
                          help="infectious pool rows promoted to full "
                               "WindowsHost fidelity at the end")
    epidemic.add_argument("--curve-out", default=None, metavar="PATH",
                          help="write the per-epoch infection curve as "
                               "JSON to PATH")
    add_metrics_flag(epidemic)
    add_checkpoint_flags(epidemic)
    epidemic.set_defaults(func=_cmd_epidemic)

    sweep = sub.add_parser(
        "sweep", help="Monte-Carlo ensemble of seeded campaign replicas",
        description="Run seeded replicas of a campaign and report their "
                    "distribution.  By default (more than one worker and "
                    "replica) the sweep is adaptive: it "
                    "times one replica in-process, then either runs the "
                    "rest on a warm worker pool (first failure aborts) or, "
                    "when they cost less than the parallelism break-even, "
                    "finishes in-process.  --serial runs every replica "
                    "in-process; --supervised runs them all on the pool, "
                    "retrying and quarantining failed replicas.  Every "
                    "path gives byte-identical replicas.")
    sweep.add_argument("--campaign", required=True,
                       choices=sorted(CAMPAIGNS))
    sweep.add_argument("--replicas", type=int, default=16)
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: CPU count)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed each replica's seed is forked from")
    sweep.add_argument("--chunk-size", type=int, default=None,
                       help="replicas per dispatched work unit")
    sweep.add_argument("--serial", action="store_true",
                       help="run every replica in this process")
    sweep.add_argument("--supervised", action="store_true",
                       help="retry and quarantine failed replicas: worker "
                            "crashes, hangs, and timeouts cost one "
                            "replica attempt instead of the whole sweep")
    sweep.add_argument("--replica-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per replica attempt "
                            "(implies --supervised)")
    sweep.add_argument("--max-replica-retries", type=int, default=None,
                       metavar="N",
                       help="retries before a replica is quarantined as "
                            "poison (implies --supervised; default 2)")
    sweep.add_argument("--on-failure", default=None,
                       choices=("quarantine", "fail"),
                       help="what a poison replica does to the sweep: "
                            "'quarantine' records it and keeps going "
                            "(default), 'fail' aborts (implies "
                            "--supervised)")
    sweep.add_argument("--skip-quarantined", action="store_true",
                       help="with --resume: carry quarantined replicas' "
                            "failure records instead of retrying them")
    sweep.add_argument("--fault-profile", default=None,
                       choices=sorted(FAULT_PROFILES),
                       help="apply a named fault-injection profile")
    sweep.add_argument("--full", action="store_true",
                       help="paper-scale campaign parameters instead of "
                            "the quick ensemble preset")
    # Also accepted after the subcommand; SUPPRESS keeps the
    # subparser's default from clobbering a global "--json" given
    # before it.
    sweep.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="print the full sweep result as JSON")
    add_checkpoint_flags(sweep)
    add_metrics_flag(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    trace = sub.add_parser(
        "trace", help="run a campaign and export its spans, trace "
                      "records, and metrics as JSONL")
    trace.add_argument("--campaign", required=True,
                       choices=sorted(CAMPAIGNS))
    trace.add_argument("--seed", type=int, default=0)
    preset = trace.add_mutually_exclusive_group()
    preset.add_argument("--quick", action="store_true", default=True,
                        help="scaled-down campaign parameters (default)")
    preset.add_argument("--full", action="store_true",
                        help="paper-scale campaign parameters")
    trace.add_argument("--out", default="-",
                       help="output path, or '-' for stdout (default)")
    trace.add_argument("--figures", default=None, metavar="DIR",
                       help="also write per-figure edge lists "
                            "(fig*.json) into DIR")
    trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
