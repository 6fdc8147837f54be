"""CI chaos gate: supervised sweeps under injected failure.

This is the failure-domain twin of ``resume_equivalence.py``.  It runs
a quick supervised sweep with a :class:`ChaosPlan` that crashes one
worker mid-replica, hangs another past its wall-clock timeout, and
poisons a third replica outright, then asserts the supervision
contract:

* the crash and the timeout each cost one replica attempt — after
  retries, those replicas are byte-identical to the serial baseline;
* the poison replica is quarantined as a structured ``ReplicaFailure``
  persisted as a failure line in the checkpoint directory's one
  ``MANIFEST.jsonl``, and the degraded sweep still aggregates over the
  survivors (partial-result salvage);
* a ``--resume`` retry pass with the chaos gone completes the ensemble
  to a result byte-identical to the undisturbed serial run.

A machine-readable ``failure_report.json`` (quarantine records read
back from the manifest, plus the supervision report) is written next
to the manifest for CI to upload as an artifact.

Usage::

    PYTHONPATH=src python scripts/sweep_chaos.py [OUTPUT_DIR]
"""

import json
import os
import sys

from repro import CampaignSpec, SweepConfig, run_sweep
from repro.core.resume import CheckpointStore, SweepCheckpoint
from repro.sim.workerpool import ChaosPlan, SupervisorConfig

BASE_SEED = 20130708
REPLICAS = 6
CRASH_ONCE = 1    # worker dies mid-replica; retry succeeds
HANG_ONCE = 2     # replica sleeps past its timeout; retry succeeds
POISON = 4        # crashes on every attempt; must be quarantined


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def check(campaign, directory):
    spec = CampaignSpec.quick(campaign)

    def config():
        return SweepConfig(replicas=REPLICAS, workers=2,
                           mode="supervised", base_seed=BASE_SEED)

    baseline = run_sweep(spec, SweepConfig(
        replicas=REPLICAS, mode="serial", base_seed=BASE_SEED))

    chaos = ChaosPlan({
        CRASH_ONCE: ("crash",),
        HANG_ONCE: ("hang",),
        POISON: ("crash", "crash"),
    })
    supervision = SupervisorConfig(replica_timeout=20.0,
                                   max_replica_retries=1, chaos=chaos)
    degraded = run_sweep(spec, config(), checkpoint_dir=directory,
                         supervision=supervision)

    failures = []
    quarantined = degraded.quarantined()
    if quarantined != [POISON]:
        failures.append("expected replica %d quarantined, got %r"
                        % (POISON, quarantined))
    survivors = [r.index for r in degraded.replicas]
    if POISON in survivors or len(survivors) != REPLICAS - 1:
        failures.append("salvage returned wrong survivors: %r" % survivors)
    expected = [r.trace_digest for r in baseline.replicas
                if r.index != POISON]
    if [r.trace_digest for r in degraded.replicas] != expected:
        failures.append("surviving replicas not byte-identical to serial")
    if not degraded.aggregate():
        failures.append("degraded sweep produced no aggregate")
    if degraded.supervision["worker_restarts"] < 1:
        failures.append("supervisor recorded no worker restarts")
    if os.listdir(directory) != [CheckpointStore.MANIFEST]:
        failures.append("checkpoint directory holds %s, expected only %s"
                        % (sorted(os.listdir(directory)),
                           CheckpointStore.MANIFEST))
    on_disk = SweepCheckpoint.load(directory).failures()
    if set(on_disk) != {POISON}:
        failures.append("manifest quarantine records wrong: %r"
                        % sorted(on_disk))

    report_path = os.path.join(directory, "failure_report.json")
    with open(report_path, "w", encoding="utf-8") as stream:
        json.dump({"campaign": campaign,
                   "failures": [f.as_dict() for _, f
                                in sorted(on_disk.items())],
                   "supervision": degraded.supervision},
                  stream, indent=2, sort_keys=True, default=str)
        stream.write("\n")

    # Retry pass: chaos gone, quarantined replica re-runs from its pure
    # seed, and the completed ensemble matches the undisturbed baseline.
    resumed = run_sweep(spec, config(), checkpoint_dir=directory,
                        resume=True)
    if resumed.failures:
        failures.append("retry pass left failures: %r" % resumed.failures)
    if resumed.digests() != baseline.digests():
        failures.append("retry pass not byte-identical to serial baseline")
    for view in ("aggregate", "merged_metrics"):
        if canonical(getattr(resumed, view)()) \
                != canonical(getattr(baseline, view)()):
            failures.append("%s() differs after retry pass" % view)
    return failures


def main(output_dir="chaos"):
    os.makedirs(output_dir, exist_ok=True)
    broken = 0
    for campaign in ("shamoon", "flame"):
        directory = os.path.join(output_dir, campaign)
        failures = check(campaign, directory)
        if failures:
            broken += 1
            print("FAIL %s: %s" % (campaign, "; ".join(failures)))
        else:
            print("ok   %s: crash isolated, poison quarantined, salvage "
                  "resumed byte-identically" % campaign)
    if broken:
        print("%d chaos check(s) failed" % broken)
        return 1
    print("supervised sweeps survive injected crashes, hangs, and poison")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
