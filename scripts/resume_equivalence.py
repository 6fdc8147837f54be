"""CI resume-equivalence gate: interrupt, resume, diff digests.

For each paper campaign this runs a quick checkpointed sweep, simulates
a crash by cutting its manifest after half of the replica lines,
resumes, and diffs the resumed result against an uninterrupted
baseline — trace digests, per-measurement aggregates, and merged
metrics must all be byte-identical.  It also records an interrupted
single-campaign run and replay-verifies its checkpoint chain; the
right-seed resume's result, export digest, and metrics must equal the
uninterrupted run's, and resuming the now-finished chain once more
must short-circuit to the same result and metrics without a replay.
Replay is the only campaign resume protocol, so this is its gate.  For
both kinds, the checkpoint directory must hold exactly one manifest
file, and a resume with the wrong seed must fail with
``CheckpointError`` and leave the manifest byte-identical.  The
checkpoint directories are left in place for CI to upload as
artifacts.

Usage::

    PYTHONPATH=src python scripts/resume_equivalence.py [OUTPUT_DIR]
"""

import json
import os
import sys

from repro import CampaignSpec, SweepConfig, run_sweep
from repro.core.ensemble import CAMPAIGNS, QUICK_PARAMS
from repro.core.resume import CheckpointStore, interrupt_after, \
    resume_checkpointed, run_checkpointed
from repro.obs.export import export_digest
from repro.sim.errors import CheckpointError

BASE_SEED = 20130708
REPLICAS = 6


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def _read_bytes(path):
    with open(path, "rb") as stream:
        return stream.read()


def _single_manifest(directory):
    """A failure message unless ``directory`` holds only the manifest."""
    if os.listdir(directory) != [CheckpointStore.MANIFEST]:
        return ["checkpoint directory holds %s, expected only %s"
                % (sorted(os.listdir(directory)), CheckpointStore.MANIFEST)]
    return []


def check_sweep(campaign, directory):
    spec = CampaignSpec.quick(campaign)

    def config(seed=BASE_SEED):
        return SweepConfig(replicas=REPLICAS, base_seed=seed, mode="serial")

    baseline = run_sweep(spec, config())
    run_sweep(spec, config(), checkpoint_dir=directory)
    failures = _single_manifest(directory)
    interrupt_after(directory, keep=REPLICAS // 2)
    manifest = os.path.join(directory, CheckpointStore.MANIFEST)
    interrupted = _read_bytes(manifest)
    try:
        run_sweep(spec, config(BASE_SEED + 1), checkpoint_dir=directory,
                  resume=True)
        failures.append("wrong-seed resume did not fail")
    except CheckpointError as exc:
        if "base_seed" not in str(exc):
            failures.append("wrong-seed resume failed oddly: %s" % exc)
    if _read_bytes(manifest) != interrupted:
        failures.append("wrong-seed resume changed the manifest")
    resumed = run_sweep(spec, config(), checkpoint_dir=directory,
                        resume=True)
    if resumed.digests() != baseline.digests():
        failures.append("trace digests differ")
    for view in ("aggregate", "aggregate_metrics", "merged_metrics"):
        if canonical(getattr(resumed, view)()) \
                != canonical(getattr(baseline, view)()):
            failures.append("%s() differs" % view)
    return failures + _single_manifest(directory)


def check_campaign(campaign, directory):
    def factory(seed=BASE_SEED):
        return CAMPAIGNS[campaign](seed=seed,
                                   **dict(QUICK_PARAMS[campaign]))

    meta = {"campaign": campaign, "seed": BASE_SEED}
    baseline = run_checkpointed(factory, directory, meta=meta)
    recorded = len(baseline.store.entries())
    failures = _single_manifest(directory)
    interrupt_after(directory, keep=max(1, recorded // 2))
    manifest = os.path.join(directory, CheckpointStore.MANIFEST)
    interrupted = _read_bytes(manifest)
    try:
        resume_checkpointed(lambda: factory(BASE_SEED + 1), directory)
        failures.append("wrong-seed resume did not fail")
    except CheckpointError as exc:
        if "diverged" not in str(exc):
            failures.append("wrong-seed resume failed oddly: %s" % exc)
    if _read_bytes(manifest) != interrupted:
        failures.append("wrong-seed resume changed the manifest")
    report = resume_checkpointed(factory, directory, meta=meta)
    if canonical(report.result) != canonical(baseline.result):
        failures.append("campaign result differs after resume")
    if report.verified != max(1, recorded // 2):
        failures.append("resume verified %d checkpoints, expected %d"
                        % (report.verified, max(1, recorded // 2)))
    if export_digest(report.kernel) != export_digest(baseline.kernel):
        failures.append("export digest differs after resume")
    if canonical(report.metrics) != canonical(baseline.metrics):
        failures.append("metrics differ after resume")
    finished = resume_checkpointed(factory, directory, meta=meta)
    if not finished.short_circuited:
        failures.append("finished run was replayed, not short-circuited")
    if canonical(finished.result) != canonical(baseline.result):
        failures.append("short-circuited result differs")
    if canonical(finished.metrics) != canonical(baseline.metrics):
        failures.append("short-circuited metrics differ")
    return failures


def main(output_dir="checkpoints"):
    os.makedirs(output_dir, exist_ok=True)
    broken = 0
    for campaign in sorted(CAMPAIGNS):
        for kind, check in (("sweep", check_sweep),
                            ("campaign", check_campaign)):
            directory = os.path.join(output_dir,
                                     "%s-%s" % (campaign, kind))
            failures = check(campaign, directory)
            if failures:
                broken += 1
                print("FAIL %s %s: %s"
                      % (campaign, kind, "; ".join(failures)))
            else:
                print("ok   %s %s: resumed run byte-identical"
                      % (campaign, kind))
    if broken:
        print("%d resume-equivalence check(s) failed" % broken)
        return 1
    print("all campaigns resume byte-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
