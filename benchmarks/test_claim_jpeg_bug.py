"""CLAIM-JPEG — "due to a coding mistake, the files are overwritten only
by the small upper part of the JPEG image".

Comparison: the buggy wiper (as shipped) vs the intended full overwrite.
The shape: with the bug, only a small fraction of targeted bytes is
actually destroyed — yet the machines are equally bricked, because the
MBR/partition wipe does not depend on the file pass.
"""

from repro import CampaignWorld, comparison_table
from repro.core.environments import seed_user_documents
from repro.malware.shamoon import JPEG_FRAGMENT_SIZE, run_wiper
from repro.malware.shamoon.wiper import build_eldos_driver_image
from conftest import show

HOSTS_PER_ARM = 40


def _arm(world, label, faithful_bug):
    driver = build_eldos_driver_image(world.pki)
    rng = world.kernel.rng.fork("jpeg:%s" % label)
    stats = {"files": 0, "intended": 0, "overwritten": 0, "unusable": 0}
    for index in range(HOSTS_PER_ARM):
        host = world.make_host("%s-%03d" % (label, index))
        seed_user_documents(host, rng.fork(str(index)), docs_per_user=5)
        wipe = run_wiper(host, driver, faithful_bug=faithful_bug)
        stats["files"] += wipe["files_overwritten"]
        stats["intended"] += wipe["bytes_intended"]
        stats["overwritten"] += wipe["bytes_overwritten"]
        stats["unusable"] += 0 if host.usable() else 1
    stats["fraction"] = stats["overwritten"] / stats["intended"]
    return stats


def _run():
    world = CampaignWorld(seed=99, with_internet=False)
    return (_arm(world, "buggy", faithful_bug=True),
            _arm(world, "fixed", faithful_bug=False))


def test_claim_jpeg_partial_overwrite_bug(once):
    buggy, fixed = once(_run)

    assert buggy["files"] == fixed["files"] > 0
    # The bug: only a small upper fragment of each file is destroyed.
    assert buggy["fraction"] < 0.25
    # Intended behaviour destroys (essentially) everything targeted.
    assert fixed["fraction"] > 0.95
    # Bricking is unaffected by the bug.
    assert buggy["unusable"] == fixed["unusable"] == HOSTS_PER_ARM

    show(comparison_table("CLAIM-JPEG - partial overwrite bug (SIV.B)", [
        ("overwrite per file (as shipped)", "only the upper JPEG part",
         "first %d bytes -> %.1f%% of targeted data destroyed"
         % (JPEG_FRAGMENT_SIZE, 100 * buggy["fraction"]),
         buggy["fraction"] < 0.25),
        ("overwrite per file (intended)", "whole file",
         "%.1f%% of targeted data destroyed" % (100 * fixed["fraction"]),
         fixed["fraction"] > 0.95),
        ("machines bricked either way", "MBR + partition wiped",
         "%d/%d vs %d/%d unusable" % (buggy["unusable"], HOSTS_PER_ARM,
                                      fixed["unusable"], HOSTS_PER_ARM),
         True),
        ("paper's conclusion", "attackers are simple amateurs",
         "bug reproduced, effect identical on bootability", True),
    ]))
