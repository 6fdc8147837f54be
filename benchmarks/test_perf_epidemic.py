"""Epidemic-tier benchmarks: aggregate stepping throughput at scale.

Two measurements, written to ``BENCH_epidemic.json`` at the repository
root so CI tracks the hybrid tier's perf trajectory across PRs:

1. **Aggregate stepping** — the 10^6-host Stuxnet scenario through the
   pool tier, reported as host-epochs per second of wall time.  The
   acceptance floor (>= 10^5 hosts/second) is asserted here: below it,
   the struct-of-arrays tier has regressed to object-tier costs and the
   whole point of the hybrid design is gone.
2. **Fidelity ratio** — the same profile at oracle-scale (full
   ``WindowsHost`` objects, per-host recounting) vs the pool tier,
   reported for context.  No floor: the ratio is informative, the
   aggregate floor above is the contract.

``--quick`` shrinks the epoch count (never the 10^6 population — the
floor is only meaningful at scale) so CI finishes in seconds, and
writes ``bench-quick/BENCH_epidemic.json`` (git-ignored) instead.
"""

import json
import sys
import time

from repro.core import CampaignWorld
from repro.epidemic import EpidemicModel, FullFidelityEpidemic
from repro.epidemic.scenarios import stuxnet_profile
from repro.sim import Kernel


#: Acceptance criterion: the aggregate tier must step at least this
#: many host-epochs per second of wall time on the 10^6-host scenario.
HOSTS_PER_SECOND_FLOOR = 100_000.0

POOL_HOSTS = 1_000_000
ORACLE_HOSTS = 200


def _update_bench(bench_path, section, payload):
    """Merge one section into BENCH_epidemic.json (any test order)."""
    path = bench_path("BENCH_epidemic.json")
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data["benchmark"] = "epidemic-hybrid-tier"
    data["python"] = sys.version.split()[0]
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n")


def _run_pool(hosts, epochs, seed=2010):
    """Build (untimed) then run (timed) one pool-tier epidemic."""
    kernel = Kernel(seed=seed)
    model = EpidemicModel(kernel, stuxnet_profile(), hosts, epochs)
    model.seed_initial(5)
    model.start()
    start = time.perf_counter()
    kernel.run(until=model.horizon_seconds())
    elapsed = time.perf_counter() - start
    return model, elapsed


def test_aggregate_stepping_meets_hosts_per_second_floor(quick, bench_path):
    epochs = 6 if quick else 30
    model, elapsed = _run_pool(POOL_HOSTS, epochs)
    assert model.finished
    assert model.curve[-1]["cumulative"] > 5, "epidemic never spread"
    host_epochs = POOL_HOSTS * epochs
    rate = host_epochs / elapsed
    _update_bench(bench_path, "aggregate_stepping", {
        "hosts": POOL_HOSTS,
        "epochs": epochs,
        "seconds": round(elapsed, 4),
        "host_epochs_per_second": round(rate, 1),
        "floor": HOSTS_PER_SECOND_FLOOR,
        "cumulative_infections": model.curve[-1]["cumulative"],
    })
    assert rate >= HOSTS_PER_SECOND_FLOOR, (
        "aggregate tier stepped %d hosts x %d epochs at %.0f "
        "host-epochs/s — below the %.0f floor"
        % (POOL_HOSTS, epochs, rate, HOSTS_PER_SECOND_FLOOR))


def test_fidelity_ratio_is_reported(quick, bench_path):
    """Pool vs oracle at a population the oracle can afford; context
    only — the differential suite owns correctness, the floor above
    owns performance."""
    epochs = 4 if quick else 8
    model, pool_elapsed = _run_pool(ORACLE_HOSTS, epochs, seed=31)

    world = CampaignWorld(seed=31)
    oracle = FullFidelityEpidemic(world, stuxnet_profile(), ORACLE_HOSTS,
                                  epochs)
    oracle.seed_initial(5)
    start = time.perf_counter()
    oracle.run()
    oracle_elapsed = time.perf_counter() - start

    assert oracle.curve == model.curve
    _update_bench(bench_path, "fidelity_ratio", {
        "hosts": ORACLE_HOSTS,
        "epochs": epochs,
        "pool_seconds": round(pool_elapsed, 4),
        "oracle_seconds": round(oracle_elapsed, 4),
        "oracle_over_pool": round(oracle_elapsed / max(pool_elapsed,
                                                       1e-9), 2),
    })
