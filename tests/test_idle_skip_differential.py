"""Differential test: skipping idle periodic firings changes nothing.

The kernel advances idle PLC scans and safety polls without
dispatching them.  Each registered campaign's quick preset runs twice —
as shipped, and with every idle predicate stripped so each firing is
dispatched — under stage-boundary checkpointing.  Both runs must
export the same digest, dispatch the same number of events, and record
the same checkpoint chain (tag, event count and ``state_digest``, which
covers the clock, the heap sequences and the trace).
"""

import pytest

from repro.core.ensemble import CAMPAIGNS, QUICK_PARAMS
from repro.core.resume import run_checkpointed
from repro.obs.export import export_digest
from repro.sim import Kernel, PeriodicTask

SEED = 20130708


def _dispatch_every_firing(self, interval, callback, label="periodic",
                           jitter=0.0, idle=None, skipped=None):
    return PeriodicTask(self, interval, callback, label, jitter=jitter)


def _run(name, directory):
    report = run_checkpointed(
        lambda: CAMPAIGNS[name](seed=SEED, **dict(QUICK_PARAMS[name])),
        directory)
    kernel = report.kernel
    chain = [(entry["tag"], entry["events"], entry["state_digest"])
             for entry in report.store.entries()]
    meta = {"campaign": name, "seed": SEED, "preset": "quick"}
    return {
        "digest": export_digest(kernel, meta=meta),
        "events": kernel.dispatched_events,
        "chain": chain,
    }


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_skipping_idle_firings_matches_dispatching_them(name, tmp_path,
                                                        monkeypatch):
    skipped = _run(name, tmp_path / "skipped")
    monkeypatch.setattr(Kernel, "every", _dispatch_every_firing)
    dispatched = _run(name, tmp_path / "dispatched")
    assert skipped["events"] == dispatched["events"]
    assert skipped["chain"] == dispatched["chain"]
    assert skipped["digest"] == dispatched["digest"]
    assert len(skipped["chain"]) >= 3
    assert skipped["chain"][-1][0] == "final"
