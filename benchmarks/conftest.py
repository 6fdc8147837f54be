"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artefact (figure, quantitative
claim, or Section V trend) and prints a paper-vs-measured table.  Run
with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Where ``--quick`` runs write their ``BENCH_*.json`` (git-ignored):
#: only the full preset updates the committed files at the repo root.
QUICK_BENCH_DIR = REPO_ROOT / "bench-quick"


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="shrink sweep benchmark workloads so CI finishes in seconds",
    )


@pytest.fixture
def quick(request):
    """True when the run should use the scaled-down benchmark sizes."""
    return bool(request.config.getoption("--quick", default=False))


@pytest.fixture
def bench_path(quick):
    """``bench_path("BENCH_x.json")``: where this run records ``x``."""

    def path(name):
        if not quick:
            return REPO_ROOT / name
        QUICK_BENCH_DIR.mkdir(exist_ok=True)
        return QUICK_BENCH_DIR / name

    return path


@pytest.fixture
def once(benchmark):
    """Run a scenario exactly once under the benchmark timer.

    Campaign simulations are deterministic and heavy; statistical
    repetition adds nothing, so a single timed round is the right
    measurement.
    """

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return run


def show(table):
    """Print a comparison table (visible with -s)."""
    print(table)
