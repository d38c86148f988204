"""Shared fixtures for the benchmark suite.

The full evaluation (SPEX + injection campaign + lint for the paper's
seven systems) is computed once per session; the per-table benchmarks then
time their rendering/aggregation step and print the regenerated
table so the run's output can be compared against the paper.
"""

from pathlib import Path

import pytest

from repro.reporting import Evaluation

_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Every test under benchmarks/ carries the `bench` marker, so the
    inner loop can deselect the whole tier with ``-m "not bench"``
    (see `make test-fast`)."""
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def evaluation():
    ev = Evaluation.shared()
    ev.results()  # warm every per-system result once
    return ev


def emit(text: str) -> None:
    """Print a regenerated table/figure under the benchmark output."""
    print("\n" + text)
