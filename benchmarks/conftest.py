"""Benchmark configuration.

Each benchmark regenerates one table or figure of the paper and prints the
paper-style rows (captured with ``pytest benchmarks/ --benchmark-only -s``
or visible in the benchmark logs).  Scaled parameters are used so the whole
suite completes in minutes; EXPERIMENTS.md records the scaling and the
measured-vs-paper comparison for each entry.
"""

import pytest

from repro.core.config import MachineConfig


def pytest_collection_modifyitems(items):
    """Benchmarks are the paper-scale reproduction paths: mark them all
    ``slow`` so the default ``-m 'not slow'`` filter keeps tier-1 fast.
    Run them with ``pytest benchmarks/ -m slow`` (or ``-m ''``)."""
    for item in items:
        item.add_marker(pytest.mark.slow)


@pytest.fixture
def scaled_config():
    """Scaled machine (32-set page-aligned space, 32-slot ring)."""
    return MachineConfig().scaled_down()


@pytest.fixture
def bench_config():
    """Paper-shaped machine (256 page-aligned sets, 256-slot ring)."""
    return MachineConfig().bench_scale()


def emit(result) -> None:
    """Print a result's paper-style rows into the benchmark output."""
    print()
    for row in result.format_rows():
        print(row)
