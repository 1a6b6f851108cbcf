"""Benchmark-suite fixtures.

All figure benches share one memoized result matrix, so the (workload x
protocol) simulations run exactly once per pytest session regardless of
how many figures consume them.  ``REPRO_SCALE`` (accesses per core,
default 800 here) and ``REPRO_WORKLOADS`` (comma-separated subset) control
cost; raise the scale for closer-to-steady-state numbers.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import ExperimentSettings, ResultMatrix


@pytest.fixture(scope="session", autouse=True)
def _hermetic_store(tmp_path_factory):
    """Benchmarks must time real simulations, not disk-cache hits, and
    must not reuse (or pollute) the user's store: results and traces go
    to a session scratch store, and ``HOME`` to a tempdir whose default
    store root must stay absent."""
    home = tmp_path_factory.mktemp("home")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("HOME", str(home))
        patch.setenv("REPRO_STORE",
                     str(tmp_path_factory.mktemp("repro-store")))
        yield
    leaked = home / ".cache" / "repro"
    assert not leaked.exists(), f"a benchmark wrote to {leaked}"


def bench_settings() -> ExperimentSettings:
    per_core = int(os.environ.get("REPRO_SCALE", "800"))
    names = os.environ.get("REPRO_WORKLOADS", "")
    workloads = tuple(n.strip() for n in names.split(",") if n.strip())
    return ExperimentSettings(per_core=per_core, workloads=workloads)


@pytest.fixture(scope="session")
def matrix() -> ResultMatrix:
    return ResultMatrix(bench_settings())


def run_once(benchmark, fn):
    """Run a harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
