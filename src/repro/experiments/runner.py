"""Shared experiment runner with result memoization.

Figures 9, 10, 13, 14 and 15 all consume the same (workload x protocol)
run matrix; :class:`ResultMatrix` memoizes each run so a full figure sweep
simulates every configuration exactly once per process (and the benchmark
suite shares one matrix across all figure benches).  Under the hood every
run is served by :class:`~repro.experiments._engine.ExperimentEngine`:
cache misses of a :meth:`ResultMatrix.sweep` fan out across a process
pool (``REPRO_JOBS``) and finished results persist in the blob store
(``--store`` / ``REPRO_STORE``), so a warm sweep is pure cache hits.

Scale control: ``REPRO_SCALE`` (accesses per core, default 2000) and
``REPRO_WORKLOADS`` (comma-separated subset) keep full-suite regeneration
tractable; raise the scale for closer-to-paper steady-state numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, RunSpec
from repro.system.results import RunResult
from repro.trace.workloads import WORKLOADS

ALL_PROTOCOLS: Tuple[ProtocolKind, ...] = (
    ProtocolKind.MESI,
    ProtocolKind.PROTOZOA_SW,
    ProtocolKind.PROTOZOA_SW_MR,
    ProtocolKind.PROTOZOA_MW,
)


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale and machine parameters for one experiment sweep."""

    cores: int = 16
    per_core: int = 2000
    seed: int = 0
    workloads: Tuple[str, ...] = ()

    def workload_names(self) -> List[str]:
        return list(self.workloads) if self.workloads else sorted(WORKLOADS)


def default_settings() -> ExperimentSettings:
    """Settings honouring the REPRO_SCALE / REPRO_WORKLOADS environment."""
    per_core = int(os.environ.get("REPRO_SCALE", "2000"))
    names = os.environ.get("REPRO_WORKLOADS", "")
    workloads = tuple(n.strip() for n in names.split(",") if n.strip())
    return ExperimentSettings(per_core=per_core, workloads=workloads)


class ResultMatrix:
    """Memoized (workload, protocol[, block size]) -> RunResult runs."""

    def __init__(self, settings: Optional[ExperimentSettings] = None,
                 engine: Optional[ExperimentEngine] = None):
        self.settings = settings if settings is not None else default_settings()
        self.engine = engine if engine is not None else ExperimentEngine()
        self._cache: Dict[Tuple, RunResult] = {}

    def _spec(self, workload: str, protocol: ProtocolKind,
              block_bytes: Optional[int] = None) -> RunSpec:
        s = self.settings
        return RunSpec(workload=workload, protocol=protocol,
                       block_bytes=block_bytes, cores=s.cores,
                       per_core=s.per_core, seed=s.seed)

    def run(self, workload: str, protocol: ProtocolKind,
            block_bytes: Optional[int] = None) -> RunResult:
        """One simulation, memoized (in-process and on disk)."""
        key = (workload, protocol, block_bytes)
        result = self._cache.get(key)
        if result is not None:
            return result
        result = self.engine.run(self._spec(workload, protocol, block_bytes))
        self._cache[key] = result
        return result

    def sweep(self, protocols: Sequence[ProtocolKind] = ALL_PROTOCOLS,
              workloads: Optional[Sequence[str]] = None
              ) -> Dict[Tuple[str, ProtocolKind], RunResult]:
        """Run (and memoize) the full workload x protocol matrix.

        Cells not already memoized are served by the engine as one batch,
        which fans cache misses out across the worker pool.
        """
        names = list(workloads) if workloads else self.settings.workload_names()
        missing = {}
        for name in names:
            for protocol in protocols:
                key = (name, protocol, None)
                if key not in self._cache:
                    missing[key] = self._spec(name, protocol)
        if missing:
            results = self.engine.run_many(list(missing.values()))
            for key, spec in missing.items():
                self._cache[key] = results[spec]
        return {(name, protocol): self._cache[(name, protocol, None)]
                for name in names for protocol in protocols}

    def prewarm(self, block_sizes: Sequence[int] = ()) -> None:
        """Batch-run every cell the full report consumes, in parallel.

        Covers the (workload x protocol) matrix plus MESI block-size
        sweeps (Table 1) so the per-cell ``run()`` calls of the figure
        harnesses are pure memo hits afterwards.
        """
        names = self.settings.workload_names()
        specs = []
        keys = []
        for name in names:
            for protocol in ALL_PROTOCOLS:
                keys.append((name, protocol, None))
            for block in block_sizes:
                keys.append((name, ProtocolKind.MESI, block))
        for key in keys:
            if key not in self._cache:
                specs.append((key, self._spec(*key)))
        if specs:
            results = self.engine.run_many([spec for _, spec in specs])
            for key, spec in specs:
                self._cache[key] = results[spec]


_SHARED: Optional[ResultMatrix] = None


def shared_matrix() -> ResultMatrix:
    """Process-wide matrix so all figure harnesses reuse the same runs.

    Keyed by the current environment-derived settings: changing
    ``REPRO_SCALE`` / ``REPRO_WORKLOADS`` mid-process rebuilds the shared
    matrix instead of silently serving runs at the stale scale.
    """
    global _SHARED
    settings = default_settings()
    if _SHARED is None or _SHARED.settings != settings:
        _SHARED = ResultMatrix(settings)
    return _SHARED
