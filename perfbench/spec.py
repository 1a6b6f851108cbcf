"""What the benchmark runs and what it reports.

Workloads, metric names and units, and which end-to-end metric each
per-layer metric is expected to move.  ``BENCHMARK.json`` at the
repository root must agree with the tables here
(``perfbench/tests/test_spec.py`` checks it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Worker processes in every engine the benchmark builds (closed loop:
#: one client process submits the next batch after the previous ends).
JOBS = 2

#: A reported percentile needs at least this many samples beyond it
#: (see stats.percentile).
MIN_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "sweep" or "report"
    per_core: int
    workloads: Tuple[str, ...]   # empty: every workload (the full report)
    nominal_op_s: float          # rough cost of one op, sizes a run
    min_ops: int                 # ops per untraced run, at least


HEAVY = ("canneal", "bodytrack", "barnes", "blackscholes", "apache",
         "spec-jbb", "x264", "tradebeans", "linear-regression")
LIGHT = ("fluidanimate", "ocean", "fft", "word-count", "facesim",
         "matrix-multiply", "histogram", "kmeans")

WORKLOADS: Dict[str, Workload] = {
    # One op is one cold run_many over every (workload x protocol) cell.
    "sweep_miss_heavy": Workload("sweep_miss_heavy", "sweep", 1000, HEAVY,
                                 nominal_op_s=18.0, min_ops=1),
    "sweep_miss_light": Workload("sweep_miss_light", "sweep", 4000, LIGHT,
                                 nominal_op_s=14.0, min_ops=1),
    # One op is one warm full-report regeneration (224 cached cells):
    # 31-59 ms with host load.  At least 100 per run, so the printed
    # regeneration p90 has ten samples beyond it.
    "report_warm": Workload("report_warm", "report", 200, (),
                            nominal_op_s=0.075, min_ops=100),
}

#: The workloads BENCHMARK.json lists.  report_warm runs and prints like
#: the others but is not listed: over ten seeds its timings spread more
#: than any bound allows whenever the shared host's load changed (see
#: README, "Host noise").
BENCHMARKED = ("sweep_miss_heavy", "sweep_miss_light")

#: Cells one full report reads: 28 workloads x (4 protocols + the 4
#: Table 1 block sizes).
REPORT_CELLS = 224

#: Regenerations timed before, and again after, the probes go in on a
#: traced report_warm run.
TRACED_REGENERATIONS = 50

#: Fresh processes started only to time set-up, per run.
SETUP_PROBES = 5

# name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

# name -> (unit, end-to-end metric it should move, on which workloads)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # Under batching every read/write that sweep_miss_light makes is a
    # miss; scalar hits come from the cells the batch core declines.
    "coherence.hit_calls": ("count", "cpu_s: sweep_miss_heavy"),
    "coherence.hit_s": ("s", "cpu_s: sweep_miss_heavy"),
    "coherence.miss_calls": ("count", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light; never report_warm"),
    "coherence.miss_s": ("s", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light; never report_warm"),
    "coherence.miss_self_s": ("s", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "coherence.miss_ratio": ("ratio", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "coherence.messages_per_miss": ("msg/miss", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "coherence.directory_s": ("s", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "coherence.flush_s": ("s", "wall_s, cpu_s: both sweeps"),
    "interconnect.transfer_calls": ("count", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "interconnect.transfer_s": ("s", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "memory.predict_calls": ("count", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "memory.predict_s": ("s", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "memory.l1_insert_s": ("s", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "memory.l2_s": ("s", "wall_s, cpu_s: sweep_miss_heavy > sweep_miss_light"),
    "system.build_s": ("s", "wall_s, cpu_s: both sweeps"),
    "system.simulate_s": ("s", "wall_s, cpu_s: both sweeps"),
    "system.simulate_self_s": ("s", "cpu_s: sweep_miss_light, sweep_miss_heavy"),
    "system.accesses": ("count", "wall_s, cpu_s: both sweeps"),
    "system.bulk_ratio": ("ratio", "cpu_s: sweep_miss_light, sweep_miss_heavy"),
    "system.result_serialize_s": ("s", "wall_s: both sweeps"),
    "system.result_parse_s": ("s", "wall_s: report_warm"),
    "trace.built": ("count", "wall_s: both sweeps"),
    "trace.hit_ratio": ("ratio", "wall_s: both sweeps"),
    "trace.generate_s": ("s", "wall_s: both sweeps"),
    "trace.pack_s": ("s", "wall_s: both sweeps"),
    "trace.derive_s": ("s", "wall_s: both sweeps"),
    "store.get_calls": ("count", "wall_s: report_warm"),
    "store.get_s": ("s", "wall_s: report_warm"),
    "store.get_bytes": ("bytes", "wall_s: report_warm"),
    "store.put_calls": ("count", "wall_s: both sweeps"),
    "store.put_s": ("s", "wall_s: both sweeps"),
    "store.put_bytes": ("bytes", "wall_s: both sweeps"),
    "store.miss_ratio": ("ratio", "wall_s: every workload"),
    "experiments.cells": ("count", "wall_s: every workload"),
    "experiments.simulated": ("count", "wall_s: both sweeps"),
    "experiments.cache_hit_ratio": ("ratio", "wall_s: report_warm"),
    "experiments.pool_warm_s": ("s", "setup_s: every workload"),
    "experiments.pool_wait_s": ("s", "wall_s: both sweeps"),
    "experiments.retries": ("count", "wall_s: both sweeps"),
    "experiments.render_s": ("s", "wall_s: report_warm"),
    "bench.tracing_overhead_pct": ("%", "none: cost of the probes"),
    "bench.layer_self_share": ("ratio", "none: self-check, must be 0.9-1.1"),
}

#: Per-layer metrics where a larger value is the better one (more work
#: retired in bulk, more cache hits); for every other, smaller is better.
HIGHER_IS_BETTER = frozenset({
    "system.accesses", "system.bulk_ratio", "trace.hit_ratio",
    "experiments.cells", "experiments.cache_hit_ratio",
    "bench.layer_self_share",
})

#: Span-name prefixes that are layers; a span's layer is its prefix.
LAYERS = ("trace", "system", "coherence", "memory", "interconnect",
          "store", "experiments")
