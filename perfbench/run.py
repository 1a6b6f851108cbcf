"""Host-time benchmark of the Protozoa reproduction, end to end and by layer.

    python3 perfbench/run.py --workload sweep_miss_heavy --seed 0 \\
        --seconds 30 --trace 0

Workloads (perfbench/spec.py, reasons in perfbench/README.md):

* ``sweep_miss_heavy`` / ``sweep_miss_light`` — cold
  ``ExperimentEngine.run_many`` sweeps (empty result and trace stores) on
  a pool of 2 workers.  One op is one sweep, each in a fresh process.
* ``report_warm`` — full-report regenerations (``write_report`` over a
  fresh ``ResultMatrix`` and engine) against a store filled first.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes one
untraced and one traced pass and prints every per-layer metric.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every cell and report is
checked against the digests recorded for the seed in
``perfbench/golden.json`` (without a record, against each other).
``--workload all`` runs the three in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import spec  # noqa: E402
from stats import failed_cells, percentile  # noqa: E402

CHILD_TIMEOUT_S = 170


class Run:
    """What one workload run measured and checked."""

    def __init__(self, workload: spec.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        self.metrics = {}
        golden = _load_golden().get(str(seed), {})
        self.expected = golden.get(workload.name)
        if self.expected is None:
            self.notes.append(f"no digests recorded for seed {seed}: "
                              "ops checked against each other")

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def check_cells(self, result: dict) -> None:
        """Count one sweep's cells and those that failed their digest."""
        cells = len(self.workload.workloads) * 4
        got = result.get("digests", {})
        if result.get("error"):
            self.problem(f"sweep raised {result['error']}")
        if self.expected is None:
            # No record for this seed: the run's first sweep is the
            # reference the others must reproduce.
            self.expected = dict(got)
        failed = failed_cells(got, self.expected, cells)
        if failed:
            self.problem(f"{failed} of {cells} cells failed the digest check")
        self.attempted += cells
        self.failed += failed

    def check_report(self, part: dict, fill: dict) -> None:
        """Count regenerations and those that failed.  Each was checked
        against the run's store fill, whose report body and stored cells
        must match the record."""
        self.attempted += part["ops"]
        failed = part["failed"]
        if failed:
            self.problem(f"{failed} regenerations failed: {part['errors']}")
        if self.expected is None:
            self.expected = fill
        if fill != self.expected:
            self.problem(f"store fill {fill} differs from the recorded "
                         f"{self.expected}")
            failed = part["ops"]
        self.failed += failed

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _load_golden() -> dict:
    try:
        with open(os.path.join(HERE, "golden.json")) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_child(mode: str, workload: spec.Workload, seed: int, tag: str,
           trace: bool = False, ops: int = 0) -> dict:
    """Run one fresh benchmark process; returns its result (or raises)."""
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    store = os.path.join(work, "store")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({"REPRO_CACHE_DIR": store,
                "REPRO_TRACE_CACHE_DIR": os.path.join(store, "traces"),
                "PYTHONHASHSEED": "0"})
    args = {"mode": mode, "src": SRC, "store": store, "work": work,
            "out": os.path.join(work, "result.json"), "seed": seed,
            "per_core": workload.per_core,
            "workloads": list(workload.workloads), "trace": trace,
            "ops": ops, "spawn": time.time()}
    with open(os.path.join(work, "stderr.txt"), "w") as err:
        # A session of its own, so a timeout can take its pool workers
        # down with it.
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(args)],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"{mode} process timed out")
    if proc.returncode != 0:
        with open(os.path.join(work, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{tail}")
    with open(args["out"]) as fh:
        result = json.load(fh)
    shutil.rmtree(store, ignore_errors=True)
    return result


def _setup_samples(run: Run, tag: str) -> list:
    return [run_child("setup", run.workload, run.seed, f"{tag}-setup{i}")
            ["setup_s"] for i in range(spec.SETUP_PROBES)]


def measure(run: Run, seconds: int) -> None:
    """Untraced run: every end-to-end metric."""
    wl = run.workload
    tag = f"{wl.name}-{run.seed}"
    ops = max(wl.min_ops, round(seconds / wl.nominal_op_s))
    setups = _setup_samples(run, tag)
    if wl.kind == "sweep":
        results = [run_child("sweep", wl, run.seed, f"{tag}-sweep{i}")
                   for i in range(ops)]
        for result in results:
            run.check_cells(result)
            if result["cpu_s"] <= result["wall_s"]:
                run.problem(f"pooled sweep used {result['cpu_s']:.2f} CPU-s "
                            f"in {result['wall_s']:.2f} s: workers not "
                            "joined or not running")
        latencies = [ms for r in results for ms in r["cell_ms"]]
        wall = median([r["wall_s"] for r in results])
        cpu = median([r["cpu_s"] for r in results])
        rss = median([r["peak_rss_mb"] for r in results])
        run.notes.append(f"{ops} sweeps of {len(wl.workloads) * 4} cells; "
                         f"op = one cell, n={len(latencies)}")
    else:
        result = run_child("report", wl, run.seed, f"{tag}-report", ops=ops)
        run.check_report(result, result["fill"])
        results = [result]
        latencies = result["latencies_ms"]
        wall, cpu, rss = result["wall_s"], result["cpu_s"], \
            result["peak_rss_mb"]
        run.notes.append(f"{result['ops']} regenerations; op = one "
                         f"regeneration, n={len(latencies)}; store fill "
                         f"{result['fill_s']:.2f} s (not in setup_s)")
    setups += [r["setup_s"] for r in results]
    run.notes.append(_latency_note(latencies))
    run.metrics = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "setup_s": median(setups),
    }
    run.notes.append(f"setup_s: median of {len(setups)} fresh processes")


def _latency_note(latencies: list) -> str:
    """Op latency at p10, p50 and at p90 where ten samples lie beyond it
    (printed, not gated: they move with host load, see README)."""
    parts = [f"p10 {percentile(latencies, 10):.4f} ms",
             f"p50 {percentile(latencies, 50):.4f} ms"]
    if len(latencies) >= 100:
        parts.append(f"p90 {percentile(latencies, 90):.4f} ms")
    return f"op latency {', '.join(parts)}, n={len(latencies)}"


def trace(run: Run) -> None:
    """Traced run: every per-layer metric, plus the tracing overhead."""
    wl = run.workload
    tag = f"{wl.name}-{run.seed}"
    if wl.kind == "sweep":
        plain = run_child("sweep", wl, run.seed, f"{tag}-plain")
        traced = run_child("sweep", wl, run.seed, f"{tag}-traced", trace=True)
        run.check_cells(plain)
        run.check_cells(traced)
        if traced.get("digests") != plain.get("digests"):
            run.problem("traced cell digests differ from untraced ones")
        plain_wall, traced_wall = plain["wall_s"], traced["wall_s"]
    else:
        traced = run_child("report", wl, run.seed, f"{tag}-traced",
                           trace=True, ops=spec.TRACED_REGENERATIONS)
        run.check_report(traced, traced["fill"])
        run.check_report(traced["traced"], traced["fill"])
        plain_wall, traced_wall = traced["wall_s"], traced["traced"]["wall_s"]
    share = traced["layer_self_share"]
    if not 0.9 <= share <= 1.1:
        run.problem(f"layer self times add up to {share:.3f} of busy time")
    if traced["open_spans"]:
        run.problem(f"{traced['open_spans']} spans never closed")
    layer = dict(traced["layer"])
    layer["experiments.pool_warm_s"] = traced["pool_warm_s"]
    layer["experiments.retries"] = traced["retries"]
    layer["bench.tracing_overhead_pct"] = 100.0 * (traced_wall / plain_wall
                                                   - 1.0)
    layer["bench.layer_self_share"] = share
    run.metrics = layer
    run.notes.append(f"spans written to {os.path.relpath(WORK, ROOT)}/"
                     f"{tag}-traced/")


def _print(run: Run, trace_mode: bool) -> None:
    print(f"== {run.workload.name} (seed {run.seed}, "
          f"{'traced' if trace_mode else 'untraced'})")
    units = ({k: v[0] for k, v in spec.PER_LAYER.items()} if trace_mode
             else {k: v[0] for k, v in spec.END_TO_END.items()})
    for name, value in run.metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'fail_ratio':32s} {ratio:>16.6g} ratio "
          f"({run.failed}/{run.attempted})")
    for note in run.notes:
        print(f"  note: {note}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(spec.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(spec.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    runs = []
    for name in names:
        run = Run(spec.WORKLOADS[name], args.seed)
        try:
            if args.trace:
                trace(run)
            else:
                measure(run, args.seconds)
        except (RuntimeError, ValueError) as exc:
            # A process that died, or too few ops left to report on.
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        _print(run, bool(args.trace))
        runs.append(run)
    units = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {}
    for run in runs:
        prefix = f"{run.workload.name}." if len(runs) > 1 else ""
        for name, value in run.metrics.items():
            metrics[prefix + name] = {"value": value, "unit": units[name][0]}
    print(json.dumps({
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
