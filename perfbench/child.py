"""One fresh benchmark process: set up, run one workload's ops, report.

Invoked by ``run.py`` as ``python3 perfbench/child.py '<json args>'``;
writes one JSON object to ``args["out"]``.  Set-up is everything from
process start (``args["spawn"]``, the wall time the parent launched it)
until the timed region can begin: ``import repro``, engine construction
and pool warm-up, which forks the workers and waits for them.
"""

from __future__ import annotations

import glob
import io
import json
import multiprocessing
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _proc_cpu(pid: int) -> float:
    """CPU seconds a live process has used so far (from /proc)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _join_workers() -> None:
    # ExperimentEngine.close() can return before its workers have exited;
    # their CPU and RSS reach RUSAGE_CHILDREN only once they are reaped.
    for child in multiprocessing.active_children():
        child.join()


def _peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def main() -> None:
    args = json.loads(sys.argv[1])
    sys.path.insert(0, args["src"])
    sys.path.insert(0, HERE)

    import repro  # noqa: F401  (the import is part of set-up)
    from repro.api import ExperimentEngine, configure_store

    import layers
    import probes
    import spec
    from spans import Tracer

    configure_store(args["store"])
    tracer = Tracer(hot=probes.HOT)
    work = args["work"]

    def dump_path(pid):
        return os.path.join(work, f"spans-{pid}.json")

    mode = args["mode"]
    if mode == "sweep":
        # Before the pool forks, so workers inherit the wrappers.
        probes.install(tracer, dump_path, layers=args["trace"])
    engine = ExperimentEngine(jobs=spec.JOBS)
    start = time.perf_counter()
    pool = engine.warm_pool()
    for future in [pool.submit(os.getpid) for _ in range(spec.JOBS)]:
        future.result()
    pool_warm_s = time.perf_counter() - start
    out = {"setup_s": time.time() - args["spawn"], "pool_warm_s": pool_warm_s}
    if mode == "sweep":
        out.update(_sweep(args, engine, tracer))
    elif mode == "report":
        out.update(_report(args, engine, tracer, dump_path))
    else:
        engine.close()
        _join_workers()
    dumps = []
    for path in sorted(glob.glob(os.path.join(work, "spans-*.json"))):
        with open(path) as fh:
            dumps.append(json.load(fh))
    out["cell_ms"] = [(t1 - t0) * 1000.0 for dump in dumps
                      for _id, _parent, _op, name, t0, t1 in dump["records"]
                      if name == "experiments.cell"]
    if args["trace"]:
        tracer.dump(dump_path(os.getpid()))
        dumps.append(tracer.to_dict())
        totals, counts, busy, still_open = layers.merge(dumps)
        simulated = out["traced"]["simulated"] if "traced" in out \
            else out["simulated"]
        out["layer"] = layers.layer_metrics(totals, counts, out["accesses"],
                                            simulated)
        out["layer_self_share"] = layers.layer_self_share(totals, busy)
        out["open_spans"] = still_open
    with open(args["out"], "w") as fh:
        json.dump(out, fh)


def _sweep(args, engine, tracer) -> dict:
    from repro.api import RunSpec
    from repro.experiments.runner import ALL_PROTOCOLS

    from stats import result_digest

    specs = [RunSpec(workload=name, protocol=protocol, cores=16,
                     per_core=args["per_core"], seed=args["seed"])
             for name in args["workloads"] for protocol in ALL_PROTOCOLS]
    workers = multiprocessing.active_children()
    workers_cpu0 = sum(_proc_cpu(w.pid) for w in workers)
    children0 = _cpu(resource.RUSAGE_CHILDREN)
    self0 = _cpu(resource.RUSAGE_SELF)
    tracer.op = "sweep"
    error = ""
    start = time.perf_counter()
    try:
        results = engine.run_many(specs)
    except Exception as exc:  # counted as failed cells
        results = {}
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    self_cpu = _cpu(resource.RUSAGE_SELF) - self0
    engine.close()
    _join_workers()
    workers_cpu = _cpu(resource.RUSAGE_CHILDREN) - children0 - workers_cpu0
    digests = {}
    accesses = 0
    for s in specs:
        result = results.get(s)
        if result is not None:
            digests[f"{s.workload}/{s.protocol.value}"] = result_digest(result)
            accesses += result.stats.reads + result.stats.writes
    return {
        "wall_s": wall,
        "cpu_s": self_cpu + workers_cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": digests,
        "error": error,
        "ops": len(specs),
        "accesses": accesses,
        "simulated": engine.executed,
        "retries": engine.metrics.counter_value("repro_engine_retries_total"),
    }


def _report(args, engine, tracer, dump_path) -> dict:
    import probes
    import repro.experiments.report as report_mod
    from repro.api import ExperimentEngine, get_store
    from repro.experiments.runner import ExperimentSettings, ResultMatrix

    import spec
    from stats import cells_digest, report_digest

    settings = ExperimentSettings(cores=16, per_core=args["per_core"],
                                  seed=args["seed"])
    start = time.perf_counter()
    buf = io.StringIO()
    report_mod.write_report(ResultMatrix(settings, engine=engine), out=buf)
    fill_s = time.perf_counter() - start
    fill_digest = report_digest(buf.getvalue())
    engine.close()
    _join_workers()
    store = get_store()
    blobs = {key: store.get(key) for key in store.list("results/")}
    fill = {"body": fill_digest, "cells": cells_digest(blobs)}
    if len(blobs) != spec.REPORT_CELLS:
        fill["cells"] = f"{len(blobs)} cells stored"

    def regenerate(i, traced):
        """One regeneration, timed; checked against the fill's body."""
        engine = ExperimentEngine(jobs=spec.JOBS)
        buf = io.StringIO()
        if traced:
            tracer.op = f"report-{i}"
            tracer.enter("experiments.write_report")
        cpu0 = time.process_time()
        start = time.perf_counter()
        error = ""
        try:
            report_mod.write_report(ResultMatrix(settings, engine=engine),
                                    out=buf)
        except Exception as exc:  # counted as a failed regeneration
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if traced:
            tracer.exit()
        if not error and engine.executed:
            error = f"{engine.executed} cells simulated"
        if not error and engine.cache.hits != spec.REPORT_CELLS:
            error = f"{engine.cache.hits} cache hits"
        digest = report_digest(buf.getvalue())
        if not error and digest != fill_digest:
            error = "report body differs from the fill's"
        return {"wall": wall, "cpu": cpu, "error": error,
                "simulated": engine.executed}

    def summary(runs):
        errors = [r["error"] for r in runs if r["error"]]
        return {
            "wall_s": sum(r["wall"] for r in runs),
            "cpu_s": sum(r["cpu"] for r in runs),
            "latencies_ms": [r["wall"] * 1000.0 for r in runs],
            "failed": len(errors),
            "errors": errors[:3],
            "ops": len(runs),
            "simulated": sum(r["simulated"] for r in runs),
        }

    out = summary([regenerate(i, False) for i in range(args["ops"])])
    out.update({"fill_s": fill_s, "fill": fill,
                "peak_rss_mb": _peak_rss_mb(), "accesses": 0, "retries": 0})
    if args["trace"]:
        probes.install(tracer, dump_path, layers=True)
        out["traced"] = summary([regenerate(i, True)
                                 for i in range(args["ops"])])
    return out


if __name__ == "__main__":
    main()
