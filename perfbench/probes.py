"""Span wrappers around the public calls of each ``repro`` layer.

``install`` replaces functions and methods with thin wrappers that open
and close a span on a :class:`spans.Tracer`.  It must run before the
experiment engine forks its pool, so that forked workers inherit the
wrappers; each worker resets the inherited tracer on its first cell and
writes its spans out when it exits (a ``multiprocessing`` finalizer).

With ``layers=False`` only the cell span is installed: one span per
simulated cell, which is how untraced runs time cell latency.
"""

from __future__ import annotations

import os
from multiprocessing.util import Finalize

from spans import Tracer

#: Spans folded into totals instead of kept one by one (per-access work).
HOT = frozenset({
    "coherence.access", "coherence.hit", "coherence.miss",
    "coherence.directory", "interconnect.transfer", "memory.predict",
    "memory.l1_insert", "memory.l2",
})


def _plain(fn, name, tracer):
    enter, leave = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    return wrapper


def _wrap(owner, attr, name, tracer, make=_plain):
    """Wrap ``owner.attr`` (module function, method or classmethod)."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__, name, tracer)))
    else:
        setattr(owner, attr, make(raw, name, tracer))


def _access(fn, _name, tracer):
    """read/write: a hit returns exactly the L1 hit latency."""
    enter, leave = tracer.enter, tracer.exit

    def wrapper(self, core, addr, size=8, pc=0):
        enter("coherence.access")
        try:
            latency = fn(self, core, addr, size, pc)
        except BaseException:
            leave("coherence.miss")
            raise
        leave("coherence.hit" if latency == self.config.l1.hit_latency
              else "coherence.miss")
        return latency
    return wrapper


def _lookup(fn, name, tracer):
    """A get-style call: counts misses (``None``) and bytes returned."""
    enter, leave, count = tracer.enter, tracer.exit, tracer.count
    calls, misses, nbytes = name + ".calls", name + ".misses", name + ".bytes"

    def wrapper(*args, **kwargs):
        enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            leave()
        count(calls)
        if out is None:
            count(misses)
        elif isinstance(out, (bytes, str)):
            count(nbytes, len(out))
        return out
    return wrapper


def _put(fn, name, tracer):
    """store.put: counts bytes written."""
    enter, leave, count = tracer.enter, tracer.exit, tracer.count

    def wrapper(self, key, data):
        enter(name)
        try:
            return fn(self, key, data)
        finally:
            leave()
            count(name + ".bytes", len(data))
    return wrapper


def _put_blob(fn, name, tracer):
    """store.put_blob: counts the bytes the writer produced."""
    enter, leave, count = tracer.enter, tracer.exit, tracer.count

    def wrapper(self, key, writer):
        def counted(fh):
            writer(fh)
            count(name + ".bytes", fh.tell())
        enter(name)
        try:
            return fn(self, key, counted)
        finally:
            leave()
    return wrapper


def _run_many(fn, name, tracer):
    enter, leave, count = tracer.enter, tracer.exit, tracer.count

    def wrapper(self, specs):
        specs = list(specs)
        count("experiments.cells", len(set(specs)))
        enter(name)
        try:
            return fn(self, specs)
        finally:
            leave()
    return wrapper


def _cell(fn, name, tracer, dump_path):
    """execute_spec: the root span of one cell, keyed by the cell."""
    enter, leave = tracer.enter, tracer.exit
    owner = [os.getpid()]

    def wrapper(spec, *args, **kwargs):
        pid = os.getpid()
        if owner[0] != pid:
            # First cell in a forked worker: drop what the parent had
            # recorded before the fork, and write this worker's spans out
            # when it exits.
            owner[0] = pid
            tracer.reset()
            Finalize(None, tracer.dump, args=(dump_path(pid),),
                     exitpriority=10)
        tracer.op = f"{spec.workload}/{spec.protocol.value}"
        enter(name)
        try:
            return fn(spec, *args, **kwargs)
        finally:
            leave()
    return wrapper


def install(tracer: Tracer, dump_path, layers: bool = True) -> None:
    """Put the wrappers in place; ``dump_path(pid)`` names a worker's
    span file."""
    import repro.experiments._engine as engine_mod

    engine_mod.execute_spec = _cell(engine_mod.execute_spec,
                                    "experiments.cell", tracer, dump_path)
    if not layers:
        return

    import repro.experiments.report as report_mod
    import repro.system.batch as batch_mod
    import repro.system.machine as machine_mod
    import repro.trace._cache as trace_cache_mod
    from repro.coherence import mesi, protocol_base, protozoa_multi, protozoa_sw
    from repro.interconnect.accounting import NetworkAccountant
    from repro.memory import amoeba_cache, backing, fixed_cache, predictor
    from repro.memory import sector_cache
    from repro.store.fs import FsStore
    from repro.system.results import RunResult
    from repro.trace.packed import PackedTrace

    base = protocol_base.CoherenceProtocol
    _wrap(base, "read", "", tracer, _access)
    _wrap(base, "write", "", tracer, _access)
    _wrap(base, "flush", "coherence.flush", tracer)
    for cls in (mesi.MESIProtocol, protozoa_sw.ProtozoaSWProtocol,
                protozoa_multi.ProtozoaMWProtocol,
                protozoa_multi.ProtozoaSWMRProtocol):
        _wrap(cls, "_probe", "coherence.directory", tracer)
        _wrap(cls, "_grant", "coherence.directory", tracer)

    _wrap(NetworkAccountant, "transfer", "interconnect.transfer", tracer)

    for cls in (predictor.SpatialPredictor, predictor.WholeRegionPredictor,
                predictor.SingleWordPredictor, predictor.PCHistoryPredictor):
        for attr in ("predict", "train"):
            if attr in cls.__dict__:
                _wrap(cls, attr, "memory.predict", tracer)
    for cls in (amoeba_cache.AmoebaCache, fixed_cache.FixedCache,
                sector_cache.SectorCache):
        _wrap(cls, "insert", "memory.l1_insert", tracer)
    for attr in ("read", "patch", "ensure_present", "evict"):
        _wrap(backing.L2Store, attr, "memory.l2", tracer)

    _wrap(machine_mod, "build_protocol", "system.build", tracer)
    _wrap(engine_mod, "simulate", "system.simulate", tracer)
    _wrap(engine_mod, "_serialize_result", "system.result_serialize", tracer)
    _wrap(RunResult, "from_dict", "system.result_parse", tracer)

    _wrap(trace_cache_mod.TraceCache, "get", "trace.get", tracer, _lookup)
    _wrap(trace_cache_mod, "build_streams", "trace.generate", tracer)
    _wrap(PackedTrace, "from_streams", "trace.pack", tracer)
    _wrap(batch_mod, "derived_for", "trace.derive", tracer)

    _wrap(FsStore, "get", "store.get", tracer, _lookup)
    _wrap(FsStore, "put", "store.put", tracer, _put)
    _wrap(FsStore, "put_blob", "store.put", tracer, _put_blob)

    _wrap(engine_mod.ExperimentEngine, "run_many", "experiments.run_many",
          tracer, _run_many)
    _wrap(engine_mod.ResultCache, "get", "experiments.result_get", tracer,
          _lookup)
    _wrap(engine_mod, "wait", "experiments.pool_wait", tracer)
    for _title, module in report_mod.SECTIONS:
        _wrap(module, "render", "experiments.render", tracer)
    _wrap(report_mod, "_headline_charts", "experiments.render", tracer)
