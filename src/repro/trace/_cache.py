"""The content-addressed cache of packed workload traces.

Synthetic trace generation is deterministic in ``(workload, cores,
per_core, seed)``, so a trace only ever needs to be *generated* once —
every later run (in this process, in a pool worker, or next week)
replays the packed binary form instead of re-driving the pattern
generators.  The cache shares the result cache's pluggable blob store
(:mod:`repro.store`):

* **Key.** ``traces/<digest>.bin`` where the digest is sha256 of the
  sorted-key JSON of the recipe plus
  :data:`~repro.trace.packed.FORMAT_VERSION` — bumping the format
  version (or changing any recipe axis) addresses a different entry.
* **Location.** Whatever :func:`repro.store.get_store` resolves
  (``--store`` / ``REPRO_STORE``); a local ``FsStore`` keeps traces
  under ``<root>/traces``.  On a local store, reads keep the
  zero-copy mmap fast path; on an ``HttpStore`` the packed bytes are
  fetched and parsed in memory, so a fleet shares one warm trace cache.
* **Degradation.** A corrupt or truncated blob is a miss: it is
  quarantined through the store (with the parse error recorded through
  :mod:`repro.resilience.log`, so rebuild storms are visible in the obs
  counters), then the trace is rebuilt from the generators and the
  entry rewritten (atomically and durably, so concurrent builders and
  mid-write kills never produce torn files).
* **Switch.** ``REPRO_CACHE=0`` disables it along with the result
  cache.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from repro.common.errors import SimulationError
from repro.resilience.faults import SITE_TRACE_CORRUPT, get_injector
from repro.resilience.log import warn as resilience_warn
from repro.store import NAMESPACE_TRACES, BlobStore, get_store
from repro.store.config import cache_enabled
from repro.trace.packed import FORMAT_VERSION, PackedTrace
from repro.trace.workloads import build_streams


def trace_digest(workload: str, cores: int, per_core: int, seed: int) -> str:
    recipe = {
        "format": FORMAT_VERSION,
        "workload": workload,
        "cores": cores,
        "per_core": per_core,
        "seed": seed,
    }
    blob = json.dumps(recipe, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TraceCache:
    """Mirror of the engine's ``ResultCache``, holding packed binaries."""

    def __init__(self, *, store: Optional[BlobStore] = None,
                 enabled: Optional[bool] = None):
        self._store = store
        self.enabled = cache_enabled() if enabled is None else enabled
        self.hits = 0
        self.misses = 0
        self.built = 0
        self.quarantined = 0

    @property
    def store(self) -> BlobStore:
        """The backend in effect (pinned at construction, else the
        process-wide :func:`repro.store.get_store` resolved per use)."""
        return self._store if self._store is not None else get_store()

    @staticmethod
    def key_for(workload: str, cores: int, per_core: int, seed: int) -> str:
        digest = trace_digest(workload, cores, per_core, seed)
        return f"{NAMESPACE_TRACES}/{digest}.bin"

    @staticmethod
    def derived_key_for(workload: str, cores: int, per_core: int, seed: int,
                        region_bytes: int) -> str:
        """Sidecar of batch-execution derived columns for one trace.

        Same fan-out as the ``.bin`` it derives from; the ``.drv``
        suffix keeps it out of the doctor's packed-trace integrity
        scan, and the embedded format version makes stale layouts
        unreachable (like the trace digest itself).
        """
        from repro.trace.derived import DERIVED_FORMAT_VERSION

        digest = trace_digest(workload, cores, per_core, seed)
        return (f"{NAMESPACE_TRACES}/{digest}"
                f".d{region_bytes}.v{DERIVED_FORMAT_VERSION}.drv")

    def path_for(self, workload: str, cores: int, per_core: int,
                 seed: int) -> Optional[Path]:
        """Local blob path (``None`` on a remote store)."""
        return self.store.local_path(
            self.key_for(workload, cores, per_core, seed))

    def derived_path_for(self, workload: str, cores: int, per_core: int,
                         seed: int, region_bytes: int) -> Optional[Path]:
        return self.store.local_path(
            self.derived_key_for(workload, cores, per_core, seed,
                                 region_bytes))

    def get(self, workload: str, cores: int, per_core: int,
            seed: int) -> Optional[PackedTrace]:
        if not self.enabled:
            return None
        store = self.store
        key = self.key_for(workload, cores, per_core, seed)
        path = store.local_path(key)
        injector = get_injector()
        if injector is not None and path is not None:
            injector.maybe_corrupt(SITE_TRACE_CORRUPT, path)
        try:
            if path is not None:
                # Local store: zero-copy mmap straight off the tree.
                trace = PackedTrace.load(path)
            else:
                raw = store.get(key)
                if raw is None:
                    self.misses += 1
                    return None
                trace = PackedTrace.loads(raw)
        except OSError:
            # Absent: a plain miss (the build writes it).
            self.misses += 1
            return None
        except (SimulationError, ValueError) as exc:
            # Corrupt or truncated: quarantine the evidence and surface
            # the rebuild through repro.obs — a silent rebuild storm
            # must not look like a healthy cache.
            self.quarantined += 1
            quarantined = store.quarantine(key, f"{type(exc).__name__}: {exc}")
            resilience_warn(
                "trace-cache-corrupt",
                f"unreadable packed trace {key}; rebuilding",
                cache="trace", workload=workload, error=str(exc),
                quarantined=quarantined if quarantined else "FAILED")
            self.misses += 1
            return None
        self.hits += 1
        trace._derived_io = _DerivedStore(self, workload, cores, per_core,
                                          seed)
        return trace

    def put(self, trace: PackedTrace, workload: str, cores: int,
            per_core: int, seed: int) -> None:
        if not self.enabled:
            return
        self.store.put_blob(self.key_for(workload, cores, per_core, seed),
                            trace.dump)

    def get_or_build(self, workload: str, cores: int, per_core: int,
                     seed: int) -> PackedTrace:
        trace = self.get(workload, cores, per_core, seed)
        if trace is not None:
            return trace
        trace = PackedTrace.from_streams(
            build_streams(workload, cores=cores, per_core=per_core, seed=seed))
        self.built += 1
        self.put(trace, workload, cores, per_core, seed)
        trace._derived_io = _DerivedStore(self, workload, cores, per_core,
                                          seed)
        return trace


class _DerivedStore:
    """Sidecar I/O for one cached trace's derived columns.

    Attached to a :class:`PackedTrace` as ``_derived_io`` and consumed by
    :func:`repro.trace.derived.derived_for`.  Corrupt or stale sidecars
    are not quarantined — the consumer validates, rebuilds, and rewrites
    them (they are cheap, trace-local recomputations, unlike the traces
    and results themselves).
    """

    __slots__ = ("cache", "workload", "cores", "per_core", "seed")

    def __init__(self, cache: TraceCache, workload: str, cores: int,
                 per_core: int, seed: int):
        self.cache = cache
        self.workload = workload
        self.cores = cores
        self.per_core = per_core
        self.seed = seed

    def _key(self, region_bytes: int) -> str:
        return self.cache.derived_key_for(self.workload, self.cores,
                                          self.per_core, self.seed,
                                          region_bytes)

    def load(self, region_bytes: int) -> Optional[bytes]:
        if not self.cache.enabled:
            return None
        return self.cache.store.get(self._key(region_bytes))

    def save(self, region_bytes: int, blob: bytes) -> None:
        if not self.cache.enabled:
            return
        self.cache.store.put(self._key(region_bytes), blob)


def packed_streams(workload: str, cores: int = 16, per_core: int = 2000,
                   seed: int = 0,
                   cache: Optional[TraceCache] = None) -> PackedTrace:
    """The packed trace for one recipe, built at most once per cache.

    A fresh :class:`TraceCache` is consulted per call (construction is a
    couple of environment reads) so environment changes — notably the
    hermetic test fixtures — always take effect.
    """
    cache = cache if cache is not None else TraceCache()
    return cache.get_or_build(workload, cores=cores, per_core=per_core,
                              seed=seed)
