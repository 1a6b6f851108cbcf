"""``TieredStore``: a local write-through tier over a remote blob store.

The paper's private-tier/shared-tier split, applied to the artifact
pipeline: each worker keeps a small local :class:`~repro.store.fs.FsStore`
(the *private* tier) coherent with a shared backing store (usually an
:class:`~repro.store.http.HttpStore` against the coordinator), and
adapts what it keeps locally to observed pressure via a byte budget.

Semantics (pinned by ``tests/store/test_tiered.py``):

* **reads are local-first** — a local hit never touches the network; a
  local miss reads through to the remote and *re-warms* the local tier
  (including :meth:`local_path`, so ``TraceCache``'s mmap fast path
  re-warms instead of silently rebuilding);
* **writes are write-through with an outage spool** — every ``put``
  lands in the local tier first, then a *spool marker* is durably
  created before the remote attempt and removed once the remote
  acknowledges.  If the remote is down the write is complete anyway
  (the local tier serves it) and the marker survives until
  :meth:`flush` replays it on reconnect.  A marker is therefore always
  present whenever the local tier holds the *sole* copy of a blob —
  which is exactly why eviction treats :meth:`spooled_keys` as
  untouchable;
* **the local tier lives under ``<dir>/cache``, markers under
  ``<dir>/spool``** — disjoint trees, so the spool can never be
  mistaken for payload by ``list``/``doctor``;
* **corruption heals from the remote** — :meth:`quarantine` retires the
  *local* copy only; the next read re-warms from the remote, whose copy
  was never judged (the damaged bytes came from the local tier);
* **the budget is enforced on install** — when ``budget_bytes`` is set,
  every local install (put or re-warm) that pushes the tier over budget
  triggers the shared size-LRU eviction
  (:func:`repro.resilience.doctor.prune_store_to_size`): manifest-first,
  quarantine-exempt, spool-exempt.

Every crossing is counted on the process registry:
``repro_store_tier_hits_total{tier=local|remote}``,
``repro_store_tier_misses_total``, ``repro_store_tier_spooled_total``,
``repro_store_tier_flushed_total``, ``repro_store_tier_evicted_total``.

Selected via ``--store 'tiered+http://host:port?local=DIR[&budget=BYTES]'``
(see :func:`repro.store.config.parse_store_url`); :meth:`url` round-trips
that form, so pool workers inheriting ``REPRO_STORE`` rebuild the same
tier.
"""

from __future__ import annotations

import io
import json
import time
import urllib.parse
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import process_registry
from repro.resilience.log import warn as resilience_warn
from repro.resilience.storage import durable_replace
from repro.store.base import BlobStat, BlobStore, StoreError, validate_key
from repro.store.fs import FsStore

#: Transport failures the tier absorbs (``URLError`` is an ``OSError``;
#: breaker fast-fails and RPC failures arrive as ``StoreError``).
_UNREACHABLE = (StoreError, OSError)


class TieredStore(BlobStore):
    """Local FsStore write-through/read-back cache over a remote store."""

    def __init__(self, remote: BlobStore, local_dir,
                 budget_bytes: Optional[int] = None):
        self.remote = remote
        self.local_dir = Path(local_dir)
        self.local = FsStore(self.local_dir / "cache")
        self.budget_bytes = budget_bytes
        self._spool_dir = self.local_dir / "spool"
        self._spool_dir.mkdir(parents=True, exist_ok=True)
        self._spool_count = len(self._spool_markers())
        # Running local-tier size, maintained incrementally so the budget
        # check is O(1) per install; authoritative re-measure on eviction.
        self._local_bytes = self._measure_local() if budget_bytes else 0

    # -- metrics -------------------------------------------------------------

    @staticmethod
    def _hit(tier: str) -> None:
        process_registry().inc("repro_store_tier_hits_total", tier=tier)

    @staticmethod
    def _miss() -> None:
        process_registry().inc("repro_store_tier_misses_total")

    # -- spool ---------------------------------------------------------------

    def _marker_path(self, key: str) -> Path:
        return self._spool_dir / urllib.parse.quote(validate_key(key),
                                                    safe="")

    def _spool_markers(self) -> List[Tuple[Path, str]]:
        if not self._spool_dir.is_dir():
            return []
        markers = []
        for path in sorted(self._spool_dir.iterdir()):
            if path.is_file():
                markers.append((path, urllib.parse.unquote(path.name)))
        return markers

    def _spool(self, key: str) -> None:
        """Durably mark ``key`` as not-yet-flushed (before the remote try)."""
        durable_replace(self._marker_path(key), json.dumps(
            {"key": key, "spooled_at": time.time()}, sort_keys=True))
        self._spool_count += 1

    def _unspool(self, key: str) -> None:
        try:
            self._marker_path(key).unlink()
        except OSError:
            return
        self._spool_count = max(0, self._spool_count - 1)

    def spooled_keys(self) -> List[str]:
        """Keys whose sole copy is the local tier (eviction-exempt)."""
        return [key for _, key in self._spool_markers()]

    def flush(self) -> Dict[str, int]:
        """Replay spooled writes to the remote; stops at the first
        transport failure (the remote is still down — try again later).

        Returns ``{"flushed": n, "remaining": m}``.
        """
        flushed = 0
        for path, key in self._spool_markers():
            data = self.local.get(key)
            if data is None:
                # The sole copy is gone (a crash between the local write
                # and the marker removal of a delete).  Nothing to flush.
                resilience_warn("tier-spool-lost",
                                "spooled blob missing from the local tier",
                                key=key)
                self._unspool(key)
                continue
            try:
                self.remote.put(key, data)
            except _UNREACHABLE:
                break
            self._unspool(key)
            flushed += 1
            process_registry().inc("repro_store_tier_flushed_total")
        return {"flushed": flushed, "remaining": self._spool_count}

    def _maybe_flush(self) -> None:
        if self._spool_count:
            self.flush()

    # -- local installs + budget ---------------------------------------------

    def _measure_local(self) -> int:
        return sum((self.local.stat(key) or BlobStat(0, 0.0)).size
                   for key in self.local.list())

    def _install_local(self, key: str, data: bytes) -> None:
        self.local.put(key, data)
        if self.budget_bytes:
            self._local_bytes += len(data)
            self._enforce_budget()

    def _enforce_budget(self) -> None:
        if not self.budget_bytes or self._local_bytes <= self.budget_bytes:
            return
        from repro.resilience.doctor import prune_store_to_size

        check = prune_store_to_size(
            self.local, self.budget_bytes,
            f"tier local {self.local_dir}",
            exempt=set(self.spooled_keys()))
        evicted = getattr(check, "evicted", 0)
        if evicted:
            process_registry().inc("repro_store_tier_evicted_total",
                                   evicted)
        self._local_bytes = self._measure_local()

    # -- blob data -----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        data = self.local.get(key)
        if data is not None:
            self._hit("local")
            return data
        self._maybe_flush()
        try:
            data = self.remote.get(key)
        except _UNREACHABLE:
            data = None
        if data is None:
            self._miss()
            return None
        self._install_local(key, data)  # re-warm
        self._hit("remote")
        return data

    def put(self, key: str, data: Union[str, bytes]) -> None:
        payload = data.encode("utf-8") if isinstance(data, str) else data
        # Marker before budget enforcement: the in-flight blob is the sole
        # copy until the remote acknowledges, so it must already be
        # spool-exempt when eviction runs.
        self.local.put(key, payload)
        self._spool(key)
        if self.budget_bytes:
            self._local_bytes += len(payload)
            self._enforce_budget()
        self._maybe_flush_others(key)
        try:
            self.remote.put(key, payload)
        except _UNREACHABLE:
            process_registry().inc("repro_store_tier_spooled_total")
            return  # the local tier serves it; flush() replays later
        self._unspool(key)

    def _maybe_flush_others(self, key: str) -> None:
        # A reconnect is usually noticed by the next put; replay older
        # spooled writes first so the backlog drains in arrival order.
        if self._spool_count > 1:
            self.flush()

    def put_blob(self, key: str, writer: Callable) -> None:
        buffer = io.BytesIO()
        writer(buffer)
        self.put(key, buffer.getvalue())

    def delete(self, key: str) -> bool:
        self._unspool(key)
        removed = self.local.delete(key)
        try:
            removed = self.remote.delete(key) or removed
        except _UNREACHABLE:
            pass
        if self.budget_bytes:
            self._local_bytes = self._measure_local()
        return removed

    def stat(self, key: str) -> Optional[BlobStat]:
        stat = self.local.stat(key)
        if stat is not None:
            return stat
        self._maybe_flush()
        try:
            return self.remote.stat(key)
        except _UNREACHABLE:
            return None

    def list(self, prefix: str = "") -> List[str]:
        keys = set(self.local.list(prefix))
        self._maybe_flush()
        try:
            keys.update(self.remote.list(prefix))
        except _UNREACHABLE:
            pass  # degraded listing: the local tier's view
        return sorted(keys)

    # -- local fast path -----------------------------------------------------

    def local_path(self, key: str) -> Optional[Path]:
        """The local tier's path, re-warming from the remote on a miss.

        ``TraceCache`` mmaps through this and treats an unreadable path
        as a cache miss — returning the remote's bytes here (installed
        locally first) is what makes a cold worker re-warm instead of
        re-simulating.
        """
        path = self.local.local_path(key)
        if path.is_file():
            self._hit("local")
            return path
        self._maybe_flush()
        try:
            data = self.remote.get(key)
        except _UNREACHABLE:
            data = None
        if data is None:
            self._miss()
            return None
        self._install_local(key, data)
        self._hit("remote")
        return path

    # -- integrity / quarantine (the local tier; the remote heals it) --------

    def quarantine(self, key: str, reason: str) -> Optional[str]:
        # Only the local copy was judged — the damaged bytes came from
        # the local tier, and the next read re-warms from the remote.
        self._unspool(key)
        return self.local.quarantine(key, reason)

    def quarantine_inventory(self, namespace: str) -> Dict:
        return self.local.quarantine_inventory(namespace)

    def orphans(self, namespace: str) -> List[str]:
        return self.local.orphans(namespace)

    def remove_orphan(self, namespace: str, name: str) -> bool:
        return self.local.remove_orphan(namespace, name)

    def structural_check(self, namespace: str, fix: bool = False) -> List[str]:
        return self.local.structural_check(namespace, fix=fix)

    # -- garbage collection --------------------------------------------------

    def gc_log(self, namespace: str, entry: Dict) -> None:
        self.local.gc_log(namespace, entry)

    def gc_manifest(self, namespace: str) -> List[Dict]:
        return self.local.gc_manifest(namespace)

    # -- health --------------------------------------------------------------

    def probe(self):
        ok, detail = self.remote.probe()
        spool = (f", {self._spool_count} spooled write(s) pending"
                 if self._spool_count else "")
        return ok, f"remote: {detail}{spool}"

    # -- identity ------------------------------------------------------------

    def url(self) -> str:
        base = self.remote.url()
        sep = "&" if "?" in base else "?"
        extra = f"local={urllib.parse.quote(str(self.local_dir), safe='')}"
        if self.budget_bytes:
            extra += f"&budget={self.budget_bytes}"
        return f"tiered+{base}{sep}{extra}"
