"""``repro.store``: the pluggable blob-storage substrate.

Every durable artifact the pipeline produces — serialized run results,
packed traces, derived-column sidecars — is a *blob* addressed by a
content-derived key (``results/<digest>.json``, ``traces/<digest>.bin``).
This package defines the one narrow interface the caches talk to
(:class:`BlobStore`) and its two backends:

* :class:`FsStore` — one local directory tree (two-hex-char fan-out
  directories, traces under ``traces/``, ``quarantine/`` beside each
  namespace, crash-atomic fsync'd writes);
* :class:`HttpStore` — a client for the blob endpoints of a running
  ``repro serve`` instance, so one service is a whole fleet's shared
  warm cache with zero new dependencies (hardened with seeded retries,
  configurable timeouts, and a trip-open/half-open circuit breaker);
* :class:`TieredStore` — a local :class:`FsStore` write-through tier in
  front of any remote store, so workers keep serving (and spool their
  writes) while the coordinator is down and re-warm cheaply after.

Selection is by URL: ``file:///path`` (or a bare path) names an
:class:`FsStore`, ``http://host:port`` an :class:`HttpStore`, and
``tiered+http://host:port?local=DIR`` a :class:`TieredStore`.
:func:`configure_store` installs a process-wide choice (exported through
``REPRO_STORE`` so pool workers inherit it); :func:`get_store` is what
the caches consult.  See docs/distributed.md.
"""

from repro.store.base import (
    NAMESPACE_RESULTS,
    NAMESPACE_TRACES,
    BlobStat,
    BlobStore,
    StoreError,
    split_key,
    validate_key,
)
from repro.store.config import (
    configure_store,
    get_store,
    local_root,
    parse_store_url,
    store_url,
)
from repro.store.fs import FsStore, default_result_root
from repro.store.http import HttpStore, StoreUnavailableError
from repro.store.tiered import TieredStore

__all__ = [
    "BlobStat",
    "BlobStore",
    "FsStore",
    "HttpStore",
    "NAMESPACE_RESULTS",
    "NAMESPACE_TRACES",
    "StoreError",
    "StoreUnavailableError",
    "TieredStore",
    "configure_store",
    "default_result_root",
    "get_store",
    "local_root",
    "parse_store_url",
    "split_key",
    "store_url",
    "validate_key",
]
