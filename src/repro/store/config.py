"""Store selection: one URL names where every blob lives.

``parse_store_url`` maps a URL (or bare path) to a backend::

    file:///var/cache/repro   -> FsStore rooted there
    /var/cache/repro          -> the same FsStore
    http://cache-host:8673    -> HttpStore against that service
    http://host:8673?timeout=5
                              -> the same, with a 5 s per-request timeout
    tiered+http://host:8673?local=/var/tier
                              -> TieredStore: local FsStore tier at
                                 /var/tier over that HttpStore
    tiered+http://host:8673?timeout=5&local=/var/tier&budget=1000000000
                              -> the same with a remote timeout and a
                                 1 GB local-tier eviction budget

``tiered+`` consumes the ``local=`` (required) and ``budget=`` query
parameters; everything else in the URL — scheme, host, ``timeout=`` —
describes the remote leg and is handed to it unchanged.

``configure_store`` installs a process-wide choice and exports it as
``REPRO_STORE`` so every engine this process builds — and every pool
worker it forks — resolves the same store.  ``get_store`` is the single
lookup the caches use: the configured store if its URL still matches
the environment, else whatever ``REPRO_STORE`` names, else an
:class:`~repro.store.fs.FsStore` at ``~/.cache/repro``.  A store URL is
the only way to say where blobs live: a local store keeps its traces
under ``<root>/traces``, so the URL alone rebuilds the same store in a
pool worker.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.store.base import BlobStore, StoreError
from repro.store.fs import FsStore, default_result_root
from repro.store.http import HttpStore


def _parse_tiered_url(text: str) -> BlobStore:
    """``tiered+<remote-url>?local=DIR[&budget=BYTES]`` -> TieredStore."""
    from urllib.parse import parse_qsl, quote, unquote

    from repro.store.tiered import TieredStore

    inner = text[len("tiered+"):]
    if inner.startswith("tiered+"):
        raise StoreError(f"tiered stores do not nest: {text!r}")
    base, _, query = inner.partition("?")
    local = budget = None
    passthrough = []
    for name, value in parse_qsl(query, keep_blank_values=True):
        if name == "local":
            local = unquote(value)
        elif name == "budget":
            try:
                budget = int(value)
            except ValueError:
                raise StoreError(f"bad budget= value {value!r} in {text!r}")
            if budget <= 0:
                raise StoreError(f"budget= must be positive in {text!r}")
        else:
            passthrough.append(f"{name}={quote(value, safe='')}")
    if not local:
        raise StoreError(
            f"tiered store URL names no local tier: {text!r} "
            "(append ?local=DIR)")
    remote_url = base + ("?" + "&".join(passthrough) if passthrough else "")
    remote = parse_store_url(remote_url)
    if isinstance(remote, TieredStore):
        raise StoreError(f"tiered stores do not nest: {text!r}")
    return TieredStore(remote, Path(local), budget_bytes=budget)


def parse_store_url(url_or_path: Union[str, Path]) -> BlobStore:
    """A ready-to-use backend for one store URL (or bare path)."""
    text = str(url_or_path).strip()
    if not text:
        raise StoreError("empty store URL")
    if text.startswith("tiered+"):
        return _parse_tiered_url(text)
    if text.startswith(("http://", "https://")):
        return HttpStore(text)
    if text.startswith("file://"):
        path = text[len("file://"):]
        if not path:
            raise StoreError(f"file store URL names no path: {text!r}")
        return FsStore(Path(path))
    if "://" in text:
        scheme = text.split("://", 1)[0]
        raise StoreError(f"unsupported store scheme {scheme!r} "
                         "(use file:// or http://)")
    return FsStore(Path(text))


def store_url(store: BlobStore) -> str:
    """The canonical URL of a backend (what ``REPRO_STORE`` carries)."""
    return store.url()


#: (REPRO_STORE value it was configured under, the store) — see get_store.
_CONFIGURED: Tuple[Optional[str], Optional[BlobStore]] = (None, None)


def configure_store(url_or_path: Union[str, Path, None]) -> Optional[BlobStore]:
    """Install a process-wide store (``None`` reverts to the environment).

    The choice is exported through ``REPRO_STORE`` so forked pool
    workers and child processes inherit it; returns the backend.
    """
    global _CONFIGURED
    if url_or_path is None:
        _CONFIGURED = (None, None)
        os.environ.pop("REPRO_STORE", None)
        return None
    store = parse_store_url(url_or_path)
    url = store_url(store)
    os.environ["REPRO_STORE"] = url
    _CONFIGURED = (url, store)
    return store


def get_store() -> BlobStore:
    """The store the caches should use right now.

    Construction is a couple of environment reads, so — like the caches
    themselves — callers consult this per use and environment changes
    (notably the hermetic test fixtures) always take effect.
    """
    env = os.environ.get("REPRO_STORE", "")
    url, store = _CONFIGURED
    if store is not None and url == env:
        return store
    if env:
        return parse_store_url(env)
    return FsStore()


def cache_enabled() -> bool:
    """``REPRO_CACHE=0`` turns off both caches over the store."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def local_root(store: Optional[BlobStore] = None) -> Path:
    """The local directory of ``store`` (default: the store in effect).

    An :class:`FsStore`'s root, a tiered store's local tier, else (a
    remote store) the default root — where the default sweep journal
    and service state live.
    """
    store = store if store is not None else get_store()
    root = getattr(getattr(store, "local", store), "root", None)
    return Path(root) if root is not None else default_result_root()
