"""``FsStore``: the filesystem blob store.

One root holds every namespace —

* ``results/<digest>.json``  ->  ``<root>/<digest[:2]>/<digest>.json``
* ``traces/<digest>.bin``    ->  ``<root>/traces/<digest[:2]>/<digest>.bin``

with crash-atomic fsync'd writes
(:func:`repro.resilience.storage.durable_replace`), a ``quarantine/`` +
``MANIFEST.jsonl`` evidence trail and a ``GC_MANIFEST.jsonl`` eviction
log per namespace.
Any other namespace maps to ``<root>/<namespace>/``.

Only two-lowercase-hex-char fan-out directories hold blobs, so anything
else sharing the root — ``traces/``, ``quarantine/``, a ``repro serve``
state directory, a sweep journal — is never listed, audited or
quarantined as a blob.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.resilience.storage import (
    durable_replace,
    quarantine_dir,
    quarantine_file,
    read_quarantine_manifest,
)
from repro.store.base import (
    NAMESPACE_RESULTS,
    NAMESPACE_TRACES,
    BlobStat,
    BlobStore,
    split_key,
)

GC_MANIFEST_NAME = "GC_MANIFEST.jsonl"

_FANOUT = re.compile(r"[0-9a-f]{2}")


def default_result_root() -> Path:
    """``~/.cache/repro``: the root of the store when none is named."""
    return Path(os.path.expanduser("~")) / ".cache" / "repro"


def _fanout_dirs(nsroot: Path) -> List[Path]:
    """The namespace's blob directories, sorted (never quarantine etc.)."""
    if not nsroot.is_dir():
        return []
    return [child for child in sorted(nsroot.iterdir())
            if _FANOUT.fullmatch(child.name) and child.is_dir()]


def _is_under(path: Path, ancestor: Path) -> bool:
    try:
        path.relative_to(ancestor)
    except ValueError:
        return False
    return True


class FsStore(BlobStore):
    """Blob storage over one local directory tree (see module docstring)."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_result_root()

    # -- key -> path ---------------------------------------------------------

    def namespace_root(self, namespace: str) -> Path:
        if namespace == NAMESPACE_RESULTS:
            return self.root
        return self.root / namespace

    def local_path(self, key: str) -> Path:
        namespace, name = split_key(key)
        return self.namespace_root(namespace) / name[:2] / name

    # -- blob data -----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        try:
            return self.local_path(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, data: Union[str, bytes]) -> None:
        durable_replace(self.local_path(key), data,
                        binary=isinstance(data, bytes))

    def put_blob(self, key: str, writer: Callable) -> None:
        durable_replace(self.local_path(key), writer, binary=True)

    def delete(self, key: str) -> bool:
        path = self.local_path(key)
        try:
            path.unlink()
        except OSError:
            return False
        try:
            path.parent.rmdir()  # only succeeds once the fan-out dir empties
        except OSError:
            pass
        return True

    def stat(self, key: str) -> Optional[BlobStat]:
        try:
            st = self.local_path(key).stat()
        except OSError:
            return None
        return BlobStat(size=st.st_size, mtime=st.st_mtime)

    def list(self, prefix: str = "") -> List[str]:
        keys: List[str] = []
        for namespace in self._namespaces(prefix):
            for child in _fanout_dirs(self.namespace_root(namespace)):
                for path in sorted(child.iterdir()):
                    # A misfiled blob is no key's blob (get() cannot
                    # reach it); structural_check reports it instead.
                    if (not path.is_file() or path.name.endswith(".tmp")
                            or path.name[:2] != child.name):
                        continue
                    key = f"{namespace}/{path.name}"
                    if key.startswith(prefix):
                        keys.append(key)
        return keys

    def _namespaces(self, prefix: str) -> List[str]:
        known = [NAMESPACE_RESULTS, NAMESPACE_TRACES]
        if not prefix:
            return known
        head = prefix.split("/", 1)[0]
        return [ns for ns in known if ns.startswith(head)]

    # -- integrity / quarantine ----------------------------------------------

    def quarantine(self, key: str, reason: str) -> Optional[str]:
        namespace, _ = split_key(key)
        moved = quarantine_file(self.namespace_root(namespace),
                                self.local_path(key), reason)
        return moved.name if moved is not None else None

    def quarantine_inventory(self, namespace: str) -> Dict:
        nsroot = self.namespace_root(namespace)
        qdir = quarantine_dir(nsroot)
        files = ([p.name for p in sorted(qdir.iterdir())
                  if p.is_file() and p.name != "MANIFEST.jsonl"]
                 if qdir.is_dir() else [])
        return {"files": files,
                "manifest": read_quarantine_manifest(nsroot)}

    def orphans(self, namespace: str) -> List[str]:
        nsroot = self.namespace_root(namespace)
        return [str(path.relative_to(nsroot))
                for child in _fanout_dirs(nsroot)
                for path in sorted(child.glob("*.tmp"))]

    def remove_orphan(self, namespace: str, name: str) -> bool:
        nsroot = self.namespace_root(namespace)
        path = (nsroot / name).resolve()
        if not _is_under(path, nsroot.resolve()) or not name.endswith(".tmp"):
            return False
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def structural_check(self, namespace: str, fix: bool = False) -> List[str]:
        """Blobs filed in a fan-out directory other than ``name[:2]``."""
        nsroot = self.namespace_root(namespace)
        problems: List[str] = []
        for child in _fanout_dirs(nsroot):
            for path in sorted(child.iterdir()):
                if not path.is_file() or path.name.endswith(".tmp"):
                    continue
                if child.name == path.name[:2]:
                    continue
                problem = (f"{path.name}: fan-out directory does not match "
                           "digest prefix")
                if fix:
                    moved = quarantine_file(nsroot, path, problem)
                    problem += (" -> quarantined" if moved
                                else " (quarantine FAILED)")
                problems.append(problem)
        return problems

    # -- garbage collection --------------------------------------------------

    def gc_log(self, namespace: str, entry: Dict) -> None:
        manifest = self.namespace_root(namespace) / GC_MANIFEST_NAME
        manifest.parent.mkdir(parents=True, exist_ok=True)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def gc_manifest(self, namespace: str) -> List[Dict]:
        entries: List[Dict] = []
        try:
            fh = open(self.namespace_root(namespace) / GC_MANIFEST_NAME,
                      encoding="utf-8")
        except OSError:
            return entries
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    continue  # torn tail from a crash mid-append
        return entries

    # -- identity ------------------------------------------------------------

    def url(self) -> str:
        return f"file://{self.root}"
