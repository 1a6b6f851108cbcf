"""``repro doctor``: cache/trace-store integrity audit.

Walks the result cache and the packed trace cache and verifies what the
hot paths assume:

* every ``.json`` result entry parses back into a ``RunResult`` and
  lives in the fan-out directory matching its digest;
* every ``.bin`` packed trace passes the full format check
  (:func:`repro.trace.packed.verify_file`) and its format version is
  current;
* no orphaned ``*.tmp`` files linger from interrupted writers;
* the ``quarantine/`` directories are inventoried (manifest entries vs
  actual files), so quarantined corruption is visible, not forgotten.

Read-only by default; ``--fix`` deletes orphaned temp files and moves
corrupt entries into quarantine (never plain deletion of a payload).
The process exits nonzero when any check fails, which makes the command
usable as a CI/cron health probe.

Every check goes through the :class:`repro.store.BlobStore` interface
(``check_result_store``, ``check_trace_store``, ``prune_store``), so
``repro doctor --store http://host:port`` inspects, quarantines, and
prunes a remote shared store with exactly the same checks as a local
one.

``--prune-older-than DAYS`` adds garbage collection: cache entries whose
last write is older than the cutoff are evicted so a long-running
service's cache directory stays bounded.  Every eviction is logged to
the cache's ``GC_MANIFEST.jsonl`` (path, mtime, age) *before* the
unlink, so the history of what GC removed survives; the ``quarantine/``
directory is never pruned — quarantined blobs are evidence, and only a
human deletes evidence.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.resilience.log import warn as resilience_warn


@dataclass
class CheckResult:
    """One audit section: a verdict plus its supporting detail lines."""

    name: str
    ok: bool = True
    details: List[str] = field(default_factory=list)

    def fail(self, line: str) -> None:
        self.ok = False
        self.details.append(line)

    def note(self, line: str) -> None:
        self.details.append(line)


@dataclass
class DoctorReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        lines = []
        for check in self.checks:
            lines.append(f"[{'PASS' if check.ok else 'FAIL'}] {check.name}")
            lines.extend(f"    {line}" for line in check.details)
        lines.append("")
        probe = next((check for check in self.checks
                      if check.name.endswith(": connectivity")), None)
        tail = ""
        if probe is not None:
            tail = (" (store reachable)" if probe.ok
                    else " (store UNREACHABLE)")
        lines.append("doctor: "
                     f"{'all checks passed' if self.ok else 'PROBLEMS FOUND'}"
                     f"{tail}")
        return "\n".join(lines)


def _check_store_orphans(store, namespace: str, label: str,
                         fix: bool) -> CheckResult:
    check = CheckResult(f"{label}: orphaned temp files")
    orphans = store.orphans(namespace)
    if not orphans:
        check.note("none")
        return check
    for name in orphans:
        if fix:
            if store.remove_orphan(namespace, name):
                check.note(f"removed {name}")
            else:
                check.fail(f"could not remove {name}")
        else:
            check.fail(f"{name} (interrupted writer; --fix removes it)")
    return check


def _check_store_quarantine(store, namespace: str, label: str) -> CheckResult:
    check = CheckResult(f"{label}: quarantine inventory")
    inventory = store.quarantine_inventory(namespace)
    files = inventory.get("files", [])
    entries = inventory.get("manifest", [])
    if not files and not entries:
        check.note("empty")
        return check
    check.note(f"{len(files)} quarantined blob(s), "
               f"{len(entries)} manifest entr(ies)")
    for name in files:
        reason = next((entry.get("reason", "?") for entry in entries
                       if entry.get("file") == name), None)
        check.note(f"{name}: no manifest entry" if reason is None
                   else f"{name}: {reason}")
    for name in sorted({entry.get("file") for entry in entries} - set(files)):
        if name:
            check.note(f"{name}: listed in manifest but blob is gone")
    return check


def _check_store_layout(store, namespace: str, label: str,
                        fix: bool) -> CheckResult:
    check = CheckResult(f"{label}: layout")
    problems = store.structural_check(namespace, fix=fix)
    if not problems:
        check.note("clean")
        return check
    for problem in problems:
        if fix:
            check.note(problem)
            if "FAILED" in problem:
                check.ok = False
        else:
            check.fail(problem)
    return check


def _check_store_entries(store, namespace: str, suffix: str, label: str,
                         title: str, fix: bool, parse) -> CheckResult:
    """Shared entry-integrity walk: every payload blob must ``parse``.

    ``parse(key, raw_or_path)`` raises on damage; it receives the local
    path when the backend has one (mmap/verify fast path) and the raw
    bytes otherwise.
    """
    check = CheckResult(f"{label}: {title}")
    keys = [k for k in store.list(f"{namespace}/") if k.endswith(suffix)]
    good = 0
    for key in keys:
        name = key.split("/", 1)[1]
        problem = None
        path = store.local_path(key)
        try:
            if path is not None:
                parse(key, path)
            else:
                raw = store.get(key)
                if raw is None:
                    continue  # evicted between list and read
                parse(key, raw)
        except Exception as exc:  # noqa: BLE001 — any damage quarantines
            problem = (str(exc) if isinstance(exc, _VerifyFailure)
                       else f"{type(exc).__name__}: {exc}")
        if problem is None:
            good += 1
            continue
        if fix:
            moved = store.quarantine(key, problem)
            check.note(f"{name}: {problem} -> quarantined"
                       if moved else f"{name}: {problem} (quarantine FAILED)")
            if moved is None:
                check.ok = False
        else:
            check.fail(f"{name}: {problem}")
    check.note(f"{good}/{len(keys)} entries verified")
    return check


class _VerifyFailure(Exception):
    """Carries a verify_file reason without exception-name prefixing."""


def check_result_store(store, fix: bool = False) -> List[CheckResult]:
    """The result-cache audit, through the store interface."""
    from repro.system.results import RunResult

    def parse(key, src):
        raw = src.read_bytes() if isinstance(src, Path) else src
        RunResult.from_dict(json.loads(raw.decode("utf-8")))

    label = f"result store {store.url()}"
    return [
        _check_store_entries(store, "results", ".json", label,
                             "entry integrity", fix, parse),
        _check_store_layout(store, "results", label, fix),
        _check_store_orphans(store, "results", label, fix),
        _check_store_quarantine(store, "results", label),
    ]


def check_trace_store(store, fix: bool = False) -> List[CheckResult]:
    """The packed-trace audit, through the store interface."""
    from repro.trace.packed import PackedTrace, verify_file

    def parse(key, src):
        if isinstance(src, Path):
            ok, reason = verify_file(src)
            if not ok:
                raise _VerifyFailure(reason)
        else:
            PackedTrace.loads(src)

    label = f"trace store {store.url()}"
    return [
        _check_store_entries(store, "traces", ".bin", label,
                             "packed-trace integrity", fix, parse),
        _check_store_layout(store, "traces", label, fix),
        _check_store_orphans(store, "traces", label, fix),
        _check_store_quarantine(store, "traces", label),
    ]


def prune_store(store, namespace: str, suffix: str, older_than_days: float,
                label: str, now: Optional[float] = None) -> CheckResult:
    """Evict payload blobs whose last write predates the cutoff.

    Only payload blobs are candidates, quarantine is untouchable, and
    every eviction lands in the namespace's GC manifest *before* the
    delete.
    """
    check = CheckResult(
        f"{label}: GC (older than {older_than_days:g} day(s))")
    now = time.time() if now is None else now
    cutoff = now - older_than_days * 86400.0
    pruned = kept = freed = 0
    for key in store.list(f"{namespace}/"):
        if not key.endswith(suffix):
            continue
        stat = store.stat(key)
        if stat is None:
            continue  # a concurrent writer/GC got there first
        if stat.mtime >= cutoff:
            kept += 1
            continue
        name = key.split("/", 1)[1]
        store.gc_log(namespace, {
            "file": f"{name[:2]}/{name}",
            "bytes": stat.size,
            "mtime": stat.mtime,
            "age_days": round((now - stat.mtime) / 86400.0, 3),
            "pruned_at": now,
            "pid": os.getpid(),
        })
        if not store.delete(key):
            check.fail(f"could not evict {name}")
            continue
        pruned += 1
        freed += stat.size
    check.note(f"{pruned} entr(ies) evicted ({freed} B freed), {kept} kept")
    if pruned:
        check.note(f"evictions logged to the {namespace} GC manifest")
    return check


def prune_store_to_size(store, budget_bytes: int, label: str,
                        now: Optional[float] = None,
                        exempt=None) -> CheckResult:
    """Evict least-recently-written blobs until the store fits a budget.

    The ordering guarantees (docs/resilience.md):

    * every eviction is **manifest-logged before the delete** — the GC
      manifest names what size pressure removed even if the process
      dies mid-prune;
    * **quarantine is never touched** — quarantined blobs are invisible
      to ``list`` and their bytes do not count against the budget;
    * **spooled unflushed writes are never evicted** — ``exempt``
      defaults to :meth:`repro.store.BlobStore.spooled_keys`, the keys
      whose only copy is this store (a ``TieredStore`` local tier with
      its remote down).  Their bytes *do* count against the budget —
      they occupy real disk — so a spool backlog can legitimately make
      the budget unreachable, which is reported as a failure rather
      than "solved" by deleting sole copies.

    The returned check carries ``evicted`` / ``freed_bytes`` attributes
    for programmatic callers (the ``TieredStore`` budget).
    """
    check = CheckResult(f"{label}: GC (size budget {budget_bytes} B)")
    now = time.time() if now is None else now
    exempt = set(store.spooled_keys() if exempt is None else exempt)
    total = 0
    candidates = []
    exempt_bytes = 0
    for key in store.list():
        stat = store.stat(key)
        if stat is None:
            continue  # a concurrent writer/GC got there first
        total += stat.size
        if key in exempt:
            exempt_bytes += stat.size
            continue
        candidates.append((stat.mtime, key, stat.size))
    evicted = freed = 0
    if total > budget_bytes:
        candidates.sort()  # oldest write first: LRU by mtime
        for mtime, key, size in candidates:
            if total - freed <= budget_bytes:
                break
            namespace, name = key.split("/", 1)
            store.gc_log(namespace, {
                "file": f"{name[:2]}/{name}",
                "bytes": size,
                "mtime": mtime,
                "age_days": round((now - mtime) / 86400.0, 3),
                "pruned_at": now,
                "pid": os.getpid(),
                "reason": "size-budget",
                "budget_bytes": budget_bytes,
            })
            if not store.delete(key):
                check.fail(f"could not evict {name}")
                continue
            evicted += 1
            freed += size
    remaining = total - freed
    check.note(f"{evicted} entr(ies) evicted ({freed} B freed), "
               f"{remaining} B remain of {budget_bytes} B budget")
    if exempt:
        check.note(f"{len(exempt)} spooled unflushed write(s) exempt "
                   f"({exempt_bytes} B)")
    if evicted:
        check.note("evictions logged to the GC manifest")
    if remaining > budget_bytes:
        check.fail("budget not met: remaining bytes are spooled writes "
                   "or in-flight entries; flush the spool and re-prune")
    check.evicted = evicted
    check.freed_bytes = freed
    return check


def probe_store(store) -> CheckResult:
    """One connectivity check, first in every ``--store`` report.

    An unreachable remote fails this single check with an actionable
    message instead of surfacing as a traceback (or as N confusing
    empty audits) further down.
    """
    check = CheckResult(f"store {store.url()}: connectivity")
    try:
        ok, detail = store.probe()
    except Exception as exc:  # noqa: BLE001 — a probe reports, not raises
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    if ok:
        check.note(detail)
    else:
        check.fail(f"unreachable: {detail}")
        check.fail("is `repro serve` running there?  Check the --store "
                   "URL (host, port) and any ?timeout= / "
                   "REPRO_STORE_TIMEOUT setting.")
    return check


def run_store_doctor(store, fix: bool = False,
                     prune_older_than_days: Optional[float] = None,
                     prune_to_size_bytes: Optional[int] = None
                     ) -> DoctorReport:
    """Audit one blob store (local or remote)."""
    report = DoctorReport()
    connectivity = probe_store(store)
    report.checks.append(connectivity)
    if not connectivity.ok:
        # Nothing below can succeed against an unreachable remote;
        # stop with the one actionable failure instead of a traceback.
        resilience_warn("doctor-store-unreachable",
                        "store unreachable; audit skipped",
                        url=store.url())
        return report
    if prune_older_than_days is not None:
        report.checks.append(prune_store(
            store, "results", ".json", prune_older_than_days,
            f"result store {store.url()}"))
        report.checks.append(prune_store(
            store, "traces", ".bin", prune_older_than_days,
            f"trace store {store.url()}"))
    if prune_to_size_bytes is not None:
        # A size budget bounds *disk*, so for a tiered store the target
        # is the local tier (the remote keeps its copies); the tier's
        # spooled keys stay exempt because the local copy is the sole one.
        target = getattr(store, "local", None)
        if target is not None and hasattr(store, "spooled_keys"):
            report.checks.append(prune_store_to_size(
                target, prune_to_size_bytes,
                f"store {store.url()} local tier",
                exempt=set(store.spooled_keys())))
        else:
            report.checks.append(prune_store_to_size(
                store, prune_to_size_bytes, f"store {store.url()}"))
    report.checks.extend(check_result_store(store, fix=fix))
    report.checks.extend(check_trace_store(store, fix=fix))
    if not report.ok:
        resilience_warn("doctor-problems",
                        "store integrity audit found problems",
                        failed=sum(1 for c in report.checks if not c.ok))
    return report


def run_doctor(*, fix: bool = False,
               prune_older_than_days: Optional[float] = None,
               prune_to_size_bytes: Optional[int] = None,
               store=None) -> DoctorReport:
    """Audit ``store`` (default: the store in effect, :func:`get_store`).

    With ``prune_older_than_days`` set, garbage-collect entries older
    than the cutoff first (manifest-logged), then audit what remains;
    ``prune_to_size_bytes`` does the same under a byte budget (LRU).
    """
    from repro.store import get_store

    return run_store_doctor(store if store is not None else get_store(),
                            fix=fix,
                            prune_older_than_days=prune_older_than_days,
                            prune_to_size_bytes=prune_to_size_bytes)
