"""``repro doctor``: integrity audit verdicts and --fix behaviour.

The audit runs through the store interface; these cases drive it over a
local :class:`FsStore` tree and damage that tree on disk.
"""

import pytest

from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.resilience.doctor import (
    check_result_store,
    check_trace_store,
    prune_store,
    run_doctor,
)
from repro.resilience.storage import quarantine_dir, quarantine_file
from repro.store import FsStore
from repro.trace._cache import TraceCache

SPEC = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
               cores=2, per_core=60, seed=0)
RECIPE = dict(workload="histogram", cores=2, per_core=60, seed=0)


@pytest.fixture()
def store(tmp_path):
    return FsStore(tmp_path / "store")


@pytest.fixture()
def result_root(store):
    cache = ResultCache(store=store, enabled=True)
    with ExperimentEngine(jobs=1, cache=cache) as engine:
        engine.run(SPEC)
    return store.root


@pytest.fixture()
def trace_root(store):
    TraceCache(store=store, enabled=True).get_or_build(**RECIPE)
    return store.root / "traces"


def verdict(checks):
    return all(check.ok for check in checks)


class TestResultCacheAudit:
    def test_healthy_cache_passes(self, store, result_root):
        assert verdict(check_result_store(store))

    def test_absent_cache_passes(self, tmp_path):
        absent = FsStore(tmp_path / "nowhere")
        assert verdict(check_result_store(absent))
        assert verdict(check_trace_store(absent))
        assert not (tmp_path / "nowhere").exists()

    def test_corrupt_entry_fails(self, store, result_root):
        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"\xde\xad not json")
        assert not verdict(check_result_store(store))

    def test_fix_quarantines_corrupt_entry(self, store, result_root):
        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"\xde\xad not json")
        assert verdict(check_result_store(store, fix=True))
        assert not blob.exists()
        assert (quarantine_dir(result_root) / blob.name).exists()
        # A re-audit of the repaired cache is clean (quarantine listed).
        assert verdict(check_result_store(store))

    def test_misfiled_entry_fails(self, store, result_root):
        blob = next(result_root.glob("??/*.json"))
        wrong = result_root / ("00" if blob.name[:2] != "00" else "01")
        wrong.mkdir()
        blob.rename(wrong / blob.name)
        assert not verdict(check_result_store(store))
        assert verdict(check_result_store(store, fix=True))
        assert (quarantine_dir(result_root) / blob.name).exists()

    def test_orphan_tmp_file_fails_and_fix_removes(self, store, result_root):
        orphan = result_root / "ab"
        orphan.mkdir(exist_ok=True)
        orphan = orphan / "tmpXYZ.tmp"
        orphan.write_bytes(b"half-written")
        assert not verdict(check_result_store(store))
        assert verdict(check_result_store(store, fix=True))
        assert not orphan.exists()

    def test_excluded_subtree_not_scanned(self, store, result_root):
        """Only fan-out directories hold results: a temp file anywhere
        else under the root (traces/, a service state dir) is not a
        result-cache orphan."""
        nested = result_root / "traces"
        nested.mkdir()
        (nested / "leftover.tmp").write_bytes(b"x")
        assert verdict(check_result_store(store))


class TestTraceCacheAudit:
    def test_healthy_cache_passes(self, store, trace_root):
        assert verdict(check_trace_store(store))

    def test_corrupt_trace_fails(self, store, trace_root):
        blob = next(trace_root.glob("??/*.bin"))
        blob.write_bytes(b"\xde\xad\xbe\xef")
        assert not verdict(check_trace_store(store))

    def test_truncated_trace_fails(self, store, trace_root):
        blob = next(trace_root.glob("??/*.bin"))
        blob.write_bytes(blob.read_bytes()[:10])
        assert not verdict(check_trace_store(store))

    def test_fix_quarantines_corrupt_trace(self, store, trace_root):
        blob = next(trace_root.glob("??/*.bin"))
        blob.write_bytes(b"\xde\xad\xbe\xef")
        assert verdict(check_trace_store(store, fix=True))
        assert not blob.exists()
        assert (quarantine_dir(trace_root) / blob.name).exists()


class TestRunDoctor:
    def test_full_report_renders(self, store, result_root, trace_root):
        report = run_doctor(store=store)
        assert report.ok
        rendered = report.render()
        assert "[PASS]" in rendered and "[FAIL]" not in rendered
        assert "all checks passed" in rendered

    def test_problem_flips_verdict_and_warns(self, store, result_root,
                                             trace_root):
        from repro.obs.metrics import process_registry

        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"\xde\xad")
        report = run_doctor(store=store)
        assert not report.ok
        assert "PROBLEMS FOUND" in report.render()
        assert any("doctor-problems" in key
                   for key in process_registry().counters())

    def test_nested_default_layout_no_double_report(self, store,
                                                    result_root, trace_root):
        """Traces nest under the store root; their temp files must be
        attributed to the trace audit only."""
        fanout = next(trace_root.glob("??/*.bin")).parent
        (fanout / "leftover.tmp").write_bytes(b"x")
        report = run_doctor(store=store)
        failing = [check.name for check in report.checks if not check.ok]
        assert failing == [f"trace store {store.url()}: orphaned temp files"]


class TestPrune:
    """--prune-older-than: manifest-logged GC that never touches quarantine."""

    def _age(self, path, days):
        import os
        import time

        old = time.time() - days * 86400
        os.utime(path, (old, old))

    def _prune(self, store):
        return prune_store(store, "results", ".json", 7.0, "result store")

    def test_old_entry_evicted_and_manifest_logged(self, store, result_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=10)
        assert self._prune(store).ok
        assert not blob.exists()
        (entry,) = store.gc_manifest("results")
        assert entry["file"] == f"{blob.parent.name}/{blob.name}"
        assert entry["age_days"] > 7
        # The emptied fan-out directory is gone too.
        assert not blob.parent.exists()

    def test_fresh_entry_kept(self, store, result_root):
        blob = next(result_root.glob("??/*.json"))
        assert self._prune(store).ok
        assert blob.exists()
        assert store.gc_manifest("results") == []

    def test_quarantine_never_pruned(self, store, result_root):
        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"junk")
        quarantined = quarantine_file(result_root, blob, "test damage")
        self._age(quarantined, days=100)
        self._prune(store)
        assert quarantined.exists()

    def test_absent_cache_is_fine(self, tmp_path):
        assert self._prune(FsStore(tmp_path / "nowhere")).ok

    def test_run_doctor_prunes_then_audits_clean(self, store, result_root,
                                                 trace_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=30)
        report = run_doctor(store=store, prune_older_than_days=7.0)
        assert report.ok
        assert not blob.exists()
        rendered = report.render()
        assert "GC (older than 7 day(s))" in rendered
        assert "1 entr(ies) evicted" in rendered

    def test_run_doctor_without_flag_never_prunes(self, store, result_root,
                                                  trace_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=3650)
        report = run_doctor(store=store)
        assert report.ok
        assert blob.exists()
        assert "GC" not in report.render()

    def test_gc_manifest_never_audited_as_orphan(self, store, result_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=10)
        self._prune(store)
        assert (result_root / "GC_MANIFEST.jsonl").exists()
        assert verdict(check_result_store(store))
