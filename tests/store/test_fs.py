"""FsStore: the BlobStore contract over the historical cache layout."""

import json

import pytest

from repro.store import (
    NAMESPACE_RESULTS,
    NAMESPACE_TRACES,
    BlobStat,
    FsStore,
    StoreError,
    split_key,
    validate_key,
)

DIGEST = "ab" + "0" * 62


class TestKeys:
    def test_valid_keys_pass_through(self):
        key = f"results/{DIGEST}.json"
        assert validate_key(key) == key
        assert split_key(key) == ("results", f"{DIGEST}.json")

    @pytest.mark.parametrize("bad", [
        "",
        "results",
        "results/a/b",
        "../escape",
        "results/..",
        "results/.hidden",
        "results/has space",
        "/absolute/name",
        "results/",
        "results/sub\\name",
        None,
        42,
    ])
    def test_escaping_keys_rejected(self, bad):
        with pytest.raises(StoreError):
            validate_key(bad)


class TestRoundTrip:
    def test_put_get_stat_delete(self, tmp_path):
        store = FsStore(tmp_path)
        key = f"results/{DIGEST}.json"
        assert store.get(key) is None
        assert store.stat(key) is None
        store.put(key, b'{"x": 1}')
        assert store.get(key) == b'{"x": 1}'
        stat = store.stat(key)
        assert isinstance(stat, BlobStat) and stat.size == 8
        assert store.delete(key) is True
        assert store.get(key) is None
        assert store.delete(key) is False

    def test_put_accepts_text(self, tmp_path):
        store = FsStore(tmp_path)
        store.put(f"results/{DIGEST}.json", '{"y": 2}')
        assert store.get(f"results/{DIGEST}.json") == b'{"y": 2}'

    def test_put_blob_streams_writer(self, tmp_path):
        store = FsStore(tmp_path)
        key = f"traces/{DIGEST}.bin"
        store.put_blob(key, lambda fh: fh.write(b"\x00\x01\x02"))
        assert store.get(key) == b"\x00\x01\x02"

    def test_put_overwrites_atomically(self, tmp_path):
        store = FsStore(tmp_path)
        key = f"results/{DIGEST}.json"
        store.put(key, b"old")
        store.put(key, b"new")
        assert store.get(key) == b"new"

    def test_delete_prunes_empty_fanout_dir(self, tmp_path):
        store = FsStore(tmp_path)
        key = f"results/{DIGEST}.json"
        store.put(key, b"x")
        fanout = store.local_path(key).parent
        assert fanout.is_dir()
        store.delete(key)
        assert not fanout.exists()


class TestLayoutBitCompat:
    """The store serves and extends the pre-store cache trees unchanged:
    results fan out under the root, traces under ``<root>/traces``."""

    def test_result_blob_lands_in_historical_location(self, tmp_path):
        store = FsStore(tmp_path)
        store.put(f"results/{DIGEST}.json", b"{}")
        assert (tmp_path / DIGEST[:2] / f"{DIGEST}.json").is_file()

    def test_trace_blob_lands_under_trace_root(self, tmp_path):
        store = FsStore(tmp_path)
        store.put(f"traces/{DIGEST}.bin", b"T")
        expected = tmp_path / "traces" / DIGEST[:2] / f"{DIGEST}.bin"
        assert expected.is_file()

    def test_pre_store_tree_is_served_verbatim(self, tmp_path):
        # A tree written by the pre-store cache code: fan-out by the
        # first two digest hex chars, traces/ nested under the root.
        blob = tmp_path / DIGEST[:2] / f"{DIGEST}.json"
        blob.parent.mkdir(parents=True)
        blob.write_bytes(b'{"legacy": true}')
        trace = tmp_path / "traces" / "cd" / ("cd" + "0" * 62 + ".bin")
        trace.parent.mkdir(parents=True)
        trace.write_bytes(b"TRACE")
        store = FsStore(tmp_path)
        assert store.get(f"results/{DIGEST}.json") == b'{"legacy": true}'
        assert store.get("traces/cd" + "0" * 62 + ".bin") == b"TRACE"
        assert store.list() == [f"results/{DIGEST}.json",
                                "traces/cd" + "0" * 62 + ".bin"]


class TestList:
    def test_prefix_filtering(self, tmp_path):
        store = FsStore(tmp_path)
        store.put(f"results/{DIGEST}.json", b"{}")
        store.put(f"traces/{DIGEST}.bin", b"T")
        assert store.list("results/") == [f"results/{DIGEST}.json"]
        assert store.list("traces/") == [f"traces/{DIGEST}.bin"]
        assert store.list(f"results/{DIGEST[:2]}") == \
            [f"results/{DIGEST}.json"]
        assert len(store.list()) == 2

    def test_tmp_and_quarantine_never_listed(self, tmp_path):
        store = FsStore(tmp_path)
        key = f"results/{DIGEST}.json"
        store.put(key, b"{}")
        (store.local_path(key).parent / "orphan.tmp").write_bytes(b"x")
        store.quarantine(key, "test")
        assert store.list() == []

    def test_nested_trace_root_not_listed_as_results(self, tmp_path):
        store = FsStore(tmp_path)
        store.put(f"traces/{DIGEST}.bin", b"T")
        assert store.list("results/") == []

    def test_only_fanout_dirs_hold_blobs(self, tmp_path):
        store = FsStore(tmp_path)
        for name in ("service", "AB", "abc", "spool"):
            (tmp_path / name).mkdir()
            (tmp_path / name / f"{DIGEST}.json").write_bytes(b"{}")
        assert store.list() == []
        assert store.structural_check(NAMESPACE_RESULTS) == []


class TestQuarantine:
    def test_quarantine_preserves_evidence(self, tmp_path):
        store = FsStore(tmp_path)
        key = f"results/{DIGEST}.json"
        store.put(key, b"CORRUPT")
        moved = store.quarantine(key, "does not parse")
        assert moved is not None
        assert store.get(key) is None
        inventory = store.quarantine_inventory(NAMESPACE_RESULTS)
        assert moved in inventory["files"]
        assert any("does not parse" in entry.get("reason", "")
                   for entry in inventory["manifest"])

    def test_quarantine_absent_blob_is_none(self, tmp_path):
        store = FsStore(tmp_path)
        assert store.quarantine(f"results/{DIGEST}.json", "gone") is None


class TestOrphans:
    def test_orphans_found_and_removed(self, tmp_path):
        store = FsStore(tmp_path)
        store.put(f"results/{DIGEST}.json", b"{}")
        orphan = tmp_path / DIGEST[:2] / "half-written.tmp"
        orphan.write_bytes(b"partial")
        found = store.orphans(NAMESPACE_RESULTS)
        assert found == [f"{DIGEST[:2]}/half-written.tmp"]
        assert store.remove_orphan(NAMESPACE_RESULTS, found[0]) is True
        assert not orphan.exists()
        assert store.orphans(NAMESPACE_RESULTS) == []

    def test_remove_orphan_refuses_traversal_and_non_tmp(self, tmp_path):
        store = FsStore(tmp_path)
        store.put(f"results/{DIGEST}.json", b"{}")
        assert store.remove_orphan(
            NAMESPACE_RESULTS, f"{DIGEST[:2]}/{DIGEST}.json") is False
        assert store.remove_orphan(
            NAMESPACE_RESULTS, "../../etc/passwd.tmp") is False
        assert store.get(f"results/{DIGEST}.json") is not None


class TestStructural:
    def test_misfiled_blob_detected_and_fixed(self, tmp_path):
        store = FsStore(tmp_path)
        misfiled = tmp_path / "cd" / f"{DIGEST}.json"
        misfiled.parent.mkdir(parents=True)
        misfiled.write_bytes(b"{}")
        assert store.list() == []  # no key addresses it
        problems = store.structural_check(NAMESPACE_RESULTS)
        assert len(problems) == 1 and DIGEST in problems[0]
        fixed = store.structural_check(NAMESPACE_RESULTS, fix=True)
        assert "quarantined" in fixed[0]
        assert not misfiled.exists()
        assert store.structural_check(NAMESPACE_RESULTS) == []


class TestGc:
    def test_gc_log_manifest_round_trip(self, tmp_path):
        store = FsStore(tmp_path)
        entry = {"file": f"{DIGEST[:2]}/{DIGEST}.json", "reason": "pruned"}
        store.gc_log(NAMESPACE_RESULTS, entry)
        assert store.gc_manifest(NAMESPACE_RESULTS) == [entry]
        assert store.gc_manifest(NAMESPACE_TRACES) == []

    def test_torn_manifest_tail_tolerated(self, tmp_path):
        store = FsStore(tmp_path)
        store.gc_log(NAMESPACE_RESULTS, {"file": "a"})
        manifest = tmp_path / "GC_MANIFEST.jsonl"
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write('{"file": "torn')  # crash mid-append
        assert store.gc_manifest(NAMESPACE_RESULTS) == [{"file": "a"}]


class TestCacheShims:
    """ResultCache/TraceCache take a store, never a path."""

    def test_root_and_store_together_rejected(self, tmp_path):
        from repro.experiments._engine import ResultCache
        from repro.trace._cache import TraceCache

        for cls in (ResultCache, TraceCache):
            with pytest.raises(TypeError):
                cls(tmp_path, store=FsStore(tmp_path))
            with pytest.raises(TypeError):
                cls(tmp_path)
            with pytest.raises(TypeError):
                cls(root=tmp_path)

    def test_shimmed_cache_reads_store_written_blob(self, tmp_path):
        """A cache over a store addresses the store's bytes."""
        from repro.common.params import ProtocolKind
        from repro.experiments._engine import ResultCache, RunSpec

        spec = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
                       cores=2, per_core=40, seed=0)
        store = FsStore(tmp_path / "cache")
        cache = ResultCache(store=store, enabled=True)
        assert cache.key_for(spec) == f"results/{spec.digest()}.json"
        assert cache.path_for(spec) == store.local_path(cache.key_for(spec))
