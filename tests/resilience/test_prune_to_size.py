"""Size-budgeted eviction: ``--prune-to-size`` and the tier budget.

The three ordering guarantees (docs/resilience.md) each get a direct
proof here: manifest-logged before the delete, quarantine untouched,
spooled sole copies untouchable — on both FsStore and TieredStore.
"""

import os
import time
from pathlib import Path

import pytest

from repro.cli import _parse_size, main
from repro.resilience.doctor import prune_store_to_size, run_doctor
from repro.store import FsStore, TieredStore

NOW = time.time()


def key_for(index):
    return f"results/{index:02x}" + "0" * 62 + ".json"


def fill(store, count=4, size=100, spacing=1000.0):
    """``count`` blobs of ``size`` bytes, oldest first by mtime."""
    for i in range(count):
        store.put(key_for(i), b"x" * size)
        path = store.local_path(key_for(i))
        stamp = NOW - spacing * (count - i)
        os.utime(path, (stamp, stamp))
    return [key_for(i) for i in range(count)]


@pytest.fixture()
def store(tmp_path):
    return FsStore(tmp_path / "cache")


class TestParseSize:
    def test_suffixes(self):
        assert _parse_size("1024") == 1024
        assert _parse_size("1K") == 1000
        assert _parse_size("2m") == 2 * 10 ** 6
        assert _parse_size("0.5G") == 500 * 10 ** 6
        assert _parse_size("1T") == 10 ** 12

    def test_rejects_garbage(self):
        for bad in ("", "lots", "-5", "0", "5X"):
            with pytest.raises(ValueError):
                _parse_size(bad)


class TestLruOrder:
    def test_evicts_oldest_first(self, store):
        keys = fill(store, count=4, size=100)
        check = prune_store_to_size(store, 250, "t", now=NOW)
        assert check.ok
        assert check.evicted == 2 and check.freed_bytes == 200
        assert store.get(keys[0]) is None and store.get(keys[1]) is None
        assert store.get(keys[2]) is not None and store.get(keys[3]) is not None

    def test_under_budget_is_a_noop(self, store):
        keys = fill(store, count=2, size=100)
        check = prune_store_to_size(store, 10 ** 6, "t", now=NOW)
        assert check.ok and check.evicted == 0
        assert all(store.get(key) is not None for key in keys)
        assert store.gc_manifest("results") == []

    def test_budget_spans_namespaces(self, store):
        store.put("traces/" + "a" * 64 + ".bin", b"t" * 300)
        trace_path = store.local_path("traces/" + "a" * 64 + ".bin")
        os.utime(trace_path, (NOW - 9999, NOW - 9999))
        store.put(key_for(0), b"r" * 100)
        check = prune_store_to_size(store, 150, "t", now=NOW)
        assert check.ok and check.evicted == 1
        # The old trace went; its eviction is logged in *its* namespace.
        assert store.get("traces/" + "a" * 64 + ".bin") is None
        assert [e["reason"] for e in store.gc_manifest("traces")] == [
            "size-budget"]


class TestManifestFirst:
    def test_eviction_is_logged_with_provenance(self, store):
        keys = fill(store, count=3, size=100)
        prune_store_to_size(store, 150, "t", now=NOW)
        entries = store.gc_manifest("results")
        assert len(entries) == 2
        for entry in entries:
            assert entry["reason"] == "size-budget"
            assert entry["budget_bytes"] == 150
            assert entry["bytes"] == 100
            assert entry["pid"] == os.getpid()
            assert entry["age_days"] > 0
        logged = {entry["file"].split("/", 1)[1] for entry in entries}
        assert logged == {keys[0].split("/", 1)[1], keys[1].split("/", 1)[1]}

    def test_manifest_written_even_if_delete_fails(self, tmp_path):
        class StuckStore(FsStore):
            def delete(self, key):
                return False  # the blob refuses to die

        store = StuckStore(tmp_path / "cache")
        keys = fill(store, count=2, size=100)
        check = prune_store_to_size(store, 100, "t", now=NOW)
        # The intent was durably recorded before the delete was attempted.
        assert len(store.gc_manifest("results")) >= 1
        assert not check.ok  # and the failure is loud, not silent
        assert store.get(keys[0]) is not None


class TestQuarantineExempt:
    def test_quarantine_is_never_touched(self, store):
        fill(store, count=2, size=100)
        store.quarantine(key_for(0), "checksum mismatch")
        quarantined = store.quarantine_inventory("results")["files"]
        assert quarantined
        check = prune_store_to_size(store, 1, "t", now=NOW)
        # Budget pressure of 1 byte: every listed blob goes, but the
        # quarantine inventory is not a candidate and survives intact.
        assert store.quarantine_inventory("results")["files"] == quarantined
        assert check.evicted == 1  # only the one remaining listed blob


class TestSpoolExempt:
    def test_exempt_keys_survive_any_pressure(self, store):
        keys = fill(store, count=3, size=100)
        check = prune_store_to_size(store, 150, "t", now=NOW,
                                    exempt={keys[0]})
        assert keys[0].split("/", 1)[1] not in [
            entry["file"].split("/", 1)[1]
            for entry in store.gc_manifest("results")]
        assert store.get(keys[0]) is not None
        assert store.get(keys[1]) is None  # the next-oldest paid instead

    def test_unreachable_budget_fails_loud(self, store):
        keys = fill(store, count=2, size=100)
        check = prune_store_to_size(store, 50, "t", now=NOW,
                                    exempt=set(keys))
        assert not check.ok and check.evicted == 0
        assert any("budget not met" in line for line in check.details)

    def test_tiered_store_doctor_prune_spares_spool(self, tmp_path):
        remote = FsStore(tmp_path / "remote")
        tier = TieredStore(remote, tmp_path / "tier")
        fill(tier.local, count=3, size=100)
        # Fake an unflushed write: a marker claims the oldest key.
        tier._spool(key_for(0))
        report = run_doctor(store=tier, prune_to_size_bytes=150)
        prune = next(c for c in report.checks if "size budget" in c.name)
        assert prune.ok and "local tier" in prune.name
        assert tier.local.get(key_for(0)) is not None  # sole copy kept
        assert tier.local.get(key_for(1)) is None      # LRU paid instead
        # The audit's own store traffic then noticed the reachable remote
        # and drained the spool — the sole copy is replicated, never lost.
        assert remote.list() == [key_for(0)]
        # Evicted blobs were local-tier casualties only; the remote never
        # saw them and never saw a delete.
        assert remote.get(key_for(1)) is None


class TestDoctorEntryPoints:
    def test_run_doctor_path_based(self, tmp_path, monkeypatch):
        """Without ``store=`` the doctor prunes the store in effect."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "cache"))
        store = FsStore(tmp_path / "cache")
        fill(store, count=3, size=100)
        report = run_doctor(prune_to_size_bytes=150)
        prune = next(c for c in report.checks if "size budget" in c.name)
        assert prune.ok and prune.evicted == 2
        assert len(store.gc_manifest("results")) == 2

    def test_cli_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "cache"))
        store = FsStore(tmp_path / "cache")
        fill(store, count=3, size=100)
        rc = main(["doctor", "--prune-to-size", "150"])
        out = capsys.readouterr().out
        # rc is 1: the filler blobs flunk entry integrity (they are not
        # RunResults) — the budget pruning itself must still have run.
        assert rc == 1
        assert "size budget 150" in out
        assert "2 entr(ies) evicted" in out

    def test_cli_rejects_bad_size(self, tmp_path):
        with pytest.raises(SystemExit, match="--prune-to-size"):
            main(["doctor", "--prune-to-size", "plenty"])
