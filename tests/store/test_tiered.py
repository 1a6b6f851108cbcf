"""TieredStore: local-first reads, write-through + spool, budget eviction.

The remote here is an ``FsStore`` wrapped so the tests can yank the
network cable (``remote.down = True``) and count round trips — the tier
must behave identically over any :class:`~repro.store.base.BlobStore`.
"""

import collections
import json
import os
import time

import pytest

from repro.obs.metrics import process_registry, reset_process_registry
from repro.resilience.faults import InjectedStoreFault
from repro.store import FsStore, StoreError, TieredStore, parse_store_url
from repro.store.tiered import TieredStore as TieredStoreDirect

DIGEST = "ab" + "0" * 62
KEY = f"results/{DIGEST}.json"


def key_for(index):
    return f"results/{index:02x}" + "0" * 62 + ".json"


class FlakyRemote(FsStore):
    """An FsStore with a breakable network cable and an op counter."""

    def __init__(self, root):
        super().__init__(root)
        self.down = False
        self.fail_keys = set()  # puts of these keys always fail
        self.calls = collections.Counter()

    def _gate(self, op):
        self.calls[op] += 1
        if self.down:
            raise InjectedStoreFault(f"remote down ({op})")

    def get(self, key):
        self._gate("get")
        return super().get(key)

    def put(self, key, data):
        self._gate("put")
        if key in self.fail_keys:
            raise InjectedStoreFault(f"remote down (put {key})")
        super().put(key, data)

    def stat(self, key):
        self._gate("stat")
        return super().stat(key)

    def list(self, prefix=""):
        self._gate("list")
        return super().list(prefix)

    def delete(self, key):
        self._gate("delete")
        return super().delete(key)


@pytest.fixture(autouse=True)
def _cold_metrics():
    reset_process_registry()
    yield
    reset_process_registry()


@pytest.fixture()
def tier(tmp_path):
    remote = FlakyRemote(tmp_path / "remote")
    return remote, TieredStore(remote, tmp_path / "tier")


class TestUrlParsing:
    def test_tiered_over_file(self, tmp_path):
        url = f"tiered+file://{tmp_path}/r?local={tmp_path}/t"
        store = parse_store_url(url)
        assert isinstance(store, TieredStoreDirect)
        assert isinstance(store.remote, FsStore)
        assert store.budget_bytes is None
        # The rendered URL parses back to an equivalent tier.
        again = parse_store_url(store.url())
        assert again.url() == store.url()

    def test_tiered_over_http_with_timeout_and_budget(self, tmp_path):
        url = (f"tiered+http://127.0.0.1:9?timeout=0.25"
               f"&local={tmp_path}/t&budget=4096")
        store = parse_store_url(url)
        assert store.budget_bytes == 4096
        assert store.remote.timeout_s == 0.25
        assert store.local_dir == tmp_path / "t"
        again = parse_store_url(store.url())
        assert again.remote.timeout_s == 0.25
        assert again.budget_bytes == 4096

    def test_local_param_required(self):
        with pytest.raises(StoreError, match="local="):
            parse_store_url("tiered+http://127.0.0.1:9")

    def test_bad_budget_rejected(self, tmp_path):
        for bad in ("0", "-3", "many"):
            with pytest.raises(StoreError):
                parse_store_url(
                    f"tiered+http://h:1?local={tmp_path}&budget={bad}")

    def test_nested_tiers_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="nest"):
            parse_store_url(
                f"tiered+tiered+http://h:1?local={tmp_path}/a"
                f"&local={tmp_path}/b")


class TestWriteThrough:
    def test_put_lands_in_both_tiers(self, tier):
        remote, store = tier
        store.put(KEY, b'{"x": 1}')
        assert remote.get(KEY) == b'{"x": 1}'
        assert store.local.get(KEY) == b'{"x": 1}'
        assert store.spooled_keys() == []

    def test_reads_are_local_first(self, tier):
        remote, store = tier
        store.put(KEY, b"payload")
        remote.calls.clear()
        assert store.get(KEY) == b"payload"
        assert remote.calls["get"] == 0  # never touched the network
        counters = process_registry().counters()
        assert counters["repro_store_tier_hits_total{tier=local}"] >= 1

    def test_put_blob_and_text(self, tier):
        remote, store = tier
        store.put(KEY, '{"y": 2}')
        assert remote.get(KEY) == b'{"y": 2}'
        store.put_blob(f"traces/{DIGEST}.bin", lambda fh: fh.write(b"\x00\x01"))
        assert store.get(f"traces/{DIGEST}.bin") == b"\x00\x01"

    def test_delete_removes_both_tiers(self, tier):
        remote, store = tier
        store.put(KEY, b"gone")
        assert store.delete(KEY) is True
        assert store.get(KEY) is None
        assert remote.get(KEY) is None
        assert store.delete(KEY) is False


class TestReWarm:
    def test_get_rewarmes_local_tier(self, tier):
        remote, store = tier
        remote.put(KEY, b"remote-only")
        assert store.get(KEY) == b"remote-only"
        remote.calls.clear()
        assert store.get(KEY) == b"remote-only"  # now a local hit
        assert remote.calls["get"] == 0
        counters = process_registry().counters()
        assert counters["repro_store_tier_hits_total{tier=remote}"] == 1

    def test_local_path_rewarmes(self, tier):
        remote, store = tier
        trace_key = f"traces/{DIGEST}.bin"
        remote.put(trace_key, b"\x01\x02\x03")
        path = store.local_path(trace_key)
        assert path is not None and path.read_bytes() == b"\x01\x02\x03"
        # The local tier now owns a copy; mmap consumers stay local.
        remote.calls.clear()
        assert store.local_path(trace_key) == path
        assert remote.calls["get"] == 0

    def test_double_miss(self, tier):
        _, store = tier
        assert store.get(KEY) is None
        assert store.local_path(KEY) is None
        assert store.stat(KEY) is None
        counters = process_registry().counters()
        assert counters["repro_store_tier_misses_total"] >= 2

    def test_stat_and_list_union(self, tier):
        remote, store = tier
        store.put(key_for(1), b"a")
        remote.put(key_for(2), b"bb")
        assert store.stat(key_for(2)).size == 2
        assert store.list() == sorted([key_for(1), key_for(2)])
        remote.down = True
        # Degraded listing: the local tier's view (key 2 never re-warmed).
        assert store.list() == [key_for(1)]


class TestOutageSpool:
    def test_put_survives_remote_outage(self, tier):
        remote, store = tier
        remote.down = True
        store.put(KEY, b"spooled")
        assert store.get(KEY) == b"spooled"  # served by the local tier
        assert store.spooled_keys() == [KEY]
        counters = process_registry().counters()
        assert counters["repro_store_tier_spooled_total"] == 1
        # Marker content is self-describing for operators.
        marker = json.loads(
            (store._spool_dir / next(iter(
                p.name for p in store._spool_dir.iterdir()))).read_text())
        assert marker["key"] == KEY

    def test_flush_replays_on_reconnect(self, tier):
        remote, store = tier
        remote.down = True
        store.put(KEY, b"spooled")
        remote.down = False
        outcome = store.flush()
        assert outcome == {"flushed": 1, "remaining": 0}
        assert remote.get(KEY) == b"spooled"
        assert store.spooled_keys() == []
        counters = process_registry().counters()
        assert counters["repro_store_tier_flushed_total"] == 1

    def test_flush_stops_while_still_down(self, tier):
        remote, store = tier
        remote.down = True
        store.put(key_for(1), b"one")
        store.put(key_for(2), b"two")
        outcome = store.flush()
        assert outcome == {"flushed": 0, "remaining": 2}

    def test_next_op_drains_backlog(self, tier):
        remote, store = tier
        remote.down = True
        store.put(key_for(1), b"one")
        remote.down = False
        # Any later remote-facing op notices the backlog and replays it.
        store.get(key_for(9))
        assert store.spooled_keys() == []
        assert remote.get(key_for(1)) == b"one"

    def test_spool_survives_restart(self, tmp_path):
        remote = FlakyRemote(tmp_path / "remote")
        store = TieredStore(remote, tmp_path / "tier")
        remote.down = True
        store.put(KEY, b"persist")
        # A new process over the same tier dir sees the pending write.
        reborn = TieredStore(remote, tmp_path / "tier")
        assert reborn.spooled_keys() == [KEY]
        remote.down = False
        assert reborn.flush() == {"flushed": 1, "remaining": 0}
        assert remote.get(KEY) == b"persist"

    def test_probe_reports_spool_backlog(self, tier):
        remote, store = tier
        remote.down = True
        store.put(KEY, b"x")
        ok, detail = store.probe()
        assert ok  # FlakyRemote probe() is the FsStore default (local)
        assert "1 spooled write(s) pending" in detail


class TestQuarantine:
    def test_quarantine_is_local_only_and_heals(self, tier):
        remote, store = tier
        store.put(KEY, b"good bytes")
        assert store.quarantine(KEY, "checksum mismatch") is not None
        assert store.local.get(KEY) is None       # local copy retired
        assert remote.get(KEY) == b"good bytes"   # remote never judged
        assert store.get(KEY) == b"good bytes"    # re-warmed from remote
        assert store.local.get(KEY) == b"good bytes"
        inventory = store.quarantine_inventory("results")
        assert len(inventory["files"]) == 1

    def test_quarantine_unspools(self, tier):
        remote, store = tier
        remote.down = True
        store.put(KEY, b"bad bytes")
        store.quarantine(KEY, "corrupt")
        # A quarantined sole copy must not be replayed to the remote.
        assert store.spooled_keys() == []
        remote.down = False
        assert store.flush() == {"flushed": 0, "remaining": 0}
        assert remote.get(KEY) is None


class TestBudget:
    def test_lru_eviction_on_install(self, tmp_path):
        remote = FlakyRemote(tmp_path / "remote")
        store = TieredStore(remote, tmp_path / "tier", budget_bytes=250)
        base = time.time() - 1000
        for i in range(3):
            store.put(key_for(i), b"x" * 100)
            os.utime(store.local.local_path(key_for(i)),
                     (base + i, base + i))
        # The 4th install blows the budget; oldest locals go first.
        store.put(key_for(3), b"x" * 100)
        assert store.local.get(key_for(0)) is None
        assert store.local.get(key_for(1)) is None
        assert store.local.get(key_for(3)) == b"x" * 100
        # Evicted blobs still read through from the remote (write-through
        # landed them there before eviction ran).
        assert store.get(key_for(0)) == b"x" * 100
        counters = process_registry().counters()
        assert counters["repro_store_tier_evicted_total"] >= 2
        manifest = store.gc_manifest("results")
        assert all(entry["reason"] == "size-budget" for entry in manifest)
        assert len(manifest) >= 2

    def test_spooled_writes_never_evicted(self, tmp_path):
        remote = FlakyRemote(tmp_path / "remote")
        store = TieredStore(remote, tmp_path / "tier", budget_bytes=250)
        # The remote keeps rejecting this one key, so its spool marker
        # survives every later flush attempt — its sole copy stays local.
        remote.fail_keys.add(key_for(0))
        store.put(key_for(0), b"s" * 100)
        os.utime(store.local.local_path(key_for(0)),
                 (time.time() - 5000, time.time() - 5000))
        for i in range(1, 4):
            store.put(key_for(i), b"x" * 100)
        # key 0 is the oldest blob in the tier but its only copy lives
        # here — eviction must skip it no matter the pressure.
        assert store.local.get(key_for(0)) == b"s" * 100
        assert key_for(0) in store.spooled_keys()
        evicted = [key_for(i) for i in range(1, 4)
                   if store.local.get(key_for(i)) is None]
        assert evicted  # pressure was real: younger blobs made room
