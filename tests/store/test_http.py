"""HttpStore against a live ``repro serve`` instance.

A real ``ThreadingHTTPServer`` on an ephemeral port: the raw blob data
plane (``GET/PUT/HEAD/DELETE /blob/<key>``) and the JSON-RPC management
plane (``store_*``), plus the shared-warm-cache behaviour the fleet
relies on (one worker's results are another worker's cache hits).
"""

import threading
import urllib.error
import urllib.request
import warnings

import pytest

from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.service import SweepService, make_server
from repro.store import FsStore, HttpStore, StoreError

DIGEST = "ab" + "0" * 62
KEY = f"results/{DIGEST}.json"


@pytest.fixture()
def live(tmp_path):
    """(backing FsStore, HttpStore client, service) around one server."""
    backing = FsStore(tmp_path / "cache")
    engine = ExperimentEngine(
        jobs=1, cache=ResultCache(store=backing, enabled=True))
    service = SweepService(state_dir=tmp_path / "state", engine=engine,
                           idle_poll_s=0.05).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield backing, HttpStore(url, timeout_s=30.0), service
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


class TestDataPlane:
    def test_put_get_stat_delete(self, live):
        backing, store, _ = live
        assert store.get(KEY) is None
        assert store.stat(KEY) is None
        store.put(KEY, b'{"x": 1}')
        # The bytes land in the service's backing tree, fetchable by all.
        assert backing.get(KEY) == b'{"x": 1}'
        assert store.get(KEY) == b'{"x": 1}'
        stat = store.stat(KEY)
        assert stat.size == 8 and stat.mtime > 0
        assert store.delete(KEY) is True
        assert store.get(KEY) is None
        assert store.delete(KEY) is False

    def test_put_accepts_text_and_writer(self, live):
        _, store, _ = live
        store.put(KEY, '{"y": 2}')
        assert store.get(KEY) == b'{"y": 2}'
        store.put_blob(f"traces/{DIGEST}.bin",
                       lambda fh: fh.write(b"\x00\x01"))
        assert store.get(f"traces/{DIGEST}.bin") == b"\x00\x01"

    def test_bad_key_rejected_client_side(self, live):
        _, store, _ = live
        with pytest.raises(StoreError):
            store.put("../../escape", b"x")

    def test_bad_key_rejected_server_side(self, live):
        _, store, _ = live
        request = urllib.request.Request(
            store.base + "/blob/results/..%2Fescape", data=b"x",
            method="PUT")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30.0)
        assert exc.value.code == 400

    def test_blob_metrics_counted(self, live):
        _, store, service = live
        store.get(KEY)                 # miss
        store.put(KEY, b"{}")          # put
        store.get(KEY)                 # hit
        store.delete(KEY)              # delete
        counters = service.metrics_dump()["counters"]
        totals = {name.split("{")[0]: value
                  for name, value in counters.items()}
        assert totals.get("repro_service_blob_misses_total", 0) >= 1
        assert totals.get("repro_service_blob_puts_total", 0) >= 1
        assert totals.get("repro_service_blob_hits_total", 0) >= 1
        assert totals.get("repro_service_blob_deletes_total", 0) >= 1


class TestManagementPlane:
    def test_list_quarantine_orphans_gc(self, live):
        backing, store, _ = live
        store.put(KEY, b"NOT JSON")
        assert store.list("results/") == [KEY]
        # Quarantine through the wire; evidence lands in the backing tree.
        moved = store.quarantine(KEY, "judged corrupt remotely")
        assert moved is not None
        assert store.list("results/") == []
        inventory = store.quarantine_inventory("results")
        assert moved in inventory["files"]
        assert any("judged corrupt remotely" in entry.get("reason", "")
                   for entry in inventory["manifest"])
        # Orphan surface: a half-written temp file in the backing tree.
        orphan = backing.root / DIGEST[:2] / "broken.tmp"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"partial")
        assert store.orphans("results") == [f"{DIGEST[:2]}/broken.tmp"]
        assert store.remove_orphan("results", f"{DIGEST[:2]}/broken.tmp")
        assert store.orphans("results") == []
        # Structural + GC surfaces round-trip.
        assert store.structural_check("results") == []
        store.gc_log("results", {"file": "a", "reason": "pruned"})
        assert store.gc_manifest("results") == \
            [{"file": "a", "reason": "pruned"}]

    def test_rpc_error_maps_to_store_error(self, live):
        _, store, _ = live
        with pytest.raises(StoreError):
            store._rpc("store_quarantine", key="not-a-key", reason="x")


class TestSharedWarmCache:
    def test_remote_store_serves_another_workers_results(self, live):
        _, store, _ = live
        spec = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
                       cores=2, per_core=60, seed=0)
        with ExperimentEngine(jobs=1, cache=ResultCache(
                store=store, enabled=True)) as first:
            result = first.run(spec)
            assert first.executed == 1
        # A different worker process (fresh engine, same URL): pure hit.
        with ExperimentEngine(jobs=1, cache=ResultCache(
                store=HttpStore(store.base), enabled=True)) as second:
            again = second.run(spec)
            assert second.executed == 0
            assert second.cache.hits == 1
        assert again.to_dict() == result.to_dict()

    def test_corrupt_remote_blob_quarantined_and_recomputed(self, live):
        _, store, _ = live
        spec = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
                       cores=2, per_core=60, seed=1)
        cache = ResultCache(store=store, enabled=True)
        store.put(cache.key_for(spec), b"NOT JSON")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ExperimentEngine(jobs=1, cache=cache) as engine:
                result = engine.run(spec)
        assert engine.executed == 1
        assert cache.quarantined == 1
        assert store.get(cache.key_for(spec)) not in (None, b"NOT JSON")
        assert result.traffic_bytes() > 0
