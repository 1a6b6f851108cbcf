"""End-to-end JSON-RPC over HTTP: the wire protocol and the full loop.

A real ``ThreadingHTTPServer`` on an ephemeral port, a real
``ServiceClient`` over ``urllib`` — the same path ``repro serve`` /
``repro submit`` take, minus the argv parsing.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro._version import package_version
from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.store import FsStore
from repro.service import (
    METHODS,
    ServiceClient,
    ServiceError,
    SweepService,
    make_server,
)
from repro.service.rpc import (
    INVALID_PARAMS,
    INVALID_REQUEST,
    INVALID_STATE,
    METHOD_NOT_FOUND,
    NOT_FOUND,
    PARSE_ERROR,
)

SPECS = [RunSpec(workload="histogram", protocol=protocol,
                 cores=2, per_core=80, seed=0)
         for protocol in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_MW)]


@pytest.fixture()
def live(tmp_path):
    """A running service + HTTP server + client, all torn down after."""
    engine = ExperimentEngine(
        jobs=1, cache=ResultCache(store=FsStore(tmp_path / "cache"),
                                  enabled=True))
    service = SweepService(state_dir=tmp_path / "state", engine=engine,
                           idle_poll_s=0.05).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield service, ServiceClient(url, timeout_s=30.0), url
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def rpc(url, body: bytes):
    """One raw POST; returns the parsed JSON response."""
    request = urllib.request.Request(
        url + "/", data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30.0) as resp:
        return json.loads(resp.read().decode("utf-8"))


class TestEndToEnd:
    def test_health_reports_version(self, live):
        _, client, _ = live
        health = client.health()
        assert health["ok"] is True
        assert health["version"] == package_version()
        assert health["dispatcher"] is True

    def test_sweep_matches_direct_api(self, live, tmp_path):
        _, client, _ = live
        remote = client.sweep(SPECS, timeout_s=120.0)
        with ExperimentEngine(jobs=1, cache=ResultCache(store=FsStore(
                tmp_path / "ref"), enabled=True)) as reference_engine:
            reference = reference_engine.run_many(SPECS)
        assert ({s.digest(): r.to_dict() for s, r in remote.items()} ==
                {s.digest(): r.to_dict() for s, r in reference.items()})

    def test_second_submission_is_a_pure_cache_hit(self, live):
        service, client, _ = live
        first = client.submit_sweep(SPECS)
        client.wait(first["job_id"], timeout_s=120.0)
        executed_after_first = service.engine.executed
        # Same sweep, reversed spec order: dedups onto the done job.
        again = client.submit_sweep(list(reversed(SPECS)))
        assert again["job_id"] == first["job_id"]
        assert again["deduped"] is True
        assert again["cached"] is True
        assert service.engine.executed == executed_after_first
        counters = client.metrics()["counters"]
        hits = [v for k, v in counters.items()
                if k.startswith("repro_service_cache_hits_total")]
        assert sum(hits) >= len(SPECS)

    def test_dict_specs_accepted(self, live):
        _, client, _ = live
        submitted = client.submit_sweep(
            [{"workload": "histogram", "protocol": "mesi",
              "cores": 2, "per_core": 80}])
        client.wait(submitted["job_id"], timeout_s=120.0)
        results = client.results(submitted["job_id"])
        (spec, result), = results.items()
        assert spec.workload == "histogram"
        assert result.traffic_bytes() > 0

    def test_cancel_then_status(self, live):
        service, client, _ = live
        service.dispatcher.stop()  # keep the job queued
        submitted = client.submit_sweep(SPECS)
        cancelled = client.cancel(submitted["job_id"])
        assert cancelled["state"] == "cancelled"
        assert client.job_status(submitted["job_id"])["state"] == "cancelled"

    def test_list_jobs(self, live):
        service, client, _ = live
        service.dispatcher.stop()
        submitted = client.submit_sweep(SPECS)
        jobs = client.list_jobs()
        assert [job["id"] for job in jobs] == [submitted["job_id"]]
        assert client.list_jobs(state="done") == []


class TestErrorPaths:
    def test_unknown_method(self, live):
        _, client, _ = live
        with pytest.raises(ServiceError) as exc:
            client.call("explode")
        assert exc.value.code == METHOD_NOT_FOUND

    def test_missing_required_param(self, live):
        _, client, _ = live
        with pytest.raises(ServiceError) as exc:
            client.call("job_status")
        assert exc.value.code == INVALID_PARAMS

    def test_unknown_job(self, live):
        _, client, _ = live
        with pytest.raises(ServiceError) as exc:
            client.job_status("0000000000000000")
        assert exc.value.code == NOT_FOUND

    def test_result_of_unfinished_job_is_invalid_state(self, live):
        service, client, _ = live
        service.dispatcher.stop()
        submitted = client.submit_sweep(SPECS)
        with pytest.raises(ServiceError) as exc:
            client.job_result(submitted["job_id"])
        assert exc.value.code == INVALID_STATE

    def test_bad_specs_rejected_eagerly(self, live):
        _, client, _ = live
        for specs in ([],
                      [{"workload": "doom"}],
                      [{"workload": "histogram", "protocol": "moesi"}],
                      [{"workload": "histogram", "flux_capacitor": 1}]):
            with pytest.raises(ServiceError) as exc:
                client.submit_sweep(specs)
            assert exc.value.code == INVALID_PARAMS

    def test_duplicate_specs_rejected(self, live):
        _, client, _ = live
        with pytest.raises(ServiceError, match="duplicates") as exc:
            client.submit_sweep([SPECS[0], SPECS[0]])
        assert exc.value.code == INVALID_PARAMS

    def test_parse_error(self, live):
        _, _, url = live
        response = rpc(url, b"this is not json {")
        assert response["error"]["code"] == PARSE_ERROR

    def test_batch_requests_rejected(self, live):
        _, _, url = live
        response = rpc(url, json.dumps(
            [{"jsonrpc": "2.0", "id": 1, "method": "health"}]).encode())
        assert response["error"]["code"] == INVALID_REQUEST

    def test_non_string_method(self, live):
        _, _, url = live
        response = rpc(url, json.dumps(
            {"jsonrpc": "2.0", "id": 1, "method": 7}).encode())
        assert response["error"]["code"] == INVALID_REQUEST

    def test_params_must_be_object(self, live):
        _, _, url = live
        response = rpc(url, json.dumps(
            {"jsonrpc": "2.0", "id": 1, "method": "health",
             "params": [1, 2]}).encode())
        assert response["error"]["code"] == INVALID_PARAMS


class TestGetMirrors:
    def test_get_health(self, live):
        _, _, url = live
        with urllib.request.urlopen(url + "/health", timeout=30.0) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
        assert payload["ok"] is True
        assert payload["version"] == package_version()

    def test_get_metrics(self, live):
        _, _, url = live
        with urllib.request.urlopen(url + "/metrics", timeout=30.0) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
        assert "counters" in payload
        # The observability tax is itself observable: fold bookkeeping
        # and the overhead ratio (fold seconds / uptime) are injected as
        # synthetic counters on every dump.
        counters = payload["counters"]
        assert counters["repro_obs_fold_cycles_total"] >= 0
        assert counters["repro_obs_fold_seconds_total"] >= 0
        assert 0 <= counters["repro_obs_overhead_ratio"] < 1

    def test_get_unknown_page_404(self, live):
        _, _, url = live
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(url + "/nope", timeout=30.0)
        assert exc.value.code == 404


class TestRegistry:
    def test_every_advertised_method_is_registered(self):
        assert set(METHODS) == {"submit_sweep", "job_status", "job_result",
                                "cancel", "list_jobs", "health", "metrics",
                                "store_list", "store_quarantine",
                                "store_quarantine_inventory", "store_orphans",
                                "store_remove_orphan",
                                "store_structural_check", "store_gc_log",
                                "store_gc_manifest"}
