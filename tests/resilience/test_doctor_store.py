"""``repro doctor --store``: the audit through the BlobStore interface.

The same checks must produce the same verdicts on every backend, so each
scenario runs against the local :class:`FsStore` *and* against an
:class:`HttpStore` wrapping a live server over the same tree.
"""

import threading
import time

import pytest

from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.resilience.doctor import (
    check_result_store,
    check_trace_store,
    prune_store,
    run_doctor,
    run_store_doctor,
)
from repro.service import SweepService, make_server
from repro.store import FsStore, HttpStore
from repro.trace._cache import TraceCache

SPEC = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
               cores=2, per_core=60, seed=0)
RECIPE = dict(workload="histogram", cores=2, per_core=60, seed=0)


def verdict(checks):
    return all(check.ok for check in checks)


@pytest.fixture()
def backing(tmp_path):
    """One FsStore holding a real result blob and a real packed trace."""
    store = FsStore(tmp_path / "cache")
    with ExperimentEngine(jobs=1, cache=ResultCache(store=store,
                                                    enabled=True)) as engine:
        engine.run(SPEC)
    TraceCache(store=store, enabled=True).get_or_build(**RECIPE)
    return store


@pytest.fixture(params=["fs", "http"])
def store(request, backing):
    """The same tree, through each backend."""
    if request.param == "fs":
        yield backing
        return
    engine = ExperimentEngine(jobs=1, cache=ResultCache(store=backing,
                                                        enabled=True))
    service = SweepService(state_dir=backing.root.parent / "state",
                           engine=engine, idle_poll_s=0.05).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield HttpStore(f"http://127.0.0.1:{server.server_address[1]}",
                        timeout_s=30.0)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


class TestStoreAudit:
    def test_healthy_store_passes(self, store):
        assert verdict(check_result_store(store))
        assert verdict(check_trace_store(store))

    def test_corrupt_result_fails_then_fix_quarantines(self, store):
        key = store.list("results/")[0]
        store.put(key, b"NOT JSON")
        assert not verdict(check_result_store(store))
        assert verdict(check_trace_store(store))  # other namespace clean
        fixed = check_result_store(store, fix=True)
        assert verdict(fixed)
        assert store.list("results/") == []
        inventory = store.quarantine_inventory("results")
        assert len(inventory["files"]) == 1
        # A second audit sees the quarantine, not a problem.
        assert verdict(check_result_store(store))

    def test_corrupt_trace_fails_then_fix_quarantines(self, store):
        key = store.list("traces/")[0]
        store.put(key, b"\x00garbage")
        assert not verdict(check_trace_store(store))
        assert verdict(check_trace_store(store, fix=True))
        assert store.list("traces/") == []
        assert len(store.quarantine_inventory("traces")["files"]) == 1

    def test_orphan_flagged_and_fix_removes(self, store, backing):
        orphan = backing.root / "ab" / "half.tmp"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"partial")
        assert not verdict(check_result_store(store))
        assert verdict(check_result_store(store, fix=True))
        assert not orphan.exists()

    def test_prune_older_than(self, store, backing):
        key = store.list("results/")[0]
        path = backing.local_path(key)
        week_ago = time.time() - 7 * 86400
        import os

        os.utime(path, (week_ago, week_ago))
        check = prune_store(store, "results", ".json", 1.0,
                            f"result store {store.url()}")
        assert check.ok
        assert store.list("results/") == []
        manifest = store.gc_manifest("results")
        assert len(manifest) == 1
        assert manifest[0]["file"].endswith(".json")

    def test_run_store_doctor_full_report(self, store):
        report = run_store_doctor(store)
        assert report.ok
        text = report.render()
        assert "entry integrity" in text
        assert "packed-trace integrity" in text
        assert "all checks passed" in text

    def test_run_doctor_routes_to_store_path(self, store):
        report = run_doctor(store=store, prune_older_than_days=365.0)
        assert report.ok
        assert any("GC" in check.name for check in report.checks)

    def test_service_state_dir_under_root_is_not_audited(self, store,
                                                         backing):
        """``repro serve`` keeps its state under ``<root>/service``: its
        queue journal is no misfiled blob and its temp files are no
        cache orphans, so ``--fix`` must leave both in place."""
        state = backing.root / "service"
        state.mkdir()
        queue = state / "queue.jsonl"
        queue.write_text('{"id": "job-1"}\n')
        tmp = state / "x.tmp"
        tmp.write_bytes(b"in-flight")
        assert run_store_doctor(store).ok
        assert run_store_doctor(store, fix=True).ok
        assert queue.read_text() == '{"id": "job-1"}\n'
        assert tmp.exists()
        assert store.quarantine_inventory("results")["files"] == []


class TestDoctorCli:
    @pytest.fixture(autouse=True)
    def _restore_store(self, monkeypatch):
        # The CLI's configure_store exports REPRO_STORE process-wide —
        # undo that so later tests resolve their own stores.
        import os

        import repro.store.config as store_config

        monkeypatch.setenv("REPRO_STORE", os.environ["REPRO_STORE"])
        saved = store_config._CONFIGURED
        yield
        store_config._CONFIGURED = saved

    def test_doctor_store_flag(self, backing, capsys):
        from repro.cli import main

        assert main(["doctor", "--store", f"file://{backing.root}"]) == 0
        out = capsys.readouterr().out
        assert "entry integrity" in out

    def test_doctor_store_flag_finds_problems(self, backing, capsys):
        from repro.cli import main

        key = backing.list("results/")[0]
        backing.put(key, b"NOT JSON")
        assert main(["doctor", "--store", f"file://{backing.root}"]) == 1
        assert main(["doctor", "--store", f"file://{backing.root}",
                     "--fix"]) == 0

    def test_plain_doctor_fix_audits_repro_store(self, backing, capsys,
                                                 monkeypatch):
        """Without --store the doctor audits the store REPRO_STORE names,
        leaving a service state dir under its root untouched."""
        from repro.cli import main

        queue = backing.root / "service" / "queue.jsonl"
        queue.parent.mkdir()
        queue.write_text("{}\n")
        monkeypatch.setenv("REPRO_STORE", str(backing.root))
        assert main(["doctor", "--fix"]) == 0
        assert f"result store file://{backing.root}" in capsys.readouterr().out
        assert queue.exists()
