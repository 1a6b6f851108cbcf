"""Store selection: URL parsing, configure_store, and get_store."""

import os
from pathlib import Path

import pytest

from repro.store import (
    FsStore,
    HttpStore,
    StoreError,
    configure_store,
    get_store,
)
from repro.store.config import parse_store_url, store_url


class TestParseStoreUrl:
    def test_file_url(self, tmp_path):
        store = parse_store_url(f"file://{tmp_path}")
        assert isinstance(store, FsStore) and store.root == tmp_path

    def test_bare_path(self, tmp_path):
        store = parse_store_url(str(tmp_path))
        assert isinstance(store, FsStore) and store.root == tmp_path

    def test_path_object(self, tmp_path):
        store = parse_store_url(tmp_path)
        assert isinstance(store, FsStore) and store.root == tmp_path

    def test_http_url(self):
        store = parse_store_url("http://cache-host:8673")
        assert isinstance(store, HttpStore)
        assert store.url() == "http://cache-host:8673"

    def test_trailing_slash_stripped(self):
        assert parse_store_url("http://h:1/").url() == "http://h:1"

    @pytest.mark.parametrize("bad", ["", "   ", "file://", "s3://bucket"])
    def test_rejects(self, bad):
        with pytest.raises(StoreError):
            parse_store_url(bad)

    def test_round_trips_through_url(self, tmp_path):
        store = parse_store_url(f"file://{tmp_path}")
        again = parse_store_url(store_url(store))
        assert isinstance(again, FsStore) and again.root == store.root


class TestConfigureStore:
    def test_configure_exports_env_and_pins_instance(self, tmp_path):
        store = configure_store(tmp_path)
        assert os.environ["REPRO_STORE"] == f"file://{tmp_path}"
        assert get_store() is store

    def test_env_change_invalidates_configured_store(self, tmp_path):
        configure_store(tmp_path / "a")
        os.environ["REPRO_STORE"] = f"file://{tmp_path / 'b'}"
        resolved = get_store()
        assert isinstance(resolved, FsStore)
        assert resolved.root == tmp_path / "b"

    def test_configure_none_reverts_to_environment(self, tmp_path,
                                                   monkeypatch):
        configure_store(tmp_path)
        assert configure_store(None) is None
        assert "REPRO_STORE" not in os.environ
        resolved = get_store()
        assert isinstance(resolved, FsStore)
        assert resolved.root == Path(os.environ["HOME"]) / ".cache" / "repro"

    def test_repro_store_env_alone_resolves(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", f"file://{tmp_path / 'env'}")
        resolved = get_store()
        assert isinstance(resolved, FsStore)
        assert resolved.root == tmp_path / "env"

    def test_bad_url_raises_store_error(self):
        with pytest.raises(StoreError):
            configure_store("gopher://nope")


class TestTraceTree:
    """A named store owns its trace tree: ``<root>/traces``, whatever the
    environment says, in this process and in a worker that rebuilds the
    store from its URL."""

    KEY = "traces/" + "ab" * 32 + ".bin"

    @pytest.fixture(autouse=True)
    def _stale_trace_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "stale"))

    def _expected(self, root):
        return root / "traces" / "ab" / ("ab" * 32 + ".bin")

    def test_configured_store_and_worker_view(self, tmp_path):
        named = tmp_path / "named"
        store = configure_store(named)
        assert store.local_path(self.KEY) == self._expected(named)
        worker = parse_store_url(store.url())
        assert worker.local_path(self.KEY) == self._expected(named)

    def test_tiered_local_tier_round_trips(self, tmp_path):
        store = configure_store(
            f"tiered+http://127.0.0.1:9?local={tmp_path / 'tier'}")
        local = tmp_path / "tier" / "cache"
        assert store.local.local_path(self.KEY) == self._expected(local)
        worker = parse_store_url(store.url())
        assert worker.local.local_path(self.KEY) == self._expected(local)

    def test_local_root_follows_store(self, tmp_path):
        from repro.store import local_root

        assert local_root(FsStore(tmp_path)) == tmp_path
        tiered = parse_store_url(
            f"tiered+http://127.0.0.1:9?local={tmp_path / 'tier'}")
        assert local_root(tiered) == tmp_path / "tier" / "cache"
        assert local_root(HttpStore("http://127.0.0.1:9")) == \
            Path(os.environ["HOME"]) / ".cache" / "repro"


class TestPublicSurface:
    def test_store_names_exported_from_api_and_repro(self):
        import repro
        import repro.api as api

        for name in ("BlobStore", "FsStore", "HttpStore", "StoreError",
                     "configure_store", "get_store", "LeaseBoard"):
            assert hasattr(api, name), name
            assert hasattr(repro, name), name
            assert name in api.__all__
            assert name in repro.__all__
