"""Store-suite isolation: no test leaks a configured store."""

import pytest

import repro.store.config as store_config


@pytest.fixture(autouse=True)
def _per_test_store(tmp_path, monkeypatch):
    """Each store test gets its own ``REPRO_STORE``, not the session one —
    a store test writing a garbage blob must not leak it into every later
    engine-backed test's cache.  The process-wide configured store is
    restored too."""
    saved_configured = store_config._CONFIGURED
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    yield
    store_config._CONFIGURED = saved_configured
