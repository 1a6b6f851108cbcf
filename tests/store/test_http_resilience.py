"""HttpStore hardening: timeouts, retries, the circuit breaker.

The fast paths run against nothing at all (timeout precedence is pure
parsing; the breaker unit-tests its own state machine); the end-to-end
paths run against a live service with the network fault sites armed, so
the retry/recovery counters are earned on real round trips.
"""

import threading
import time

import pytest

from repro.experiments._engine import ExperimentEngine, ResultCache
from repro.obs.metrics import process_registry, reset_process_registry
from repro.resilience.faults import InjectedStoreFault, reset_injector
from repro.resilience.log import clear_events, recent_events
from repro.resilience.retry import RetryPolicy
from repro.service import SweepService, make_server
from repro.store import FsStore, HttpStore, StoreError, StoreUnavailableError
from repro.store.http import _Breaker, default_store_timeout

DIGEST = "ab" + "0" * 62
KEY = f"results/{DIGEST}.json"

#: Nothing listens here (port 9 is discard; nobody binds it in tests).
DEAD_URL = "http://127.0.0.1:9"


@pytest.fixture(autouse=True)
def _cold_state(monkeypatch):
    """No armed faults, fresh counters/events, before and after."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_DIR", raising=False)
    reset_injector()
    reset_process_registry()
    clear_events()
    yield
    reset_injector()
    reset_process_registry()
    clear_events()


@pytest.fixture()
def live(tmp_path):
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
        yield url, service
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def fast_store(url, retries=0, threshold=0, cooldown=60.0):
    """A store with no backoff sleeps and a configurable breaker."""
    return HttpStore(url, timeout_s=5.0,
                     retry=RetryPolicy(max_retries=retries,
                                       backoff_base_s=0.0),
                     breaker_threshold=threshold,
                     breaker_cooldown_s=cooldown)


class TestTimeoutPrecedence:
    def test_default_is_60s(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_TIMEOUT", raising=False)
        assert HttpStore(DEAD_URL).timeout_s == 60.0

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TIMEOUT", "7.5")
        assert default_store_timeout() == 7.5
        assert HttpStore(DEAD_URL).timeout_s == 7.5

    def test_url_query_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TIMEOUT", "7.5")
        assert HttpStore(DEAD_URL + "?timeout=3").timeout_s == 3.0

    def test_argument_beats_url_query(self):
        store = HttpStore(DEAD_URL + "?timeout=3", timeout_s=1.5)
        assert store.timeout_s == 1.5

    def test_bad_env_value_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_TIMEOUT", "soon")
        assert HttpStore(DEAD_URL).timeout_s == 60.0

    def test_unknown_url_param_rejected(self):
        with pytest.raises(StoreError, match="unknown store URL parameter"):
            HttpStore(DEAD_URL + "?retries=9")

    def test_bad_timeout_value_rejected(self):
        with pytest.raises(StoreError, match="timeout"):
            HttpStore(DEAD_URL + "?timeout=fast")

    def test_url_roundtrips_timeout(self):
        store = HttpStore(DEAD_URL + "?timeout=3")
        assert store.url() == DEAD_URL + "?timeout=3"
        assert HttpStore(store.url()).timeout_s == 3.0
        assert HttpStore(DEAD_URL).url() == DEAD_URL


class TestRetries:
    def test_injected_get_fault_recovers(self, live, monkeypatch):
        url, _ = live
        store = fast_store(url, retries=2)
        store.put(KEY, b'{"x": 1}')
        monkeypatch.setenv("REPRO_FAULTS", "store-get-error:n=1")
        reset_injector()
        assert store.get(KEY) == b'{"x": 1}'  # survived the flap
        counters = process_registry().counters()
        assert counters["repro_store_retry_total{op=get,outcome=retried}"] == 1
        assert counters[
            "repro_store_retry_total{op=get,outcome=recovered}"] == 1

    def test_404_is_an_answer_not_weather(self, live):
        url, _ = live
        store = fast_store(url, retries=3)
        assert store.get(KEY) is None
        assert store.stat(KEY) is None
        assert store.delete(KEY) is False
        counters = process_registry().counters()
        assert not any("outcome=retried" in key for key in counters)

    def test_exhausted_raises_last_error(self):
        store = fast_store(DEAD_URL, retries=1)
        with pytest.raises(OSError):
            store.get(KEY)
        counters = process_registry().counters()
        assert counters["repro_store_retry_total{op=get,outcome=retried}"] == 1
        assert counters[
            "repro_store_retry_total{op=get,outcome=exhausted}"] == 1

    def test_server_side_sites_are_wired(self, live, monkeypatch):
        _, service = live
        monkeypatch.setenv("REPRO_FAULTS", "store-get-error:n=1")
        reset_injector()
        with pytest.raises(InjectedStoreFault):
            service.blob_get(KEY)


class TestBreaker:
    def test_state_machine(self):
        breaker = _Breaker("http://x", threshold=2, cooldown_s=0.05)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == _Breaker.CLOSED  # one failure: not yet
        breaker.record_failure()
        assert breaker.state == _Breaker.OPEN and breaker.trips == 1
        assert not breaker.allow()  # cooling
        time.sleep(0.06)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == _Breaker.HALF_OPEN
        assert not breaker.allow()  # only one probe per cooldown
        breaker.record_failure()  # probe failed: re-open
        assert breaker.state == _Breaker.OPEN and breaker.trips == 2
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == _Breaker.CLOSED and breaker.failures == 0
        counters = process_registry().counters()
        assert counters["repro_store_breaker_trips_total"] == 2
        assert counters["repro_store_degraded_seconds_total"] > 0
        events = [event["event"] for event in recent_events()]
        assert events.count("store-degraded") == 2
        assert events.count("store-recovered") == 1

    def test_threshold_zero_disables(self):
        breaker = _Breaker("http://x", threshold=0, cooldown_s=0.01)
        for _ in range(10):
            breaker.record_failure()
            assert breaker.allow() and breaker.state == _Breaker.CLOSED

    def test_trip_then_fail_fast(self):
        store = fast_store(DEAD_URL, retries=0, threshold=2, cooldown=60.0)
        for _ in range(2):
            with pytest.raises(OSError):
                store.get(KEY)
        assert store.degraded
        time.sleep(0.01)
        with pytest.raises(StoreUnavailableError):
            store.get(KEY)  # no I/O burned: the breaker answered
        assert isinstance(StoreUnavailableError("x"), StoreError)
        counters = process_registry().counters()
        assert counters[
            "repro_store_retry_total{op=get,outcome=fast-fail}"] == 1
        assert counters["repro_store_degraded_seconds_total"] > 0

    def test_half_open_probe_recovers_end_to_end(self, live, monkeypatch):
        url, _ = live
        store = fast_store(url, retries=0, threshold=1, cooldown=0.05)
        store.put(KEY, b'{"x": 1}')
        monkeypatch.setenv("REPRO_FAULTS", "store-conn-refused:n=1")
        reset_injector()
        with pytest.raises(OSError):
            store.get(KEY)  # injected refusal trips the breaker
        assert store.degraded
        time.sleep(0.06)  # cooldown elapses; the probe is admitted
        assert store.get(KEY) == b'{"x": 1}'
        assert not store.degraded
        events = [event["event"] for event in recent_events()]
        assert "store-degraded" in events and "store-recovered" in events

    def test_probe_reports_unreachable(self):
        store = HttpStore(DEAD_URL, timeout_s=0.5)
        ok, detail = store.probe()
        assert not ok and detail

    def test_probe_reports_version(self, live):
        url, _ = live
        ok, detail = HttpStore(url, timeout_s=5.0).probe()
        assert ok and "reachable" in detail
