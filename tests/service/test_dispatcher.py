"""Dispatcher thread and the per-job progress journal."""

import time

from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.store import FsStore
from repro.service.dispatcher import Dispatcher, JobJournal
from repro.service.app import SweepService
from repro.service.jobs import JobState

SPECS = [RunSpec(workload="histogram", protocol=protocol,
                 cores=2, per_core=80, seed=0)
         for protocol in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_MW)]


def wait_until(predicate, timeout_s=30.0, poll_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


class TestJobJournal:
    def test_callback_fires_per_fresh_completion(self, tmp_path):
        seen = []
        journal = JobJournal(tmp_path / "job.jsonl", on_record=seen.append)
        assert journal.record("digest-a")
        assert journal.record("digest-b")
        assert not journal.record("digest-a")  # duplicate: no callback
        journal.close()
        assert seen == ["digest-a", "digest-b"]

    def test_callback_silent_during_replay(self, tmp_path):
        first = JobJournal(tmp_path / "job.jsonl")
        first.record("digest-a")
        first.record("digest-b")
        first.close()
        seen = []
        resumed = JobJournal(tmp_path / "job.jsonl", on_record=seen.append)
        assert seen == []  # replayed completions are not "fresh"
        assert resumed.record("digest-c")
        resumed.close()
        assert seen == ["digest-c"]


class _StubService:
    """process_next that raises once, then reports an idle queue."""

    def __init__(self):
        self.calls = 0

    def process_next(self):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("boom")
        return False


class TestDispatcher:
    def test_survives_a_process_next_exception(self):
        stub = _StubService()
        dispatcher = Dispatcher(stub, idle_poll_s=0.01)
        dispatcher.start()
        try:
            assert wait_until(lambda: stub.calls >= 3)
            assert dispatcher.running
        finally:
            dispatcher.stop()
        assert not dispatcher.running

    def test_start_is_idempotent(self):
        stub = _StubService()
        dispatcher = Dispatcher(stub, idle_poll_s=0.01)
        dispatcher.start()
        thread = dispatcher._thread
        dispatcher.start()
        assert dispatcher._thread is thread
        dispatcher.stop()

    def test_drains_submissions_in_background(self, tmp_path):
        engine = ExperimentEngine(
            jobs=1, cache=ResultCache(store=FsStore(tmp_path / "cache"),
                                      enabled=True))
        with SweepService(state_dir=tmp_path / "state", engine=engine,
                          idle_poll_s=0.05) as service:
            submitted = service.submit([s.payload() for s in SPECS])
            assert submitted["state"] == "queued"
            job = service.queue.get(submitted["job_id"])
            assert wait_until(lambda: job.state is JobState.DONE,
                              timeout_s=120.0)
            assert job.completed == len(SPECS)
            assert job.executed == len(SPECS)
            assert service.result_path(job).exists()
