"""Crash-resume: SIGKILL a journaled sweep, resume, replay only the rest."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.store import FsStore
from repro.resilience.journal import SweepJournal

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SPECS = [RunSpec(workload="histogram", protocol=protocol, cores=2,
                 per_core=80, seed=seed)
         for seed in (0, 1, 2)
         for protocol in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_MW)]

CHILD = textwrap.dedent("""\
    import time
    from repro.common.params import ProtocolKind
    from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
    from repro.store import FsStore
    from repro.resilience.journal import SweepJournal

    specs = [RunSpec(workload="histogram", protocol=protocol, cores=2,
                     per_core=80, seed=seed)
             for seed in (0, 1, 2)
             for protocol in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_MW)]
    journal = SweepJournal({journal!r})
    engine = ExperimentEngine(jobs=1,
                              cache=ResultCache(store=FsStore({cache!r}),
                                                enabled=True),
                              journal=journal)
    for spec in specs:
        engine.run(spec)
        time.sleep(0.15)  # window for the parent's SIGKILL
    journal.close()
""")


@pytest.mark.slow
class TestSigkillResume:
    def test_resume_replays_only_uncompleted_specs(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        cache_root = tmp_path / "cache"
        script = CHILD.format(journal=str(journal_path),
                              cache=str(cache_root))
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        env.pop("REPRO_FAULTS", None)
        child = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            # Wait for some — but not all — completions, then SIGKILL.
            deadline = time.time() + 60
            while time.time() < deadline:
                lines = (journal_path.read_text().splitlines()
                         if journal_path.exists() else [])
                if len(lines) >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("child never journaled a completion")
            child.kill()  # SIGKILL: no flush, no atexit, no cleanup
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == -signal.SIGKILL

        # Resume: the journal survived with >= the observed completions.
        journal = SweepJournal(journal_path)
        resumed = journal.resumed
        assert 1 <= resumed < len(SPECS)
        with ExperimentEngine(jobs=1,
                              cache=ResultCache(store=FsStore(cache_root),
                                                enabled=True),
                              journal=journal) as engine:
            results = engine.run_many(SPECS)
            # Journaled completions come back as cache hits; at most the
            # one spec whose journal append the kill raced re-runs.
            assert engine.executed <= len(SPECS) - resumed
            assert engine.cache.hits >= resumed
        journal.close()
        assert len(results) == len(SPECS)
        assert journal.completed() == {spec.digest() for spec in SPECS}

        # The resumed matrix is identical to a from-scratch reference.
        with ExperimentEngine(jobs=1,
                              cache=ResultCache(
                                  store=FsStore(tmp_path / "ref"),
                                  enabled=True)) as engine:
            reference = engine.run_many(SPECS)
        assert ({s.digest(): r.to_dict() for s, r in results.items()} ==
                {s.digest(): r.to_dict() for s, r in reference.items()})
