"""CLI surface: ``repro doctor``, ``repro chaos``, and --journal/--resume."""

import json

import pytest

from repro.cli import main
from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.store import FsStore


def seed_cache(root):
    spec = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
                   cores=2, per_core=60, seed=0)
    cache = ResultCache(store=FsStore(root), enabled=True)
    with ExperimentEngine(jobs=1, cache=cache) as engine:
        engine.run(spec)
    return cache.path_for(spec)


class TestDoctorCommand:
    @pytest.fixture(autouse=True)
    def _store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "cache"))

    def test_healthy_cache_exits_zero(self, tmp_path, capsys):
        seed_cache(tmp_path / "cache")
        rc = main(["doctor"])
        assert rc == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_corrupt_cache_exits_nonzero(self, tmp_path, capsys):
        blob = seed_cache(tmp_path / "cache")
        blob.write_bytes(b"\xde\xad not json")
        rc = main(["doctor"])
        assert rc == 1
        assert "PROBLEMS FOUND" in capsys.readouterr().out

    def test_fix_repairs_and_subsequent_audit_passes(self, tmp_path, capsys):
        blob = seed_cache(tmp_path / "cache")
        blob.write_bytes(b"\xde\xad not json")
        assert main(["doctor", "--fix"]) == 0
        assert main(["doctor"]) == 0
        capsys.readouterr()


@pytest.mark.slow
class TestChaosCommand:
    def test_chaos_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        rc = main(["chaos", "--seed", "0", "--workloads", "histogram",
                   "--cores", "2", "--scale", "60",
                   "--faults", "worker-exc:n=1;cache-corrupt:n=1",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0, captured.out + captured.err
        assert "chaos: PASS" in captured.out
        assert json.loads(out.read_text())["ok"]


class TestJournalFlags:
    def test_report_with_journal_resumes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "histogram")
        journal = tmp_path / "journal.jsonl"
        out = tmp_path / "report.txt"
        assert main(["report", "--out", str(out), "--jobs", "1",
                     "--cores", "2", "--scale", "60",
                     "--journal", str(journal)]) == 0
        first = out.read_text()
        completions = len(journal.read_text().splitlines())
        assert completions > 0
        capsys.readouterr()
        # Second run resumes from the journal: no new completions, and
        # the report bytes are identical.
        out2 = tmp_path / "report2.txt"
        assert main(["report", "--out", str(out2), "--jobs", "1",
                     "--cores", "2", "--scale", "60",
                     "--journal", str(journal), "--resume"]) == 0
        assert len(journal.read_text().splitlines()) == completions
        assert out2.read_text() == first
        capsys.readouterr()
