"""Multi-worker sweeps: N ``repro report --journal`` processes, one store.

The guarantee docs/distributed.md makes: workers pointed at the same
journal and store divide the matrix between them (leases), absorb each
other's completions (journal refresh + shared blobs), and the merged
report is byte-identical to the single-process run — for every protocol,
since the report matrix sweeps all four.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SUMMARY = re.compile(
    r"sweep shared via .*: (\d+) run\(s\) computed here, "
    r"(\d+) absorbed from other workers, (\d+) lease takeover\(s\)")


def _worker_env(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC_DIR,
               REPRO_WORKLOADS="histogram",
               REPRO_STORE=str(tmp_path / "store"))
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_OBS", None)
    return env


def _report_argv(out, journal=None, store=None):
    argv = [sys.executable, "-c",
            "import sys; from repro.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "report", "--out", str(out),
            "--scale", "60", "--cores", "2", "--jobs", "1"]
    if journal is not None:
        argv += ["--journal", str(journal)]
    if store is not None:
        argv += ["--store", store]
    return argv


def _run_reference(tmp_path):
    """The single-process report every multi-worker run must reproduce."""
    env = _worker_env(tmp_path)
    env["REPRO_STORE"] = str(tmp_path / "ref-cache")
    out = tmp_path / "ref.txt"
    done = subprocess.run(_report_argv(out), env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return out.read_bytes()


def _run_two_workers(tmp_path, store_url):
    env = _worker_env(tmp_path)
    journal = tmp_path / "journal.jsonl"
    outs = [tmp_path / "worker1.txt", tmp_path / "worker2.txt"]
    workers = [subprocess.Popen(_report_argv(out, journal=journal,
                                             store=store_url),
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
               for out in outs]
    summaries = []
    for worker in workers:
        _, stderr = worker.communicate(timeout=600)
        assert worker.returncode == 0, stderr
        match = SUMMARY.search(stderr)
        assert match is not None, stderr
        summaries.append(tuple(int(group) for group in match.groups()))
    return [out.read_bytes() for out in outs], summaries


@pytest.mark.slow
class TestTwoWorkerReport:
    def test_shared_fs_store_is_byte_identical(self, tmp_path):
        reference = _run_reference(tmp_path)
        assert b"Table 1" in reference and b"Figure 15" in reference
        store_url = f"file://{tmp_path / 'shared'}"
        (first, second), summaries = _run_two_workers(tmp_path, store_url)
        assert first == reference
        assert second == reference
        executed = sum(s[0] for s in summaries)
        takeovers = sum(s[2] for s in summaries)
        # Every cell simulated exactly once across the fleet (duplicate
        # work would mean the leases failed; a takeover would mean a
        # worker stalled past the 300 s TTL).
        assert takeovers == 0
        reference_executed = len(  # one blob per simulated cell
            list((tmp_path / "shared").rglob("*.json")))
        assert executed == reference_executed

    def test_worker_joining_late_absorbs_everything(self, tmp_path):
        """A worker arriving after the sweep finished recomputes nothing."""
        reference = _run_reference(tmp_path)
        store_url = f"file://{tmp_path / 'shared'}"
        env = _worker_env(tmp_path)
        journal = tmp_path / "journal.jsonl"
        first = subprocess.run(
            _report_argv(tmp_path / "first.txt", journal=journal,
                         store=store_url),
            env=env, capture_output=True, text=True, timeout=600)
        assert first.returncode == 0, first.stderr
        late = subprocess.run(
            _report_argv(tmp_path / "late.txt", journal=journal,
                         store=store_url),
            env=env, capture_output=True, text=True, timeout=600)
        assert late.returncode == 0, late.stderr
        executed, absorbed, _ = (
            int(g) for g in SUMMARY.search(late.stderr).groups())
        assert executed == 0
        assert absorbed > 0
        assert (tmp_path / "late.txt").read_bytes() == reference
