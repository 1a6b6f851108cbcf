"""SIGTERM stops ``repro serve`` cleanly: no pool worker outlives it.

The default SIGTERM handler kills the process before the service's
``with`` block can close the engine, which leaves the pool workers
running, re-parented to init.  ``serve`` ends ``serve_forever`` on
SIGTERM instead, so the engine joins its workers on the way out.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads worker PIDs from /proc/<pid>/task/*/children")


def children_of(pid: int):
    pids = set()
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        pids.update(int(p) for p in path.read_text().split())
    return pids


def alive(pid: int) -> bool:
    """Whether ``pid`` is a running process (an unreaped zombie has exited)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return not re.search(r"^State:\s+Z", status, re.MULTILINE)


def test_sigterm_joins_pool_workers(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC_DIR,
               REPRO_STORE=str(tmp_path / "store"), REPRO_JOBS="2")
    env.pop("REPRO_FAULTS", None)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", str(tmp_path / "state")],
        env=env, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT)
    workers = set()
    try:
        banner = server.stdout.readline()
        match = re.search(r"http://[\d.]+:\d+", banner)
        assert match, f"serve printed no URL banner: {banner!r}"
        # Two uncached cells fan out, so the engine's pool exists.
        submit = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--url", match.group(0),
             "--workloads", "histogram", "--protocol", "mesi,mw",
             "--cores", "2", "--scale", "80", "--wait"],
            env=env, text=True, capture_output=True, timeout=300)
        assert submit.returncode == 0, submit.stdout + submit.stderr
        workers = children_of(server.pid)
        assert len(workers) >= 2, f"expected pool workers, got {workers}"

        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in workers) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if alive(pid)]
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        for pid in workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
