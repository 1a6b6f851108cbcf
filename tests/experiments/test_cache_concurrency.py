"""Concurrent ResultCache access: no torn reads, no orphan temp files.

Two child processes hammer ``put()``/``get()`` on the *same* cache key
simultaneously.  The cache's crash-atomic write discipline (same-dir
temp file + fsync + rename) must guarantee that every read observes a
complete, parseable blob — a torn read would quarantine the entry, so a
clean quarantine dir after the storm is the proof.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.store import FsStore
from repro.resilience.storage import QUARANTINE_DIRNAME

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SPEC = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
               cores=2, per_core=60, seed=0)

CHILD = textwrap.dedent("""\
    import json
    import sys

    from repro.common.params import ProtocolKind
    from repro.experiments._engine import ResultCache, RunSpec
    from repro.store import FsStore
    from repro.system.results import RunResult

    spec = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
                   cores=2, per_core=60, seed=0)
    with open({blob!r}, encoding="utf-8") as fh:
        expected = json.load(fh)
    result = RunResult.from_dict(expected)
    cache = ResultCache(store=FsStore({root!r}), enabled=True)
    for _ in range(200):
        cache.put(spec, result)
        seen = cache.get(spec)
        if seen is None:
            sys.exit(2)   # reader observed an unreadable entry
        if seen.to_dict() != expected:
            sys.exit(3)   # reader observed a torn/mixed entry
    if cache.quarantined:
        sys.exit(4)       # a read took the corruption path
    sys.exit(0)
""")


class TestConcurrentAccess:
    def test_two_processes_same_key(self, tmp_path):
        root = tmp_path / "cache"
        blob_path = tmp_path / "expected.json"

        # Seed one real result so both children write identical bytes.
        with ExperimentEngine(jobs=1,
                              cache=ResultCache(store=FsStore(root),
                                                enabled=True)) as engine:
            result = engine.run(SPEC)
        blob_path.write_text(json.dumps(result.to_dict()), encoding="utf-8")

        script = CHILD.format(blob=str(blob_path), root=str(root))
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        env.pop("REPRO_FAULTS", None)
        children = [subprocess.Popen([sys.executable, "-c", script], env=env)
                    for _ in range(2)]
        codes = [child.wait(timeout=120) for child in children]
        assert codes == [0, 0]

        # No interrupted-writer debris and nothing was quarantined.
        assert list(root.rglob("*.tmp")) == []
        assert not (root / QUARANTINE_DIRNAME).exists()

        # The surviving entry parses and matches the seeded result.
        final = ResultCache(store=FsStore(root), enabled=True).get(SPEC)
        assert final is not None
        assert final.to_dict() == result.to_dict()
