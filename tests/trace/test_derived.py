"""Tests for the derived-column computation and its sidecar format."""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.common.errors import SimulationError
from repro.store import FsStore
from repro.trace._cache import TraceCache
from repro.trace.derived import (
    DERIVED_FORMAT_VERSION,
    DerivedColumns,
    derive,
    derived_for,
)
from repro.trace.events import MemAccess
from repro.trace.packed import PackedTrace
from repro.trace.workloads import build_streams


def packed(workload: str = "kmeans", cores: int = 4, per_core: int = 200,
           seed: int = 0) -> PackedTrace:
    return PackedTrace.from_streams(
        build_streams(workload, cores=cores, per_core=per_core, seed=seed))


def columns_equal(a: DerivedColumns, b: DerivedColumns) -> bool:
    if (a.region_bytes, a.total_regions, a.cores) != (
            b.region_bytes, b.total_regions, b.cores):
        return False
    slots = ("region_idx", "amask", "wmask", "think_cum", "writes_cum",
             "wpop_cum", "hard_pos", "region_ids")
    return all(getattr(ca, name) == getattr(cb, name)
               for ca, cb in zip(a.per_core, b.per_core) for name in slots)


#: sha256 of ``derive(trace, region_bytes).dumps()`` on a little-endian
#: host, recorded from the previous implementation (two independent
#: derive paths that agreed byte for byte).  Sidecars written by either
#: must stay valid, so the bytes may never change at this format version.
PINNED_DERIVE = {
    ("kmeans", 4, 200, 0, 32):
        "e014b56ecbff804fd43f6115a2d176c605a95a322d874e48a7f28b2a0a7f6a9e",
    ("kmeans", 4, 200, 0, 64):
        "7e490ab0dcbef41f1375867455e4c4e64022925fbcf0a7902d1a0bb3581aeea1",
    ("kmeans", 4, 200, 0, 128):
        "d422c549423944ea72137b4f79fdb5c746f54328320d520a926c726c320bd6ab",
    ("linear-regression", 4, 300, 3, 32):
        "302c8b415c4af441f9b9cdd544bd41d76af33cf35afdc3a3da29407aede4a0fb",
    ("linear-regression", 4, 300, 3, 64):
        "59b23102a1914947f9721b7882a9d178e431d85bc0afd7cb4c6ceab91afe4cb3",
    ("linear-regression", 4, 300, 3, 128):
        "c0bedc6810d3c6ba56aa3168d97e5b8fc0d52f82eb7760558d2e471550d495f6",
}


class TestDerive:
    @pytest.mark.skipif(sys.byteorder != "little",
                        reason="digests pin the little-endian sidecar bytes")
    @pytest.mark.parametrize("recipe", sorted(PINNED_DERIVE),
                             ids=lambda r: f"{r[0]}-rb{r[4]}")
    def test_sidecar_bytes_pinned(self, recipe):
        workload, cores, per_core, seed, region_bytes = recipe
        trace = packed(workload, cores=cores, per_core=per_core, seed=seed)
        blob = derive(trace, region_bytes).dumps()
        assert hashlib.sha256(blob).hexdigest() == PINNED_DERIVE[recipe]

    def test_shapes(self):
        trace = packed(cores=3, per_core=150)
        cols = derive(trace, 64)
        assert cols.cores == 3
        assert cols.matches(trace)
        for core in cols.per_core:
            assert core.events == 150
            # Prefix sums carry a leading zero for O(1) span differences.
            assert len(core.think_cum) == 151
            assert core.think_cum[0] == 0

    def test_region_width_rejected(self):
        with pytest.raises(SimulationError):
            derive(packed(), 64 * 1024)


class TestSidecarFormat:
    def test_round_trip(self):
        cols = derive(packed(), 64)
        assert columns_equal(DerivedColumns.loads(cols.dumps()), cols)

    def test_truncated_blob_rejected(self):
        blob = derive(packed(), 64).dumps()
        with pytest.raises(SimulationError):
            DerivedColumns.loads(blob[:len(blob) // 2])

    def test_bad_magic_rejected(self):
        blob = derive(packed(), 64).dumps()
        with pytest.raises(SimulationError):
            DerivedColumns.loads(b"XXXX" + blob[4:])

    def test_version_skew_rejected(self):
        blob = bytearray(derive(packed(), 64).dumps())
        # Version is the field right after the 8-byte magic.
        blob[8] = DERIVED_FORMAT_VERSION + 1
        with pytest.raises(SimulationError):
            DerivedColumns.loads(bytes(blob))


class TestDerivedFor:
    def test_memoizes_per_trace(self):
        trace = packed()
        assert derived_for(trace, 64) is derived_for(trace, 64)

    def test_sidecar_written_and_reloaded(self, tmp_path):
        cache = TraceCache(store=FsStore(tmp_path), enabled=True)
        trace = cache.get_or_build("kmeans", cores=4, per_core=200, seed=0)
        derived_for(trace, 64)
        sidecar = cache.derived_path_for("kmeans", 4, 200, 0, 64)
        assert sidecar.is_file()
        # A second cache hit parses the sidecar instead of re-deriving.
        again = cache.get_or_build("kmeans", cores=4, per_core=200, seed=0)
        assert columns_equal(derived_for(again, 64), derived_for(trace, 64))

    def test_corrupt_sidecar_rebuilt(self, tmp_path):
        cache = TraceCache(store=FsStore(tmp_path), enabled=True)
        trace = cache.get_or_build("kmeans", cores=4, per_core=200, seed=0)
        derived_for(trace, 64)
        sidecar = cache.derived_path_for("kmeans", 4, 200, 0, 64)
        sidecar.write_bytes(b"garbage")
        again = cache.get_or_build("kmeans", cores=4, per_core=200, seed=0)
        cols = derived_for(again, 64)
        assert cols.matches(again)
        # The rebuild rewrote a valid sidecar in place.
        DerivedColumns.loads(sidecar.read_bytes())

    def test_shape_mismatch_sidecar_rebuilt(self, tmp_path):
        cache = TraceCache(store=FsStore(tmp_path), enabled=True)
        small = cache.get_or_build("kmeans", cores=2, per_core=100, seed=0)
        derived_for(small, 64)
        wrong = cache.derived_path_for("kmeans", 2, 100, 0, 64)
        big = cache.get_or_build("kmeans", cores=4, per_core=200, seed=0)
        # Plant the wrong trace's sidecar at the big trace's path.
        target = cache.derived_path_for("kmeans", 4, 200, 0, 64)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(wrong.read_bytes())
        cols = derived_for(big, 64)
        assert cols.matches(big)

    def test_events_hard_positions_are_sorted(self):
        cols = derive(packed("linear-regression"), 64)
        for core in cols.per_core:
            positions = list(core.hard_pos)
            assert positions == sorted(positions)

    def test_synthetic_private_trace_has_no_hard_events(self):
        # Each core touches its own disjoint regions: everything commutes.
        streams = [[MemAccess.read(c * 0x10000 + 8 * i) for i in range(20)]
                   for c in range(2)]
        cols = derive(PackedTrace.from_streams(streams), 64)
        assert all(len(core.hard_pos) == 0 for core in cols.per_core)

    def test_shared_written_region_is_hard_everywhere(self):
        # One region, read by core 0, written by core 1: every event on it
        # is a hard (non-commuting) position.
        streams = [[MemAccess.read(0) for _ in range(5)],
                   [MemAccess.write(0) for _ in range(5)]]
        cols = derive(PackedTrace.from_streams(streams), 64)
        assert all(len(core.hard_pos) == 5 for core in cols.per_core)
