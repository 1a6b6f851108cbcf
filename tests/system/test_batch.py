"""Differential tests for the batched packed-trace issue loop.

The contract of :mod:`repro.system.batch` is *bit identity*: for every
eligible trace, ``simulate(..., batch=True)`` must produce the same
:class:`RunStats` as the scalar reference loop, field for field.  These
tests sweep that equality across protocols, workloads, and the edge
cases (truncation, single core, the decline conditions) rather than
asserting anything about the batched loop's internals.
"""

from __future__ import annotations

import pytest

from repro.common.params import ProtocolKind, SystemConfig
from repro.system import batch as batch_mod
from repro.system.machine import simulate
from repro.trace.packed import PackedTrace
from repro.trace.workloads import WORKLOADS, build_streams

from tests.conftest import ALL_KINDS


def packed(workload: str, cores: int = 4, per_core: int = 300,
           seed: int = 0) -> PackedTrace:
    return PackedTrace.from_streams(
        build_streams(workload, cores=cores, per_core=per_core, seed=seed))


def config_for(kind: ProtocolKind, cores: int = 4) -> SystemConfig:
    # check_values=False: golden-value tracking is a batch decline
    # condition, and the differential here is against the scalar loop's
    # counters, which do not depend on it.
    return SystemConfig(protocol=kind, cores=cores, check_values=False)


def both(trace: PackedTrace, config: SystemConfig, **kwargs):
    scalar = simulate(trace, config, batch=False, **kwargs).stats.to_dict()
    batched = simulate(trace, config, batch=True, **kwargs).stats.to_dict()
    return scalar, batched


class TestDifferential:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_batch_matches_scalar(self, kind, workload):
        scalar, batched = both(packed(workload, per_core=200),
                               config_for(kind))
        assert batched == scalar

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_truncation_matches_scalar(self, kind):
        # max_accesses lands mid-trace: the executed prefix (and the
        # truncated flag) must match the scalar interleaving exactly.
        scalar, batched = both(packed("kmeans"), config_for(kind),
                               max_accesses=333)
        assert batched == scalar
        assert batched["truncated"] is True

    def test_single_core_trace(self):
        trace = packed("histogram", cores=1, per_core=400)
        scalar, batched = both(trace, config_for(ProtocolKind.MESI, cores=1))
        assert batched == scalar

    def test_all_hard_events_trace(self):
        # linear-regression is ~95% shared-and-written events: run-ahead
        # stretches are nearly empty and the one-event in-order path
        # carries the run.  Identity must hold there too.
        scalar, batched = both(packed("linear-regression"),
                               config_for(ProtocolKind.PROTOZOA_MW))
        assert batched == scalar


class _Boom:
    """Sentinel runner: constructing it means batching was NOT declined."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("batched runner ran where it should decline")


class TestEligibility:
    def test_explicit_false_declines(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "_BatchRunner", _Boom)
        simulate(packed("kmeans"), config_for(ProtocolKind.MESI), batch=False)

    def test_check_values_declines(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "_BatchRunner", _Boom)
        config = SystemConfig(protocol=ProtocolKind.MESI, cores=4,
                              check_values=True)
        simulate(packed("kmeans"), config, batch=True)

    def test_low_reuse_declines_by_default_but_not_forced(self, monkeypatch):
        # One access per (core, region) pair: reuse is 1.0, far below
        # MIN_REUSE, so default mode must take the scalar loop ...
        from repro.trace.events import MemAccess

        streams = [[MemAccess.read((c * 100 + i) * 64) for i in range(50)]
                   for c in range(4)]
        trace = PackedTrace.from_streams(streams)
        config = config_for(ProtocolKind.MESI)
        monkeypatch.setattr(batch_mod, "_BatchRunner", _Boom)
        simulate(trace, config)
        monkeypatch.undo()
        # ... while batch=True bypasses the heuristic and stays identical.
        scalar, batched = both(trace, config)
        assert batched == scalar

    def test_object_streams_take_the_same_loops(self):
        # MemAccess streams are packed on entry, so they run (and batch)
        # exactly like the packed trace they pack into.
        streams = build_streams("kmeans", cores=4, per_core=300)
        config = config_for(ProtocolKind.PROTOZOA_MW)
        from_objects = simulate(streams, config).stats.to_dict()
        scalar, batched = both(PackedTrace.from_streams(streams), config)
        assert from_objects == batched == scalar
