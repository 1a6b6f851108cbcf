"""Engine correctness: parallel == serial == cached, bit for bit."""

import json
import os

import pytest

from repro.common.params import ProtocolKind
from repro.experiments._engine import (
    SCHEMA_VERSION,
    ExperimentEngine,
    ResultCache,
    RunSpec,
    execute_spec,
)
from repro.experiments.runner import ALL_PROTOCOLS, ExperimentSettings, ResultMatrix
from repro.store import FsStore
from repro.system.results import RunResult

WORKLOADS = ("kmeans", "histogram")


def specs_for(per_core=120, cores=4, seed=0):
    return [RunSpec(workload=name, protocol=protocol, cores=cores,
                    per_core=per_core, seed=seed)
            for name in WORKLOADS for protocol in ALL_PROTOCOLS]


class TestSpecDigest:
    def test_digest_is_stable(self):
        spec = RunSpec("kmeans", ProtocolKind.MESI)
        assert spec.digest() == spec.digest()
        assert RunSpec("kmeans", ProtocolKind.MESI).digest() == spec.digest()

    def test_digest_covers_every_axis(self):
        base = RunSpec("kmeans", ProtocolKind.MESI, None, 4, 100, 0)
        variants = [
            RunSpec("histogram", ProtocolKind.MESI, None, 4, 100, 0),
            RunSpec("kmeans", ProtocolKind.PROTOZOA_MW, None, 4, 100, 0),
            RunSpec("kmeans", ProtocolKind.MESI, 32, 4, 100, 0),
            RunSpec("kmeans", ProtocolKind.MESI, None, 8, 100, 0),
            RunSpec("kmeans", ProtocolKind.MESI, None, 4, 200, 0),
            RunSpec("kmeans", ProtocolKind.MESI, None, 4, 100, 7),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_digest_covers_schema_version(self, monkeypatch):
        spec = RunSpec("kmeans", ProtocolKind.MESI)
        before = spec.digest()
        monkeypatch.setattr("repro.experiments._engine.SCHEMA_VERSION",
                            SCHEMA_VERSION + 1)
        assert spec.digest() != before

    def test_payload_round_trip(self):
        spec = RunSpec("kmeans", ProtocolKind.PROTOZOA_SW_MR, 64, 8, 500, 3)
        assert RunSpec.from_payload(spec.payload()) == spec


class TestSerialization:
    """Cache round-trip preserves every counter the harnesses consume."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS,
                             ids=[p.short_name for p in ALL_PROTOCOLS])
    def test_round_trip_preserves_harness_counters(self, protocol):
        result = execute_spec(RunSpec("kmeans", protocol, cores=4, per_core=150))
        clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        # Every figure-facing accessor agrees between live and portable forms.
        assert clone.traffic_bytes() == result.traffic_bytes()
        assert clone.traffic_split() == result.traffic_split()
        assert clone.control_split() == result.control_split()
        assert clone.mpki() == result.mpki()
        assert clone.invalidations() == result.invalidations()
        assert clone.used_fraction() == result.used_fraction()
        assert clone.exec_cycles() == result.exec_cycles()
        assert clone.flit_hops() == result.flit_hops()
        assert clone.block_size_buckets() == result.block_size_buckets()
        assert clone.dir_owned_buckets() == result.dir_owned_buckets()
        assert clone.summary() == result.summary()
        assert clone.config == result.config
        assert clone.name == result.name
        # And the raw stats are bit-identical.
        assert clone.stats.to_dict() == result.stats.to_dict()

    def test_round_trip_preserves_truncated_flag(self):
        result = execute_spec(RunSpec("kmeans", ProtocolKind.MESI,
                                      cores=4, per_core=100))
        result.stats.truncated = True
        clone = RunResult.from_dict(result.to_dict())
        assert clone.stats.truncated is True


class TestParallelParity:
    def test_parallel_sweep_bit_identical_to_serial(self, tmp_path):
        """All four protocols x two workloads: pool results == in-process."""
        specs = specs_for()
        serial = {spec: execute_spec(spec) for spec in specs}
        with ExperimentEngine(jobs=2,
                              cache=ResultCache(store=FsStore(tmp_path),
                                                enabled=True)) as engine:
            parallel = engine.run_many(specs)
        assert engine.executed == len(specs)
        assert set(parallel) == set(serial)
        for spec in specs:
            assert parallel[spec].stats.to_dict() == serial[spec].stats.to_dict()
            assert parallel[spec].flit_hops() == serial[spec].flit_hops()
            assert (parallel[spec].dir_owned_buckets()
                    == serial[spec].dir_owned_buckets())

    def test_pool_persists_across_run_many_calls(self, tmp_path):
        """One engine, many batches: the worker pool is created once."""
        with ExperimentEngine(jobs=2,
                              cache=ResultCache(store=FsStore(tmp_path),
                                                enabled=True)) as engine:
            pool = engine.warm_pool()
            assert pool is not None
            engine.run_many(specs_for(per_core=60))
            assert engine.warm_pool() is pool
            engine.run_many(specs_for(per_core=80))
            assert engine.warm_pool() is pool
        assert engine._pool is None  # closed on exit

    def test_serial_engine_never_creates_a_pool(self, tmp_path):
        engine = ExperimentEngine(jobs=1,
                                  cache=ResultCache(store=FsStore(tmp_path),
                                                    enabled=True))
        assert engine.warm_pool() is None
        engine.run_many(specs_for(per_core=60))
        assert engine._pool is None
        engine.close()  # no-op, must not raise

    def test_close_is_idempotent_and_pool_recreates(self, tmp_path):
        engine = ExperimentEngine(jobs=2,
                                  cache=ResultCache(store=FsStore(tmp_path),
                                                    enabled=True))
        first = engine.warm_pool()
        engine.close()
        engine.close()
        second = engine.warm_pool()
        assert second is not None and second is not first
        engine.close()

    def test_close_joins_every_worker(self, tmp_path):
        # close() must not return while a pool worker is still alive: a
        # caller that exits (or forks) right after it would orphan them.
        import multiprocessing

        engine = ExperimentEngine(jobs=2,
                                  cache=ResultCache(store=FsStore(tmp_path),
                                                    enabled=True))
        engine.run_many(specs_for(per_core=40))
        assert multiprocessing.active_children()
        engine.close()
        assert multiprocessing.active_children() == []

    def test_parallel_results_land_in_cache_as_canonical_json(self, tmp_path):
        """Worker blobs written verbatim must equal a local serialization."""
        spec = RunSpec("kmeans", ProtocolKind.MESI, cores=4, per_core=120)
        other = RunSpec("histogram", ProtocolKind.MESI, cores=4, per_core=120)
        with ExperimentEngine(jobs=2,
                              cache=ResultCache(store=FsStore(tmp_path),
                                                enabled=True)) as engine:
            engine.run_many([spec, other])
        blob = engine.cache.path_for(spec).read_text()
        local = execute_spec(spec)
        assert json.loads(blob) == local.to_dict()

    def test_warm_sweep_is_pure_cache_hits(self, tmp_path):
        specs = specs_for()
        cold = ExperimentEngine(
            jobs=1, cache=ResultCache(store=FsStore(tmp_path), enabled=True))
        first = cold.run_many(specs)
        warm = ExperimentEngine(
            jobs=1, cache=ResultCache(store=FsStore(tmp_path), enabled=True))
        second = warm.run_many(specs)
        assert warm.executed == 0
        assert warm.cache.hits == len(specs)
        for spec in specs:
            assert second[spec].stats.to_dict() == first[spec].stats.to_dict()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(store=FsStore(tmp_path), enabled=True)
        spec = RunSpec("kmeans", ProtocolKind.MESI, cores=4, per_core=100)
        assert cache.get(spec) is None
        result = execute_spec(spec)
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.stats.to_dict() == result.stats.to_dict()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(store=FsStore(tmp_path), enabled=True)
        spec = RunSpec("kmeans", ProtocolKind.MESI, cores=4, per_core=100)
        cache.put(spec, execute_spec(spec))
        cache.path_for(spec).write_text("{ not json")
        assert cache.get(spec) is None

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ResultCache(store=FsStore(tmp_path), enabled=False)
        spec = RunSpec("kmeans", ProtocolKind.MESI, cores=4, per_core=100)
        cache.put(spec, execute_spec(spec))
        assert cache.get(spec) is None
        assert not any(tmp_path.iterdir())

    def test_repro_cache_env_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        cache = ResultCache(store=FsStore(tmp_path))
        assert cache.enabled is False

    def test_layout_fans_out_by_digest_prefix(self, tmp_path):
        cache = ResultCache(store=FsStore(tmp_path), enabled=True)
        spec = RunSpec("kmeans", ProtocolKind.MESI, cores=4, per_core=100)
        cache.put(spec, execute_spec(spec))
        digest = spec.digest()
        assert (tmp_path / digest[:2] / f"{digest}.json").exists()


class TestMatrixOnEngine:
    def test_sweep_equals_per_cell_runs(self, tmp_path):
        settings = ExperimentSettings(cores=4, per_core=120,
                                      workloads=WORKLOADS)
        swept = ResultMatrix(
            settings,
            engine=ExperimentEngine(
                jobs=2, cache=ResultCache(store=FsStore(tmp_path / "a"),
                                          enabled=True)))
        celled = ResultMatrix(
            settings,
            engine=ExperimentEngine(
                jobs=1, cache=ResultCache(store=FsStore(tmp_path / "b"),
                                          enabled=True)))
        out = swept.sweep()
        for (name, protocol), result in out.items():
            other = celled.run(name, protocol)
            assert result.stats.to_dict() == other.stats.to_dict()

    def test_matrix_memoizes_in_process(self, tmp_path):
        settings = ExperimentSettings(cores=4, per_core=100,
                                      workloads=("kmeans",))
        matrix = ResultMatrix(
            settings,
            engine=ExperimentEngine(
                jobs=1, cache=ResultCache(store=FsStore(tmp_path),
                                          enabled=True)))
        a = matrix.run("kmeans", ProtocolKind.MESI)
        b = matrix.run("kmeans", ProtocolKind.MESI)
        assert a is b


class TestWorkerMetrics:
    """REPRO_OBS reaches pool workers; metric dumps merge back into the
    engine's session registry regardless of how a result was served."""

    def accesses_counter_total(self, engine):
        return sum(value for key, value in engine.metrics.counters().items()
                   if key.startswith("repro_accesses_total{"))

    def test_serial_runs_feed_engine_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        specs = specs_for(per_core=60)
        engine = ExperimentEngine(jobs=1,
                                  cache=ResultCache(store=FsStore(tmp_path),
                                                    enabled=True))
        results = engine.run_many(specs)
        expected = sum(r.stats.accesses for r in results.values())
        assert self.accesses_counter_total(engine) == expected

    def test_pool_runs_feed_engine_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        specs = specs_for(per_core=60)
        with ExperimentEngine(jobs=2,
                              cache=ResultCache(store=FsStore(tmp_path),
                                                enabled=True)) as engine:
            results = engine.run_many(specs)
        assert engine.executed == len(specs)
        expected = sum(r.stats.accesses for r in results.values())
        assert self.accesses_counter_total(engine) == expected

    def test_cache_hits_also_absorb_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        spec = RunSpec("kmeans", ProtocolKind.MESI, cores=4, per_core=60)
        warm = ExperimentEngine(jobs=1,
                                cache=ResultCache(store=FsStore(tmp_path),
                                                  enabled=True))
        warm.run(spec)
        read_back = ExperimentEngine(jobs=1,
                                     cache=ResultCache(store=FsStore(tmp_path),
                                                       enabled=True))
        result = read_back.run(spec)
        assert read_back.executed == 0  # pure cache hit
        assert self.accesses_counter_total(read_back) == result.stats.accesses

    def test_without_obs_engine_metrics_stay_empty(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        engine = ExperimentEngine(jobs=1,
                                  cache=ResultCache(store=FsStore(tmp_path),
                                                    enabled=True))
        engine.run_many(specs_for(per_core=60))
        assert len(engine.metrics) == 0

    def test_parallel_and_serial_metrics_agree(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        specs = specs_for(per_core=60)
        serial = ExperimentEngine(jobs=1,
                                  cache=ResultCache(
                                      store=FsStore(tmp_path / "s"),
                                      enabled=True))
        serial.run_many(specs)
        with ExperimentEngine(jobs=2,
                              cache=ResultCache(store=FsStore(tmp_path / "p"),
                                                enabled=True)) as pooled:
            pooled.run_many(specs)
        assert serial.metrics.counters() == pooled.metrics.counters()
