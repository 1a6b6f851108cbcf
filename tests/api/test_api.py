"""The public surface: repro.api works and repro re-exports it."""

import pytest

import repro
import repro.api as api
from repro.common.params import ProtocolKind


class TestFacade:
    def test_run_by_short_name(self):
        result = api.run("histogram", "mw", cores=4, per_core=150)
        assert result.name == "histogram"
        assert result.config.protocol is ProtocolKind.PROTOZOA_MW
        assert result.stats.accesses == 4 * 150

    def test_run_replays_cached_trace(self, tmp_path, monkeypatch):
        """A second run of the same recipe builds no trace and returns
        byte-identical results."""
        import repro.trace._cache as trace_cache_mod
        from repro.experiments._engine import _serialize_result

        built = []
        build_streams = api.build_streams

        def counting_build(*args, **kwargs):
            built.append(args)
            return build_streams(*args, **kwargs)

        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        monkeypatch.setattr(api, "build_streams", counting_build)
        monkeypatch.setattr(trace_cache_mod, "build_streams", counting_build)
        first = api.run("histogram", "mw", cores=4, per_core=150)
        assert len(built) == 1
        second = api.run("histogram", "mw", cores=4, per_core=150)
        assert len(built) == 1
        assert _serialize_result(second) == _serialize_result(first)

    def test_run_with_obs(self):
        result = api.run("histogram", "mesi", cores=2, per_core=100,
                         obs=True)
        assert result.obs is not None
        assert result.obs.events.seen == result.stats.accesses

    def test_build_machine_from_overrides(self):
        engine = api.build_machine(protocol="sw+mr", cores=4)
        assert engine.config.protocol is ProtocolKind.PROTOZOA_SW_MR
        assert engine.config.cores == 4

    def test_build_machine_from_config(self):
        config = api.SystemConfig(protocol=ProtocolKind.MESI, cores=2)
        engine = api.build_machine(config)
        assert engine.config is config

    def test_build_machine_rejects_config_plus_overrides(self):
        config = api.SystemConfig()
        with pytest.raises(api.ConfigError):
            api.build_machine(config, cores=8)

    def test_sweep_runs_grid(self):
        specs = [api.RunSpec("histogram", kind, cores=2, per_core=80)
                 for kind in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_MW)]
        results = api.sweep(specs, jobs=1)
        assert set(results) == set(specs)
        for spec, result in results.items():
            assert result.config.protocol is spec.protocol

    def test_sweep_matches_run_counters(self):
        spec = api.RunSpec("histogram", ProtocolKind.MESI, cores=2,
                           per_core=80)
        swept = api.sweep([spec], jobs=1)[spec]
        direct = api.run("histogram", "mesi", cores=2, per_core=80)
        assert swept.stats.to_dict() == direct.stats.to_dict()

    def test_save_and_load_trace(self, tmp_path):
        streams = api.build_streams("histogram", cores=2, per_core=50)
        path = tmp_path / "t.trace"
        count = api.save_trace(streams, path)
        assert count == 100
        back = api.load_trace(path)
        assert [len(s) for s in back] == [50, 50]
        assert back[0][0].addr == streams[0][0].addr

    def test_parse_protocol_accepts_all_spellings(self):
        assert api.parse_protocol("MESI") is ProtocolKind.MESI
        assert api.parse_protocol("sw+mr") is ProtocolKind.PROTOZOA_SW_MR
        assert api.parse_protocol("swmr") is ProtocolKind.PROTOZOA_SW_MR
        assert api.parse_protocol("protozoa-mw") is ProtocolKind.PROTOZOA_MW
        assert (api.parse_protocol(ProtocolKind.PROTOZOA_SW)
                is ProtocolKind.PROTOZOA_SW)
        with pytest.raises(api.ConfigError):
            api.parse_protocol("moesi")


class TestTopLevelReexports:
    def test_repro_reexports_the_api_surface(self):
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name), name

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestSweepValidation:
    """sweep() rejects malformed spec collections before any simulation."""

    def spec(self, seed=0):
        return api.RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
                           cores=2, per_core=60, seed=seed)

    def test_bare_runspec_rejected_with_guidance(self):
        with pytest.raises(api.ConfigError, match=r"sweep\(\[spec\]\)"):
            api.sweep(self.spec())

    @pytest.mark.parametrize("bad", ["histogram", b"histogram", {"a": 1}])
    def test_wrong_container_types_rejected(self, bad):
        with pytest.raises(api.ConfigError, match="iterable of RunSpec"):
            api.sweep(bad)

    def test_non_iterable_rejected(self):
        with pytest.raises(api.ConfigError, match="iterable of RunSpec"):
            api.sweep(42)

    def test_non_spec_item_named_by_index(self):
        with pytest.raises(api.ConfigError, match=r"specs\[1\] is str"):
            api.sweep([self.spec(), "mesi"])

    def test_duplicate_cells_named_by_both_indices(self):
        with pytest.raises(api.ConfigError,
                           match=r"specs\[2\] duplicates specs\[0\]"):
            api.sweep([self.spec(0), self.spec(1), self.spec(0)])

    def test_generator_input_still_works(self):
        results = api.sweep(self.spec(seed) for seed in (0, 1))
        assert len(results) == 2

    def test_service_surface_exported(self):
        assert api.ServiceClient is repro.ServiceClient
        assert api.SweepService is repro.SweepService
        assert callable(api.serve)
