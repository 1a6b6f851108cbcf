"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom"])

    def test_protocol_aliases(self):
        from repro.cli import _protocol
        from repro.common.params import ProtocolKind
        assert _protocol("MESI") is ProtocolKind.MESI
        assert _protocol("sw+mr") is ProtocolKind.PROTOZOA_SW_MR
        assert _protocol("swmr") is ProtocolKind.PROTOZOA_SW_MR
        with pytest.raises(Exception):
            _protocol("moesi")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "linear-regression" in out
        assert out.count("\n") >= 29  # header + 28 workloads

    def test_run(self, capsys):
        rc = main(["run", "--workload", "linear-regression", "--protocol", "mw",
                   "--scale", "200", "--cores", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MPKI" in out and "flit-hops" in out

    def test_compare(self, capsys):
        rc = main(["compare", "--workload", "histogram", "--scale", "150",
                   "--cores", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("MESI", "SW", "SW+MR", "MW"):
            assert name in out

    def test_verify(self, capsys):
        rc = main(["verify", "--protocol", "sw", "--accesses", "400",
                   "--cores", "2"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_seed_sweep(self, capsys):
        rc = main(["verify", "--protocol", "mesi", "--accesses", "200",
                   "--cores", "2", "--seeds", "2", "--same-set",
                   "--max-span", "2", "--check-every", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed 0" in out and "seed 1" in out
        assert "'reads'" in out and "'writes'" in out

    def test_check(self, capsys):
        rc = main(["check", "--protocol", "mesi", "--depth", "3",
                   "--mutant-depth", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        assert "bounded exploration" in out
        assert "mutation audit" in out
        assert "detected" in out

    def test_check_diff_mode(self, capsys):
        rc = main(["check", "--protocol", "mw", "--mode", "diff",
                   "--depth", "3"])
        assert rc == 0
        assert "equivalent" in capsys.readouterr().out

    def test_check_save_and_replay(self, tmp_path, capsys):
        trace = tmp_path / "counterexample.txt"
        rc = main(["check", "--protocol", "sw", "--mode", "mutants",
                   "--mutant-depth", "3", "--save", str(trace)])
        assert rc == 0
        assert trace.exists()
        rc = main(["check", "--replay", str(trace)])
        assert rc == 0
        assert "reproduced" in capsys.readouterr().out

    def test_trace_and_replay(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        rc = main(["trace", "--workload", "kmeans", "--out", str(trace),
                   "--scale", "100", "--cores", "4"])
        assert rc == 0
        assert trace.exists()
        rc = main(["replay", "--trace", str(trace), "--protocol", "mesi",
                   "--cores", "4"])
        assert rc == 0
        assert "MESI" in capsys.readouterr().out

    def test_run_with_options(self, capsys):
        rc = main(["run", "--workload", "kmeans", "--protocol", "sw",
                   "--scale", "150", "--cores", "4", "--three-hop",
                   "--substrate", "sector", "--predictor", "single-word"])
        assert rc == 0

    def test_inspect_all(self, capsys):
        rc = main(["inspect", "--scale", "120", "--cores", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "false-shr" in out
        assert "linear-regression" in out

    def test_inspect_single(self, capsys):
        rc = main(["inspect", "--workload", "canneal", "--scale", "150",
                   "--cores", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "canneal" in out and "apache" not in out

    def test_report_to_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "report.txt"
        monkeypatch.setenv("REPRO_WORKLOADS", "")
        rc = main(["report", "--out", str(out), "--scale", "60", "--cores", "4"])
        assert rc == 0
        text = out.read_text()
        assert "Table 1" in text and "Figure 15" in text


class TestJobsFlag:
    def test_every_engine_command_accepts_jobs(self):
        parser = build_parser()
        for argv in (["run", "--workload", "kmeans", "--jobs", "3"],
                     ["report", "--jobs", "3"],
                     ["bench", "--jobs", "3"]):
            args = parser.parse_args(argv)
            assert args.jobs == 3

    def test_jobs_flag_overrides_repro_jobs_env(self, monkeypatch, capsys):
        from repro.experiments._engine import default_jobs

        monkeypatch.setenv("REPRO_JOBS", "7")
        rc = main(["run", "--workload", "linear-regression", "--protocol",
                   "mesi", "--scale", "50", "--cores", "2", "--jobs", "2"])
        assert rc == 0
        assert default_jobs() == 2

    def test_bench_quick_records_per_phase_jobs(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--quick", "--jobs", "1", "--assert-warm",
                   "--out", str(out)])
        assert rc == 0
        import json as json_mod
        report = json_mod.loads(out.read_text())
        sweep = report["sweep"]
        assert sweep["serial_jobs"] == 1
        assert sweep["parallel_jobs"] == 1
        assert sweep["warm_jobs"] == 1
        assert sweep["warm_all_hits"] is True
        assert report["jobs"] == 1
        assert "trace_prewarm_s" in sweep
        rendered = capsys.readouterr().out
        assert "trace prewarm" in rendered

    def test_assert_warm_fails_on_slow_parallel_sweep(self, monkeypatch, capsys):
        """jobs > 1 and speedup below the bar => exit 1 with a FAIL line."""
        import repro.experiments.bench  # ensure the module is importable

        def fake_run_bench(**kwargs):
            return {
                "schema": 2, "quick": True, "jobs": 2,
                "matrix": {"workloads": [], "protocols": [], "cores": 8,
                           "per_core": 500, "cells": 8},
                "sweep": {"trace_prewarm_s": 0.0, "traces_packed": 0,
                          "serial_cold_s": 1.0, "serial_jobs": 1,
                          "parallel_cold_s": 1.25, "parallel_jobs": 2,
                          "warm_s": 0.001, "warm_jobs": 2,
                          "parallel_speedup": 0.8,
                          "warm_speedup_vs_cold": 100.0,
                          "warm_cache_hits": 8, "warm_simulated": 0,
                          "warm_all_hits": True},
                "single_run": {"workload": "kmeans", "protocol": "protozoa-mw",
                               "cores": 16, "per_core": 2000, "repeats": 3,
                               "accesses": 1, "accesses_per_sec": 1.0,
                               "baseline_accesses_per_sec": None,
                               "improvement_pct": None},
            }

        monkeypatch.setattr("repro.experiments.bench.run_bench", fake_run_bench)
        rc = main(["bench", "--quick", "--assert-warm"])
        assert rc == 1
        assert "FAIL: parallel cold sweep" in capsys.readouterr().out
        rc = main(["bench", "--quick", "--assert-warm",
                   "--min-parallel-speedup", "0.75"])
        assert rc == 0


class TestEventsCommand:
    ARGS = ["events", "--workload", "histogram", "--cores", "2",
            "--scale", "80"]

    def test_dump_is_jsonl(self, capsys):
        import json as json_mod
        assert main(self.ARGS) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 160  # 2 cores x 80 accesses, all retained
        rec = json_mod.loads(lines[0])
        assert {"seq", "core", "op", "addr", "hit", "latency",
                "msgs", "actions"} <= set(rec)

    def test_filters_apply(self, capsys):
        import json as json_mod
        assert main(self.ARGS + ["--core", "1", "--misses-only",
                                 "--limit", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 5
        for line in lines:
            rec = json_mod.loads(line)
            assert rec["core"] == 1
            assert rec["hit"] is False

    def test_summary_includes_phases(self, capsys):
        import json as json_mod
        assert main(self.ARGS + ["--summary"]) == 0
        summary = json_mod.loads(capsys.readouterr().out)
        assert summary["transactions"] == 160
        assert summary["hits"] + summary["misses"] == 160
        assert "simulate" in summary["phase_seconds"]

    def test_ring_and_sample_flags(self, capsys):
        import json as json_mod
        assert main(self.ARGS + ["--ring", "16", "--sample", "4",
                                 "--summary"]) == 0
        summary = json_mod.loads(capsys.readouterr().out)
        assert summary["transactions"] == 160
        assert summary["recorded"] == 40
        assert summary["retained"] == 16
        assert summary["sample_every"] == 4

    def test_out_file_then_input_summary(self, tmp_path, capsys):
        import json as json_mod
        dump = tmp_path / "events.jsonl"
        assert main(self.ARGS + ["--out", str(dump)]) == 0
        capsys.readouterr()
        assert main(["events", "--input", str(dump)]) == 0
        summary = json_mod.loads(capsys.readouterr().out)
        assert summary["retained"] == 160

    def test_obs_env_not_required(self, monkeypatch, capsys):
        """The command enables observability itself; REPRO_OBS stays off."""
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert main(self.ARGS + ["--summary"]) == 0
        assert "transactions" in capsys.readouterr().out


class TestCommonFlags:
    def test_shared_flags_everywhere(self):
        parser = build_parser()
        for cmd in ("run", "report", "bench", "check", "events", "verify",
                    "compare", "replay", "trace", "inspect", "list"):
            argv = [cmd, "--jobs", "2", "--seed", "3", "--protocol", "mesi",
                    "--store", "/tmp/t"]
            if cmd in ("run", "trace", "compare"):
                argv += ["--workload", "kmeans"]
            if cmd == "trace":
                argv += ["--out", "x.trace"]
            if cmd == "replay":
                argv += ["--trace", "x.trace"]
            args = parser.parse_args(argv)
            assert (args.jobs, args.seed, args.protocol, args.store) == \
                (2, 3, "mesi", "/tmp/t"), cmd

    def test_per_command_protocol_defaults(self):
        parser = build_parser()
        assert parser.parse_args(
            ["run", "--workload", "kmeans"]).protocol == "mw"
        assert parser.parse_args(
            ["replay", "--trace", "x"]).protocol == "mw"
        assert parser.parse_args(
            ["events"]).protocol == "mw"
        assert parser.parse_args(["verify"]).protocol == ""
        assert parser.parse_args(["check"]).protocol == ""

    def test_store_flag_exports_env(self, monkeypatch, capsys, tmp_path):
        import os

        import repro.store.config as store_config

        monkeypatch.setattr(store_config, "_CONFIGURED", (None, None))
        monkeypatch.setenv("REPRO_STORE", os.environ["REPRO_STORE"])
        rc = main(["run", "--workload", "histogram", "--scale", "50",
                   "--cores", "2", "--store", str(tmp_path)])
        assert rc == 0
        assert os.environ["REPRO_STORE"] == f"file://{tmp_path}"
        # The packed trace landed in the store's own trace tree.
        assert any((tmp_path / "traces").rglob("*.bin"))


class TestVersion:
    def test_version_flag(self, capsys):
        from repro._version import package_version

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {package_version()}"

    def test_dunder_version_matches(self):
        import repro
        from repro._version import package_version

        assert repro.__version__ == package_version()


class TestServiceCommands:
    def test_parser_accepts_service_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--ttl", "60"])
        assert args.port == 0
        args = parser.parse_args(["submit", "--workloads", "histogram",
                                  "--protocol", "mesi,mw", "--wait"])
        assert args.workloads == "histogram"
        args = parser.parse_args(["jobs", "--state", "done", "--limit", "5"])
        assert args.limit == 5
        args = parser.parse_args(["doctor", "--prune-older-than", "30"])
        assert args.prune_older_than == 30.0

    def test_submit_builds_the_full_protocol_grid_by_default(self):
        from repro.cli import _submit_specs

        args = build_parser().parse_args(
            ["submit", "--workloads", "histogram,kmeans", "--cores", "2"])
        specs = _submit_specs(args)
        assert len(specs) == 8  # 2 workloads x 4 protocols
        assert {s["protocol"] for s in specs} == {"mesi", "protozoa-sw",
                                                 "protozoa-sw+mr",
                                                 "protozoa-mw"}

    def test_submit_and_jobs_against_a_live_service(self, tmp_path, capsys):
        import threading

        from repro.experiments._engine import ExperimentEngine, ResultCache
        from repro.service.app import SweepService
        from repro.service.rpc import make_server
        from repro.store import FsStore

        engine = ExperimentEngine(
            jobs=1, cache=ResultCache(store=FsStore(tmp_path / "cache"),
                                      enabled=True))
        service = SweepService(state_dir=tmp_path / "state", engine=engine,
                               idle_poll_s=0.05).start()
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            out_path = tmp_path / "matrix.json"
            assert main(["submit", "--url", url, "--workloads", "histogram",
                         "--cores", "2", "--scale", "80",
                         "--protocol", "mesi,mw", "--wait",
                         "--out", str(out_path)]) == 0
            out = capsys.readouterr().out
            assert "2 specs, queued" in out
            assert "done" in out
            assert out_path.exists()

            # The same submission again is answered from cache.
            assert main(["submit", "--url", url, "--workloads", "histogram",
                         "--cores", "2", "--scale", "80",
                         "--protocol", "mesi,mw"]) == 0
            assert "served from cache" in capsys.readouterr().out

            assert main(["jobs", "--url", url]) == 0
            assert "done" in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
