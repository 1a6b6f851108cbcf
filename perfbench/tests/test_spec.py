"""BENCHMARK.json agrees with spec.py, and every name obeys the grammar."""

import json
import os

import pytest

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["wall_s", "coherence.miss_s", "9lives",
                                  "a-b_c.d", "x" * 64])
def test_name_grammar_accepts(name):
    assert spec.NAME_RE.match(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "-lead", "x" * 65,
                                  "has space", "slash/name", "pct%"])
def test_name_grammar_rejects(name):
    assert not spec.NAME_RE.match(name)


@pytest.mark.parametrize("unit", ["ms", "s", "1/s", "count", "%", "msg/miss"])
def test_unit_grammar_accepts(unit):
    assert spec.UNIT_RE.match(unit)


@pytest.mark.parametrize("unit", ["", "has space", "x" * 17, "µs"])
def test_unit_grammar_rejects(unit):
    assert not spec.UNIT_RE.match(unit)


def test_every_spec_name_and_unit_is_valid():
    names = (list(spec.WORKLOADS) + list(spec.END_TO_END)
             + list(spec.PER_LAYER))
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.match(name), name
    for unit, *_ in list(spec.END_TO_END.values()) + list(
            spec.PER_LAYER.values()):
        assert spec.UNIT_RE.match(unit), unit


def test_benchmark_json_matches_spec(bench_json):
    assert set(bench_json) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in bench_json["workloads"]] == list(
        spec.BENCHMARKED)
    assert set(spec.BENCHMARKED) <= set(spec.WORKLOADS)
    for w in bench_json["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in bench_json["end_to_end"]}
    assert e2e == spec.END_TO_END
    assert max(e2e.values(), key=lambda v: v[2]) == e2e["setup_s"]
    assert all(bound <= 0.25 for _u, _b, bound in e2e.values())
    layer = {m["name"]: m["unit"] for m in bench_json["per_layer"]}
    assert layer == {k: v[0] for k, v in spec.PER_LAYER.items()}
    for m in bench_json["per_layer"]:
        higher = m["name"] in spec.HIGHER_IS_BETTER
        assert m["better"] == ("higher" if higher else "lower")


def test_workload_cells_exist():
    from repro.trace.workloads import WORKLOADS

    for wl in spec.WORKLOADS.values():
        assert set(wl.workloads) <= set(WORKLOADS)
    assert len(WORKLOADS) * 8 == spec.REPORT_CELLS
