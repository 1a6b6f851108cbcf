"""Percentile rule and digest checks."""

import pytest

from stats import (cells_digest, failed_cells, percentile, report_digest,
                   result_digest)


def test_p90_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    with pytest.raises(ValueError):
        percentile(values[:99], 90)


def test_p50_needs_ten_samples_beyond():
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_percentile_ignores_order():
    values = [5.0, 1.0, 3.0] * 40
    assert percentile(values, 50) == percentile(sorted(values), 50) == 3.0


@pytest.fixture(scope="module")
def result():
    from repro.api import run

    return run("fft", protocol="mw", cores=2, per_core=60)


def test_flipped_byte_in_result_fails_digest(result):
    from repro.system.results import RunResult

    import json

    blob = bytearray(json.dumps(result.to_dict(),
                                separators=(",", ":")).encode())
    # Flip one digit of the first read counter.
    at = blob.index(b'"reads":') + len(b'"reads":')
    blob[at] = ord("9") if blob[at] != ord("9") else ord("8")
    flipped = RunResult.from_dict(json.loads(bytes(blob)))
    expected = {"fft/mw": result_digest(result)}
    assert failed_cells({"fft/mw": result_digest(result)}, expected, 1) == 0
    assert failed_cells({"fft/mw": result_digest(flipped)}, expected, 1) == 1


def test_flipped_byte_in_stored_cell_fails_cells_digest():
    blobs = {"results/a.json": b'{"reads":17}', "results/b.json": b'{"x":2}'}
    flipped = dict(blobs, **{"results/a.json": b'{"reads":16}'})
    assert cells_digest(blobs) != cells_digest(flipped)
    assert cells_digest(blobs) == cells_digest(dict(reversed(blobs.items())))


def test_missing_cell_fails():
    assert failed_cells({"a": "1"}, {"a": "1", "b": "2"}, 2) == 1
    assert failed_cells({}, {}, 3) == 3


def test_report_digest_ignores_timing_lines_only():
    body = "Table 1\nrow 1\n[0.3s]\n\nFigure 9\nrow 2\n[12.0s]\n"
    assert report_digest(body) == report_digest(
        body.replace("[0.3s]", "[4.1s]"))
    for at in (0, body.index("row 2") + 4):
        flipped = body[:at] + chr(ord(body[at]) ^ 1) + body[at + 1:]
        assert report_digest(flipped) != report_digest(body)
