"""Percentiles and result digests."""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Dict, Sequence

from spec import MIN_BEYOND

# The per-section "[1.2s]" timing lines write_report adds: wall-clock
# noise, not report content.
_TIMING_LINE = re.compile(r"^\[\d+(?:\.\d+)?s\]$", re.MULTILINE)


def percentile(values: Sequence[float], pct: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile, refused unless ``min_beyond`` samples
    lie above the rank it reports."""
    n = len(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < min_beyond:
        raise ValueError(f"p{pct:g} of {n} samples has {n - rank} beyond it; "
                         f"need {min_beyond}")
    return sorted(values)[rank - 1]


def result_digest(result) -> str:
    """sha256 of a RunResult in the engine's compact serialized form."""
    blob = json.dumps(result.to_dict(), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def report_digest(text: str) -> str:
    """sha256 of a report body without its per-section timing lines."""
    body = _TIMING_LINE.sub("", text)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def cells_digest(blobs: Dict[str, bytes]) -> str:
    """sha256 over every stored result blob's key and sha256."""
    lines = "".join(f"{key} {hashlib.sha256(blob).hexdigest()}\n"
                    for key, blob in sorted(blobs.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def failed_cells(got: Dict[str, str], expected: Dict[str, str],
                 cells: int) -> int:
    """Cells of a sweep that are missing from ``got`` or whose digest
    differs from ``expected`` (cells ``expected`` lacks are taken as
    they come)."""
    missing = max(0, cells - len(got))
    wrong = sum(1 for key, digest in got.items()
                if expected.get(key, digest) != digest)
    return missing + wrong
