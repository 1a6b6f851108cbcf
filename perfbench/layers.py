"""Per-layer metrics from the span dumps of one traced run."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from spans import busy_seconds
from spec import LAYERS


def merge(dumps: Iterable[Dict]) -> Tuple[Dict, Dict, float, int]:
    """Sum span totals and counts over processes and operations.

    Returns ({name: [calls, total_s, self_s]}, {counter: n}, busy
    seconds, spans left open).
    """
    totals: Dict[str, list] = {}
    counts: Dict[str, int] = {}
    busy = 0.0
    still_open = 0
    for dump in dumps:
        for _op, name, calls, total, own in dump["totals"]:
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for _op, name, n in dump["counts"]:
            counts[name] = counts.get(name, 0) + n
        busy += busy_seconds(dump["records"])
        still_open += dump["open"]
    return totals, counts, busy, still_open


def layer_self_share(totals: Dict[str, list], busy: float) -> float:
    """Self time of spans inside the named layers over busy time.

    Spans nest, so self times add up to the root spans' durations; a
    share away from 1 means spans overlapped, were left open, or time
    ran in spans outside the layers.
    """
    own = sum(v[2] for name, v in totals.items()
              if name.split(".", 1)[0] in LAYERS)
    return own / busy if busy else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: Dict[str, list], counts: Dict[str, int],
                  accesses: int, simulated: int) -> Dict[str, float]:
    """Every ``layer.*`` per-layer metric of spec.PER_LAYER."""
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    hits, misses = calls("coherence.hit"), calls("coherence.miss")
    store_gets = counts.get("store.get.calls", 0)
    trace_gets = counts.get("trace.get.calls", 0)
    result_gets = counts.get("experiments.result_get.calls", 0)
    return {
        "coherence.hit_calls": hits,
        "coherence.hit_s": total("coherence.hit"),
        "coherence.miss_calls": misses,
        "coherence.miss_s": total("coherence.miss"),
        "coherence.miss_self_s": own("coherence.miss"),
        "coherence.miss_ratio": _ratio(misses, hits + misses),
        "coherence.messages_per_miss": _ratio(calls("interconnect.transfer"),
                                              misses),
        "coherence.directory_s": total("coherence.directory"),
        "coherence.flush_s": total("coherence.flush"),
        "interconnect.transfer_calls": calls("interconnect.transfer"),
        "interconnect.transfer_s": total("interconnect.transfer"),
        "memory.predict_calls": calls("memory.predict"),
        "memory.predict_s": total("memory.predict"),
        "memory.l1_insert_s": total("memory.l1_insert"),
        "memory.l2_s": total("memory.l2"),
        "system.build_s": total("system.build"),
        "system.simulate_s": total("system.simulate"),
        "system.simulate_self_s": own("system.simulate"),
        "system.accesses": accesses,
        "system.bulk_ratio": (1.0 - _ratio(hits + misses, accesses)
                              if accesses else 0.0),
        "system.result_serialize_s": total("system.result_serialize"),
        "system.result_parse_s": total("system.result_parse"),
        "trace.built": calls("trace.pack"),
        "trace.hit_ratio": _ratio(
            trace_gets - counts.get("trace.get.misses", 0), trace_gets),
        "trace.generate_s": total("trace.generate"),
        "trace.pack_s": total("trace.pack"),
        "trace.derive_s": total("trace.derive"),
        "store.get_calls": store_gets,
        "store.get_s": total("store.get"),
        "store.get_bytes": counts.get("store.get.bytes", 0),
        "store.put_calls": calls("store.put"),
        "store.put_s": total("store.put"),
        "store.put_bytes": counts.get("store.put.bytes", 0),
        "store.miss_ratio": _ratio(counts.get("store.get.misses", 0),
                                   store_gets),
        "experiments.cells": counts.get("experiments.cells", 0),
        "experiments.simulated": simulated,
        "experiments.cache_hit_ratio": _ratio(
            result_gets - counts.get("experiments.result_get.misses", 0),
            result_gets),
        "experiments.pool_wait_s": total("experiments.pool_wait"),
        "experiments.render_s": total("experiments.render"),
    }
