"""Self times of nested spans, and the per-layer self-time check."""

import pytest

from layers import layer_metrics, layer_self_share, merge
from spans import Tracer, busy_seconds


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # cell [0, 10] > simulate [1, 9] > miss [2, 6] > transfer [3, 4]
    #                                > miss [7, 8]
    clock = FakeClock(0, 1, 2, 3, 4, 6, 7, 8, 9, 10)
    tracer = Tracer(clock=clock, hot={"coherence.miss",
                                      "interconnect.transfer"})
    tracer.op = "fft/mw"
    tracer.enter("experiments.cell")
    tracer.enter("system.simulate")
    tracer.enter("coherence.access")
    tracer.enter("interconnect.transfer")
    tracer.exit()
    tracer.exit("coherence.miss")
    tracer.enter("coherence.access")
    tracer.exit("coherence.miss")
    tracer.exit()
    tracer.exit()
    totals = {name: vals for (_op, name), vals in tracer.totals.items()}
    assert totals["experiments.cell"] == [1, 10, 2]
    assert totals["system.simulate"] == [1, 8, 3]
    assert totals["coherence.miss"] == [2, 5, 4]
    assert totals["interconnect.transfer"] == [1, 1, 1]
    # Hot spans are folded into totals, the rest kept as records.
    assert [r[3] for r in tracer.records] == ["system.simulate",
                                             "experiments.cell"]
    assert busy_seconds(tracer.records) == 10
    assert sum(v[2] for v in totals.values()) == 10


def test_layer_self_share_counts_only_layer_spans():
    clock = FakeClock(0, 1, 3, 4)
    tracer = Tracer(clock=clock)
    tracer.enter("experiments.cell")
    tracer.enter("bench.glue")
    tracer.exit()
    tracer.exit()
    totals, _counts, busy, still_open = merge([tracer.to_dict()])
    assert busy == 4 and still_open == 0
    assert layer_self_share(totals, busy) == pytest.approx(0.5)


def test_merge_adds_processes_and_open_spans():
    a = Tracer(clock=FakeClock(0, 2, 5))
    a.enter("experiments.cell")
    a.exit()
    a.enter("experiments.cell")  # left open: counted, not timed
    b = Tracer(clock=FakeClock(0, 3))
    b.op = "other"
    b.enter("experiments.cell")
    b.exit()
    totals, _counts, busy, still_open = merge([a.to_dict(), b.to_dict()])
    assert totals["experiments.cell"] == [2, 5, 5]
    assert busy == 5 and still_open == 1


def test_layer_metrics_ratios():
    totals = {"coherence.hit": [6, 1.0, 1.0], "coherence.miss": [2, 4.0, 3.0],
              "interconnect.transfer": [8, 1.0, 1.0]}
    counts = {"store.get.calls": 4, "store.get.misses": 1}
    m = layer_metrics(totals, counts, accesses=16, simulated=1)
    assert m["coherence.miss_ratio"] == 0.25
    assert m["coherence.messages_per_miss"] == 4
    assert m["coherence.miss_self_s"] == 3.0
    assert m["system.bulk_ratio"] == 0.5
    assert m["store.miss_ratio"] == 0.25
