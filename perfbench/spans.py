"""In-memory span recorder with exact self times.

A span is one call into a layer: a name, a start, an end, the span that
was open when it began (its parent) and the id of the operation it
belongs to (one cell of a sweep, or one report regeneration).  Spans
nest strictly within one process, so a span's self time is its duration
minus the summed durations of its direct children.

The simulator's hot path (hits, misses, messages, predictor calls)
produces millions of spans per sweep, so spans whose name is in ``hot``
are folded into per-(operation, name) totals as they close instead of
being kept one by one; every other span is kept as a record.  Totals
cover every span either way.  Everything stays in memory until
:meth:`Tracer.dump` writes it out when the process ends.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, FrozenSet, Iterable, List, Tuple

#: (calls, total seconds, self seconds) per (operation, span name).
Totals = Dict[Tuple[str, str], List[float]]


class Tracer:
    """Span stack plus per-(operation, name) totals and kept records."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 hot: Iterable[str] = ()):
        self.clock = clock
        self.hot: FrozenSet[str] = frozenset(hot)
        self.reset()

    def reset(self) -> None:
        """Forget every span (a forked worker drops its parent's)."""
        self.op = ""
        # Open spans, innermost last: [name, start, child seconds, id].
        self.stack: List[list] = []
        self.totals: Totals = {}
        # Kept spans: (id, parent id or 0, op, name, start, end).
        self.records: List[Tuple] = []
        # Named counts per (operation, counter), e.g. bytes moved.
        self.counts: Dict[Tuple[str, str], int] = {}
        self._next_id = 1

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self, rename: str = "") -> float:
        """Close the innermost span (optionally renaming it, for spans
        whose kind is known only from their result); returns its
        duration."""
        end = self.clock()
        name, start, child, span_id = self.stack.pop()
        if rename:
            name = rename
        duration = end - start
        stack = self.stack
        if stack:
            stack[-1][2] += duration
        key = (self.op, name)
        total = self.totals.get(key)
        if total is None:
            self.totals[key] = [1, duration, duration - child]
        else:
            total[0] += 1
            total[1] += duration
            total[2] += duration - child
        if name not in self.hot:
            parent = stack[-1][3] if stack else 0
            self.records.append((span_id, parent, self.op, name, start, end))
        return duration

    def count(self, counter: str, amount: int = 1) -> None:
        key = (self.op, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def to_dict(self) -> Dict:
        return {
            "totals": [[op, name, *vals]
                       for (op, name), vals in self.totals.items()],
            "counts": [[op, name, n] for (op, name), n in self.counts.items()],
            "records": [list(r) for r in self.records],
            "open": len(self.stack),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def busy_seconds(records: List[Tuple]) -> float:
    """Summed duration of root spans (those with no parent)."""
    return sum(end - start for _id, parent, _op, _name, start, end in records
               if not parent)
