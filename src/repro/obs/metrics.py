"""The metrics registry: named, labeled counters and histograms.

The ad-hoc :class:`~repro.stats.counters.RunStats` fields remain the
simulation's source of truth (they are what the paper's figures read);
this module projects them into a *uniform, mergeable* namespace so sweeps
can aggregate across runs and across worker processes:

* **names** are Prometheus-style (``repro_accesses_total``), **labels**
  are sorted ``key=value`` pairs baked into the series key
  (``repro_accesses_total{op=read,protocol=mesi}``); label text containing
  the key's structural characters (``,`` ``=`` ``{`` ``}`` ``\\``) is
  backslash-escaped so every (name, labels) pair has exactly one key and
  :func:`parse_series_key` can invert it;
* **counters** are integers, **histograms** are power-of-two bucketed
  (count/total/min/max + bucket counts) — the same shape as
  :class:`~repro.stats.latency.LatencyHistogram` so miss-latency data
  projects losslessly;
* ``to_dict()``/``merge_dict()`` define the wire form: worker processes
  attach a registry dump to each serialized
  :class:`~repro.system.results.RunResult`, and the experiment engine
  merges the dumps back into its session registry (merge is associative
  and commutative, so fan-out order never matters).

**The fast path.**  Per-event recording never goes through ``inc()`` /
``observe()`` (a dict lookup plus key formatting per call).  Hot callers
bind *scratch* handles once — :meth:`MetricsRegistry.counter_scratch`
hands out plain-int slots in a flat list, :meth:`bound_histogram` a
value-indexed count list — and the per-event cost is a single list index
add; a caller that already keeps its own counts registers a fold with
:meth:`MetricsRegistry.defer` (the network accountant's route counts feed
the message hop/flit histograms this way).  Scratch deltas are
*deferred*: they fold into the real counters and histograms at phase
end and, transparently, on **any registry read**
(``counters()``, ``counter_value()``, ``histograms()``, ``to_dict()``,
``len()``), so a mid-run reader always sees up-to-date totals and the
wire form is byte-identical to eager recording.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple


# Characters with structural meaning inside a series key.  Label text
# containing any of them is escaped; everything else takes the bare fast
# path (one containment scan, no allocation).
_ESCAPE_CHARS = ("\\", ",", "=", "{", "}")


def _escape(text: str) -> str:
    if ("\\" in text or "," in text or "=" in text
            or "{" in text or "}" in text):
        for ch in _ESCAPE_CHARS:
            text = text.replace(ch, "\\" + ch)
    return text


def _unescape(text: str) -> str:
    out: List[str] = []
    escaped = False
    for ch in text:
        if escaped:
            out.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        else:
            out.append(ch)
    return "".join(out)


def _split_unescaped(text: str, sep: str,
                     maxsplit: Optional[int] = None) -> List[str]:
    """Split on ``sep`` occurrences that are not backslash-escaped."""
    parts: List[str] = []
    buf: List[str] = []
    escaped = False
    for ch in text:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            buf.append(ch)
            escaped = True
        elif ch == sep and (maxsplit is None or len(parts) < maxsplit):
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


# Interned series keys.  record_run_metrics() formats the same ~20
# (name, labels) combinations once per run, and sweeps call it once per
# cell — the sort + per-label f-string work is pure waste after the
# first time.  The cache key is the name plus the sorted label items
# (hashable for the str/int/enum values the registry actually sees);
# unhashable values fall through to the slow path.  The cache is *reset*
# when full rather than frozen: an adversarial label cardinality can
# never grow it past the cap, and steady-state hot keys re-enter after
# the flush instead of being locked out forever.
_KEY_CACHE: Dict[tuple, str] = {}
_KEY_CACHE_MAX = 4096


def series_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical series key: ``name{k1=v1,k2=v2}`` with sorted labels.

    Label keys and values are escaped (see module docstring), so distinct
    label maps never collide — ``{"a": "1,b=2"}`` and ``{"a": 1, "b": 2}``
    produce different keys — and :func:`parse_series_key` round-trips.
    """
    if not labels:
        return name
    try:
        cache_key = (name,) + tuple(sorted(labels.items()))
        cached = _KEY_CACHE.get(cache_key)
    except TypeError:
        cache_key = cached = None
    if cached is not None:
        return cached
    inner = ",".join(f"{_escape(str(k))}={_escape(str(labels[k]))}"
                     for k in sorted(labels))
    key = f"{name}{{{inner}}}"
    if cache_key is not None:
        if len(_KEY_CACHE) >= _KEY_CACHE_MAX:
            _KEY_CACHE.clear()
        _KEY_CACHE[cache_key] = key
    return key


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`series_key`; label values come back as strings.

    Metric *names* are code-controlled identifiers and never contain
    ``{`` — the first brace starts the label block.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed series key: {key!r}")
    name = key[:brace]
    inner = key[brace + 1:-1]
    labels: Dict[str, str] = {}
    if inner:
        for item in _split_unescaped(inner, ","):
            pair = _split_unescaped(item, "=", maxsplit=1)
            if len(pair) != 2:
                raise ValueError(f"malformed label {item!r} in {key!r}")
            k, v = pair
            labels[_unescape(k)] = _unescape(v)
    return name, labels


class HistogramData:
    """Power-of-two bucketed histogram (bucket i: 2^i <= v < 2^(i+1))."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        index = max(int(value).bit_length() - 1, 0)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def add_bucket(self, index: int, count: int, total: int = 0) -> None:
        """Bulk-load pre-bucketed samples (projection from RunStats)."""
        if count <= 0:
            return
        self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += count
        self.total += total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def merge_dict(self, data: Dict) -> None:
        self.count += data.get("count", 0)
        self.total += data.get("total", 0)
        for key, value in data.get("buckets", {}).items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + value
        for attr, pick in (("min", min), ("max", max)):
            other = data.get(attr)
            if other is None:
                continue
            mine = getattr(self, attr)
            setattr(self, attr, other if mine is None else pick(mine, other))


class CounterScratch:
    """A flat list of plain-int counter slots, folded into a registry.

    Hot-path callers (the protocol engines) allocate slots once at
    attach time via :meth:`slot` and thereafter increment
    ``scratch.slots[index]`` directly — a list index add, no key
    formatting, no dict lookup, no method call.  :meth:`fold` moves the
    accumulated deltas into the owning registry's counters and zeroes
    the slots; the registry calls it automatically on any read.
    """

    __slots__ = ("slots", "_keys", "_registry")

    def __init__(self, registry: "MetricsRegistry"):
        self.slots: List[int] = []
        self._keys: List[str] = []
        self._registry = registry

    def slot(self, name: str, **labels) -> int:
        """Assign one scratch slot for (name, labels); returns its index."""
        self._keys.append(series_key(name, labels))
        self.slots.append(0)
        return len(self.slots) - 1

    def fold(self) -> bool:
        """Move pending deltas into the registry; True if anything moved."""
        counters = self._registry._counters
        slots = self.slots
        dirty = False
        for index, key in enumerate(self._keys):
            value = slots[index]
            if value:
                counters[key] = counters.get(key, 0) + value
                slots[index] = 0
                dirty = True
        return dirty


class BoundHistogram:
    """Value-indexed scratch counts in front of a :class:`HistogramData`.

    ``counts[value] += 1`` is the whole per-event cost; the bucket index
    (``bit_length``), count/total accumulation, and min/max tracking all
    happen once per distinct value at fold time, so folding is exactly
    equivalent to having called :meth:`HistogramData.observe` per event.
    Values beyond the preallocated bound grow the list in place (list
    identity is preserved, so hot closures may bind ``counts`` directly
    and recover from ``IndexError`` with :meth:`grow`).
    """

    __slots__ = ("counts", "_hist")

    def __init__(self, hist: HistogramData, max_value: int):
        self._hist = hist
        self.counts: List[int] = [0] * (max(int(max_value), 0) + 1)

    def observe(self, value: int) -> None:
        try:
            self.counts[value] += 1
        except IndexError:
            self.grow(value)
            self.counts[value] += 1

    def grow(self, value: int) -> None:
        """Extend the count list (in place) to make ``value`` indexable."""
        self.counts.extend([0] * (value + 1 - len(self.counts)))

    def fold(self) -> bool:
        """Fold pending counts into the histogram; True if anything moved."""
        hist = self._hist
        counts = self.counts
        dirty = False
        for value, n in enumerate(counts):
            if not n:
                continue
            hist.add_bucket(max(value.bit_length() - 1, 0), n,
                            total=value * n)
            if hist.min is None or value < hist.min:
                hist.min = value
            if hist.max is None or value > hist.max:
                hist.max = value
            counts[value] = 0
            dirty = True
        return dirty


class MetricsRegistry:
    """Labeled counters and histograms with an associative merge.

    Reads *fold first*: any scratch handle handed out by
    :meth:`counter_scratch` / :meth:`bound_histogram` has its pending
    deltas committed before ``counters()``, ``counter_value()``,
    ``histograms()``, ``to_dict()``, or ``len()`` return, so deferred
    recording is invisible to consumers.  ``fold_cycles`` counts folds
    that actually moved data and ``fold_seconds`` their cumulative cost
    (both surfaced by the service ``/metrics`` endpoint as the price of
    observing the observer).
    """

    def __init__(self):
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, HistogramData] = {}
        self._pending: List = []
        self.fold_cycles = 0
        self.fold_seconds = 0.0

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, value: int = 1, **labels) -> None:
        key = series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def histogram(self, name: str, **labels) -> HistogramData:
        key = series_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = HistogramData()
        return hist

    def observe(self, name: str, value: int, **labels) -> None:
        self.histogram(name, **labels).observe(value)

    # -- deferred recording (the hot path) -----------------------------------

    def counter_scratch(self) -> CounterScratch:
        """A new flat-slot scratch whose deltas fold into this registry."""
        scratch = CounterScratch(self)
        self._pending.append(scratch)
        return scratch

    def bound_histogram(self, name: str, max_value: int = 64,
                        **labels) -> BoundHistogram:
        """A value-indexed scratch bound to ``histogram(name, **labels)``."""
        bound = BoundHistogram(self.histogram(name, **labels), max_value)
        self._pending.append(bound)
        return bound

    def defer(self, pending) -> None:
        """Register any object with a ``fold() -> bool`` method as a
        pending scratch, folded before every read like the built-in ones
        (e.g. the network accountant's route-count fold)."""
        self._pending.append(pending)

    def fold_pending(self) -> None:
        """Commit every scratch delta now (phase/chunk boundaries)."""
        self._fold()

    def _fold(self) -> None:
        pending = self._pending
        if not pending:
            return
        start = time.perf_counter()
        dirty = False
        for scratch in pending:
            if scratch.fold():
                dirty = True
        if dirty:
            self.fold_cycles += 1
        self.fold_seconds += time.perf_counter() - start

    # -- reading (all fold first) --------------------------------------------

    def counter_value(self, name: str, **labels) -> int:
        self._fold()
        return self._counters.get(series_key(name, labels), 0)

    def counters(self) -> Dict[str, int]:
        self._fold()
        return dict(self._counters)

    def histograms(self) -> Dict[str, HistogramData]:
        self._fold()
        return dict(self._histograms)

    def __len__(self) -> int:
        self._fold()
        return len(self._counters) + len(self._histograms)

    # -- wire form -----------------------------------------------------------

    def to_dict(self) -> Dict:
        self._fold()
        return {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {k: h.to_dict()
                           for k, h in sorted(self._histograms.items())},
        }

    def merge_dict(self, data: Dict) -> None:
        """Fold one wire-form dump into this registry (unknown keys skip)."""
        for key, value in data.get("counters", {}).items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, hist_data in data.get("histograms", {}).items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = HistogramData()
            hist.merge_dict(hist_data)

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_dict(other.to_dict())

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge_dict(data)
        return registry


_PROCESS_REGISTRY: Optional[MetricsRegistry] = None


def process_registry() -> MetricsRegistry:
    """The process-wide registry for machinery-level (non-simulation) series.

    Per-run simulation metrics stay on per-run registries (attached to
    each :class:`~repro.system.results.RunResult`); this singleton is
    where cross-cutting infrastructure — cache quarantines, resilience
    retries, rebuild warnings — accumulates counters that no single run
    owns.  ``repro chaos`` and ``repro doctor`` read it back, and the
    experiment engine folds it into its session registry.
    """
    global _PROCESS_REGISTRY
    if _PROCESS_REGISTRY is None:
        _PROCESS_REGISTRY = MetricsRegistry()
    return _PROCESS_REGISTRY


def reset_process_registry() -> None:
    """Fresh process-wide registry (test isolation; chaos phase splits)."""
    global _PROCESS_REGISTRY
    _PROCESS_REGISTRY = None


def record_run_metrics(registry: MetricsRegistry, stats, **labels) -> None:
    """Project one run's :class:`RunStats` into the unified namespace.

    ``labels`` (typically ``protocol=...`` and ``workload=...``) are
    attached to every series, so merged sweep registries stay separable.
    """
    inc = registry.inc
    inc("repro_instructions_total", stats.instructions, **labels)
    inc("repro_accesses_total", stats.reads, op="read", **labels)
    inc("repro_accesses_total", stats.writes, op="write", **labels)
    inc("repro_hits_total", stats.read_hits, op="read", **labels)
    inc("repro_hits_total", stats.write_hits, op="write", **labels)
    inc("repro_misses_total", stats.read_misses, kind="read", **labels)
    inc("repro_misses_total", stats.write_misses, kind="write", **labels)
    inc("repro_misses_total", stats.upgrade_misses, kind="upgrade", **labels)
    inc("repro_traffic_bytes_total", stats.traffic.used_data,
        kind="used_data", **labels)
    inc("repro_traffic_bytes_total", stats.traffic.unused_data,
        kind="unused_data", **labels)
    for category, nbytes in stats.traffic.control.items():
        inc("repro_control_bytes_total", nbytes, category=category, **labels)
    for event, value in (
        ("invalidations", stats.invalidations_sent),
        ("nacks", stats.nacks),
        ("ack_s", stats.ack_s),
        ("writebacks", stats.writebacks),
        ("writebacks_last", stats.writebacks_last),
        ("evictions", stats.evictions),
        ("inval_block_kills", stats.inval_block_kills),
        ("fills", stats.fills),
    ):
        inc("repro_coherence_events_total", value, event=event, **labels)
    inc("repro_fill_words_total", stats.fill_words, **labels)

    install = registry.histogram("repro_install_width_words", **labels)
    for width, count in stats.block_size_hist.items():
        install.add_bucket(max(int(width).bit_length() - 1, 0), count,
                           total=width * count)
    latency = registry.histogram("repro_miss_latency_cycles", **labels)
    for index, count in enumerate(stats.miss_latency.buckets):
        latency.add_bucket(index, count)
    latency.total += stats.miss_latency.total
    if stats.miss_latency.min is not None:
        latency.merge_dict({"min": stats.miss_latency.min,
                            "max": stats.miss_latency.max})
