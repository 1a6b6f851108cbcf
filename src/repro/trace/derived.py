"""Derived per-event columns powering the batch execution core.

The packed format (:mod:`repro.trace.packed`) stores the raw access
columns; batch execution (:mod:`repro.system.batch`) additionally needs,
per core, the *region* each event touches, its word-range *mask*, and
prefix sums of think time / write counts / written-word popcounts so a
whole span of events can be retired with O(1) arithmetic.  Those columns
depend only on the trace and the region size, so they are computed once
per ``(trace, region_bytes)`` in pure Python — list comprehensions,
``itertools`` prefix sums, masks memoised per (offset, size) — and cached
as a binary sidecar next to the packed trace (see
:class:`~repro.trace._cache.TraceCache`), so a sweep derives each trace
at most once.

Two global classifications ride along, both trace-level facts:

* a region is **private** when exactly one core ever touches it;
* a region is **read-only** when no core ever writes it.

Events on private or read-only regions commute with other cores'
transactions as long as they *hit*, which is what lets the batch runner
execute them ahead of the global clock order.  Every other event sits in
the per-core ``hard_pos`` index and is replayed in exact heap order.

Bump :data:`DERIVED_FORMAT_VERSION` whenever the sidecar layout or any
derivation rule changes; the sidecar file name embeds it, so stale files
simply become unreachable.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections import Counter
from itertools import accumulate, compress
from typing import List, Optional, Tuple

from repro.common.addresses import WORD_BYTES
from repro.common.errors import SimulationError

#: Sidecar-format version; part of every sidecar file name.
DERIVED_FORMAT_VERSION = 1

#: Masks live in signed 64-bit columns; regions wider than this many
#: words cannot be batch-executed (the scalar engine handles them).
MAX_MASK_WORDS = 62

_MAGIC = b"REPRODRV"
# magic, version, endian, reserved, cores, region_bytes, total_regions
_HEADER = struct.Struct("<8sBBHIQQ")
_CORE_HEADER = struct.Struct("<QQQ")  # events, regions, hard events
_LITTLE, _BIG = 0, 1
_NATIVE_ENDIAN = _LITTLE if sys.byteorder == "little" else _BIG

#: (attribute, typecode, length rule) of the per-core on-disk layout.
#: Length rule: "n" = one per event, "n1" = events + 1 (prefix sums),
#: "h" = one per hard event, "r" = one per distinct region.
_CORE_ARRAYS: Tuple[Tuple[str, str, str], ...] = (
    ("region_idx", "i", "n"),
    ("amask", "q", "n"),
    ("wmask", "q", "n"),
    ("think_cum", "q", "n1"),
    ("writes_cum", "q", "n1"),
    ("wpop_cum", "q", "n1"),
    ("hard_pos", "q", "h"),
    ("region_ids", "q", "r"),
)

class CoreDerived:
    """One core's derived columns (see module docstring).

    ``region_idx`` holds *dense* indices into the core's sorted
    ``region_ids`` table so runtime state (coverage, pending masks) can
    live in flat arrays instead of dicts keyed by raw region ids.
    """

    __slots__ = ("region_idx", "amask", "wmask", "think_cum", "writes_cum",
                 "wpop_cum", "hard_pos", "region_ids")

    def __init__(self, region_idx: array, amask: array, wmask: array,
                 think_cum: array, writes_cum: array, wpop_cum: array,
                 hard_pos: array, region_ids: array):
        self.region_idx = region_idx
        self.amask = amask
        self.wmask = wmask
        self.think_cum = think_cum
        self.writes_cum = writes_cum
        self.wpop_cum = wpop_cum
        self.hard_pos = hard_pos
        self.region_ids = region_ids

    @property
    def events(self) -> int:
        return len(self.region_idx)


class DerivedColumns:
    """Derived columns for every core of one packed trace."""

    __slots__ = ("region_bytes", "total_regions", "per_core")

    def __init__(self, region_bytes: int, total_regions: int,
                 per_core: List[CoreDerived]):
        self.region_bytes = region_bytes
        self.total_regions = total_regions
        self.per_core = per_core

    @property
    def cores(self) -> int:
        return len(self.per_core)

    def matches(self, packed) -> bool:
        """Whether this sidecar describes ``packed`` (shape check)."""
        if self.cores != packed.cores:
            return False
        return [c.events for c in self.per_core] == packed.counts

    # -- binary serialization ------------------------------------------------

    def dumps(self) -> bytes:
        buf = bytearray()
        buf += _HEADER.pack(_MAGIC, DERIVED_FORMAT_VERSION, _NATIVE_ENDIAN,
                            0, self.cores, self.region_bytes,
                            self.total_regions)
        for core in self.per_core:
            buf += _CORE_HEADER.pack(core.events, len(core.region_ids),
                                     len(core.hard_pos))
            for name, _code, _rule in _CORE_ARRAYS:
                buf += getattr(core, name).tobytes()
        return bytes(buf)

    @classmethod
    def loads(cls, data: bytes) -> "DerivedColumns":
        total = len(data)
        if total < _HEADER.size:
            raise SimulationError("truncated derived-column header")
        try:
            magic, version, endian, _, cores, region_bytes, total_regions = (
                _HEADER.unpack_from(data, 0))
        except struct.error as exc:
            raise SimulationError(f"malformed derived-column header: {exc}")
        if magic != _MAGIC:
            raise SimulationError(
                f"not a derived-column sidecar (magic {magic!r})")
        if version != DERIVED_FORMAT_VERSION:
            raise SimulationError(
                f"derived-column version {version} (this build reads "
                f"{DERIVED_FORMAT_VERSION})")
        if endian not in (_LITTLE, _BIG):
            raise SimulationError(f"derived-column endian flag {endian}")
        swap = endian != _NATIVE_ENDIAN
        off = _HEADER.size
        per_core: List[CoreDerived] = []
        for _ in range(cores):
            if total < off + _CORE_HEADER.size:
                raise SimulationError("truncated derived-column core header")
            n, r, h = _CORE_HEADER.unpack_from(data, off)
            off += _CORE_HEADER.size
            lengths = {"n": n, "n1": n + 1, "h": h, "r": r}
            arrs = {}
            for name, typecode, rule in _CORE_ARRAYS:
                count = lengths[rule]
                arr = array(typecode)
                nbytes = count * arr.itemsize
                if total < off + nbytes:
                    raise SimulationError(
                        f"truncated derived-column array {name}")
                arr.frombytes(data[off:off + nbytes])
                if swap and arr.itemsize > 1:
                    arr.byteswap()
                off += nbytes
                arrs[name] = arr
            per_core.append(CoreDerived(**arrs))
        if off != total:
            raise SimulationError(
                f"derived-column size mismatch: {total - off} trailing bytes")
        return cls(region_bytes, total_regions, per_core)


# -- derivation --------------------------------------------------------------


def derive(packed, region_bytes: int) -> DerivedColumns:
    """Compute derived columns for ``packed`` at ``region_bytes``."""
    if region_bytes % WORD_BYTES != 0 or region_bytes <= 0:
        raise SimulationError(
            f"region size {region_bytes} not a multiple of {WORD_BYTES}")
    if region_bytes // WORD_BYTES > MAX_MASK_WORDS:
        raise SimulationError(
            f"regions of {region_bytes} bytes exceed the {MAX_MASK_WORDS}-"
            "word mask columns")
    cores = packed.cores
    # Pass 1, per core: the region of every event, and which regions any
    # core writes; a region is hard when it is both shared and written.
    regions: List[List[int]] = []
    region_ids: List[List[int]] = []
    written: set = set()
    touched_by: Counter = Counter()  # region -> cores touching it
    for core in range(cores):
        w, a, _s, _p, _t = packed.core_columns(core)
        regs = [addr // region_bytes for addr in a]
        distinct = set(regs)
        written.update(compress(regs, w))
        touched_by.update(distinct)
        regions.append(regs)
        region_ids.append(sorted(distinct))
    hard = {region for region, count in touched_by.items()
            if count > 1 and region in written}
    mask_of = _MaskMemo(region_bytes)
    per_core: List[CoreDerived] = []
    for core in range(cores):
        w, a, s, _p, t = packed.core_columns(core)
        regs = regions[core]
        idx_of = {region: i for i, region in enumerate(region_ids[core])}
        amask = [mask_of[addr % region_bytes, size]
                 for addr, size in zip(a, s)]
        wmask = [mask if wr else 0 for mask, wr in zip(amask, w)]
        hard_pos = [i for i, region in enumerate(regs) if region in hard]
        per_core.append(CoreDerived(
            array("i", [idx_of[region] for region in regs]),
            array("q", amask),
            array("q", wmask),
            array("q", accumulate(t, initial=0)),
            array("q", accumulate(w, initial=0)),
            array("q", accumulate(map(int.bit_count, wmask), initial=0)),
            array("q", hard_pos),
            array("q", region_ids[core]),
        ))
    return DerivedColumns(region_bytes, len(touched_by), per_core)


class _MaskMemo(dict):
    """Word-range masks keyed by ``(offset in region, access size)``.

    A trace reuses a handful of (offset, size) shapes, so each mask is
    computed once per derive instead of once per event.
    """

    def __init__(self, region_bytes: int):
        super().__init__()
        self.region_bytes = region_bytes

    def __missing__(self, key: Tuple[int, int]) -> int:
        offset, size = key
        first = offset // WORD_BYTES
        last_offset = offset + max(size, 1) - 1
        if last_offset >= self.region_bytes:
            last = self.region_bytes // WORD_BYTES - 1
        else:
            last = last_offset // WORD_BYTES
        mask = self[key] = ((1 << (last - first + 1)) - 1) << first
        return mask


# -- caching -----------------------------------------------------------------


def derived_for(packed, region_bytes: int) -> DerivedColumns:
    """Derived columns for ``packed``, memoized and sidecar-cached.

    ``PackedTrace`` carries a per-instance memo (``_derived``) and, when
    it came out of a :class:`~repro.trace._cache.TraceCache`, a sidecar
    store (``_derived_io``) that persists the columns beside the packed
    binary.  A sidecar that fails to parse or does not describe this
    trace's shape is silently rebuilt and rewritten.
    """
    memo = getattr(packed, "_derived", None)
    if memo is not None:
        cached = memo.get(region_bytes)
        if cached is not None:
            return cached
    io = getattr(packed, "_derived_io", None)
    derived: Optional[DerivedColumns] = None
    if io is not None:
        blob = io.load(region_bytes)
        if blob is not None:
            try:
                candidate = DerivedColumns.loads(blob)
            except SimulationError:
                candidate = None
            if (candidate is not None
                    and candidate.region_bytes == region_bytes
                    and candidate.matches(packed)):
                derived = candidate
    if derived is None:
        derived = derive(packed, region_bytes)
        if io is not None:
            io.save(region_bytes, derived.dumps())
    if memo is not None:
        memo[region_bytes] = derived
    return derived
