"""Address arithmetic: bytes -> (region, word) and back.

The coherence directory, MSHRs, and the L2 all index at REGION granularity
(an aligned block of ``region_bytes``, 64 B by default).  Words are the unit
of data tracking (8 B).  ``AddressMap`` centralizes the conversions so no
module hand-rolls shifting/masking.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.wordrange import WordRange, word_range

WORD_BYTES = 8


class AddressMap:
    """Byte-address <-> (region id, word index) conversions."""

    __slots__ = ("region_bytes", "words_per_region", "_ranges", "_full")

    def __init__(self, region_bytes: int = 64):
        if region_bytes % WORD_BYTES != 0 or region_bytes <= 0:
            raise ConfigError(f"region size {region_bytes} not a multiple of {WORD_BYTES}")
        self.region_bytes = region_bytes
        self.words_per_region = region_bytes // WORD_BYTES
        # The interned WordRange (word_range) of every (first, last) pair
        # within a region: access_range() runs once per simulated access,
        # and reusing ranges keeps their precomputed masks hot instead of
        # reallocating.
        words = self.words_per_region
        self._ranges = [
            [word_range(first, last) if last >= first else None
             for last in range(words)]
            for first in range(words)
        ]
        self._full = self._ranges[0][words - 1]

    def region_of(self, addr: int) -> int:
        """REGION id containing the byte address."""
        return addr // self.region_bytes

    def word_of(self, addr: int) -> int:
        """Word slot (within its region) containing the byte address."""
        return (addr % self.region_bytes) // WORD_BYTES

    def split(self, addr: int) -> "tuple[int, int]":
        """(region id, word index) of a byte address."""
        return self.region_of(addr), self.word_of(addr)

    def base(self, region: int) -> int:
        """Byte address of the first word of a region."""
        return region * self.region_bytes

    def addr_of(self, region: int, word: int) -> int:
        """Byte address of ``word`` within ``region``."""
        return region * self.region_bytes + word * WORD_BYTES

    def access_range(self, addr: int, size: int) -> "tuple[int, WordRange]":
        """Region and word range touched by an access of ``size`` bytes.

        Accesses are assumed not to straddle a region boundary (the trace
        generators guarantee this; real ISAs split such accesses too).
        """
        region, offset = divmod(addr, self.region_bytes)
        first = offset // WORD_BYTES
        last_offset = offset + max(size, 1) - 1
        if last_offset >= self.region_bytes:
            last = self.words_per_region - 1
        else:
            last = last_offset // WORD_BYTES
        return region, self._ranges[first][last]

    def full_range(self) -> WordRange:
        """The word range covering an entire region."""
        return self._full

    def __repr__(self) -> str:
        return f"AddressMap(region_bytes={self.region_bytes})"
