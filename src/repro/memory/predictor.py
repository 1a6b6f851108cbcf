"""Spatial-granularity predictors for the Amoeba L1.

Protozoa leverages the Amoeba-Cache PC-based predictor [Kumar et al.,
MICRO'12] to decide how many words to request on a miss.  The predictor
observes, when a block dies (eviction or invalidation), which words the
program actually touched, keyed by the PC of the miss that allocated the
block and stored *relative to the critical (miss) word*.  On the next miss
from the same PC it requests the smallest contiguous range that covers the
remembered pattern, clamped to the region and always including the missed
word.

Two degenerate predictors bound the design space for ablations:
``WholeRegionPredictor`` (always 8 words — storage behaviour identical to
MESI) and ``SingleWordPredictor`` (always exactly the accessed words).
"""

from __future__ import annotations

from typing import Dict

from repro.common.params import PredictorKind
from repro.common.wordrange import WordRange, word_range


class SpatialPredictor:
    """Interface: per-core granularity prediction + death-time training."""

    def predict(self, pc: int, region: int, rng: WordRange, is_write: bool,
                words_per_region: int) -> WordRange:
        """Word range to request for a miss on ``rng`` (must cover it)."""
        raise NotImplementedError

    def train(self, pc: int, miss_word: int, touched_mask: int,
              fetched_mask: int, words_per_region: int,
              invalidated: bool = False) -> None:
        """Observe a dying block's usage (default: stateless, no-op).

        ``invalidated`` marks a death by remote coherence action: the
        observed usage is then a *truncated lower bound* on the access
        site's true footprint, not a complete observation.
        """


class WholeRegionPredictor(SpatialPredictor):
    """Always fetch the full region (MESI-like storage granularity)."""

    def predict(self, pc, region, rng, is_write, words_per_region):
        return WordRange.full(words_per_region)


class SingleWordPredictor(SpatialPredictor):
    """Always fetch exactly the accessed words (minimum traffic, no prefetch)."""

    def predict(self, pc, region, rng, is_write, words_per_region):
        return rng


class PCHistoryPredictor(SpatialPredictor):
    """The Amoeba-Cache PC-indexed word-usage history predictor.

    The table is direct-mapped on a hash of the PC.  Each entry holds a
    signed-offset bitmap of words touched relative to the miss word, with a
    small saturating confidence so that one anomalous block does not erase a
    stable pattern.  Cold misses default to the whole region, which matches
    the paper's observation that untrained Protozoa behaves like MESI.
    """

    def __init__(self, table_size: int = 1024, max_offset: int = 16):
        self.table_size = table_size
        self.max_offset = max_offset
        # entry: [pattern (bitmap over offsets -max..+max), confidence]
        self._table: Dict[int, list] = {}
        self.hits = 0
        self.cold = 0

    def _slot(self, pc: int) -> int:
        return (pc ^ (pc >> 13)) % self.table_size

    def predict(self, pc, region, rng, is_write, words_per_region):
        entry = self._table.get(self._slot(pc))
        if entry is None:
            self.cold += 1
            return WordRange.full(words_per_region)
        self.hits += 1
        # Bit ``offset + max_offset`` of the pattern is word
        # ``rng.start + offset``: shift the pattern onto word indices,
        # clip it to the region, and span it together with the access.
        shift = rng.start - self.max_offset
        words = entry[0] << shift if shift >= 0 else entry[0] >> -shift
        words = (words & ((1 << words_per_region) - 1)) | rng.mask
        return word_range((words & -words).bit_length() - 1,
                          words.bit_length() - 1)

    def train(self, pc, miss_word, touched_mask, fetched_mask, words_per_region,
              invalidated=False):
        if touched_mask == 0:
            # The block died untouched (e.g. invalidated immediately);
            # remember at least the miss word so training still converges.
            touched_mask = 1 << miss_word
        # Word ``w`` lands on bit ``w - miss_word + max_offset``; offsets
        # beyond +-max_offset fall outside the pattern window.
        touched_mask &= (1 << words_per_region) - 1
        shift = self.max_offset - miss_word
        pattern = touched_mask << shift if shift >= 0 else touched_mask >> -shift
        pattern &= (1 << (2 * self.max_offset + 1)) - 1
        slot = self._slot(pc)
        entry = self._table.get(slot)
        if entry is None:
            self._table[slot] = [pattern, 1]
            return
        if entry[0] == pattern:
            entry[1] = min(entry[1] + 1, 3)
            return
        if invalidated:
            # A coherence invalidation truncates the observation: what was
            # touched is a lower bound on the site's footprint, so only
            # *widen* the remembered pattern — replacing it would lock
            # contended data into pessimal one-word fetches.
            entry[0] |= pattern
            return
        # A natural death (eviction / end of run) is a complete
        # observation: keep the most recent usage bitmap, with a small
        # confidence counter protecting a repeatedly-confirmed pattern
        # from a single outlier.
        entry[1] -= 1
        if entry[1] <= 0:
            entry[0] = pattern
            entry[1] = 1


def make_predictor(kind: PredictorKind) -> SpatialPredictor:
    """Factory used by the machine builder."""
    if kind is PredictorKind.PC_HISTORY:
        return PCHistoryPredictor()
    if kind is PredictorKind.WHOLE_REGION:
        return WholeRegionPredictor()
    if kind is PredictorKind.SINGLE_WORD:
        return SingleWordPredictor()
    raise ValueError(f"unknown predictor kind: {kind}")
