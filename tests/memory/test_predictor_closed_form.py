"""The closed-form PC-history predictor equals the per-offset loops it
replaced, checked exhaustively over every access range."""

import random

import pytest

from repro.common.wordrange import WordRange
from repro.memory.predictor import PCHistoryPredictor

PATTERNS_PER_SIZE = 2000


def reference_predict(pattern, rng, words_per_region, max_offset=16):
    """The original 33-step loop over signed offsets."""
    lo = rng.start
    hi = rng.end
    for offset in range(-max_offset, max_offset + 1):
        if pattern & (1 << (offset + max_offset)):
            word = rng.start + offset
            if 0 <= word < words_per_region:
                lo = min(lo, word)
                hi = max(hi, word)
    return WordRange(lo, hi)


def reference_pattern(miss_word, touched_mask, words_per_region,
                      max_offset=16):
    """The original per-word loop that turned a dying block's usage
    into an offset pattern."""
    if touched_mask == 0:
        touched_mask = 1 << miss_word
    pattern = 0
    for word in range(words_per_region):
        if touched_mask & (1 << word):
            offset = word - miss_word
            if -max_offset <= offset <= max_offset:
                pattern |= 1 << (offset + max_offset)
    return pattern


def all_ranges(words):
    return [WordRange(s, e) for s in range(words) for e in range(s, words)]


@pytest.mark.parametrize("words", [4, 8, 16])
def test_predict_matches_reference_loop(words):
    rand = random.Random(words)
    window = 2 * 16 + 1
    patterns = [0, (1 << window) - 1, 1 << 16]
    patterns += [rand.getrandbits(window) for _ in range(PATTERNS_PER_SIZE)]
    predictor = PCHistoryPredictor()
    entry = [0, 1]
    predictor._table[predictor._slot(0)] = entry
    for pattern in patterns:
        entry[0] = pattern
        for rng in all_ranges(words):
            got = predictor.predict(0, 0, rng, False, words)
            assert got == reference_predict(pattern, rng, words), (
                pattern, rng)
    assert predictor.hits == len(patterns) * len(all_ranges(words))


@pytest.mark.parametrize("words", [4, 8, 16, 64])
def test_train_pattern_matches_reference_loop(words):
    rand = random.Random(100 + words)
    masks = [0, (1 << words) - 1]
    masks += [rand.getrandbits(words) for _ in range(200)]
    for miss_word in range(words):
        for touched in masks:
            predictor = PCHistoryPredictor()
            predictor.train(0, miss_word, touched, (1 << words) - 1, words)
            got = predictor._table[predictor._slot(0)][0]
            assert got == reference_pattern(miss_word, touched, words), (
                miss_word, touched)


def test_prediction_is_interned():
    predictor = PCHistoryPredictor()
    predictor.train(0x10, 2, touched_mask=0b1100, fetched_mask=0xFF,
                    words_per_region=8)
    first = predictor.predict(0x10, 0, WordRange(4, 4), False, 8)
    second = predictor.predict(0x10, 0, WordRange(4, 4), False, 8)
    assert first == WordRange(4, 5)
    assert first is second
