"""Differential test of ``markov_fit``'s counting against the per-window loop
it replaced (``markov_reference.reference_counts``)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.core import MAX_VOCAB_SIZE, Vocab
from blockdec.denoisers import markov_fit

from conftest import deadline
from markov_reference import reference_counts


@st.composite
def corpora(draw):
    """A corpus of 1-400 tokens over 2-50 ids (often shorter than order + 1).
    Its tokens are sometimes shifted to end at ``MAX_VOCAB_SIZE - 1``, where a
    window's code is largest; otherwise they sometimes hold one token near
    300,000 or ``True`` for each 1. It comes as a list or as an int64, int32 or
    (when its tokens fit) uint16 array."""
    size = draw(st.integers(2, 50))
    corpus = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=400))
    shape = draw(st.sampled_from(["small", "near 300,000", "at the widest vocab", "bools"]))
    if shape == "near 300,000":
        corpus[draw(st.integers(0, len(corpus) - 1))] = draw(st.integers(299_990, 300_010))
    elif shape == "at the widest vocab":
        corpus = [MAX_VOCAB_SIZE - size + tok for tok in corpus]
    elif shape == "bools":
        return [True if tok == 1 else tok for tok in corpus]
    dtypes = [np.int64, np.int32] + ([np.uint16] if max(corpus) < 1 << 16 else [])
    dtype = draw(st.sampled_from([None, *dtypes]))
    return corpus if dtype is None else np.array(corpus, dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(corpus=corpora(), order=st.integers(1, 4), past_the_end=st.booleans(), sized=st.booleans())
def test_counts_and_totals_equal_the_per_window_loop(corpus, order, past_the_end, sized):
    tokens = [int(tok) for tok in corpus]
    if past_the_end:  # no window is longer than the corpus
        order += len(tokens) - 1
    vocab = Vocab(min(max(tokens) + 2, MAX_VOCAB_SIZE)) if sized else None
    model = markov_fit(corpus, order, 0.01, vocab=vocab)
    want = reference_counts(tokens, order)
    assert model._counts == want
    assert model._totals == {ctx: sum(table.values()) for ctx, table in want.items()}
    assert {type(tok) for ctx, table in model._counts.items() for tok in (*ctx, *table)} == {int}
    assert model.vocab == (vocab or Vocab(max(2, max(tokens) + 1)))


def test_a_long_corpus_counts_equal_the_per_window_loop():
    corpus = np.random.default_rng(7).integers(0, 6, 70_000).tolist()
    for order in (1, 3):
        assert markov_fit(corpus, order, 0.01)._counts == reference_counts(corpus, order)


def test_codes_at_the_widest_vocab_equal_the_per_window_loop():
    # The largest code is (distinct prefixes - 1) * MAX_VOCAB_SIZE + MAX_VOCAB_SIZE - 1.
    rng = np.random.default_rng(11)
    corpus = (MAX_VOCAB_SIZE - 1 - rng.integers(0, 40, 5_000)).tolist()
    model = markov_fit(corpus, 3, 0.01, vocab=Vocab(MAX_VOCAB_SIZE))
    assert model._counts == reference_counts(corpus, 3)


def test_an_order_past_the_corpus_counts_every_window_at_once():
    # The per-order loop once ran to ``order`` itself: 1.7 s at order 3,000 on
    # five tokens, and an order of 10**8 never finished.
    corpus = [0, 1, 0, 1, 2]
    with deadline(10):
        model = markov_fit(corpus, 10**9, 0.01)
    assert model.order == 10**9
    assert model._counts == reference_counts(corpus, len(corpus))
