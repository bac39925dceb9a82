"""Differential test of ``markov_fit``'s counting against the per-window loop
it replaced (``markov_reference.reference_counts``)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.core import Vocab
from blockdec.denoisers import markov_fit

from markov_reference import reference_counts


@st.composite
def corpora(draw):
    """A corpus of 1-400 tokens over 2-50 ids (often shorter than order + 1),
    sometimes with one token near 300,000, as a list or an int64 array."""
    size = draw(st.integers(2, 50))
    corpus = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=400))
    if draw(st.booleans()):
        corpus[draw(st.integers(0, len(corpus) - 1))] = draw(st.integers(299_990, 300_010))
    return np.array(corpus, dtype=np.int64) if draw(st.booleans()) else corpus


@settings(max_examples=300, deadline=None)
@given(corpus=corpora(), order=st.integers(1, 4), sized=st.booleans())
def test_counts_and_totals_equal_the_per_window_loop(corpus, order, sized):
    tokens = [int(tok) for tok in corpus]
    vocab = Vocab(max(tokens) + 2) if sized else None
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
