"""Differential test of ``markov_fit``'s counting against the per-window loop
it replaced (``markov_reference.reference_counts``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.core import MAX_VOCAB_SIZE, Vocab
from blockdec.denoisers import markov_fit

from conftest import deadline
from markov_reference import reference_counts


EDGE = 1 << 21  # the widest vocab whose windows of three tokens all code below 2**63: EDGE**3 - 1


@st.composite
def corpora(draw):
    """A corpus of 1-400 tokens over 2-50 ids (often shorter than order + 1).
    Its tokens are sometimes shifted to end at ``MAX_VOCAB_SIZE - 1``, where a
    window's code is largest, or near the int64 edge: to end at ``edge - 2``
    for an ``edge`` of ``EDGE - 1``, ``EDGE`` or ``EDGE + 1``, so that a
    ``sized`` fit runs at vocab ``edge``, where windows of three tokens are
    coded directly below ``EDGE + 1`` and after ranking at it. Otherwise they
    sometimes hold one token near 300,000 or ``True`` for each 1. It comes as
    a list or as an int64, int32 or (when its tokens fit) uint16 array."""
    size = draw(st.integers(2, 50))
    corpus = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=400))
    shape = draw(st.sampled_from(["small", "near 300,000", "at the widest vocab", "near the int64 edge", "bools"]))
    if shape == "near 300,000":
        corpus[draw(st.integers(0, len(corpus) - 1))] = draw(st.integers(299_990, 300_010))
    elif shape == "at the widest vocab":
        corpus = [MAX_VOCAB_SIZE - size + tok for tok in corpus]
    elif shape == "near the int64 edge":
        edge = draw(st.sampled_from([EDGE - 1, EDGE, EDGE + 1]))
        corpus[draw(st.integers(0, len(corpus) - 1))] = 0
        corpus = [edge - 2 - tok for tok in corpus]
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


def fit_and_ranked_lengths(monkeypatch, corpus, order, vocab):
    """The fit, and each window length whose codes it ranked before coding the
    windows one token longer. Ranking is a ``searchsorted`` with a query per
    corpus window, ``len(corpus) - length + 1`` of them; a prefix lookup has one
    per distinct window, fewer here, since the corpus repeats its windows."""
    searched = []
    search = np.searchsorted

    def counted(sorted_codes, queries, *args, **kwargs):
        searched.append(len(queries))
        return search(sorted_codes, queries, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    model = markov_fit(corpus, order, 0.01, vocab=vocab)
    monkeypatch.undo()
    return model, [len(corpus) - n + 1 for n in searched if n >= len(corpus) - order]


def top_of(size: int) -> list[int]:
    """3,000 tokens from the top five ids of ``size``, ending in three of the top one."""
    return (size - 1 - np.random.default_rng(28).integers(0, 5, 3_000)).tolist() + [size - 1] * 3


@pytest.mark.parametrize("size, corpus, order, ranked", [
    (EDGE, top_of(EDGE), 2, []),  # its largest code, three top tokens, is EDGE**3 - 1 == 2**63 - 1
    (EDGE, top_of(EDGE), 3, [3]),
    (EDGE + 1, top_of(EDGE + 1), 2, [2]),
    # (EDGE - 2, 2, EDGE) codes exactly 2**63, and its prefix's code times EDGE + 1 stays below it
    (EDGE + 1, [0, 1] * 100 + [EDGE - 2, 2, EDGE], 2, [2]),
], ids=["direct to 2**63 - 1", "ranked at length 3", "ranked at length 2", "ranked for a code of 2**63"])
def test_codes_at_the_int64_edge_equal_the_per_window_loop(monkeypatch, size, corpus, order, ranked):
    model, lengths = fit_and_ranked_lengths(monkeypatch, corpus, order, Vocab(size))
    assert model._counts == reference_counts(corpus, order)
    assert lengths == ranked


def test_an_order_past_the_corpus_counts_every_window_at_once():
    # The per-order loop once ran to ``order`` itself: 1.7 s at order 3,000 on
    # five tokens, and an order of 10**8 never finished.
    corpus = [0, 1, 0, 1, 2]
    with deadline(10):
        model = markov_fit(corpus, 10**9, 0.01)
    assert model.order == 10**9
    assert model._counts == reference_counts(corpus, len(corpus))
