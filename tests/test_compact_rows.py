"""Differential tests of the row table's compact store against the dense rows
it was given.

A row is stored as its base plus the columns that differ from it, or dense
when that would take more bytes. Whatever form a row took, ``row(r)`` gives
back the bits it entered with, ``at`` gathers what a dense fancy index
gathers, and sampling from the table draws the tokens, and leaves the
generator in the state, of one ``rng.choice`` per position on the dense row
(``realize_reference``). The rows cover no repeated value, a base of 0 (a
Markov fit with no smoothing), smoothed Markov rows, signed zeros, a spike
whose peak equals every other column, an eos spike, and vocabs whose last
sampling chunk is partial. Two pins bound the bytes a row takes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.core import CDF_CHUNK, ENTRY_BYTES, PositionPrediction, RowTable, Vocab
from blockdec.denoisers import markov_fit

from conftest import kept_columns, row_charge, shared_record, spiked_probs, table_of, table_probs
from realize_reference import reference_realize

KINDS = ("distinct", "markov0", "markov", "signed_zeros", "flat", "eos", "spike")


def markov_row(vocab: Vocab, counts: dict[int, int], lam: float) -> np.ndarray:
    """A Markov backend's row: ``(count + lam) / (total + lam * size)`` over the ordinary ids."""
    vec = np.zeros(vocab.size)
    for tok, cnt in counts.items():
        vec[tok] = cnt
    probs = np.zeros(vocab.total_ids)
    probs[: vocab.size] = (vec + lam) / (sum(counts.values()) + lam * vocab.size)
    return probs


def make_row(kind: str, vocab: Vocab, rng: np.random.Generator) -> np.ndarray:
    size = vocab.size
    if kind == "distinct":  # no two ordinary or eos values alike
        probs = np.zeros(vocab.total_ids)
        probs[[*range(size), vocab.eos_id]] = rng.permutation(np.arange(1.0, size + 2))
        return probs / probs.sum()
    if kind in ("markov0", "markov", "signed_zeros"):
        toks = rng.choice(size, min(size, int(rng.integers(1, 6))), replace=False).tolist()
        probs = markov_row(vocab, {t: int(rng.integers(1, 50)) for t in toks},
                           0.01 if kind == "markov" else 0.0)
        if kind == "signed_zeros":
            zeros = np.flatnonzero(probs == 0.0)
            probs[zeros[::2]] = -0.0
        return probs
    token = vocab.eos_id if kind == "eos" else int(rng.integers(0, size))
    peak = 1.0 / size if kind == "flat" else float(rng.uniform(1.0 / size, 1.0))
    return spiked_probs(vocab, token, peak)


@st.composite
def tables(draw):
    """A vocab of 2 to 3 chunks' width and U <= 5 rows of the drawn kinds."""
    size = draw(st.integers(2, 3 * CDF_CHUNK))
    vocab = Vocab(size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    return np.array([make_row(kind, vocab, rng) for kind in kinds])


@settings(max_examples=300, deadline=None)
@given(tables(), st.integers(0, 2**32 - 1))
def test_the_store_gives_back_every_bit_it_was_given(rows, seed):
    table = table_of(rows)
    for r, want in enumerate(rows):
        assert table.row(r).tobytes() == want.tobytes()
    assert table_probs(table).tobytes() == rows.tobytes()
    rng = np.random.default_rng(seed)
    rr = rng.integers(0, len(rows), 40).tolist()
    cc = rng.integers(0, table.width, 40).tolist()
    cc[: len(rows)] = [int(row[: table.vocab.size].argmin()) for row in rows]  # a base column of each
    got = table.at(rr, cc)
    assert got.dtype == np.float64 and got.tobytes() == rows[rr, cc].tobytes()


@settings(max_examples=200, deadline=None)
@given(tables(), st.integers(0, 2**32 - 1), st.data())
def test_sampling_from_the_store_is_one_choice_per_position(rows, seed, data):
    m = data.draw(st.integers(1, 12))
    preds = shared_record(range(m), rows, data.draw(st.lists(st.integers(0, len(rows) - 1),
                                                             min_size=m, max_size=m)))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for temperature in (0.5, 1.0, 2.0, 1.0):  # the last pass reuses the T = 1 indexes
        chosen = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
        got = preds.table.draw([preds.row[i] for i in chosen], temperature, got_rng)
        assert got == reference_realize(rows, preds.row, chosen, temperature, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_each_kind_takes_the_form_its_bytes_call_for():
    vocab, rng = Vocab(4096), np.random.default_rng(0)
    table, charges = RowTable(vocab), {}
    for kind in KINDS:
        before = table.nbytes
        table.add(make_row(kind, vocab, rng))
        charges[kind] = table.nbytes - before
    # a dense row pays ENTRY_BYTES for its stats, as a compact one does in its + 1
    dense = 8 * table.width + ENTRY_BYTES
    kept = {kind: table.width if charge == dense else charge // ENTRY_BYTES - 1 for kind, charge in charges.items()}
    assert all(charges[kind] == row_charge(table.row(r), vocab.size) for r, kind in enumerate(KINDS))
    # stored dense: every value differs, or half the zeros are -0.0 and differ in their sign bit
    assert kept["distinct"] == kept["signed_zeros"] == table.width
    assert kept["flat"] <= 4  # mask, eos, pad, and the peak if it rounds apart
    assert kept["eos"] == 3 and kept["spike"] == 4
    assert kept["markov"] <= 5 + 3 and kept["markov0"] <= 5


def test_a_wide_markov_table_stores_bytes_of_the_support_not_the_vocab():
    # V = 4,096: a dense row is 32,792 bytes; a fitted row with 1-4 successors
    # keeps at most 7 values besides its base (successors, mask, eos, pad)
    vocab, rng = Vocab(4096), np.random.default_rng(1)
    succ = rng.integers(0, vocab.size, (vocab.size, 4))
    tok, corpus = 0, []
    for u in rng.integers(0, 4, 40_000).tolist():
        corpus.append(tok)
        tok = int(succ[tok, u])
    model = markov_fit(corpus, 1, 0.01, vocab=vocab)
    contexts = [(t,) for t in sorted(set(corpus))[:600]]
    model.distribution(())  # the unigram's row, stored dense, enters before the count starts
    tracemalloc.start()
    try:
        for ctx in contexts:
            model.distribution(ctx)
        per_row = tracemalloc.get_traced_memory()[0] / len(contexts)
    finally:
        tracemalloc.stop()
    table = model._table
    assert table.size == len(contexts) + 1
    assert all(len(kept_columns(table.row(r), vocab.size)) <= 7 for r in range(1, table.size))
    assert table.nbytes == sum(row_charge(table.row(r), vocab.size) for r in range(table.size))
    # the values, the base, the stats and the backend's keys of a row
    assert per_row <= ENTRY_BYTES * (7 + 1) + 400 < 8 * table.width / 25
    assert table.nbytes - (8 * table.width + ENTRY_BYTES) <= ENTRY_BYTES * (7 + 1) * len(contexts)


def test_a_row_with_no_repeated_value_stays_within_twice_its_dense_bytes():
    # such a row is stored dense: a dict of 4,099 values would take ~12 times as much
    vocab, rng = Vocab(4096), np.random.default_rng(2)
    rows = np.array([make_row("distinct", vocab, rng) for _ in range(40)])
    tracemalloc.start()
    try:
        table = RowTable(vocab)
        for row in rows:
            table.add(row)
        per_row = tracemalloc.get_traced_memory()[0] / len(rows)
        preds = PositionPrediction.from_probs(range(len(rows)), rows)  # a test's reference record
        per_fresh_row = tracemalloc.get_traced_memory()[0] / len(rows) - per_row
    finally:
        tracemalloc.stop()
    dense = rows[0].nbytes
    assert table.nbytes == len(rows) * (dense + ENTRY_BYTES)
    assert per_row <= 2 * dense and per_fresh_row <= 2 * dense
    assert table_probs(preds.table).tobytes() == rows.tobytes()
