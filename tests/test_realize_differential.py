"""Differential property tests: the chunk-indexed sampler against one
``rng.choice`` per position (``realize_reference``).

Rows hold zero columns, exact ties and tiny weights; the row index repeats
rows, so several positions draw through one row's index. Wide rows span
one to five ``CDF_CHUNK``-column chunks, with zero columns and whole zero
chunks at the chunk ends, and one table is drawn from over several passes
at several temperatures. Tokens and the generator state afterwards must
both match.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.sampling import CDF_CHUNK, _chunk_index, _realize

from conftest import bare_table, index_cdf, shared_record, table_of
from realize_reference import reference_realize, reference_tokens, reference_weights

TEMPERATURES = (0.0, 1.0, 0.5, 2.0)
SAMPLING_TEMPERATURES = (1.0, 0.7, 0.3, 1.5, 1e-3, 0.5, 2.0)
WEIGHTS = (0.0, 0.0, 1e-300, 1e-12, 1e-6, 1.0, 1.0, 2.0, 3.0, 0.37)


@st.composite
def shared_records(draw):
    """A valid record of M positions over U <= 4 rows, with a row index.
    Each row weighs V ordinary ids and eos; mask and pad stay zero."""
    u = draw(st.integers(1, 4))
    v = draw(st.integers(2, 12))
    weights = st.lists(st.sampled_from(WEIGHTS) | st.floats(1e-3, 10.0),
                       min_size=v + 1, max_size=v + 1).filter(lambda w: max(w) >= 1e-3)
    probs = np.zeros((u, v + 3))
    probs[:, [*range(v), v + 1]] = [draw(weights) for _ in range(u)]
    probs /= probs.sum(axis=1, keepdims=True)
    m = draw(st.integers(1, 10))
    return shared_record(range(m), probs, draw(st.lists(st.integers(0, u - 1), min_size=m,
                                                        max_size=m)))


@st.composite
def wide_rows(draw):
    """U <= 3 valid rows of 1-5 chunks each (mask and pad included in the
    width). Weights mix zeros, tiny values and ties; the columns on either
    side of every chunk end, or one whole chunk, may be zeroed."""
    width = draw(st.integers(5, 5 * CDF_CHUNK))
    v = width - 3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = draw(st.integers(1, 3))
    probs = rng.choice(WEIGHTS, size=(u, width)) * rng.choice([1.0, 1.0, 0.5], size=(u, width))
    probs[:, ::3] += rng.random((u, len(range(0, width, 3))))
    if draw(st.booleans()):
        probs[:, CDF_CHUNK - 1 :: CDF_CHUNK] = 0.0
        probs[:, CDF_CHUNK :: CDF_CHUNK] = 0.0
    if width > CDF_CHUNK and draw(st.booleans()):
        k = draw(st.integers(0, (width - 1) // CDF_CHUNK))
        probs[:, k * CDF_CHUNK : (k + 1) * CDF_CHUNK] = 0.0
    probs[:, [v, v + 2]] = 0.0  # mask, pad
    probs[np.arange(u), rng.choice([*range(v), v + 1], size=u)] = 1.0  # a weight >= 1e-3
    return probs / probs.sum(axis=1, keepdims=True)


class Uniforms:
    """A stand-in generator whose ``random(n)`` returns the next n uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out)


@settings(max_examples=400, deadline=None)
@given(shared_records(), st.sampled_from(TEMPERATURES), st.integers(0, 2**32 - 1), st.data())
def test_shared_row_sampler_matches_one_choice_per_position(preds, temperature, seed, data):
    m = len(preds.positions)
    chosen = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _realize(preds, chosen, temperature, got_rng)
    want = reference_realize(preds.table.probs, preds.row, chosen, temperature, want_rng)
    assert got == want
    assert all(type(t) is int for t in got)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(wide_rows(), st.lists(st.sampled_from(SAMPLING_TEMPERATURES), min_size=2, max_size=5),
       st.integers(0, 2**32 - 1), st.data())
def test_wide_rows_match_one_choice_per_position_across_passes(probs, temperatures, seed, data):
    # one table, one pass per temperature: the passes reuse the rows' indexes
    # at a repeated temperature and build new ones at a new temperature
    m = data.draw(st.integers(1, 12))
    preds = shared_record(range(m), probs, data.draw(
        st.lists(st.integers(0, len(probs) - 1), min_size=m, max_size=m)))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = set()
    for temperature in temperatures:
        chosen = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
        got = _realize(preds, chosen, temperature, got_rng)
        want = reference_realize(preds.table.probs, preds.row, chosen, temperature, want_rng)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        drawn |= {(temperature, preds.row[i]) for i in chosen}
    index = preds.table.cdf_index
    assert {(t, r) for t, rows in index.items() for r in rows} == drawn


@settings(max_examples=150, deadline=None)
@given(wide_rows(), st.sampled_from(SAMPLING_TEMPERATURES))
def test_uniforms_at_chunk_ends_match_the_full_cdf(probs, temperature):
    # a uniform at each column's normalized CDF value, chunk ends included,
    # and one ulp to either side: searchsorted(..., "right") must leave or
    # stay in the chunk as the full CDF does, across zero columns and chunks
    for r, row in enumerate(probs):
        cdf = reference_weights(row, temperature).cumsum()
        cdf /= cdf[-1]
        us = np.concatenate([[0.0], np.nextafter(cdf, 0.0), cdf, np.nextafter(cdf, 1.0)])
        us = us[us < 1.0].tolist()
        preds = shared_record(range(len(us)), probs, [r] * len(us))
        got = _realize(preds, list(range(len(us))), temperature, Uniforms(us))
        assert got == reference_tokens(row, temperature, us)


def test_reference_tokens_are_generator_choice():
    rows = np.random.default_rng(3).dirichlet(np.full(200, 0.2), size=40)
    for temperature in (1.0, 0.3, 1.5):
        for seed, row in enumerate(rows):
            choice_rng, uniform_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [int(choice_rng.choice(len(row), p=reference_weights(row, temperature)))
                    for _ in range(5)]
            assert reference_tokens(row, temperature, uniform_rng.random(5)) == want


@pytest.mark.parametrize("temperature", [1.0, 0.5, 2.0])
@pytest.mark.parametrize("bad", [[0.5, -0.1, 0.6], [np.nan, 0.5, 0.5], [0.2, np.nan, 0.8]])
def test_nan_or_negative_weights_raise_value_error(bad, temperature):
    # tables refuse such rows, so a bare stand-in reaches the sampler's own
    # checks, which run where the first draw from a row builds its index
    table = bare_table([0.5, 0.5, 0.0], bad)
    preds = SimpleNamespace(table=table, row=(0, 1))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            _realize(preds, [0, 1], temperature, np.random.default_rng(0))
        with pytest.raises(ValueError):
            _chunk_index(table, 1, temperature)
        with pytest.raises(ValueError):
            reference_realize(np.array([[0.5, 0.5, 0.0], bad]), preds.row, [0, 1], temperature,
                              np.random.default_rng(0))


def reference_cdf(row: np.ndarray, temperature: float) -> np.ndarray:
    cdf = reference_weights(row, temperature).cumsum()
    return cdf / cdf[-1]


def test_weights_are_bit_identical_to_the_reference():
    # the CDF of the weights: the subtracted max goes through math.log: np.log
    # differs from it in the last bit for a small share of values, which would
    # move a rare token
    rows = np.random.default_rng(7).dirichlet(np.full(50, 0.3), size=1500)
    rows[:, ::7] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    table = bare_table(*rows)
    for temperature in (0.25, 0.5, 2.0, 1.0):
        for r, row in enumerate(rows):
            assert index_cdf(table, r, temperature).tobytes() == reference_cdf(row, temperature).tobytes()


def test_chunk_weights_are_the_full_rows_bits():
    # a draw reads one chunk's CDF: kept for a chunk holding a column that
    # differs from the base, else summed from the chunk's start over the one
    # plain weight; either way with the bits of the full row's CDF
    rng = np.random.default_rng(8)
    size = 5 * CDF_CHUNK - 10  # the last chunk is partial
    rows = np.zeros((60, size + 3))
    rows[:, :size] = 0.01
    for r, row in enumerate(rows):
        spikes = rng.choice(size, rng.integers(1, 6), replace=False)
        row[spikes] += rng.random(len(spikes))
        row[0] += 0.5 * (r % 2)  # a first chunk that is not plain
        row[size + 1] = rng.choice([0.0, 0.3])  # eos
    rows /= rows.sum(axis=1, keepdims=True)
    table = table_of(rows)
    for temperature in (0.25, 0.7, 1.0, 1.5, 1e-3):
        plains = 0
        for r, row in enumerate(rows):
            plain = _chunk_index(table, r, temperature)[4]
            if plain is not None:  # some chunk holds base columns only
                plains += 1
                base = int(row[:size].argmin())
                assert plain.tobytes() == reference_weights(row, temperature)[base].tobytes()
            assert index_cdf(table, r, temperature).tobytes() == reference_cdf(row, temperature).tobytes()
        assert plains > 40
