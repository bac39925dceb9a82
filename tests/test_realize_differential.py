"""Differential property tests: ``RowTable.draw``, the chunk-indexed
sampler, against one ``rng.choice`` per position (``realize_reference``).

Rows hold zero columns, exact ties and tiny weights; the row index repeats
rows, so several positions draw through one row's index. Wide rows span
one to five ``CDF_CHUNK``-column chunks, with zero columns and whole zero
chunks at the chunk ends, and one table is drawn from over several passes
at several temperatures, down to the smallest positive float. Tokens and
the generator state afterwards must both match.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.core import CDF_CHUNK

from conftest import cdf_probes, charged, drawn_at, index_charge, shared_record, table_of, table_probs
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


@settings(max_examples=400, deadline=None)
@given(shared_records(), st.sampled_from(TEMPERATURES), st.integers(0, 2**32 - 1), st.data())
def test_shared_row_sampler_matches_one_choice_per_position(preds, temperature, seed, data):
    m = len(preds.positions)
    chosen = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = preds.table.draw([preds.row[i] for i in chosen], temperature, got_rng)
    want = reference_realize(table_probs(preds.table), preds.row, chosen, temperature, want_rng)
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
        got = preds.table.draw([preds.row[i] for i in chosen], temperature, got_rng)
        want = reference_realize(table_probs(preds.table), preds.row, chosen, temperature, want_rng)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        drawn |= {(temperature, preds.row[i]) for i in chosen}
    # one index per drawn (temperature, row), each charged once as it was built
    assert preds.table.nbytes == charged(preds.table, drawn)


@settings(max_examples=150, deadline=None)
@given(wide_rows(), st.sampled_from(SAMPLING_TEMPERATURES))
def test_uniforms_at_chunk_ends_match_the_full_cdf(probs, temperature):
    # a uniform at each column's normalized CDF value, chunk ends included,
    # and one ulp to either side: searchsorted(..., "right") must leave or
    # stay in the chunk as the full CDF does, across zero columns and chunks
    table = table_of(probs)
    for r, row in enumerate(probs):
        us = cdf_probes(reference_cdf(row, temperature))
        assert drawn_at(table, r, temperature, us) == reference_tokens(row, temperature, us)


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
    # the table refuses such a row as it enters, so no draw can reach one;
    # a refused row leaves the table drawing from its rows as before
    good = [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]  # Vocab(3): ordinary ids 0-2
    table = table_of([good])
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            table.add([*bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            reference_realize(np.array([good, [*bad, 0.0, 0.0, 0.0]]), (0, 1), [0, 1], temperature,
                              np.random.default_rng(0))
    assert table.size == 1
    got_rng, want_rng = np.random.default_rng(0), np.random.default_rng(0)
    assert table.draw([0, 0], temperature, got_rng) == \
        reference_realize(np.array([good]), None, [0, 0], temperature, want_rng)


def reference_cdf(row: np.ndarray, temperature: float) -> np.ndarray:
    cdf = reference_weights(row, temperature).cumsum()
    return cdf / cdf[-1]


def test_weights_are_bit_identical_to_the_reference():
    # the tokens at each CDF value and one ulp to either side: the same
    # tokens everywhere means the index holds the reference CDF's bits
    rows = np.zeros((1500, 53))  # Vocab(50): ordinary ids and eos carry mass
    rows[:, [*range(50), 51]] = np.random.default_rng(7).dirichlet(np.full(51, 0.3), size=1500)
    rows[:, ::7] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    table = table_of(rows)
    for temperature in (0.25, 0.5, 2.0, 1.0):
        for r, row in enumerate(rows):
            us = cdf_probes(reference_cdf(row, temperature))
            assert drawn_at(table, r, temperature, us) == reference_tokens(row, temperature, us)


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
    every_chunk = 8 * (1 + 2 * (table.width // CDF_CHUNK) + table.width)
    for temperature in (0.25, 0.7, 1.0, 1.5, 1e-3):
        plains = 0
        for r, row in enumerate(rows):
            before = table.nbytes
            us = cdf_probes(reference_cdf(row, temperature))
            assert drawn_at(table, r, temperature, us) == reference_tokens(row, temperature, us)
            assert table.nbytes - before == index_charge(row, size)
            plains += index_charge(row, size) < every_chunk  # some chunk holds base columns only
        assert plains > 40


@pytest.mark.parametrize("temperature", [5e-324, 1e-200, 1e-20, 1e-3])
def test_a_max_whose_two_logs_differ_still_weighs_one(temperature):
    # np.log and math.log differ in the last bit for ~0.1% of values: a max
    # log taken from the one and subtracted from the other's left the max
    # column at (+-1 ulp) / T, an inf or a 0 weight once T fell below ~1e-19
    xs = np.random.default_rng(0).uniform(0.5, 0.9, 20_000).tolist()
    peak = next((x for x in xs if float(np.log(x)) != math.log(x)), 0.75)
    table = table_of([[peak, 1.0 - peak, 0.0, 0.0, 0.0]])  # Vocab(2): sums to 1 exactly
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert table.draw([0] * 50, temperature, rng) == [0] * 50


TINY_OR_LARGE = st.floats(-323.3, 3.0).map(lambda e: max(10.0**e, 5e-324)) | st.sampled_from([5e-324, 1.0])


@settings(max_examples=300, deadline=None)
@given(wide_rows(), st.lists(TINY_OR_LARGE, min_size=1, max_size=4), st.integers(0, 2**32 - 1), st.data())
def test_a_draw_at_any_positive_temperature_is_one_choice_per_position(probs, temperatures, seed, data):
    # log-uniform temperatures from the smallest positive float to 1e3: the
    # max column weighs exactly 1, so no weight is inf and no sum is 0
    table, v = table_of(probs), probs.shape[1] - 3
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for temperature in temperatures:
            rows = data.draw(st.lists(st.integers(0, len(probs) - 1), min_size=1, max_size=12))
            got = table.draw(rows, temperature, got_rng)
            assert got == reference_realize(probs, None, rows, temperature, want_rng)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert all(probs[r, t] > 0.0 and t not in (v, v + 2) for r, t in zip(rows, got))
