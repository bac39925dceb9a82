"""Differential property tests: the shared-row sampler against one
``rng.choice`` per position (``realize_reference``).

Rows hold zero columns, exact ties and tiny weights; the row index repeats
rows, so several positions draw through one CDF. Tokens and the generator
state afterwards must both match.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.sampling import _realize, _weights

from conftest import shared_record
from realize_reference import reference_realize, reference_weights

TEMPERATURES = (0.0, 1.0, 0.5, 2.0)
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


@settings(max_examples=400, deadline=None)
@given(shared_records(), st.sampled_from(TEMPERATURES), st.integers(0, 2**32 - 1), st.data())
def test_shared_row_sampler_matches_one_choice_per_position(preds, temperature, seed, data):
    m = len(preds.positions)
    chosen = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _realize(preds, np.array(chosen), temperature, got_rng)
    want = reference_realize(preds.table.probs, preds.row, chosen, temperature, want_rng)
    assert got == want
    assert all(type(t) is int for t in got)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("temperature", [1.0, 0.5, 2.0])
@pytest.mark.parametrize("bad", [[0.5, -0.1, 0.6], [np.nan, 0.5, 0.5], [0.2, np.nan, 0.8]])
def test_nan_or_negative_weights_raise_value_error(bad, temperature):
    # records refuse such rows, so a bare stand-in reaches the sampler's own checks
    table = SimpleNamespace(probs=np.array([[0.5, 0.5, 0.0], bad]))
    preds = SimpleNamespace(table=table, row=np.array([0, 1]))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            _realize(preds, np.array([0, 1]), temperature, np.random.default_rng(0))
        with pytest.raises(ValueError):
            reference_realize(preds.table.probs, preds.row, [0, 1], temperature, np.random.default_rng(0))


def test_weights_are_bit_identical_to_the_reference():
    # the subtracted max goes through math.log: np.log differs from it in the
    # last bit for a small share of values, which would move a rare token
    rows = np.random.default_rng(7).dirichlet(np.full(50, 0.3), size=1500)
    rows[:, ::7] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    for temperature in (0.25, 0.5, 2.0, 1.0):
        for r in rows:
            assert _weights(r, temperature).tobytes() == reference_weights(r, temperature).tobytes()
