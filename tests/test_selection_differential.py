"""Differential property tests: the array selection rules against the
per-position reference loops in ``selection_reference``.

Rows are drawn from small integer weight vectors, so identical rows (and
with them exact confidence and entropy ties) are common. Thresholds and
budgets are drawn from the values the record itself holds: a tau equal to
some confidence, BACD bounds and histories whose clipped mean lands exactly
on one, and entropy budgets equal to an attainable prefix sum.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import selection_reference as ref
from blockdec.core import PositionPrediction
from blockdec.sampling import (
    select_bacd,
    select_dynamic,
    select_entropy_bounded,
    select_static,
)

from conftest import bacd_after, shared_record

WIDTH = 5
WEIGHT_ROWS = [(4, 0, 0, 0, 0), (3, 1, 0, 0, 0), (2, 2, 0, 0, 0), (1, 1, 1, 1, 0),
               (2, 1, 1, 0, 0), (1, 1, 1, 1, 1), (0, 0, 3, 1, 0)]


@st.composite
def records(draw):
    """A valid record over 1..10 positions with ties forced in often; half
    of them share rows through a row index, as the Markov backend does."""
    m = draw(st.integers(1, 10))
    positions = sorted(draw(st.sets(st.integers(0, 31), min_size=m, max_size=m)))
    pool = st.sampled_from(WEIGHT_ROWS) | st.lists(st.integers(0, 4), min_size=WIDTH,
                                                   max_size=WIDTH).filter(any)
    shared = draw(st.booleans())
    u = draw(st.integers(1, m)) if shared else m
    weights = [draw(pool) for _ in range(u)]
    probs = np.zeros((u, WIDTH + 3))  # Vocab(WIDTH): mask, eos and pad stay zero
    probs[:, :WIDTH] = weights
    probs /= probs.sum(axis=1, keepdims=True)
    if not shared:
        return PositionPrediction.from_probs(positions, probs)
    return shared_record(positions, probs, draw(st.lists(st.integers(0, u - 1), min_size=m,
                                                         max_size=m)))


def outcome(preds, out):
    """A rule's selection with its record indices mapped to positions."""
    idx, threshold_used, fallback_fired = out
    return tuple(preds.positions[idx].tolist()), threshold_used, fallback_fired


@settings(max_examples=200, deadline=None)
@given(records(), st.integers(1, 12))
def test_static_matches_reference(preds, n):
    assert outcome(preds, select_static(preds, n)) == ref.select_static(ref.rows_of(preds), n)


@settings(max_examples=200, deadline=None)
@given(records(), st.data())
def test_dynamic_matches_reference(preds, data):
    confs = preds.confidence.tolist()
    # tau equal to a confidence (ties at the threshold) or anywhere in (0, 1]
    tau = data.draw(st.sampled_from(confs) | st.floats(0.01, 1.0))
    assert outcome(preds, select_dynamic(preds, tau)) == ref.select_dynamic(ref.rows_of(preds), tau)


@settings(max_examples=200, deadline=None)
@given(records(), st.data())
def test_bacd_matches_reference(preds, data):
    confs = preds.confidence.tolist()
    value = st.sampled_from(confs) | st.floats(0.05, 1.0)
    tau_l, tau_h = sorted((data.draw(value), data.draw(value)))
    # empty history, a history whose mean is exactly a confidence, or a mixed one
    history = data.draw(st.sampled_from([(), (confs[0],), (confs[-1], confs[-1])])
                        | st.lists(value, max_size=6).map(tuple))
    state = bacd_after(history, tau_l, tau_h)
    got = select_bacd(preds, state)
    chosen, tau_t, fallback, new_history = ref.select_bacd(ref.rows_of(preds), tau_h, tau_l, history)
    assert outcome(preds, got) == (chosen, tau_t, fallback)
    assert state.count == len(new_history)
    assert state.total == ref.left_to_right_sum(new_history)


@settings(max_examples=200, deadline=None)
@given(records(), st.data())
def test_entropy_bounded_matches_reference(preds, data):
    ents = sorted(preds.entropy.tolist())
    prefix_sums = [0.0]
    for h in ents:
        prefix_sums.append(prefix_sums[-1] + h)
    # a budget that some prefix attains exactly, or anywhere in [0, 3]
    gamma = data.draw(st.sampled_from(prefix_sums) | st.floats(0.0, 3.0))
    got = select_entropy_bounded(preds, gamma)
    assert outcome(preds, got) == ref.select_entropy_bounded(ref.rows_of(preds), gamma)
