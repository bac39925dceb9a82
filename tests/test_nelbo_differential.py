"""Differential test of ``nelbo_estimate`` against the per-block loop it
replaced (``nelbo_reference``): one mask draw per block, the pads restored
per block and one scalar ``np.log`` per masked position. The two must give
the same ``repr`` and leave the generator in the same state."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import nelbo_reference as ref
from blockdec.core import Vocab
from blockdec.denoisers import FixtureError, OracleDenoiser
from blockdec.noise import nelbo_estimate

from conftest import BACKENDS, backend_maker

VOCAB = Vocab(40)
MAKERS = {kind: backend_maker(kind) for kind in BACKENDS}


def outcome(estimate, make, prompt, response, block_size, t_samples, seed):
    """``repr`` of the estimate and the generator's state after it, or the
    fixture fault the estimate ends in. After a fault the states differ: the
    reference stops drawing at the failing block, the estimator has drawn
    the whole level."""
    rng = np.random.default_rng(seed)
    try:
        got = repr(estimate(make(prompt), prompt, response, block_size, t_samples, rng))
    except FixtureError as exc:
        return f"FixtureError: {exc}"
    return got, rng.bit_generator.state


@st.composite
def cases(draw):
    """A backend maker, an empty or short prompt, a response of ordinary
    tokens with up to two eos or pad tokens, of any length (so the last block
    is often padded), a block size of 1-9 and 1-3 noise levels among 1.0,
    tiny t and anything between.
    ``zero_mass`` is an oracle sure of a target drawn apart from the response,
    so a masked position whose truth differs scores ``inf``. A scripted
    backend's first level is 1.0: its first query must start a block."""
    kind = draw(st.sampled_from([*MAKERS, "zero_mass"]))
    prompt = draw(st.lists(st.integers(0, VOCAB.size - 1), max_size=6))
    response = draw(st.lists(st.integers(0, VOCAB.size - 1), min_size=1, max_size=20))
    for _ in range(draw(st.integers(0, 2))):
        response[draw(st.integers(0, len(response) - 1))] = draw(st.sampled_from([VOCAB.eos_id, VOCAB.pad_id]))
    block_size = draw(st.integers(1, 9))
    level = st.sampled_from([1.0, 1e-9, 1e-300]) | st.floats(1e-12, 1.0)
    t_samples = draw(st.lists(level, min_size=1, max_size=3))
    if kind == "scripted":
        t_samples[0] = 1.0
    if kind == "zero_mass":
        target = tuple(draw(st.lists(st.integers(0, 3), max_size=20)))
        make = lambda prompt: OracleDenoiser(target, VOCAB, 1.0, 1.0, prompt_len=len(prompt))
    else:
        make = MAKERS[kind]
    return make, prompt, response, block_size, t_samples


@settings(max_examples=400, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**32 - 1))
def test_estimate_and_generator_state_equal_the_per_block_loop(case, seed):
    assert outcome(nelbo_estimate, *case, seed) == outcome(ref.nelbo_estimate, *case, seed)


def test_a_zero_mass_truth_scores_inf_on_both():
    sure = OracleDenoiser((1, 2, 3), VOCAB, 1.0, 1.0, prompt_len=1)
    case = (lambda prompt: sure, [5], [1, 0, 3, VOCAB.eos_id, VOCAB.pad_id], 2, [1.0, 0.4])
    got = outcome(nelbo_estimate, *case, 0)
    assert got == outcome(ref.nelbo_estimate, *case, 0)
    assert math.isinf(float(got[0]))
