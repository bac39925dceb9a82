"""Differential property test: ``generate`` and ``generate_tccf`` against the
list-based loop in ``scheduler_reference``.

Runs draw a backend (an oracle with a short target, or a Markov model fitted
on a six-token chain), a temperature of 0 or 1, a selection rule, and either
a plain config or a two-stage one with a one- or two-token marker over the
same six tokens, so markers, forced splices, eos inside and past the budget,
and a stage-1 cap below or past ``max_new_tokens`` all come up.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.core import DecodingConfig, TccfConfig, Vocab
from blockdec.denoisers import OracleDenoiser
from blockdec.scheduler import generate, generate_tccf
from scheduler_reference import reference_run

from conftest import RULE_FIELDS, chain_model

VOCAB = Vocab(6)
ORDINARY = st.integers(0, VOCAB.size - 1)
MARKOV = chain_model(VOCAB.size)


@st.composite
def runs(draw):
    """A backend maker, a prompt and a plain or two-stage config."""
    rule = draw(st.sampled_from(sorted(RULE_FIELDS)))
    target = draw(st.lists(ORDINARY, max_size=30))
    tccf = None
    if draw(st.booleans()):
        marker = tuple(draw(st.lists(ORDINARY, min_size=1, max_size=2)))
        if len(target) > 1 and draw(st.booleans()):  # a pair the oracle decodes, often across blocks
            at = draw(st.integers(0, len(target) - 2))
            marker = tuple(target[at : at + 2])
        tccf = TccfConfig(
            b_think=draw(st.integers(1, 8)), b_critic=draw(st.integers(1, 4)), marker=marker,
            transition=tuple(draw(st.lists(ORDINARY, max_size=3))),
            stage1_max_tokens=draw(st.none() | st.integers(1, 30)),
        )
    cfg = DecodingConfig(algorithm=rule, block_size=draw(st.integers(1, 8)),
                         max_new_tokens=draw(st.integers(1, 24)),
                         temperature=draw(st.sampled_from([0.0, 1.0])),
                         seed=draw(st.integers(0, 3)), tccf=tccf, **RULE_FIELDS[rule])
    prompt = draw(st.lists(ORDINARY, max_size=3))
    if draw(st.booleans()):
        return (lambda: MARKOV), prompt, cfg
    base = draw(st.sampled_from([0.3, 0.9, 1.0]))
    decay = draw(st.sampled_from([0.5, 1.0]))
    return (lambda: OracleDenoiser(target, VOCAB, base, decay, prompt_len=len(prompt))), prompt, cfg


@settings(max_examples=400, deadline=None)
@given(runs())
def test_generation_matches_the_reference_loop(run):
    backend, prompt, cfg = run
    res = (generate_tccf if cfg.tccf is not None else generate)(backend(), prompt, cfg)
    assert (res.output_tokens, res.steps, res.stop_reason, res.tccf) == reference_run(backend(), prompt, cfg)
