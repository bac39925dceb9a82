"""The context a backend sees: the session's append-only int64 buffer, the
Markov backend's O(order) read of it, the NELBO prefix views, and the
integer guard on every token that goes into them."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.core import BlockState, DecodingConfig, TccfConfig, Vocab, token_array, validate_config
from blockdec.denoisers import OracleDenoiser, markov_fit, predict
from blockdec.experiment import ConfigError, config_from_dict
from blockdec.noise import nelbo_estimate
from blockdec.scheduler import GenerationSession, generate, generate_tccf

from conftest import position_probs
from markov_reference import backoff, reference_contexts, reference_predict

VOCAB = Vocab(10)
MARK3 = (7, 8, 9)


def cfg(tccf=None, **kw):
    base = dict(algorithm="dynamic", tau=0.8, block_size=4, temperature=0.0, seed=0,
                max_new_tokens=24, tccf=tccf)
    return DecodingConfig(**{**base, **kw})


def tccf(b_think=4, b_critic=2, marker=MARK3, transition=(6,), stage1_max_tokens=None):
    return TccfConfig(b_think, b_critic, marker, transition, stage1_max_tokens)


class Recorder:
    """Wraps a backend; checks at every pass that the context is a read-only
    int64 array and keeps a copy of it with the (live) block object."""

    def __init__(self, inner):
        self.inner, self.vocab, self.passes = inner, inner.vocab, []

    def predict(self, context, block):
        assert isinstance(context, np.ndarray) and context.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            context[...] = 0
        self.passes.append((context.tolist(), block))
        return self.inner.predict(context, block)


def oracle(target, prompt_len=0):
    return Recorder(OracleDenoiser(target, VOCAB, base_confidence=0.95, decay=0.9,
                                   prompt_len=prompt_len))


def check_contexts(rec: Recorder, prompt, result, transition=()):
    """Replay the run on a plain list: every pass's context must equal the
    prompt plus the tokens committed so far (spliced at the stage switch),
    and the output must be a prefix of the committed tokens."""
    expected = list(prompt)
    for i, (ctx, block) in enumerate(rec.passes):
        if i > 0 and block is not rec.passes[i - 1][1]:
            expected += rec.passes[i - 1][1].tokens
            if result.tccf is not None and i == result.tccf.stage1_passes:
                expected[len(prompt) + result.tccf.splice_position :] = transition
        assert ctx == expected, f"pass {i}"
    expected += rec.passes[-1][1].tokens
    out = result.output_tokens
    assert list(out) == expected[len(prompt) : len(prompt) + len(out)]
    assert all(type(t) is int for t in out)
    assert all(type(p) is int for r in result.steps for p in r.unmasked_positions)


class TestSchedulerContext:
    @pytest.mark.parametrize("prompt, target, max_new", [
        ((), [1, 2, 3, 4, 5], 24),              # ends on eos
        ((3, 4, 5), list(range(6)) * 6, 10),    # ends at the cap, not block aligned
    ])
    def test_generate(self, prompt, target, max_new):
        rec = oracle(target, len(prompt))
        res = generate(rec, prompt, cfg(max_new_tokens=max_new))
        assert len(rec.passes) == res.forward_passes > 1
        check_contexts(rec, prompt, res)

    @pytest.mark.parametrize("marker, transition", [
        (MARK3, (6,)),            # shorter transition
        ((8, 9), (6, 6, 6, 6)),   # longer transition
        ((8, 9), (6, 5)),         # equal length, different tokens
    ])
    def test_tccf_splice(self, marker, transition):
        prompt = (1, 2)
        target = [0, 1, 2, 3, 4] + list(marker) + [5, 4, 3, 2, 1, 0] * 3
        rec = oracle(target, len(prompt))
        res = generate_tccf(rec, prompt, cfg(tccf(marker=marker, transition=transition)))
        assert res.tccf.splice_position == 5 and not res.tccf.forced_splice
        assert res.tccf.critic_ran
        check_contexts(rec, prompt, res, transition)

    @pytest.mark.parametrize("b_think", [1, 2, 3])
    @pytest.mark.parametrize("offset", range(7))
    def test_marker_straddling_blocks_is_found_where_it_starts(self, b_think, offset):
        target = [i % 5 for i in range(offset)] + list(MARK3) + [0, 1, 2, 3] * 4
        rec = oracle(target)
        res = generate_tccf(rec, [], cfg(tccf(b_think=b_think)))
        assert res.tccf.splice_position == offset
        assert not res.tccf.forced_splice
        check_contexts(rec, [], res, (6,))

    def test_forced_splice_past_the_initial_buffer(self):
        # stage 1 stops at max_new_tokens, and the transition is long:
        # the buffer has to grow, and every context stays right.
        transition = (6,) * 20
        rec = oracle([i % 5 for i in range(60)])
        res = generate_tccf(rec, [4], cfg(tccf(stage1_max_tokens=30, transition=transition),
                                          max_new_tokens=8))
        assert res.tccf.forced_splice and res.tccf.splice_position == 8
        check_contexts(rec, [4], res, transition)

    def test_splice_grows_and_cuts_the_buffer(self):
        session = GenerationSession.start(oracle([1]), [1, 2], cfg(max_new_tokens=2, block_size=1))
        assert len(session.buf) == 5
        session.splice(0, range(10))
        assert session.committed.tolist() == list(range(10)) and len(session.buf) >= 12
        session.splice(3, [7])
        assert session.buf[: session.length].tolist() == [1, 2, 0, 1, 2, 7]


class TestTokenGuard:
    def test_token_array(self):
        arr = token_array([1, np.int64(2), np.uint8(3), -(2**63), 2**63 - 1])
        assert arr.dtype == np.int64 and arr.tolist() == [1, 2, 3, -(2**63), 2**63 - 1]
        assert token_array([]).shape == (0,)

    @pytest.mark.parametrize("bad, match", [
        (1.5, "not an integer"), (2.0, "not an integer"), ("3", "not an integer"),
        (2**70, "int64"), (2**63, "int64"), (-(2**63) - 1, "int64"),
    ])
    def test_bad_tokens_raise_value_error(self, bad, match):
        with pytest.raises(ValueError, match=match):
            token_array([1, bad])
        with pytest.raises(ValueError, match=match):
            generate(oracle([1, 2]), [1, bad], cfg())
        with pytest.raises(ValueError, match=match):
            nelbo_estimate(oracle([1, 2]), [1, bad], [1, 2], 2, [0.5], np.random.default_rng(0))
        with pytest.raises(ValueError, match=match):
            nelbo_estimate(oracle([1, 2]), [1], [1, bad], 2, [0.5], np.random.default_rng(0))

    def test_mask_id_prompt_is_refused_by_the_wrapper(self):
        with pytest.raises(ValueError, match="context must not contain mask tokens"):
            generate(oracle([1, 2]), [1, VOCAB.mask_id], cfg())
        with pytest.raises(ValueError, match="context must not contain mask tokens"):
            nelbo_estimate(oracle([1, 2]), [VOCAB.mask_id], [1, 2], 2, [1.0],
                           np.random.default_rng(0))

    def test_mask_id_response_raises(self):
        for response in ([VOCAB.mask_id, 1], [1, 2, VOCAB.mask_id]):
            with pytest.raises(ValueError):
                nelbo_estimate(oracle([1, 2]), [1], response, 2, [0.5, 1.0],
                               np.random.default_rng(0))

    def test_bad_transition_is_a_config_problem(self):
        assert any("transition" in p for p in validate_config(cfg(tccf(transition=(1.5,)))))
        with pytest.raises(ValueError, match="invalid config"):
            generate_tccf(oracle([1, 2]), [], cfg(tccf(transition=(2**70,))))
        entry = {"algorithm": "dynamic", "tau": 0.8,
                 "tccf": {"b_think": 4, "b_critic": 1, "marker": [7], "transition": [2**70]}}
        with pytest.raises(ConfigError, match="int64"):
            config_from_dict(entry)

    def test_numpy_prompt_leaks_no_numpy_ints(self):
        model = markov_fit([i % 7 for i in range(200)], 2, 0.1, vocab=VOCAB)
        res = generate(model, np.array([1, 2, 3]), cfg(max_new_tokens=12))
        assert all(type(t) is int for t in res.output_tokens)
        assert all(type(t) is int for key in model._cache for t in key)


class TestNelboContext:
    def test_contexts_are_read_only_prefix_views(self):
        prompt, response, B = [3, 4], [1, 2, 3, 4, 5], 2
        rec = Recorder(OracleDenoiser([1, 2, 3, 4, 5], VOCAB, 0.95, 0.9, prompt_len=2))
        nelbo_estimate(rec, prompt, response, B, [1.0], np.random.default_rng(0))
        padded = response + [VOCAB.pad_id]
        assert [ctx for ctx, _ in rec.passes] == [prompt + padded[: k * B] for k in range(3)]


# Markov backend: reads only the last ``order`` context tokens ------------

def models():
    return st.builds(
        lambda size, order, walk: markov_fit([w % size for w in walk], order, 0.1,
                                             vocab=Vocab(size)),
        st.integers(2, 6), st.integers(1, 3), st.lists(st.integers(0, 50), min_size=1, max_size=60))


@st.composite
def queries(draw):
    model = draw(models())
    v = model.vocab
    tok = st.integers(0, v.size - 1) | st.just(v.eos_id)
    context = draw(st.lists(tok, max_size=8))
    if draw(st.booleans()):
        context.append(v.eos_id)
    flags = draw(st.lists(st.booleans(), min_size=1, max_size=8).filter(any))
    tokens = [v.mask_id if f else draw(tok) for f in flags]
    return model, context, BlockState(tokens, v.mask_id)


def assert_same_record(got, want):
    """``want`` has a fresh row per position; ``got`` indexes its backend's
    table, where positions may share a row."""
    assert got.positions.tolist() == want.positions.tolist()
    assert position_probs(got).tobytes() == position_probs(want).tobytes()
    assert got.confidence.tobytes() == want.confidence.tobytes()
    assert got.entropy.tobytes() == want.entropy.tobytes()


@settings(max_examples=300, deadline=None)
@given(queries(), st.sampled_from(["list", "tuple", "array"]))
def test_markov_matches_full_context_reference(query, kind):
    model, context, block = query
    ctx = {"list": list, "tuple": tuple, "array": token_array}[kind](context)
    if kind == "array":
        ctx.flags.writeable = False
    got = predict(model, ctx, block)
    assert all(type(t) is int for key in model._cache for t in key)
    assert_same_record(got, reference_predict(model, context, block))


@settings(max_examples=300, deadline=None)
@given(queries())
def test_markov_rows_are_the_distinct_contexts(query):
    model, context, block = query
    preds = predict(model, context, block)
    keys = [backoff(model, ctx) for ctx in reference_contexts(model, context, block)]
    ids = preds.row.tolist()
    # one table row per distinct context after backoff, numbered in order of
    # first appearance by a fresh backend
    assert ids == [list(dict.fromkeys(keys)).index(k) for k in keys]
    assert preds.table.size == len(set(keys)) <= len(keys)
    # a repeated pass reads the same rows and adds none
    again = predict(model, context, block)
    assert again.table is preds.table and again.row.tolist() == ids
    assert preds.table.size == len(set(keys))


class TailOnly(Sequence):
    """A very long context that fails any read left of its last ``order``
    tokens."""

    def __init__(self, length: int, tail: list[int]):
        self.length, self.tail = length, tail

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.length))]
        i += self.length if i < 0 else 0
        first = self.length - len(self.tail)
        if not first <= i < self.length:
            raise AssertionError(f"read context[{i}], left of the last {len(self.tail)}")
        return self.tail[i - first]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_markov_reads_only_the_last_order_tokens(order):
    model = markov_fit([i * 7 % 5 for i in range(300)], order, 0.1, vocab=VOCAB)
    tail = [4, 1, 3][:order]
    m = VOCAB.mask_id
    block = BlockState([m, 2, m, m, 0], m)
    got = model.predict(TailOnly(10**6, tail), block)
    assert_same_record(got, reference_predict(model, [0, 1, 2] + tail, block))
