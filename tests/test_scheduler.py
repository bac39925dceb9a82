"""Block-by-block generation and the two-stage think/critic schedule."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.core import DecodingConfig, StopReason, TccfConfig, TccfTrace, Vocab
from blockdec.denoisers import OracleDenoiser, ScriptedDenoiser
from blockdec.scheduler import find_marker, generate, generate_tccf

from conftest import RULE_FIELDS, full_random_script


def dyn_cfg(**kw):
    defaults = dict(algorithm="dynamic", tau=0.5, block_size=4,
                    temperature=0.0, seed=0, max_new_tokens=32)
    defaults.update(kw)
    return DecodingConfig(**defaults)


def oracle(vocab, target, base=0.9, decay=0.9, prompt_len=0):
    return OracleDenoiser(vocab=vocab, target=tuple(target),
                          base_confidence=base, decay=decay,
                          prompt_len=prompt_len)


class TestFindMarker:
    def test_leftmost_match(self):
        assert find_marker([1, 1, 1], [1, 1]) == 0

    def test_interior_match(self):
        assert find_marker([0, 2, 3, 2, 3], [2, 3]) == 1

    def test_absent(self):
        assert find_marker([0, 1, 2], [3]) is None

    def test_whole_sequence(self):
        assert find_marker([4, 5], [4, 5]) == 0

    def test_marker_longer_than_tokens(self):
        assert find_marker([4], [4, 5]) is None

    def test_empty_marker_rejected(self):
        with pytest.raises(ValueError):
            find_marker([1, 2], [])


class TestGenerate:
    def test_oracle_completes_target_and_stops_at_eos(self):
        vocab = Vocab(10)
        target = [3, 1, 4, 1, 5, 9, 2]
        den = oracle(vocab, target, base=0.9, decay=0.9, prompt_len=1)
        res = generate(den, [7], dyn_cfg())
        assert res.output_tokens == tuple(target) + (vocab.eos_id,)
        assert res.stop_reason is StopReason.EOS

    def test_static_full_width_pass_count(self):
        # one token per step: 7 content tokens + eos over 2 blocks of 4
        vocab = Vocab(10)
        target = [3, 1, 4, 1, 5, 9, 2]
        den = oracle(vocab, target, base=0.9, decay=0.9, prompt_len=1)
        cfg = dyn_cfg(algorithm="static", steps=4, tau=None)
        res = generate(den, [7], cfg)
        assert res.forward_passes == 8
        assert res.output_tokens == tuple(target) + (vocab.eos_id,)

    def test_confident_oracle_finishes_blocks_in_one_pass(self):
        vocab = Vocab(10)
        target = [3, 1, 4, 1, 5, 9, 2]
        den = oracle(vocab, target, base=0.9, decay=0.9, prompt_len=1)
        res = generate(den, [7], dyn_cfg(tau=0.5))
        # conf at distance d is 0.9 * 0.9^(d-1) > 0.5 for all d <= 4
        assert res.forward_passes == 2
        assert res.generated_slots == 8

    def test_max_length_trims_to_budget(self):
        vocab = Vocab(10)
        target = list(range(9)) * 3  # long, never reaches eos within budget
        den = oracle(vocab, target, base=0.9, decay=0.9, prompt_len=0)
        res = generate(den, [], dyn_cfg(max_new_tokens=4))
        assert res.stop_reason is StopReason.MAX_LENGTH
        assert len(res.output_tokens) == 4
        assert res.output_tokens == (0, 1, 2, 3)

    def test_max_length_budget_not_block_aligned(self):
        vocab = Vocab(10)
        target = list(range(9)) * 3
        den = oracle(vocab, target, base=0.9, decay=0.9, prompt_len=0)
        res = generate(den, [], dyn_cfg(max_new_tokens=6))
        # two blocks of 4 decode 8 slots; the output is trimmed to 6
        assert len(res.output_tokens) == 6
        assert res.generated_slots == 8

    def test_eos_mid_block_truncates_but_counts_slots(self):
        vocab = Vocab(10)
        target = [3, 1]  # eos lands at block position 2
        den = oracle(vocab, target, base=0.9, decay=0.9, prompt_len=0)
        res = generate(den, [], dyn_cfg(tau=0.5))
        assert res.output_tokens == (3, 1, vocab.eos_id)
        assert res.stop_reason is StopReason.EOS
        # the discarded tail slot after eos was still decoded
        assert res.generated_slots == 4

    def test_empty_prompt_is_legal(self):
        vocab = Vocab(10)
        den = oracle(vocab, [2, 4], base=0.9, decay=0.9, prompt_len=0)
        res = generate(den, [], dyn_cfg())
        assert res.output_tokens == (2, 4, vocab.eos_id)

    def test_output_never_exceeds_budget_plus_partial_block(self):
        rng = np.random.default_rng(8)
        vocab = Vocab(10)
        for _ in range(20):
            target = [int(x) for x in rng.integers(0, 10, size=40)]
            block = int(rng.integers(1, 7))
            budget = int(rng.integers(1, 20))
            den = oracle(vocab, target, base=0.9, decay=0.7, prompt_len=0)
            res = generate(den, [], dyn_cfg(block_size=block,
                                            max_new_tokens=budget))
            if res.stop_reason is StopReason.MAX_LENGTH:
                assert len(res.output_tokens) == budget
            else:
                assert len(res.output_tokens) <= budget + block - 1

    def test_sampled_run_is_seed_deterministic(self):
        vocab = Vocab(10)
        target = [3, 1, 4, 1, 5, 9]
        a = generate(oracle(vocab, target, base=0.5, decay=0.9),
                     [], dyn_cfg(temperature=1.0, tau=0.4, seed=11))
        b = generate(oracle(vocab, target, base=0.5, decay=0.9),
                     [], dyn_cfg(temperature=1.0, tau=0.4, seed=11))
        assert a.output_tokens == b.output_tokens
        assert a.steps == b.steps

    def test_sampled_runs_differ_across_seeds(self):
        vocab = Vocab(10)
        target = [3, 1, 4, 1, 5, 9]
        outs = {
            generate(oracle(vocab, target, base=0.4, decay=0.9),
                     [], dyn_cfg(temperature=1.0, tau=0.3, seed=s)).output_tokens
            for s in range(8)
        }
        assert len(outs) > 1

    def test_tpf_floor_of_one(self):
        # even a hopeless denoiser commits at least one slot per pass
        rng = np.random.default_rng(3)
        vocab = Vocab(10)
        for s in range(10):
            target = [int(x) for x in rng.integers(0, 10, size=12)]
            den = oracle(vocab, target, base=0.2, decay=0.5)
            res = generate(den, [], dyn_cfg(tau=0.95, seed=s,
                                            max_new_tokens=12))
            assert res.generated_slots >= res.forward_passes


MARK = (8, 9)
GO = (6, 7)


def tccf_cfg(b_think=4, b_critic=1, marker=MARK, transition=GO, **kw):
    tccf = TccfConfig(b_think=b_think, b_critic=b_critic, marker=marker,
                      transition=transition,
                      stage1_max_tokens=kw.pop("stage1_max_tokens", None))
    return dyn_cfg(tccf=tccf, **kw)


class TestGenerateTccf:
    def vocab(self):
        return Vocab(10)

    def target_with_marker(self, head_len, tail):
        # deterministic filler, then the marker, then the tail content
        head = [(i * 3) % 6 for i in range(head_len)]
        return head + list(MARK) + list(tail)

    def test_marker_is_spliced_and_critic_runs(self):
        vocab = self.vocab()
        target = self.target_with_marker(6, [1, 2, 3])
        den = oracle(vocab, target, base=0.95, decay=0.9)
        res = generate_tccf(den, [], tccf_cfg(max_new_tokens=24))
        assert res.tccf is not None
        assert res.tccf.splice_position == 6
        assert res.tccf.forced_splice is False
        assert res.tccf.stage2_passes > 0
        # marker removed, transition spliced in at its place
        assert res.output_tokens[6:8] == GO
        assert find_marker(res.output_tokens, MARK) is None

    def test_stage_passes_sum_to_total(self):
        vocab = self.vocab()
        target = self.target_with_marker(6, [1, 2, 3])
        den = oracle(vocab, target, base=0.95, decay=0.9)
        res = generate_tccf(den, [], tccf_cfg(max_new_tokens=24))
        assert res.tccf.stage1_passes + res.tccf.stage2_passes == res.forward_passes

    def test_marker_spanning_block_boundary_is_found(self):
        vocab = self.vocab()
        # marker occupies committed offsets 3-4: split across blocks of 4
        target = self.target_with_marker(3, [1, 2, 3])
        den = oracle(vocab, target, base=0.95, decay=0.9)
        res = generate_tccf(den, [], tccf_cfg(max_new_tokens=24))
        assert res.tccf.splice_position == 3
        assert res.output_tokens[3:5] == GO

    def test_critic_blocks_have_single_positions(self):
        vocab = self.vocab()
        target = self.target_with_marker(6, [1, 2, 3])
        den = oracle(vocab, target, base=0.95, decay=0.9)
        res = generate_tccf(den, [], tccf_cfg(b_critic=1, max_new_tokens=24))
        stage2 = [r for r in res.steps][res.tccf.stage1_passes:]
        assert stage2, "critic stage produced no steps"
        assert all(len(r.unmasked_positions) == 1 for r in stage2)

    def test_plain_generate_refuses_a_tccf_config(self):
        # Without the guard the marker would come back unspliced, tccf=None.
        den = oracle(self.vocab(), self.target_with_marker(2, [3, 4]), base=0.95, decay=0.9)
        with pytest.raises(ValueError, match="generate_tccf"):
            generate(den, [], tccf_cfg(max_new_tokens=24))
        with pytest.raises(ValueError, match="cfg.tccf"):
            generate_tccf(den, [], dyn_cfg())

    def test_eos_before_marker_skips_critic(self):
        vocab = self.vocab()
        target = [0, 1, 2]  # ends long before any marker appears
        den = oracle(vocab, target, base=0.95, decay=0.9)
        res = generate_tccf(den, [], tccf_cfg(max_new_tokens=24))
        assert res.stop_reason is StopReason.EOS
        assert res.tccf.stage2_passes == 0
        assert res.tccf.splice_position is None
        assert res.tccf.stage2_passes == 0
        assert res.output_tokens == (0, 1, 2, vocab.eos_id)

    def test_stage_one_cap_forces_transition(self):
        vocab = self.vocab()
        target = [(i * 3) % 6 for i in range(40)]  # marker never appears
        den = oracle(vocab, target, base=0.95, decay=0.9)
        res = generate_tccf(den, [], tccf_cfg(stage1_max_tokens=8,
                                              max_new_tokens=24))
        assert res.tccf.forced_splice is True
        assert res.tccf.splice_position == 8
        assert res.output_tokens[8:10] == GO
        assert res.tccf.stage2_passes > 0

    def test_eos_in_critic_stage_stops(self):
        vocab = self.vocab()
        target = self.target_with_marker(6, [1, 2, 3])
        den = oracle(vocab, target, base=0.95, decay=0.9)
        res = generate_tccf(den, [], tccf_cfg(max_new_tokens=24))
        assert res.stop_reason is StopReason.EOS
        assert res.output_tokens[-1] == vocab.eos_id

    def test_budget_exhaustion_in_critic_stage(self):
        vocab = self.vocab()
        target = self.target_with_marker(4, list(range(9)) * 4)
        den = oracle(vocab, target, base=0.95, decay=0.9)
        res = generate_tccf(den, [], tccf_cfg(max_new_tokens=12))
        assert res.stop_reason is StopReason.MAX_LENGTH
        assert len(res.output_tokens) == 12

    def test_identity_splice_matches_plain_generate(self):
        # marker == transition, sitting flush against a block boundary, so
        # the splice rewrites the committed tokens to themselves
        vocab = self.vocab()
        script = {}
        toks0 = (1, 2, 3, 4)
        toks1 = (5, 0) + MARK  # marker fills the back half of block 1
        for p, t in enumerate(toks0):
            script[(0, 0, p)] = (0.95, t)
        for p, t in enumerate(toks1):
            script[(1, 0, p)] = (0.95, t)
        # eos plus filler, all confident enough to finish in one step
        script[(2, 0, 0)] = (0.95, vocab.eos_id)
        script[(2, 0, 1)] = (0.95, 0)
        script[(2, 0, 2)] = (0.95, 0)
        script[(2, 0, 3)] = (0.95, 0)

        cfg_plain = dyn_cfg(tau=0.9, max_new_tokens=24)
        plain = generate(
            ScriptedDenoiser(script=dict(script), vocab=vocab),
            [], cfg_plain)

        cfg_two = tccf_cfg(b_think=4, b_critic=4, marker=MARK, transition=MARK,
                           tau=0.9, max_new_tokens=24)
        two = generate_tccf(
            ScriptedDenoiser(script=dict(script), vocab=vocab),
            [], cfg_two)

        assert two.output_tokens == plain.output_tokens
        assert two.forward_passes == plain.forward_passes
        assert two.steps == plain.steps
        assert two.tccf.splice_position == 6

    def test_a_splice_back_to_the_prompt_does_not_replay_the_script(self):
        # The splice leaves the context at the prompt's length; the script's
        # block numbering runs on regardless, so stage 2 reads block 1.
        vocab = Vocab(8)
        script = {(0, 0, 0): (0.9, 7), (0, 0, 1): (0.9, 7),
                  (1, 0, 0): (0.9, 1), (1, 0, 1): (0.9, vocab.eos_id)}
        cfg = tccf_cfg(b_think=2, b_critic=2, marker=(7, 7), transition=(), tau=0.5, block_size=2)
        res = generate_tccf(ScriptedDenoiser(script, vocab), (3,), cfg)
        assert res.output_tokens == (1, vocab.eos_id)
        assert [rec.block_index for rec in res.steps] == [0, 1]
        assert res.tccf.splice_position == 0 and res.stop_reason is StopReason.EOS

    def test_tccf_config_required(self):
        vocab = self.vocab()
        den = oracle(vocab, [1, 2], base=0.9, decay=0.9)
        with pytest.raises(ValueError):
            generate_tccf(den, [], dyn_cfg())

    def test_pooled_pass_accounting_brackets_single_stage(self):
        # pooled throughput can never beat the all-coarse run or lose to the
        # all-fine run on the same oracle
        vocab = self.vocab()
        target = self.target_with_marker(10, list(range(8)))
        kw = dict(base=0.9, decay=0.9)
        coarse = generate(oracle(vocab, target, **kw),
                          [], dyn_cfg(block_size=8, max_new_tokens=48))
        fine = generate(oracle(vocab, target, **kw),
                        [], dyn_cfg(block_size=1, max_new_tokens=48))
        pooled = generate_tccf(oracle(vocab, target, **kw),
                               [], tccf_cfg(b_think=8, b_critic=1,
                                            max_new_tokens=48))
        def tpf(res):
            return res.generated_slots / res.forward_passes
        assert tpf(fine) <= tpf(pooled) <= tpf(coarse)


class TestOutputBudget:
    """The output never exceeds ``max_new_tokens``: an eos past the budget
    is cut by the trim, so it does not end the run."""

    def test_eos_past_budget_is_trimmed(self):
        vocab = Vocab(10)
        target = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]  # eos lands at offset 12
        cfg = dyn_cfg(tau=0.5, block_size=8, max_new_tokens=10)
        plain = generate(oracle(vocab, target), [], cfg)
        staged = generate_tccf(oracle(vocab, target), [],
                               replace(cfg, tccf=TccfConfig(8, 4, marker=(7, 7), transition=())))
        for res in (plain, staged):
            assert res.output_tokens == tuple(target[:10])
            assert res.stop_reason is StopReason.MAX_LENGTH

    def test_stage_one_stops_at_the_budget(self):
        # A stage-1 cap past max_new_tokens does not decode coarse blocks
        # beyond the budget only for the final trim to discard them.
        vocab = Vocab(8)
        target = [3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 0, 2]
        tccf = TccfConfig(b_think=8, b_critic=2, marker=(7, 7), transition=(0,), stage1_max_tokens=40)
        res = generate_tccf(oracle(vocab, target, base=0.95), [],
                            dyn_cfg(tau=0.5, block_size=8, max_new_tokens=10, tccf=tccf))
        assert res.output_tokens == tuple(target[:10])
        assert (res.forward_passes, res.generated_slots) == (4, 16)
        assert res.tccf.forced_splice and res.tccf.splice_position == 16

    def test_an_eos_past_the_stage_one_cap_ends_the_run_single_stage(self):
        # Stage 1 ends at the first block boundary at or past its cap, offset
        # 16 for a cap of 10, so an eos at offset 12 inside the budget ends it.
        vocab = Vocab(8)
        target = [3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 0, 2]
        tccf = TccfConfig(b_think=8, b_critic=2, marker=(7, 7), transition=(0,), stage1_max_tokens=10)
        res = generate_tccf(oracle(vocab, target, base=0.95), [],
                            dyn_cfg(tau=0.5, block_size=8, max_new_tokens=32, tccf=tccf))
        assert res.output_tokens == (*target, vocab.eos_id)
        assert (res.stop_reason, res.generated_slots) == (StopReason.EOS, 16)
        assert res.tccf == TccfTrace(res.forward_passes, 0, None, False)

    def test_eos_on_the_last_budget_slot_ends_the_run(self):
        vocab = Vocab(10)
        res = generate(oracle(vocab, [3, 1, 4]), [], dyn_cfg(max_new_tokens=4))
        assert res.output_tokens == (3, 1, 4, vocab.eos_id)
        assert res.stop_reason is StopReason.EOS


ORDINARY = st.integers(0, 5)


@st.composite
def budget_runs(draw):
    """An oracle run of plain or two-stage generation at random lengths."""
    rule = draw(st.sampled_from(sorted(RULE_FIELDS)))
    tccf = None
    if draw(st.booleans()):
        tccf = TccfConfig(
            b_think=draw(st.integers(1, 8)), b_critic=draw(st.integers(1, 4)),
            marker=tuple(draw(st.lists(ORDINARY, min_size=1, max_size=2))),
            transition=tuple(draw(st.lists(ORDINARY, max_size=3))),
            stage1_max_tokens=draw(st.none() | st.integers(1, 30)),
        )
    cfg = DecodingConfig(algorithm=rule, block_size=draw(st.integers(1, 8)),
                         max_new_tokens=draw(st.integers(1, 24)),
                         temperature=draw(st.sampled_from([0.0, 1.0])),
                         seed=draw(st.integers(0, 3)), tccf=tccf, **RULE_FIELDS[rule])
    prompt = draw(st.lists(ORDINARY, max_size=3))
    den = OracleDenoiser(vocab=Vocab(6), target=draw(st.lists(ORDINARY, max_size=30)),
                         base_confidence=draw(st.sampled_from([0.3, 0.9, 1.0])),
                         decay=draw(st.sampled_from([0.5, 1.0])), prompt_len=len(prompt))
    return den, prompt, cfg


@settings(max_examples=300, deadline=None)
@given(budget_runs())
def test_output_respects_budget_and_stop_reason(run):
    den, prompt, cfg = run
    res = (generate_tccf if cfg.tccf is not None else generate)(den, prompt, cfg)
    out, eos = res.output_tokens, den.vocab.eos_id
    assert len(out) <= cfg.max_new_tokens
    assert eos not in out[:-1]
    ends_in_eos = out[-1:] == (eos,)
    assert (res.stop_reason is StopReason.EOS) == ends_in_eos
    # An eos on the last budget slot is an eos stop, not a max_length one.
    assert (res.stop_reason is StopReason.MAX_LENGTH) == (len(out) == cfg.max_new_tokens and not ends_in_eos)
