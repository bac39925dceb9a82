"""Forward masking and the likelihood-bound estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from blockdec.core import BlockState, PositionPrediction, Vocab
from blockdec.denoisers import ContractViolation, OracleDenoiser
from blockdec.noise import forward_mask, nelbo_estimate

from conftest import UniformDenoiser


VOCAB4 = Vocab(4)


def clean_block(tokens, vocab=VOCAB4):
    return BlockState(list(tokens), mask_id=vocab.mask_id)


class TestForwardMask:
    def test_rejects_out_of_range(self):
        for t in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                forward_mask(clean_block([0, 1, 2, 3]), t, np.random.default_rng(0))

    def test_t_zero_masks_nothing(self):
        b = clean_block([0, 1, 2, 3])
        out = forward_mask(b, 0.0, np.random.default_rng(0))
        assert out.masked_positions() == []
        assert out.tokens == [0, 1, 2, 3]

    def test_t_one_masks_everything(self):
        b = clean_block([0, 1, 2, 3])
        out = forward_mask(b, 1.0, np.random.default_rng(0))
        assert out.masked_positions() == [0, 1, 2, 3]

    def test_original_block_untouched(self):
        b = clean_block([0, 1, 2, 3])
        forward_mask(b, 1.0, np.random.default_rng(0))
        assert b.masked_positions() == []

    def test_requires_clean_block(self):
        b = BlockState.fully_masked(4, mask_id=VOCAB4.mask_id)
        with pytest.raises(ValueError):
            forward_mask(b, 0.5, np.random.default_rng(0))

    def test_deterministic_for_seed(self):
        b = clean_block([0, 1, 2, 3, 0, 1, 2, 3])
        m1 = forward_mask(b, 0.5, np.random.default_rng(7)).tokens
        m2 = forward_mask(b, 0.5, np.random.default_rng(7)).tokens
        assert m1 == m2

    def test_consumes_one_draw_per_position_in_order(self):
        # the masking decision is u_i < t on exactly len(block) draws
        tokens = [0, 1, 2, 3] * 4
        b = clean_block(tokens)
        rng_a = np.random.default_rng(11)
        out = forward_mask(b, 0.4, rng_a)
        rng_b = np.random.default_rng(11)
        draws = rng_b.random(len(tokens))
        assert out.masked_positions() == np.flatnonzero(draws < 0.4).tolist()
        # both generators must now be in the same state
        assert rng_a.random() == rng_b.random()

    def test_masked_fraction_tracks_t(self):
        b = clean_block([0, 1, 2, 3] * 250)
        rng = np.random.default_rng(3)
        frac = len(forward_mask(b, 0.3, rng).masked_positions()) / 1000
        assert abs(frac - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 1000)


class TestNelbo:
    def test_perfect_denoiser_scores_zero(self):
        vocab = Vocab(6)
        response = [3, 1, 4, 1, 5]
        den = OracleDenoiser(vocab=vocab, target=tuple(response),
                             base_confidence=1.0, decay=1.0, prompt_len=2)
        val = nelbo_estimate(den, prompt=[2, 2], response=response,
                             block_size=4, t_samples=[0.5, 1.0],
                             rng=np.random.default_rng(0))
        assert val == 0.0

    def test_uniform_fully_masked_anchor(self):
        # t = 1 masks all 8 positions; each costs ln(4) under the uniform model
        den = UniformDenoiser(VOCAB4)
        response = [0, 1, 2, 3, 0, 1, 2, 3]
        val = nelbo_estimate(den, prompt=[], response=response, block_size=8,
                             t_samples=[1.0], rng=np.random.default_rng(0))
        assert abs(val - 8 * math.log(4)) < 1e-9

    def test_uniform_monte_carlo_matches_flat_expectation(self):
        # for this estimator the 1/t weight cancels the masking rate exactly,
        # so every t has expectation 8*ln(4); check the t=0.5 average
        den = UniformDenoiser(VOCAB4)
        response = [0, 1, 2, 3, 0, 1, 2, 3]
        rng = np.random.default_rng(42)
        vals = [
            nelbo_estimate(den, prompt=[], response=response, block_size=8,
                           t_samples=[0.5], rng=rng)
            for _ in range(400)
        ]
        assert abs(np.mean(vals) - 8 * math.log(4)) < 0.05 * 8 * math.log(4)

    def test_weaker_denoiser_scores_worse(self):
        vocab = Vocab(6)
        response = [3, 1, 4, 1, 5, 0, 2, 4]
        sharp = OracleDenoiser(vocab=vocab, target=tuple(response),
                               base_confidence=0.95, decay=1.0, prompt_len=0)
        blunt = OracleDenoiser(vocab=vocab, target=tuple(response),
                               base_confidence=0.5, decay=1.0, prompt_len=0)
        lo = nelbo_estimate(sharp, prompt=[], response=response, block_size=4,
                            t_samples=[0.25, 0.5, 0.75, 1.0],
                            rng=np.random.default_rng(9))
        hi = nelbo_estimate(blunt, prompt=[], response=response, block_size=4,
                            t_samples=[0.25, 0.5, 0.75, 1.0],
                            rng=np.random.default_rng(9))
        assert lo < hi

    def test_padding_costs_nothing(self):
        # response shorter than one block: pad slots must not enter the sum
        vocab = Vocab(6)
        response = [3, 1, 4]
        den = OracleDenoiser(vocab=vocab, target=tuple(response),
                             base_confidence=1.0, decay=1.0, prompt_len=0)
        val = nelbo_estimate(den, prompt=[], response=response, block_size=8,
                             t_samples=[1.0], rng=np.random.default_rng(1))
        assert val == 0.0

    def test_rejects_bad_t(self):
        den = UniformDenoiser(VOCAB4)
        for t in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                nelbo_estimate(den, prompt=[], response=[0, 1], block_size=2,
                               t_samples=[t], rng=np.random.default_rng(0))

    def test_rejects_empty_response(self):
        den = UniformDenoiser(VOCAB4)
        with pytest.raises(ValueError):
            nelbo_estimate(den, prompt=[0], response=[], block_size=2,
                           t_samples=[1.0], rng=np.random.default_rng(0))

    @pytest.mark.parametrize("t_samples, block_size, message", [
        ([], 2, "t_samples must be nonempty"),
        ([1.0], 0, "block_size must be positive"),
    ])
    def test_rejects_no_noise_levels_or_empty_blocks(self, t_samples, block_size, message):
        with pytest.raises(ValueError, match=message):
            nelbo_estimate(UniformDenoiser(VOCAB4), prompt=[0], response=[1, 2], block_size=block_size,
                           t_samples=t_samples, rng=np.random.default_rng(0))

    def test_zero_mass_on_truth_gives_inf(self):
        # a denoiser that puts zero probability on the true token
        vocab = Vocab(4)
        wrong = OracleDenoiser(vocab=vocab, target=(2,), base_confidence=1.0,
                               decay=1.0, prompt_len=0)
        val = nelbo_estimate(wrong, prompt=[], response=[1], block_size=1,
                             t_samples=[1.0], rng=np.random.default_rng(0))
        assert math.isinf(val)

    def test_contract_breaking_backend_raises(self):
        # The estimator goes through the predict() contract wrapper, so a
        # backend that leaves a masked position uncovered is caught, not scored.
        class DropsTheLast(UniformDenoiser):
            def predict(self, context, block):
                masked = block.masked_positions()[:-1]
                probs = np.zeros(self.vocab.total_ids)
                probs[1] = 1.0
                return PositionPrediction.from_probs(masked, [probs] * len(masked))

        with pytest.raises(ContractViolation, match="expected \\[0, 1\\]"):
            nelbo_estimate(DropsTheLast(VOCAB4), prompt=[0], response=[1, 2], block_size=2,
                           t_samples=[1.0], rng=np.random.default_rng(0))
