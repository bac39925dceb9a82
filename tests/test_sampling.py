"""Selection rules and single-block decoding."""

from __future__ import annotations

import numpy as np
import pytest

from blockdec.core import DecodingConfig, PositionPrediction, Vocab
from blockdec.denoisers import OracleDenoiser, ScriptedDenoiser, markov_fit
from blockdec.sampling import (
    BacdState,
    _weights,
    decode_block,
    entropy_prefix_length,
    select_bacd,
    select_dynamic,
    select_entropy_bounded,
    select_static,
)

from conftest import (
    CountingDenoiser,
    bacd_after,
    full_random_script,
    preds_from_confs,
    spike_conf_for_entropy,
    spiked_probs,
)


VOCAB = Vocab(10)


def at(preds, idx):
    """The positions at record indices ``idx``, as a selection rule picks them."""
    return tuple(preds.positions[idx].tolist())


class TestStatic:
    def test_top_n_by_confidence(self):
        preds = preds_from_confs([(0, 0.5), (1, 0.9), (2, 0.7)])
        idx, threshold, fallback = select_static(preds, 2)
        assert at(preds, idx) == (1, 2)
        assert fallback is False
        assert threshold is None

    def test_tie_breaks_to_lower_position(self):
        preds = preds_from_confs([(0, 0.7), (1, 0.7), (2, 0.7)])
        assert at(preds, select_static(preds, 2)[0]) == (0, 1)

    def test_n_capped_at_remaining(self):
        preds = preds_from_confs([(0, 0.5), (1, 0.9)])
        assert at(preds, select_static(preds, 5)[0]) == (0, 1)

    def test_n_must_be_positive(self):
        preds = preds_from_confs([(0, 0.5)])
        with pytest.raises(ValueError):
            select_static(preds, 0)

    def test_returns_ascending_record_indices(self):
        preds = preds_from_confs([(3, 0.5), (8, 0.9), (20, 0.7)])
        idx, _, _ = select_static(preds, 2)
        assert idx.tolist() == [1, 2]
        assert at(preds, idx) == (8, 20)


class TestDynamic:
    def test_strictly_above_threshold(self):
        preds = preds_from_confs([(0, 0.95), (1, 0.9), (2, 0.8)])
        idx, threshold, fallback = select_dynamic(preds, 0.9)
        # 0.9 is not strictly above 0.9
        assert at(preds, idx) == (0,)
        assert fallback is False
        assert threshold == 0.9

    def test_fallback_takes_single_argmax(self):
        preds = preds_from_confs([(0, 0.5), (1, 0.8), (2, 0.6)])
        idx, _, fallback = select_dynamic(preds, 0.9)
        assert at(preds, idx) == (1,)
        assert fallback is True

    def test_fallback_tie_breaks_to_lower_position(self):
        preds = preds_from_confs([(0, 0.7), (1, 0.7)])
        idx, _, fallback = select_dynamic(preds, 0.9)
        assert at(preds, idx) == (0,)
        assert fallback is True

    def test_tau_one_with_subunit_confidence_always_falls_back(self):
        preds = preds_from_confs([(0, 0.99), (1, 0.97)])
        idx, _, fallback = select_dynamic(preds, 1.0)
        assert fallback is True
        assert len(idx) == 1

    def test_tau_validated(self):
        preds = preds_from_confs([(0, 0.5)])
        with pytest.raises(ValueError):
            select_dynamic(preds, 0.0)
        with pytest.raises(ValueError):
            select_dynamic(preds, 1.1)

    def test_chosen_set_grows_as_tau_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            confs = [(i, float(c)) for i, c in
                     enumerate(rng.uniform(0.11, 1.0, size=6))]
            preds = preds_from_confs(confs)
            tau_hi = float(rng.uniform(0.2, 1.0))
            tau_lo = float(rng.uniform(0.1, tau_hi))
            hi = set(at(preds, select_dynamic(preds, tau_hi)[0]))
            lo = set(at(preds, select_dynamic(preds, tau_lo)[0]))
            assert hi <= lo


class TestBacd:
    def test_first_step_uses_high_threshold(self):
        preds = preds_from_confs([(0, 0.95), (1, 0.5)])
        state = BacdState(tau_l=0.6, tau_h=0.9)
        idx, threshold, _ = select_bacd(preds, state)
        assert threshold == 0.9
        assert at(preds, idx) == (0,)
        assert (state.total, state.count) == (0.95, 1)

    def test_history_mean_becomes_threshold(self):
        preds = preds_from_confs([(0, 0.8), (1, 0.7)])
        idx, threshold, _ = select_bacd(preds, bacd_after((0.7, 0.8), tau_l=0.6, tau_h=0.9))
        assert abs(threshold - 0.75) < 1e-12
        assert at(preds, idx) == (0,)

    def test_mean_clipped_from_below(self):
        preds = preds_from_confs([(0, 0.65)])
        idx, threshold, fallback = select_bacd(preds, bacd_after((0.5, 0.5), tau_l=0.6, tau_h=0.9))
        assert threshold == 0.6
        assert at(preds, idx) == (0,)
        assert fallback is False

    def test_mean_clipped_from_above(self):
        preds = preds_from_confs([(0, 0.95)])
        _, threshold, _ = select_bacd(preds, bacd_after((0.99, 0.97), tau_l=0.6, tau_h=0.9))
        assert threshold == 0.9

    def test_fallback_confidence_enters_history(self):
        preds = preds_from_confs([(0, 0.5), (1, 0.4)])
        state = BacdState(tau_l=0.6, tau_h=0.9)
        _, _, fallback = select_bacd(preds, state)
        assert fallback is True
        assert (state.total, state.count) == (0.5, 1)

    def test_history_appends_in_position_order(self):
        preds = preds_from_confs([(0, 0.92), (1, 0.97), (2, 0.95)])
        state = BacdState(tau_l=0.6, tau_h=0.9)
        idx, _, _ = select_bacd(preds, state)
        assert at(preds, idx) == (0, 1, 2)
        assert (state.total, state.count) == (0.92 + 0.97 + 0.95, 3)

    def test_running_sum_adds_left_to_right(self):
        # Ten commits of 0.1 add up to 0.9999999999999999 from the left;
        # a compensated sum (math.fsum, or sum() from Python 3.12) gives 1.0.
        preds = preds_from_confs([(0, 0.1)], vocab=Vocab(20))
        state = BacdState(tau_l=0.05, tau_h=0.9)
        for _ in range(10):
            select_bacd(preds, state)
        assert (state.total, state.count) == (0.9999999999999999, 10)
        assert state.threshold() == 0.09999999999999999

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            BacdState(tau_l=0.9, tau_h=0.6)
        with pytest.raises(ValueError):
            BacdState(tau_l=0.0, tau_h=0.5)

    def test_equal_bounds_reduce_to_dynamic(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            tau = float(rng.uniform(0.2, 1.0))
            confs = [(i, float(c)) for i, c in
                     enumerate(rng.uniform(0.11, 1.0, size=5))]
            preds = preds_from_confs(confs)
            state = bacd_after([float(x) for x in rng.uniform(0.2, 1.0, size=3)],
                               tau_l=tau, tau_h=tau)
            got_idx, *got = select_bacd(preds, state)
            want_idx, *want = select_dynamic(preds, tau)
            assert got_idx.tolist() == want_idx.tolist()
            assert got == want


class TestEntropyPrefix:
    def test_budget_admits_whole_list(self):
        # sum minus max over all three: 0.1 + 0.2 = 0.3 <= 0.3
        assert entropy_prefix_length([0.1, 0.2, 0.5], 0.3) == 3

    def test_budget_cuts_to_singleton(self):
        assert entropy_prefix_length([0.1, 0.2, 0.5], 0.05) == 1

    def test_zero_budget_gives_singleton_on_distinct_entropies(self):
        assert entropy_prefix_length([0.1, 0.2, 0.5], 0.0) == 1

    def test_zero_budget_admits_exact_zeros(self):
        # the largest member is exempt, and the zeros cost nothing
        assert entropy_prefix_length([0.0, 0.0, 0.4], 0.0) == 3

    def test_middle_cut(self):
        # prefixes: m=2 costs 0.1, m=3 costs 0.3, m=4 costs 0.7
        assert entropy_prefix_length([0.1, 0.2, 0.4, 0.9], 0.5) == 3

    def test_singleton_floor(self):
        assert entropy_prefix_length([5.0], 0.0) == 1
        assert entropy_prefix_length([5.0, 6.0], 0.0) == 1

    def test_empty_list(self):
        assert entropy_prefix_length([], 1.0) == 0

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            entropy_prefix_length([0.1], -0.5)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            ent = sorted(float(x) for x in rng.uniform(0, 1.5, size=6))
            g1 = float(rng.uniform(0, 2.0))
            g2 = float(rng.uniform(g1, 2.5))
            assert entropy_prefix_length(ent, g1) <= entropy_prefix_length(ent, g2)


class TestEntropyBoundedSelect:
    def entropy_preds(self, targets):
        rows = [spiked_probs(VOCAB, 0, spike_conf_for_entropy(VOCAB, h)) for h in targets]
        return PositionPrediction.from_probs(range(len(targets)), rows)

    def test_takes_lowest_entropy_prefix(self):
        preds = self.entropy_preds([0.5, 0.1, 0.2])
        # ascending entropies: 0.1 (pos 1), 0.2 (pos 2), 0.5 (pos 0);
        # a 0.15 budget pays for the first two (cost 0.1) but not all three
        idx, _, fallback = select_entropy_bounded(preds, 0.15)
        assert at(preds, idx) == (1, 2)
        assert fallback is False

    def test_generous_budget_takes_all(self):
        preds = self.entropy_preds([0.5, 0.1, 0.2])
        idx, _, _ = select_entropy_bounded(preds, 1.0)
        assert at(preds, idx) == (0, 1, 2)

    def test_never_empty(self):
        preds = self.entropy_preds([1.4, 1.3])
        idx, _, fallback = select_entropy_bounded(preds, 0.0)
        assert at(preds, idx) == (1,)
        assert fallback is False

    def test_selected_set_matches_prefix_rule(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            targets = [float(x) for x in rng.uniform(0.0, 1.5, size=n)]
            gamma = float(rng.uniform(0.0, 1.0))
            preds = self.entropy_preds(targets)
            idx, _, _ = select_entropy_bounded(preds, gamma)
            order = sorted(zip(preds.entropy.tolist(), preds.positions.tolist()))
            m = entropy_prefix_length([h for h, _ in order], gamma)
            assert set(at(preds, idx)) == {pos for _, pos in order[:m]}

    def test_entropy_ties_resolved_by_position(self):
        preds = self.entropy_preds([0.4, 0.4, 0.4])
        # budget fits exactly one beyond the cheapest: 0.4 <= 0.5, 0.8 > 0.5
        idx, _, _ = select_entropy_bounded(preds, 0.5)
        assert at(preds, idx) == (0, 1)


def oracle_cfg(**kw):
    defaults = dict(algorithm="dynamic", tau=0.5, block_size=4,
                    temperature=0.0, seed=0, max_new_tokens=16)
    defaults.update(kw)
    return DecodingConfig(**defaults)


class TestDecodeBlock:
    def test_single_step_when_all_clear(self):
        vocab = Vocab(8)
        script = {(0, 0, p): (0.95, p + 1) for p in range(4)}
        den = ScriptedDenoiser(script=script, vocab=vocab)
        cfg = oracle_cfg(algorithm="dynamic", tau=0.9)
        block, records = decode_block(den, [], 4, cfg, np.random.default_rng(0))
        assert block.tokens == [1, 2, 3, 4]
        assert len(records) == 1
        assert records[0].unmasked_positions == (0, 1, 2, 3)

    def test_static_schedule_two_by_two(self):
        vocab = Vocab(8)
        script = {(0, s, p): (0.9 - 0.1 * ((p + s) % 3), p + 1)
                  for s in range(4) for p in range(4)}
        den = ScriptedDenoiser(script=script, vocab=vocab)
        cfg = oracle_cfg(algorithm="static", steps=2, tau=None)
        block, records = decode_block(den, [], 4, cfg, np.random.default_rng(0))
        assert [len(r.unmasked_positions) for r in records] == [2, 2]
        assert block.fully_decoded

    def test_static_ceil_division(self):
        vocab = Vocab(8)
        script = full_random_script(np.random.default_rng(3), vocab, 1, 5)
        den = ScriptedDenoiser(script=script, vocab=vocab)
        cfg = oracle_cfg(algorithm="static", steps=2, tau=None, block_size=5)
        _, records = decode_block(den, [], 5, cfg, np.random.default_rng(0))
        # ceil(5/2) = 3 per step, capped at the remainder on the last step
        assert [len(r.unmasked_positions) for r in records] == [3, 2]

    def test_one_forward_pass_per_step(self):
        vocab = Vocab(6)
        inner = OracleDenoiser(vocab=vocab, target=(1, 2, 3, 4),
                               base_confidence=0.9, decay=0.6, prompt_len=0)
        den = CountingDenoiser(inner)
        cfg = oracle_cfg(tau=0.95)
        _, records = decode_block(den, [], 4, cfg, np.random.default_rng(0))
        assert den.calls == len(records)

    def test_terminates_within_block_size_steps(self):
        rng = np.random.default_rng(77)
        vocab = Vocab(6)
        for algorithm in ("static", "dynamic", "bacd", "entropy_bounded"):
            for trial in range(10):
                target = tuple(int(x) for x in rng.integers(0, 6, size=8))
                den = OracleDenoiser(vocab=vocab, target=target,
                                     base_confidence=float(rng.uniform(0.3, 1.0)),
                                     decay=float(rng.uniform(0.2, 1.0)),
                                     prompt_len=0)
                cfg = oracle_cfg(algorithm=algorithm, steps=3, tau=0.7,
                                 tau_h=0.9, tau_l=0.5, gamma=0.4, block_size=8)
                block, records = decode_block(den, [], 8, cfg,
                                              np.random.default_rng(trial))
                assert block.fully_decoded
                assert 1 <= len(records) <= 8

    def test_tau_one_decodes_one_per_step(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(1, 2, 3, 4),
                             base_confidence=0.98, decay=0.9, prompt_len=0)
        cfg = oracle_cfg(tau=1.0)
        block, records = decode_block(den, [], 4, cfg, np.random.default_rng(0))
        assert len(records) == 4
        assert all(r.fallback_fired for r in records)
        assert all(len(r.unmasked_positions) == 1 for r in records)

    def test_step_records_describe_trajectory(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(1, 2, 3, 4),
                             base_confidence=0.9, decay=0.5, prompt_len=0)
        cfg = oracle_cfg(tau=0.7, block_size=4)
        block, records = decode_block(den, [], 4, cfg,
                                      np.random.default_rng(0), block_index=3)
        assert [r.block_index for r in records] == [3] * len(records)
        assert [r.step_index for r in records] == list(range(len(records)))
        seen = [p for r in records for p in r.unmasked_positions]
        assert sorted(seen) == [0, 1, 2, 3]

    def test_greedy_realization_at_zero_temperature(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(1, 2, 3, 4),
                             base_confidence=0.9, decay=0.9, prompt_len=0)
        cfg = oracle_cfg(tau=0.5)
        block, _ = decode_block(den, [], 4, cfg, np.random.default_rng(0))
        assert block.tokens == [1, 2, 3, 4]

    def test_sampled_realization_is_seed_deterministic(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(1, 2, 3, 4),
                             base_confidence=0.4, decay=0.9, prompt_len=0)
        cfg = oracle_cfg(tau=0.3, temperature=1.0)
        a, _ = decode_block(den, [], 4, cfg, np.random.default_rng(12))
        b, _ = decode_block(den, [], 4, cfg, np.random.default_rng(12))
        assert a.tokens == b.tokens

    def test_sampled_realization_varies_across_seeds(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(1, 2, 3, 4),
                             base_confidence=0.4, decay=0.9, prompt_len=0)
        cfg = oracle_cfg(tau=0.3, temperature=1.0)
        outcomes = {
            tuple(decode_block(den, [], 4, cfg, np.random.default_rng(s))[0].tokens)
            for s in range(8)
        }
        assert len(outcomes) > 1

    def test_bacd_thresholds_follow_history(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(1, 2, 3, 4, 5, 0, 1, 2),
                             base_confidence=0.85, decay=0.7, prompt_len=0)
        cfg = oracle_cfg(algorithm="bacd", tau=None, tau_h=0.9, tau_l=0.4,
                         block_size=8)
        _, records = decode_block(den, [], 8, cfg, np.random.default_rng(0))
        assert records[0].threshold_used == 0.9
        history = list(records[0].confidences)
        for rec in records[1:]:
            want = min(0.9, max(0.4, sum(history) / len(history)))
            assert abs(rec.threshold_used - want) < 1e-12
            history.extend(rec.confidences)

    def test_invalid_config_rejected(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(1,), base_confidence=0.9,
                             decay=0.9, prompt_len=0)
        cfg = oracle_cfg(algorithm="static", steps=None, tau=None)
        with pytest.raises(ValueError):
            decode_block(den, [], 4, cfg, np.random.default_rng(0))

    def test_fallback_cascade_walks_the_chain(self):
        # near-deterministic cycle, but tau sits above every confidence, so
        # each step commits exactly one position and later positions benefit
        # from the earlier commits
        den = markov_fit([0, 1, 2] * 30, order=1, smoothing=0.01)
        cfg = oracle_cfg(tau=0.9999, block_size=6)
        block, records = decode_block(den, [2], 6, cfg, np.random.default_rng(0))
        assert block.tokens == [0, 1, 2, 0, 1, 2]
        assert len(records) == 6
        assert all(r.fallback_fired for r in records)

    def test_full_block_commit_when_tau_is_low(self):
        # same chain, but every position conditions on the context tail in
        # step 0, so a permissive tau commits the whole block to one token
        den = markov_fit([0, 1, 2] * 30, order=1, smoothing=0.01)
        cfg = oracle_cfg(tau=0.9, block_size=6)
        block, records = decode_block(den, [2], 6, cfg, np.random.default_rng(0))
        assert block.tokens == [0] * 6
        assert len(records) == 1


class TestRealize:
    def test_low_temperature_does_not_underflow(self):
        # 0.06 ** 1000 and (0.94 / 19) ** 1000 both underflow to 0.0, so
        # tempering by np.power divided 0 by 0 and rng.choice got NaN.
        vocab = Vocab(20)
        target = tuple(int(x) for x in np.random.default_rng(0).integers(0, 20, 24))
        den = OracleDenoiser(vocab=vocab, target=target, base_confidence=0.06,
                             decay=1.0, prompt_len=0)
        cfg = oracle_cfg(tau=0.9, block_size=8, temperature=0.001)
        block, records = decode_block(den, [], 8, cfg, np.random.default_rng(0))
        # T -> 0 approaches greedy decoding: every peak wins
        assert block.tokens == list(target[:8])
        # the committed confidence stays the untempered peak
        assert all(c == 0.06 for r in records for c in r.confidences)

    @pytest.mark.parametrize("temperature", [1e-308, 5e-324])
    def test_temperature_near_the_float_floor_matches_a_tiny_one(self, temperature):
        # (log p - log max) / T overflows to -inf: a weight of 0, silently
        vocab = Vocab(20)
        target = tuple(int(x) for x in np.random.default_rng(1).integers(0, 20, 24))
        den = OracleDenoiser(vocab=vocab, target=target, base_confidence=0.3, decay=0.8)
        runs = []
        for temp in (temperature, 1e-200):
            rng = np.random.default_rng(4)
            block, records = decode_block(den, [], 8, oracle_cfg(tau=0.5, block_size=8, temperature=temp), rng)
            runs.append((block.tokens, records, rng.bit_generator.state))
        assert runs[0] == runs[1]
        assert runs[0][0] == list(target[:8])

    def test_tempering_matches_power_form(self):
        rng = np.random.default_rng(5)
        for temperature in (0.25, 0.7, 1.6, 3.0):
            probs = rng.dirichlet(np.full(9, 0.5))
            probs[3] = 0.0
            probs /= probs.sum()
            weights = _weights(probs, temperature)
            want = probs ** (1.0 / temperature)
            want /= want.sum()
            assert np.allclose(weights, want, rtol=1e-12, atol=0.0)
            assert weights[3] == 0.0

    def test_unit_temperature_samples_from_probs_unchanged(self):
        probs = np.random.default_rng(6).dirichlet(np.full(9, 0.5))
        assert np.array_equal(_weights(probs, 1.0), probs / probs.sum())
