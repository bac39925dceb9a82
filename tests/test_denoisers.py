"""Denoiser backends and the shared prediction contract."""

from __future__ import annotations

import numpy as np
import pytest

from blockdec import denoisers
from blockdec.core import BlockState, DecodingConfig, PositionPrediction, RowTable, Vocab
from blockdec.denoisers import (
    ContractViolation,
    FixtureError,
    MarkovDenoiser,
    OracleDenoiser,
    ScriptedDenoiser,
    load_scripted,
    markov_fit,
    predict,
)
from blockdec.noise import nelbo_estimate
from blockdec.scheduler import generate

from conftest import UniformDenoiser, position_probs, read_only, shared_record


def masked_block(size, vocab):
    return BlockState.fully_masked(size, mask_id=vocab.mask_id)


class TestMarkovFit:
    def test_bigram_counts_dominate(self):
        # "ababab" as ids: every 'a' is followed by 'b'
        corpus = [0, 1, 0, 1, 0, 1]
        den = markov_fit(corpus, order=1, smoothing=0.01)
        dist = den.distribution((0,))
        # 3 observed (0 -> 1) transitions, add-lambda over 2 ordinary ids:
        # (3 + 0.01) / (3 + 2 * 0.01)
        assert abs(dist[1] - 3.01 / 3.02) < 1e-12
        assert dist[1] > 0.99

    def test_unigram_hand_value(self):
        corpus = [2, 0, 1, 0, 1, 0, 1, 0, 0, 3]
        den = markov_fit(corpus, order=1, smoothing=0.5)
        uni = den.distribution(())
        # counts: 0 -> 5, 1 -> 3, 2 -> 1, 3 -> 1 over 10 tokens, 4 ordinary ids
        assert abs(uni[0] - 5.5 / 12.0) < 1e-12
        assert abs(uni[2] - 1.5 / 12.0) < 1e-12
        assert abs(uni.sum() - 1.0) < 1e-12

    def test_unseen_context_backs_off_to_unigram(self):
        corpus = [2, 0, 1, 0, 1, 0, 1, 0, 0, 3]
        den = markov_fit(corpus, order=1, smoothing=0.5)
        # id 3 only appears as the final token, so it never forms a context
        assert np.array_equal(den.distribution((3,)), den.distribution(()))

    def test_single_symbol_corpus(self):
        den = markov_fit([0] * 20, order=1, smoothing=0.01)
        dist = den.distribution((0,))
        assert abs(dist[0] - 19.01 / 19.02) < 1e-12
        assert dist[0] > 0.999

    def test_order_two_backoff_chain(self):
        corpus = [0, 1, 2] * 10
        den = markov_fit(corpus, order=2, smoothing=0.01)
        # the seen pair (2, 0) predicts 1
        assert int(np.argmax(den.distribution((2, 0)))) == 1
        # the unseen pair (1, 0) falls back to context (0,), which predicts 1
        assert np.array_equal(den.distribution((1, 0)), den.distribution((0,)))

    def test_never_emits_specials(self):
        den = markov_fit([0, 1, 0, 1], order=1, smoothing=0.1)
        v = den.vocab
        for ctx in ((), (0,), (1,)):
            dist = den.distribution(ctx)
            assert dist[v.mask_id] == 0.0
            assert dist[v.eos_id] == 0.0
            assert dist[v.pad_id] == 0.0

    def test_rejects_out_of_range_tokens(self):
        vocab = Vocab(2)
        with pytest.raises(ValueError):
            markov_fit([0, 5], order=1, smoothing=0.1, vocab=vocab)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            markov_fit([], order=1, smoothing=0.1)

    @pytest.mark.parametrize("counts", [{(0,): {1: 2}}, {(): {}, (0,): {1: 2}}])
    def test_rejects_counts_without_a_unigram_table(self, counts):
        with pytest.raises(ValueError, match="nonempty unigram table"):
            MarkovDenoiser(1, 0.1, Vocab(4), counts)


class TestMarkovConditioning:
    def test_depends_only_on_nearest_clean_left_at_order_one(self):
        den = markov_fit([0, 1, 2, 0, 1, 2, 0, 1, 2], order=1, smoothing=0.1)
        v = den.vocab
        # scenario A: clean 1 sits directly left of the masked position
        block_a = BlockState(tokens=[1, v.mask_id], mask_id=v.mask_id)
        pred_a = position_probs(den.predict([2, 0], block_a))[0]
        # scenario B: same nearest clean token, entirely different context
        block_b = BlockState(
            tokens=[v.mask_id, 1, v.mask_id, v.mask_id],
            mask_id=v.mask_id,
        )
        preds_b = den.predict([0, 0, 0, 0, 0], block_b)
        assert preds_b.positions[1] == 2
        assert np.array_equal(pred_a, position_probs(preds_b)[1])

    def test_nearest_clean_from_context_tail(self):
        den = markov_fit([0, 1, 0, 1, 0, 1], order=1, smoothing=0.1)
        v = den.vocab
        block = masked_block(3, v)
        preds = den.predict([1, 0], block)
        probs = position_probs(preds)
        # position 0 is adjacent to the context tail token 0
        assert np.array_equal(probs[0], den.distribution((0,)))
        # positions 1 and 2 have a masked neighbour; the nearest clean token
        # is still the context tail, so all three share one row
        assert np.array_equal(probs[1], den.distribution((0,)))
        assert len(set(preds.row.tolist())) == 1 and preds.table.size == 1

    def test_empty_context_uses_unigram(self):
        den = markov_fit([0, 1, 0, 0], order=1, smoothing=0.1)
        block = masked_block(2, den.vocab)
        preds = den.predict([], block)
        assert np.array_equal(position_probs(preds)[0], den.distribution(()))

    # corpus where the pair context genuinely disagrees with the single-token
    # context: (0, 1) always continues with 2, but (1,) alone is a coin flip
    AMBIGUOUS = [0, 1, 2] * 5 + [3, 1, 0] * 5

    def test_contiguous_run_feeds_higher_order(self):
        den = markov_fit(self.AMBIGUOUS, order=2, smoothing=0.01)
        v = den.vocab
        # block [0, 1, ?]: the masked slot sees the clean run (0, 1)
        block = BlockState(tokens=[0, 1, v.mask_id], mask_id=v.mask_id)
        pred = position_probs(den.predict([2], block))[0]
        assert np.array_equal(pred, den.distribution((0, 1)))
        assert not np.array_equal(pred, den.distribution((1,)))

    def test_gap_falls_back_to_single_token_context(self):
        den = markov_fit(self.AMBIGUOUS, order=2, smoothing=0.01)
        v = den.vocab
        # block [0, ?, ?]: position 2's left neighbour is masked, so only the
        # single nearest clean token (0) is available
        block = BlockState(tokens=[0, v.mask_id, v.mask_id], mask_id=v.mask_id)
        preds = den.predict([1, 2], block)
        assert preds.positions[1] == 2
        assert np.array_equal(position_probs(preds)[1], den.distribution((0,)))
        assert not np.array_equal(position_probs(preds)[1], den.distribution(()))


class TestOracle:
    def test_adjacent_clean_gives_base_confidence(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(3, 1, 4), base_confidence=0.9,
                             decay=0.5, prompt_len=0)
        block = BlockState(tokens=[3, vocab.mask_id, vocab.mask_id], mask_id=vocab.mask_id)
        preds = den.predict([], block)
        # position 1: distance 1 from the clean token at position 0
        assert abs(preds.confidence[0] - 0.9) < 1e-12
        assert int(np.argmax(preds.table.probs[0])) == 1

    def test_distance_decay_with_floor(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(3, 1, 4, 1), base_confidence=0.9,
                             decay=0.5, prompt_len=0)
        block = BlockState(
            tokens=[3, vocab.mask_id, vocab.mask_id, vocab.mask_id],
            mask_id=vocab.mask_id)
        preds = den.predict([], block)
        # distance 3 peak: max(1/6, 0.9 * 0.5^2) = 0.225
        assert abs(preds.confidence[2] - 0.225) < 1e-12

    def test_floor_engages_for_small_vocab(self):
        vocab = Vocab(3)
        den = OracleDenoiser(vocab=vocab, target=(0, 1, 2, 0), base_confidence=0.9,
                             decay=0.5, prompt_len=0)
        block = BlockState(
            tokens=[0, vocab.mask_id, vocab.mask_id, vocab.mask_id],
            mask_id=vocab.mask_id)
        preds = den.predict([], block)
        # distance 3 would give 0.225, but the uniform floor is 1/3
        assert abs(preds.confidence[2] - 1.0 / 3.0) < 1e-12

    def test_confidence_non_increasing_in_distance(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            size = int(rng.integers(4, 12))
            vocab = Vocab(size)
            target = tuple(int(rng.integers(0, size)) for _ in range(8))
            den = OracleDenoiser(vocab=vocab, target=target,
                                 base_confidence=float(rng.uniform(0.5, 0.99)),
                                 decay=float(rng.uniform(0.3, 0.99)),
                                 prompt_len=1)
            block = masked_block(8, vocab)
            preds = den.predict([target[0] if target[0] < size else 0], block)
            confs = preds.confidence.tolist()
            assert all(a >= b - 1e-15 for a, b in zip(confs, confs[1:]))

    def test_positions_beyond_target_predict_eos(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(3, 1), base_confidence=0.9,
                             decay=1.0, prompt_len=2)
        block = masked_block(4, vocab)
        preds = den.predict([5, 5], block)
        assert preds.table.probs.argmax(axis=1).tolist() == [3, 1, vocab.eos_id, vocab.eos_id]

    def test_prompt_offset_alignment(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(3, 1, 4, 1), base_confidence=0.9,
                             decay=1.0, prompt_len=3)
        # two tokens already committed after the prompt
        block = masked_block(2, vocab)
        preds = den.predict([5, 5, 5, 3, 1], block)
        assert preds.table.probs.argmax(axis=1).tolist() == [4, 1]

    def test_parameter_validation(self):
        vocab = Vocab(4)
        with pytest.raises(ValueError):
            OracleDenoiser(vocab=vocab, target=(0,), base_confidence=0.1,
                           decay=0.5, prompt_len=0)  # below uniform floor
        with pytest.raises(ValueError):
            OracleDenoiser(vocab=vocab, target=(0,), base_confidence=0.9,
                           decay=0.0, prompt_len=0)
        with pytest.raises(ValueError):
            OracleDenoiser(vocab=vocab, target=(vocab.mask_id,),
                           base_confidence=0.9, decay=0.5, prompt_len=0)


class TestScripted:
    def test_entry_applies_at_addressed_step(self):
        vocab = Vocab(8)
        script = {(0, 0, p): (0.7, p) for p in range(4)}
        den = ScriptedDenoiser(vocab=vocab, script=script)
        preds = den.predict([1, 1], masked_block(4, vocab))
        assert preds.table.probs.argmax(axis=1).tolist() == [0, 1, 2, 3]
        assert np.all(np.abs(preds.confidence - 0.7) < 1e-12)

    def test_step_counter_advances_on_partial_blocks(self):
        vocab = Vocab(8)
        script = {
            (0, 0, 0): (0.9, 5), (0, 0, 1): (0.9, 6),
            (0, 1, 0): (0.8, 7), (0, 1, 1): (0.8, 4),
        }
        den = ScriptedDenoiser(vocab=vocab, script=script)
        block = masked_block(2, vocab)
        den.predict([], block)            # step 0 on the fresh block
        block.assign(0, 5)
        preds = den.predict([], block)    # same block, one slot filled: step 1
        assert preds.positions.tolist() == [1]
        assert int(np.argmax(preds.table.probs[0])) == 4
        assert abs(preds.confidence[0] - 0.8) < 1e-12

    def test_block_counter_advances_on_fresh_block(self):
        vocab = Vocab(8)
        script = {(0, 0, 0): (0.9, 5), (1, 0, 0): (0.6, 6)}
        den = ScriptedDenoiser(vocab=vocab, script=script)
        den.predict([3], masked_block(1, vocab))
        preds = den.predict([3, 5], masked_block(1, vocab))
        assert int(np.argmax(preds.table.probs[0])) == 6

    def test_blocks_are_numbered_from_construction(self):
        vocab = Vocab(8)
        script = {(0, 0, 0): (0.9, 5), (1, 0, 0): (0.6, 6)}
        den = ScriptedDenoiser(vocab=vocab, script=script)
        den.predict([3], masked_block(1, vocab))
        # a context as short as the first one does not restart the numbering
        preds = den.predict([3], masked_block(1, vocab))
        assert int(np.argmax(preds.table.probs[0])) == 6
        with pytest.raises(FixtureError, match="block=2"):
            den.predict([3], masked_block(1, vocab))

    def test_missing_entry_is_a_fixture_fault(self):
        vocab = Vocab(8)
        den = ScriptedDenoiser(vocab=vocab, script={(0, 0, 0): (0.9, 5)})
        with pytest.raises(FixtureError):
            den.predict([], masked_block(2, vocab))

    def test_confidence_floor_validated(self):
        vocab = Vocab(8)
        with pytest.raises(FixtureError):
            ScriptedDenoiser(vocab=vocab, script={(0, 0, 0): (0.01, 5)})

    def test_negative_key_rejected(self):
        with pytest.raises(FixtureError, match="negative component"):
            ScriptedDenoiser(vocab=Vocab(8), script={(0, -1, 0): (0.9, 5)})

    @pytest.mark.parametrize("tok", [-1, 8, 10])  # Vocab(8): mask 8, pad 10
    def test_bad_token_id_rejected(self, tok):
        with pytest.raises(FixtureError, match=f"bad token id {tok}"):
            ScriptedDenoiser(vocab=Vocab(8), script={(0, 0, 0): (0.9, tok)})


class TestLoadScripted(object):
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# comment line\n0 0 0 0.9 5\n\n0 0 1 0.8 6\n")
        vocab = Vocab(8)
        den = load_scripted(path, vocab)
        preds = den.predict([], masked_block(2, vocab))
        assert preds.table.probs.argmax(axis=1).tolist() == [5, 6]

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 0.9 5\n0 0 0.9 5\n")
        with pytest.raises(FixtureError, match="line 2"):
            load_scripted(path, Vocab(8))

    @pytest.mark.parametrize("line", ["0 0 x 0.9 5", "0 0 0 high 5", "0 0 0 0.9 5.0"])
    def test_unparsable_line_names_line(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 0 0 0.9 5\n{line}\n")
        with pytest.raises(FixtureError, match="line 2"):
            load_scripted(path, Vocab(8))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 0 0 0.9 5\n0 0 0 0.8 6\n")
        with pytest.raises(FixtureError, match="line 2"):
            load_scripted(path, Vocab(8))

    def test_empty_script_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(FixtureError):
            load_scripted(path, Vocab(8))


class _BrokenCoverage:
    """Returns a prediction for the wrong position set."""

    def __init__(self, vocab):
        self.vocab = vocab

    def predict(self, context, block):
        probs = np.zeros(self.vocab.total_ids)
        probs[0] = 1.0
        return PositionPrediction.from_probs([0], [probs])


class _MassOnMask:
    def __init__(self, vocab):
        self.vocab = vocab

    def predict(self, context, block):
        probs = np.zeros(self.vocab.total_ids)
        probs[self.vocab.mask_id] = 1.0
        masked = block.masked_positions()
        return PositionPrediction.from_probs(masked, [probs] * len(masked))


class TestPredictWrapper:
    def test_rejects_mask_in_context(self):
        vocab = Vocab(4)
        den = UniformDenoiser(vocab)
        with pytest.raises(ValueError):
            predict(den, [0, vocab.mask_id], masked_block(2, vocab))

    def test_rejects_block_without_masks(self):
        vocab = Vocab(4)
        den = UniformDenoiser(vocab)
        block = BlockState([0, 1], mask_id=vocab.mask_id)
        with pytest.raises(ValueError):
            predict(den, [0], block)

    def test_flags_coverage_mismatch(self):
        vocab = Vocab(4)
        with pytest.raises(ContractViolation):
            predict(_BrokenCoverage(vocab), [0], masked_block(3, vocab))

    def test_flags_a_return_that_is_not_a_record(self):
        class Rows(UniformDenoiser):
            def predict(self, context, block):
                return position_probs(super().predict(context, block))

        with pytest.raises(ContractViolation, match="^backend returned ndarray, not PositionPrediction$"):
            predict(Rows(Vocab(4)), [0], masked_block(2, Vocab(4)))

    def test_flags_a_width_mismatch(self):
        class Wide(UniformDenoiser):  # rows valid for Vocab(5) are one id too wide
            def predict(self, context, block):
                return UniformDenoiser(Vocab(5)).predict(context, block)

        with pytest.raises(ContractViolation, match="^rows have width 8, expected 7$"):
            predict(Wide(Vocab(4)), [0], masked_block(2, Vocab(4)))

    def test_flags_mass_on_special_ids(self):
        vocab = Vocab(4)
        with pytest.raises(ValueError, match="^row puts mass on mask or pad$"):
            predict(_MassOnMask(vocab), [0], masked_block(2, vocab))

    @pytest.mark.parametrize("special", ["mask_id", "pad_id"])
    def test_mass_on_a_shared_row_names_a_position(self, special):
        vocab = Vocab(4)
        good, bad = np.zeros((2, vocab.total_ids))
        good[: vocab.size] = 0.25
        bad[:3] = bad[getattr(vocab, special)] = 0.25

        class Shared:
            def __init__(self):
                self.vocab = vocab

            def predict(self, context, block):
                # positions 3 and 4 read the bad row 1
                return shared_record(block.masked_positions(), [good, bad], [0, 0, 1, 1])

        block = BlockState([vocab.mask_id, vocab.mask_id, 2, vocab.mask_id, vocab.mask_id], vocab.mask_id)
        with pytest.raises(ValueError, match=r"^row puts mass on mask or pad$"):
            predict(Shared(), [0], block)

    def test_passes_well_formed_predictions(self):
        vocab = Vocab(4)
        preds = predict(UniformDenoiser(vocab), [0], masked_block(3, vocab))
        assert preds.positions.tolist() == [0, 1, 2]


V4 = Vocab(4)
UNIFORM4 = np.array([0.25] * 4 + [0.0] * 3)


def special_row(special: str) -> np.ndarray:
    row = UNIFORM4.copy()
    row[3] = 0.0
    row[getattr(V4, special)] = 0.25
    return row


class TableBackend:
    """Keeps one table across passes. Each pass appends the rows queued for
    it, then reads the ids queued for it (masked positions in order);
    ``table`` may be swapped between passes."""

    def __init__(self):
        self.vocab, self.table, self.passes = V4, RowTable(8, V4), []

    def predict(self, context, block):
        rows, ids = self.passes.pop(0)
        for r in rows:
            self.table.add(r)
        return PositionPrediction(block.masked_positions(), self.table, read_only(ids))


class TestTableWatermark:
    """A row with mass on mask or pad never enters a table, whichever pass
    adds it and whether or not a position reads it: ``RowTable.add`` refuses
    it, so no table keeps a watermark of checked rows."""

    @pytest.mark.parametrize("special", ["mask_id", "pad_id"])
    def test_a_row_added_after_a_checked_pass_is_checked(self, special):
        backend = TableBackend()
        backend.passes = [([UNIFORM4], [0, 0, 0]), ([special_row(special)], [0, 1, 0])]
        predict(backend, [0], masked_block(3, V4))
        with pytest.raises(ValueError, match=r"^row puts mass on mask or pad$"):
            predict(backend, [0], masked_block(3, V4))
        assert backend.table.size == 1  # the bad row never enters

    def test_an_unread_bad_row_is_named_by_its_id(self):
        backend = TableBackend()
        backend.passes = [([UNIFORM4, special_row("pad_id")], [0, 0])]
        with pytest.raises(ValueError, match=r"^row puts mass on mask or pad$"):
            predict(backend, [0], masked_block(2, V4))
        assert backend.table.size == 1


def chain_model(vocab_size=40, order=2):
    """An order-2 fit on a sparse random chain over ``vocab_size`` tokens."""
    rng = np.random.default_rng(5)
    succ = rng.integers(0, vocab_size, size=(vocab_size, 3))
    tok, corpus = 0, []
    for u in rng.integers(0, 3, size=4000).tolist():
        corpus.append(tok)
        tok = int(succ[tok, u])
    return markov_fit(corpus, order, 0.05, vocab=Vocab(vocab_size))


class CheckedTables:
    """Delegates to a Markov backend and checks every record it returns:
    the record indexes the backend's current table, its ids lie in that
    table, and the table stays within the cap (or the block, if larger)."""

    def __init__(self, model, cap):
        self.model, self.vocab, self.cap, self.tables = model, model.vocab, cap, []

    def predict(self, context, block):
        preds = self.model.predict(context, block)
        table = preds.table
        assert table is self.model._table
        assert table.size <= table.capacity == max(self.cap, len(block))
        assert 0 <= preds.row.min() and preds.row.max() < table.size
        if not self.tables or self.tables[-1] is not table:
            self.tables.append(table)
        return preds


RULES = [dict(algorithm="static", steps=3), dict(algorithm="dynamic", tau=0.6),
         dict(algorithm="bacd", tau_h=0.9, tau_l=0.5), dict(algorithm="entropy_bounded", gamma=1.0)]


class TestTableCap:
    @pytest.mark.parametrize("cap, block_size", [(6, 4), (3, 5)])
    def test_capped_tables_roll_over_without_moving_any_output(self, monkeypatch, cap, block_size):
        fresh = chain_model()
        monkeypatch.setattr(denoisers, "ROW_TABLE_ROWS", cap)
        capped = CheckedTables(chain_model(), cap)
        prompts = [[1, 2, 3], [7], [30, 31, 32, 33]]
        for rule in RULES:
            for temperature in (0.0, 1.0):
                for seed, prompt in enumerate(prompts):
                    cfg = DecodingConfig(**rule, block_size=block_size, temperature=temperature,
                                         seed=seed, max_new_tokens=24)
                    want, got = generate(fresh, prompt, cfg), generate(capped, prompt, cfg)
                    assert got.output_tokens == want.output_tokens
                    assert got.steps == want.steps
                    score = [nelbo_estimate(m, prompt, got.output_tokens, block_size, [0.3, 0.7, 1.0],
                                            np.random.default_rng(seed)) for m in (fresh, capped)]
                    assert score[0] == score[1]
        assert len(capped.tables) > 20  # the cap was hit over and over
        assert fresh._table.capacity == 4096 and fresh._table.size > 10 * cap

    def test_distribution_rolls_over_a_full_table(self, monkeypatch):
        fresh = chain_model()
        monkeypatch.setattr(denoisers, "ROW_TABLE_ROWS", 2)
        capped = chain_model()
        for ctx in [(1,), (2,), (3,), (1, 2), (), (1,)]:
            assert capped.distribution(ctx).tobytes() == fresh.distribution(ctx).tobytes()
            assert capped._table.size <= 2


class TestContractFuzz:
    def test_random_queries_satisfy_contract(self):
        rng = np.random.default_rng(2024)
        corpus = list(rng.integers(0, 6, size=500))
        markov = markov_fit(corpus, order=2, smoothing=0.05)
        oracle_vocab = Vocab(6)
        for trial in range(1000):
            den = markov if trial % 2 == 0 else OracleDenoiser(
                vocab=oracle_vocab,
                target=tuple(int(x) for x in rng.integers(0, 6, size=12)),
                base_confidence=float(rng.uniform(0.2, 1.0)),
                decay=float(rng.uniform(0.2, 1.0)),
                prompt_len=int(rng.integers(0, 3)),
            )
            vocab = den.vocab
            ctx_len = int(rng.integers(0, 6)) if trial % 2 == 0 else max(
                int(rng.integers(0, 6)), den.prompt_len)
            context = [int(x) for x in rng.integers(0, vocab.size, size=ctx_len)]
            size = int(rng.integers(1, 9))
            flags = rng.random(size) < 0.6
            if not flags.any():
                flags[0] = True
            tokens = [
                vocab.mask_id if f else int(rng.integers(0, vocab.size))
                for f in flags
            ]
            block = BlockState(tokens=tokens, mask_id=vocab.mask_id)
            preds = predict(den, context, block)
            assert preds.positions.tolist() == block.masked_positions()
            for probs, conf, ent in zip(position_probs(preds), preds.confidence, preds.entropy):
                assert probs.shape == (vocab.total_ids,)
                assert abs(float(probs.sum()) - 1.0) <= 1e-9
                assert probs[vocab.mask_id] == 0.0
                assert probs[vocab.pad_id] == 0.0
                assert abs(conf - float(probs.max())) <= 1e-12
                assert ent >= 0.0

    def test_pure_function_of_inputs(self):
        den = markov_fit([0, 1, 2, 0, 1, 2], order=1, smoothing=0.1)
        block = masked_block(3, den.vocab)
        a = predict(den, [0, 1], block)
        b = predict(den, [0, 1], block)
        assert np.array_equal(position_probs(a), position_probs(b))
        assert a.table is b.table and a.row.tolist() == b.row.tolist()
