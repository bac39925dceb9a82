"""Denoiser backends and the shared prediction contract."""

from __future__ import annotations

import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blockdec import core, denoisers, experiment
from blockdec.core import (ENTRY_BYTES, MAX_VOCAB_SIZE, ROW_TABLE_BYTES, DecodingConfig, PositionPrediction,
                           RowTable, Vocab)
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
from blockdec.sampling import decode_block
from blockdec.scheduler import generate

from conftest import (
    BACKENDS,
    CheckedTables,
    CountingDenoiser,
    UniformDenoiser,
    backend_maker,
    chain_model,
    held,
    masked_of,
    position_probs,
    position_worst,
    shared_record,
    within_a_pass_of_the_budget,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import chain_corpus  # noqa: E402


def masked_block(size, vocab):
    return [vocab.mask_id] * size


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

    def test_a_non_integer_token_fails_the_fit(self):
        # It once fitted Vocab(size=2.5) and failed at the first predict with TypeError.
        with pytest.raises(ValueError, match="corpus token is not an integer"):
            markov_fit([0, 1.5, 1], order=1, smoothing=0.01)

    def test_a_bool_token_counts_as_one(self):
        # vec[True] = cnt once wrote every column, and predict saw probs summing to 1.98
        den = markov_fit([0, True, 1], order=1, smoothing=0.01)
        assert den.vocab == Vocab(2)
        assert den._counts == markov_fit([0, 1, 1], order=1, smoothing=0.01)._counts
        assert {type(tok) for table in den._counts.values() for tok in table} == {int}
        preds = predict(den, [0], masked_block(3, den.vocab))
        assert np.allclose(position_probs(preds).sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_a_token_past_int64_fails_the_fit(self):
        # It once fitted Vocab(size=2**70 + 1) and failed later with OverflowError.
        with pytest.raises(ValueError, match=f"corpus token {2**70} outside the ordinary range"):
            markov_fit([0, 1, 2**70], order=1, smoothing=0.01)

    def test_numpy_tokens_give_python_int_keys(self):
        den = markov_fit(np.array([0, 1, 2, 1, 0], dtype=np.int64), order=2, smoothing=0.01)
        keys = {type(tok) for ctx, table in den._counts.items() for tok in (*ctx, *table)}
        assert keys == {int}

    @pytest.mark.parametrize("corpus, order, vocab, message", [
        ([], 0, None, "corpus must be nonempty"),
        ([1.5], 0, None, "order must be at least 1"),
        ([2**70, 1.5], 0, Vocab(3), "order must be at least 1"),
        ([0, 5, -1, 7], 1, Vocab(3), "corpus token 5 outside"),
        ([0, 9, -1, 2**70], 1, None, "corpus token -1 outside"),
        # past int32: the range check's array cannot hold these, and the messages stay
        ([0, 1, 2, 2**31, 5], 1, None, r"vocab size 2147483649 is too large: one row of it exceeds the "
                                        r"134217728-byte row table \(at most 16777213\)$"),
        ([0, 1, 2, 2**31, 5], 1, Vocab(3), r"corpus token 2147483648 outside the ordinary range \[0, 3\)$"),
        ([0, 1, 2, -2**31 - 1, 5], 1, None, r"corpus token -2147483649 outside the ordinary range \[0, 6\)$"),
        ([0, 1, 2, -2**31 - 1, 5], 1, Vocab(3), r"corpus token -2147483649 outside the ordinary range \[0, 3\)$"),
        ([0, 1, 2, 2**40, 5], 1, None, r"vocab size 1099511627777 is too large: one row of it exceeds the "
                                       r"134217728-byte row table \(at most 16777213\)$"),
        ([0, 1, 2, 2**40, 5], 1, Vocab(3), r"corpus token 1099511627776 outside the ordinary range \[0, 3\)$"),
        ([0, 5, 2**40], 1, Vocab(3), r"corpus token 5 outside the ordinary range \[0, 3\)$"),
    ])
    def test_errors_come_in_order(self, corpus, order, vocab, message):
        with pytest.raises(ValueError, match=message):
            markov_fit(corpus, order=order, smoothing=0.1, vocab=vocab)

    def test_the_fit_peak_is_bounded_per_token(self):
        # 88 bytes a token (17.6 MB traced, most of it the dicts and lists
        # of the 140k distinct windows), pinned with 10% headroom. Counting
        # each order's windows as Python tuples peaked at 106.
        corpus = np.random.default_rng(0).integers(0, 64, 200_000).tolist()
        tracemalloc.start()
        try:
            markov_fit(corpus, 2, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(corpus) < 97

    def test_the_wide_fit_frees_its_arrays_before_the_last_counts(self):
        # wide_vocab's corpus at order 2: 35.7 bytes a token (7.1 MB traced);
        # 41.7 if the corpus, its codes and the distinct windows stay alive
        # while the last length's count dicts are built.
        corpus = chain_corpus(2, 0, 4096, 200_000)
        tracemalloc.start()
        try:
            markov_fit(corpus, 2, 0.01, vocab=Vocab(4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(corpus) < 38

    def test_contexts_hold_the_unigram_tables_ints(self):
        # A context's first token is the unigram table's own int, not an equal
        # new one: an int past 256 is a 28-byte object, kept once per context.
        corpus = np.random.default_rng(28).integers(300, 340, 5_000).tolist()
        counts = markov_fit(corpus, 3, 0.01)._counts
        unigram = {tok: tok for tok in counts[()]}
        assert all(ctx[0] is unigram[ctx[0]] for ctx in counts if ctx)

    def test_a_smoothing_that_overflows_a_denominator_is_refused(self):
        counts = {(): {0: 3, 1: 1}, (0,): {1: 2}}
        # 4 + 1e308 * 4 is inf: every row would have read 0 / inf
        with pytest.raises(ValueError, match="smoothing 1e\\+308 must be nonnegative, and total"):
            MarkovDenoiser(1, 1e308, Vocab(4), counts)
        # the largest finite denominator still gives checked rows: near-uniform ones
        den = MarkovDenoiser(1, 1e307, Vocab(4), counts)
        probs = position_probs(predict(den, [0], masked_block(2, den.vocab)))
        assert np.allclose(probs[:, :4], 0.25, rtol=0.0, atol=1e-12)

    def test_the_backend_keeps_the_counts_it_is_given(self):
        counts = {(): {0: 3, 1: 1}, (0,): {1: 2}}
        den = MarkovDenoiser(1, 0.1, Vocab(4), counts)
        assert den._counts is counts
        assert den._totals == {(): 4, (0,): 2}

    @pytest.mark.parametrize("counts", [{(0,): {1: 2}}, {(): {}, (0,): {1: 2}}])
    def test_rejects_counts_without_a_unigram_table(self, counts):
        with pytest.raises(ValueError, match="nonempty unigram table"):
            MarkovDenoiser(1, 0.1, Vocab(4), counts)


class TestMarkovCounts:
    """A directly built backend refuses a count token outside ``[0, size)``
    when the row that reads it is built: ``-1`` once counted as token
    ``size - 1`` and ``9`` ended in an IndexError. Other rows still build."""

    @pytest.mark.parametrize("key", [(), (2,)], ids=["unigram", "context"])
    @pytest.mark.parametrize("tok", [-1, 9])
    def test_a_count_token_out_of_range_is_refused_when_its_row_is_built(self, tok, key):
        den = MarkovDenoiser(1, 0.01, Vocab(4), {(): {0: 1, 1: 1}, key: {0: 1, tok: 5}})
        cfg = DecodingConfig(algorithm="dynamic", tau=0.5, block_size=2, max_new_tokens=4)
        message = f"context {key}: count token {tok} outside the ordinary range [0, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate(den, list(key), cfg)

    def test_the_other_rows_still_build(self):
        den = MarkovDenoiser(1, 0.01, Vocab(4), {(): {0: 1, 1: 1}, (2,): {-1: 5}})
        assert den.distribution((0,)).argmax() in (0, 1)  # backs off to the unigram
        with pytest.raises(ValueError, match="count token -1 outside"):
            den.distribution((2,))


class TestMarkovConditioning:
    def test_depends_only_on_nearest_clean_left_at_order_one(self):
        den = markov_fit([0, 1, 2, 0, 1, 2, 0, 1, 2], order=1, smoothing=0.1)
        v = den.vocab
        # scenario A: clean 1 sits directly left of the masked position
        block_a = [1, v.mask_id]
        pred_a = position_probs(den.predict([2, 0], block_a))[0]
        # scenario B: same nearest clean token, entirely different context
        block_b = [v.mask_id, 1, v.mask_id, v.mask_id]
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
        assert len(set(preds.row)) == 1 and preds.table.size == 1

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
        block = [0, 1, v.mask_id]
        pred = position_probs(den.predict([2], block))[0]
        assert np.array_equal(pred, den.distribution((0, 1)))
        assert not np.array_equal(pred, den.distribution((1,)))

    def test_gap_falls_back_to_single_token_context(self):
        den = markov_fit(self.AMBIGUOUS, order=2, smoothing=0.01)
        v = den.vocab
        # block [0, ?, ?]: position 2's left neighbour is masked, so only the
        # single nearest clean token (0) is available
        block = [0, v.mask_id, v.mask_id]
        preds = den.predict([1, 2], block)
        assert preds.positions[1] == 2
        assert np.array_equal(position_probs(preds)[1], den.distribution((0,)))
        assert not np.array_equal(position_probs(preds)[1], den.distribution(()))


class TestOracle:
    def test_adjacent_clean_gives_base_confidence(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(3, 1, 4), base_confidence=0.9,
                             decay=0.5, prompt_len=0)
        block = [3, vocab.mask_id, vocab.mask_id]
        preds = den.predict([], block)
        # position 1: distance 1 from the clean token at position 0
        assert abs(preds.confidence[0] - 0.9) < 1e-12
        assert int(np.argmax(position_probs(preds)[0])) == 1

    def test_distance_decay_with_floor(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(3, 1, 4, 1), base_confidence=0.9,
                             decay=0.5, prompt_len=0)
        block = [3, vocab.mask_id, vocab.mask_id, vocab.mask_id]
        preds = den.predict([], block)
        # distance 3 peak: max(1/6, 0.9 * 0.5^2) = 0.225
        assert abs(preds.confidence[2] - 0.225) < 1e-12

    def test_floor_engages_for_small_vocab(self):
        vocab = Vocab(3)
        den = OracleDenoiser(vocab=vocab, target=(0, 1, 2, 0), base_confidence=0.9,
                             decay=0.5, prompt_len=0)
        block = [0, vocab.mask_id, vocab.mask_id, vocab.mask_id]
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
            confs = preds.confidence
            assert all(a >= b - 1e-15 for a, b in zip(confs, confs[1:]))

    def test_positions_beyond_target_predict_eos(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(3, 1), base_confidence=0.9,
                             decay=1.0, prompt_len=2)
        block = masked_block(4, vocab)
        preds = den.predict([5, 5], block)
        assert position_probs(preds).argmax(axis=1).tolist() == [3, 1, vocab.eos_id, vocab.eos_id]

    def test_prompt_offset_alignment(self):
        vocab = Vocab(6)
        den = OracleDenoiser(vocab=vocab, target=(3, 1, 4, 1), base_confidence=0.9,
                             decay=1.0, prompt_len=3)
        # two tokens already committed after the prompt
        block = masked_block(2, vocab)
        preds = den.predict([5, 5, 5, 3, 1], block)
        assert position_probs(preds).argmax(axis=1).tolist() == [4, 1]

    def test_a_negative_prompt_len_is_refused(self):
        with pytest.raises(ValueError, match="^prompt_len must be nonnegative$"):
            OracleDenoiser((0, 1), Vocab(4), 0.9, 0.5, prompt_len=-1)

    def test_a_context_shorter_than_prompt_len_is_refused(self):
        den = OracleDenoiser((0, 1), Vocab(4), 0.9, 0.5, prompt_len=3)
        with pytest.raises(ValueError, match="^context is shorter than prompt_len$"):
            den.predict([2, 3], masked_block(2, den.vocab))
        assert den.predict([2, 3, 1], masked_block(2, den.vocab)).positions == (0, 1)

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
        assert position_probs(preds).argmax(axis=1).tolist() == [0, 1, 2, 3]
        assert all(abs(c - 0.7) < 1e-12 for c in preds.confidence)

    def test_step_counter_advances_on_partial_blocks(self):
        vocab = Vocab(8)
        script = {
            (0, 0, 0): (0.9, 5), (0, 0, 1): (0.9, 6),
            (0, 1, 0): (0.8, 7), (0, 1, 1): (0.8, 4),
        }
        den = ScriptedDenoiser(vocab=vocab, script=script)
        block = masked_block(2, vocab)
        den.predict([], block)            # step 0 on the fresh block
        block[0] = 5
        preds = den.predict([], block)    # same block, one slot filled: step 1
        assert preds.positions == (1,)
        assert int(np.argmax(position_probs(preds)[0])) == 4
        assert abs(preds.confidence[0] - 0.8) < 1e-12

    def test_block_counter_advances_on_fresh_block(self):
        vocab = Vocab(8)
        script = {(0, 0, 0): (0.9, 5), (1, 0, 0): (0.6, 6)}
        den = ScriptedDenoiser(vocab=vocab, script=script)
        den.predict([3], masked_block(1, vocab))
        preds = den.predict([3, 5], masked_block(1, vocab))
        assert int(np.argmax(position_probs(preds)[0])) == 6

    def test_blocks_are_numbered_from_construction(self):
        vocab = Vocab(8)
        script = {(0, 0, 0): (0.9, 5), (1, 0, 0): (0.6, 6)}
        den = ScriptedDenoiser(vocab=vocab, script=script)
        den.predict([3], masked_block(1, vocab))
        # a context as short as the first one does not restart the numbering
        preds = den.predict([3], masked_block(1, vocab))
        assert int(np.argmax(position_probs(preds)[0])) == 6
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

    def test_a_partly_masked_first_query_did_not_start_a_block(self):
        vocab = Vocab(8)
        den = ScriptedDenoiser(vocab=vocab, script={(0, 0, 0): (0.9, 5), (0, 0, 1): (0.9, 6)})
        block = masked_block(2, vocab)
        block[0] = 3
        with pytest.raises(FixtureError, match="first query did not start a block: 1 of its 2"):
            predict(den, [1], block)
        assert (den._block, den._step) == (-1, -1)
        preds = predict(den, [1], masked_block(2, vocab))  # still block 0, step 0
        assert position_probs(preds).argmax(axis=1).tolist() == [5, 6]

    def test_a_partly_masked_first_nelbo_block_did_not_start_a_block(self):
        vocab = Vocab(8)
        den = ScriptedDenoiser(vocab=vocab, script={(0, 0, p): (0.9, p) for p in range(4)})
        # at t=0.3 this seed masks positions 1-3 of the first block and keeps 0
        assert (np.random.default_rng(0).random(4) < 0.3).tolist() == [False, True, True, True]
        with pytest.raises(FixtureError, match="first query did not start a block: 1 of its 4"):
            nelbo_estimate(den, [2], [0, 1, 2, 3], 4, [0.3], np.random.default_rng(0))
        assert (den._block, den._step) == (-1, -1)

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
        assert position_probs(preds).argmax(axis=1).tolist() == [5, 6]

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
        masked = masked_of(block, self.vocab)
        return PositionPrediction.from_probs(masked, [probs] * len(masked))


class TestPredictWrapper:
    def test_rejects_mask_in_context(self):
        # decode_block checks the context once, before the first pass
        vocab = Vocab(4)
        den = CountingDenoiser(UniformDenoiser(vocab))
        cfg = DecodingConfig(algorithm="dynamic", tau=0.5, block_size=2)
        with pytest.raises(ValueError, match="^context must not contain mask tokens$"):
            decode_block(den, [0, vocab.mask_id], 2, cfg, np.random.default_rng(0))
        assert den.calls == 0

    def test_rejects_block_without_masks(self):
        vocab = Vocab(4)
        den = UniformDenoiser(vocab)
        block = [0, 1]
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
                masked = masked_of(block, self.vocab)
                row = np.r_[[0.2] * 5, [0.0] * 3]
                return PositionPrediction.from_probs(masked, [row] * len(masked))

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
                return shared_record(masked_of(block, vocab), [good, bad], [0, 0, 1, 1])

        block = [vocab.mask_id, vocab.mask_id, 2, vocab.mask_id, vocab.mask_id]
        with pytest.raises(ValueError, match=r"^row puts mass on mask or pad$"):
            predict(Shared(), [0], block)

    def test_passes_well_formed_predictions(self):
        vocab = Vocab(4)
        preds = predict(UniformDenoiser(vocab), [0], masked_block(3, vocab))
        assert preds.positions == (0, 1, 2)


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
        self.vocab, self.table, self.passes = V4, RowTable(V4), []

    def predict(self, context, block):
        rows, ids = self.passes.pop(0)
        for r in rows:
            self.table.add(r)
        return PositionPrediction(masked_of(block, V4), self.table, ids)


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


RULES = [dict(algorithm="static", steps=3), dict(algorithm="dynamic", tau=0.6),
         dict(algorithm="bacd", tau_h=0.9, tau_l=0.5), dict(algorithm="entropy_bounded", gamma=1.0)]


class TestTableCap:
    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("cap, block_size", [(6, 4), (3, 5)])
    def test_capped_tables_roll_over_without_moving_any_output(self, monkeypatch, kind, cap, block_size):
        runs = [(DecodingConfig(**rule, block_size=block_size, temperature=temperature, seed=seed,
                                max_new_tokens=24), prompt)
                for rule in RULES for temperature in (0.0, 1.0)
                for seed, prompt in enumerate([[1, 2, 3], [7], [30, 31, 32, 33]])]

        def outputs(rolls):
            tables = {}
            make = backend_maker(kind, lambda backend: CheckedTables(backend, rolls, tables))
            out = []
            for cfg, prompt in runs:
                result = generate(make(prompt), prompt, cfg)
                out.append((result, nelbo_estimate(make(prompt), prompt, result.output_tokens, block_size,
                                                   [1.0, 0.7, 0.3], np.random.default_rng(cfg.seed))))
            assert within_a_pass_of_the_budget(tables)  # rows, stats, indexes and keys
            return out

        fresh_rolls, capped_rolls = [], []
        want = outputs(fresh_rolls)
        # a budget of ``cap`` positions at the most a position can add
        monkeypatch.setattr(core, "ROW_TABLE_BYTES", cap * position_worst(Vocab(40)))
        assert outputs(capped_rolls) == want
        assert fresh_rolls == []  # one table per backend held every run
        assert len(capped_rolls) > 20  # the cap was hit over and over

    def test_distribution_rolls_over_a_full_table(self, monkeypatch):
        contexts = [(1,), (2,), (3,), (1, 2), (), (1,)]
        fresh = chain_model()
        want = [fresh.distribution(ctx).tobytes() for ctx in contexts]
        budget = position_worst(fresh.vocab)  # the most one call can add
        monkeypatch.setattr(core, "ROW_TABLE_BYTES", budget)
        capped, tables = chain_model(), []
        for ctx, probs in zip(contexts, want):
            before, start = capped._table, held(capped._table)
            assert capped.distribution(ctx).tobytes() == probs
            if capped._table is before:
                assert start <= budget  # kept only while within the budget
            else:
                assert start > budget and capped._table.size == 1
                start = 0
            assert held(capped._table) <= start + budget
            if capped._table not in tables:
                tables.append(capped._table)
        assert len(tables) > 1

    def test_new_aliases_alone_roll_a_table_over(self, monkeypatch):
        # Once every row is built, a context never seen before still keys the
        # row it backs off to: a table that only gains such aliases grows
        # toward size**order keys, and each is charged, so it still rolls over.
        model = chain_model()
        for ctx in model._counts:
            model.distribution(ctx)
        table, rows, nbytes = model._table, model._table.size, model._table.nbytes
        unseen = [(a, b) for a in range(40) for b in range(40) if (a, b) not in model._counts and (b,) in model._counts]
        monkeypatch.setattr(core, "ROW_TABLE_BYTES", held(table) + 10 * ENTRY_BYTES)
        for ctx in unseen[:11]:
            backed_off = model.distribution(ctx[1:]).tobytes()  # read first: its key is in the table
            assert model.distribution(ctx).tobytes() == backed_off
            assert model._table is table
        assert (table.size, table.nbytes) == (rows, nbytes)  # no row or index came, only 11 aliases
        model.distribution(unseen[11])
        assert model._table is not table and held(table) == core.ROW_TABLE_BYTES + ENTRY_BYTES


# Each way a library caller builds a backend, over a given vocab.
BUILDERS = {
    "markov_fit": lambda vocab: markov_fit([0, 1, 0], 1, 0.01, vocab=vocab),
    "MarkovDenoiser": lambda vocab: MarkovDenoiser(1, 0.01, vocab, {(): {0: 2, 1: 1}, (0,): {1: 1}}),
    "OracleDenoiser": lambda vocab: OracleDenoiser((0, 1), vocab, 0.9, 0.8),
    "ScriptedDenoiser": lambda vocab: ScriptedDenoiser({(0, 0, 0): (0.9, 1)}, vocab),
}


class TestVocabWidth:
    """A vocab whose one row over all its ids would not fit a row table is
    never built: ``Vocab`` refuses the size, so no backend, however it is
    built, maps a table for it."""

    def too_wide(self, size):
        return f"vocab size {size} is too large: .*row table \\(at most {MAX_VOCAB_SIZE}\\)"

    @pytest.mark.parametrize("size", [MAX_VOCAB_SIZE + 1, 2**31 + 1, 10**20])
    def test_vocab_refuses_a_size_past_the_limit(self, size):
        with pytest.raises(ValueError, match=f"^vocab size {size} is too large: one row of it exceeds the "
                                             f"{ROW_TABLE_BYTES}-byte row table \\(at most {MAX_VOCAB_SIZE}\\)$"):
            Vocab(size)
        assert Vocab(MAX_VOCAB_SIZE).total_ids == MAX_VOCAB_SIZE + 3

    def test_the_limit_is_the_widest_row_the_table_holds(self):
        # one more ordinary id makes the row one float64 wider
        assert 8 * Vocab(MAX_VOCAB_SIZE).total_ids <= ROW_TABLE_BYTES < 8 * (Vocab(MAX_VOCAB_SIZE).total_ids + 1)
        assert experiment.MAX_VOCAB_SIZE == MAX_VOCAB_SIZE

    @pytest.mark.parametrize("name", BUILDERS)
    def test_a_vocab_past_the_limit_is_refused(self, name):
        with pytest.raises(ValueError, match=self.too_wide(MAX_VOCAB_SIZE + 1)):
            BUILDERS[name](Vocab(MAX_VOCAB_SIZE + 1))

    @pytest.mark.parametrize("name", BUILDERS)
    def test_a_vocab_at_the_limit_is_built(self, name):
        assert BUILDERS[name](Vocab(MAX_VOCAB_SIZE)).vocab.size == MAX_VOCAB_SIZE

    def test_a_fit_refuses_the_vocab_its_corpus_implies(self):
        # It once fitted Vocab(10**17 + 1) and failed at the first pass with
        # OverflowError from the row table's mmap.
        with pytest.raises(ValueError, match=self.too_wide(10**17 + 1)):
            markov_fit([0, 10**17, 0], 1, 0.01)
        assert markov_fit([0, MAX_VOCAB_SIZE - 1, 0], 1, 0.01).vocab == Vocab(MAX_VOCAB_SIZE)


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
            block = tokens
            preds = predict(den, context, block)
            assert list(preds.positions) == masked_of(block, vocab)
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
        assert a.table is b.table and a.row == b.row
