"""Throughput, degeneracy detection, and aggregation."""

from __future__ import annotations

import pytest

from blockdec.core import StopReason
from blockdec.metrics import (
    Category,
    RunSummary,
    aggregate,
    classify,
    detect_repetition,
    mean_confidence,
    summarize,
    tpf,
)

from conftest import make_result


EOS = 99  # only the stop reason matters to the metrics, not the id itself


class TestTpf:
    def test_slots_over_passes(self):
        res = make_result([1, 2, 3, 4, 5, 6, 7, 8], slot_groups=[4, 4])
        assert tpf(res) == 4.0

    def test_counts_discarded_tail_slots(self):
        # 4 slots decoded in one pass, but eos truncated the output to 3
        res = make_result([1, 2, EOS], stop=StopReason.EOS, slot_groups=[4])
        assert tpf(res) == 4.0

    def test_never_below_one(self):
        res = make_result([1, 2, 3], slot_groups=[1, 1, 1])
        assert tpf(res) == 1.0


class TestMeanConfidence:
    def test_flat_mean_over_all_commits(self):
        res = make_result([1, 2, 3], slot_groups=[2, 1],
                          confidences=[(0.8, 0.9), (1.0,)])
        assert abs(mean_confidence(res) - 0.9) < 1e-12

    def test_adds_left_to_right(self):
        # Compensated summation (Python 3.12's sum()) would give 0.1 exactly.
        res = make_result([1] * 10, slot_groups=[1] * 10, confidences=0.1)
        assert mean_confidence(res) == 0.09999999999999999


class TestDetectRepetition:
    def test_single_token_loop(self):
        assert detect_repetition([9, 9, 9, 9], max_period=4, min_repeats=4)

    def test_three_token_cycle(self):
        assert detect_repetition([1, 2, 3, 1, 2, 3, 1, 2, 3],
                                 max_period=4, min_repeats=3)

    def test_increasing_sequence_clean(self):
        assert not detect_repetition(list(range(20)),
                                     max_period=8, min_repeats=3)

    def test_only_the_tail_matters(self):
        assert detect_repetition([5, 0, 1, 2, 1, 2, 1, 2, 1, 2],
                                 max_period=4, min_repeats=4)

    def test_broken_tail_is_clean(self):
        assert not detect_repetition([1, 2, 1, 2, 1, 2, 9],
                                     max_period=4, min_repeats=3)

    def test_too_few_repeats_is_clean(self):
        assert not detect_repetition([7, 7, 7], max_period=4, min_repeats=4)

    def test_period_cap_respected(self):
        seq = [1, 2, 3, 4, 5] * 4
        assert not detect_repetition(seq, max_period=4, min_repeats=4)
        assert detect_repetition(seq, max_period=5, min_repeats=4)

    def test_defaults_need_long_tails(self):
        assert not detect_repetition([3, 3, 3])
        assert detect_repetition([3] * 4)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            detect_repetition([1], max_period=0, min_repeats=4)
        with pytest.raises(ValueError):
            detect_repetition([1], max_period=4, min_repeats=1)

    def test_empty_sequence_clean(self):
        assert not detect_repetition([], max_period=4, min_repeats=2)


class TestClassify:
    def test_repetition_beats_length_stop(self):
        res = make_result([4] * 8, stop=StopReason.MAX_LENGTH)
        assert classify(res) is Category.REPETITION

    def test_repetition_beats_answer_match(self):
        res = make_result([4] * 8 + [EOS], stop=StopReason.EOS)
        assert classify(res, target=[4] * 8) is Category.REPETITION

    def test_length_stop_is_insufficient(self):
        res = make_result([1, 2, 3, 4], stop=StopReason.MAX_LENGTH)
        assert classify(res, target=[1, 2, 3, 4]) is Category.INSUFFICIENT_LENGTH

    def test_match_compares_pre_eos_body(self):
        res = make_result([1, 2, 3, EOS], stop=StopReason.EOS)
        assert classify(res, target=[1, 2, 3]) is Category.ANSWER_MATCH

    def test_mismatch(self):
        res = make_result([1, 2, 4, EOS], stop=StopReason.EOS)
        assert classify(res, target=[1, 2, 3]) is Category.ANSWER_MISMATCH

    def test_prefix_is_not_a_match(self):
        res = make_result([1, 2, EOS], stop=StopReason.EOS)
        assert classify(res, target=[1, 2, 3]) is Category.ANSWER_MISMATCH

    def test_no_target_is_unchecked(self):
        res = make_result([1, 2, 3, EOS], stop=StopReason.EOS)
        assert classify(res) is Category.UNCHECKED


class TestSummarize:
    def test_composes_the_pieces(self):
        res = make_result([1, 2, 3, EOS], stop=StopReason.EOS,
                          slot_groups=[2, 2], confidences=0.75)
        s = summarize(res, target=[1, 2, 3])
        assert s.tpf == 2.0
        assert abs(s.mean_confidence - 0.75) < 1e-12
        assert s.output_len == 4
        assert s.category is Category.ANSWER_MATCH


def srun(tpf_val, conf=0.8, cat=Category.UNCHECKED):
    return RunSummary(tpf=tpf_val, mean_confidence=conf, output_len=4,
                      category=cat)


class TestAggregate:
    def test_single_summary_row(self):
        rows = aggregate({"cell": [srun(2.0, conf=0.7)]})
        assert len(rows) == 1
        assert rows[0].key == "cell"
        assert rows[0].runs == 1
        assert rows[0].mean_tpf == 2.0
        assert rows[0].mean_confidence == 0.7
        assert rows[0].frequencies == {Category.UNCHECKED: 1.0}

    def test_means_are_flat_averages(self):
        rows = aggregate({"cell": [srun(1.0), srun(3.0)]})
        assert rows[0].mean_tpf == 2.0

    def test_means_add_left_to_right(self):
        # Compensated summation (Python 3.12's sum()) would give 1.1 and 0.1.
        rows = aggregate({"cell": [srun(1.1, conf=0.1)] * 10})
        assert rows[0].mean_tpf == 1.0999999999999999
        assert rows[0].mean_confidence == 0.09999999999999999

    def test_category_frequencies(self):
        rows = aggregate({"cell": [
            srun(1.0, cat=Category.ANSWER_MATCH),
            srun(1.0, cat=Category.ANSWER_MATCH),
            srun(1.0, cat=Category.REPETITION),
            srun(1.0, cat=Category.ANSWER_MISMATCH),
        ]})
        freq = rows[0].frequencies
        assert freq[Category.ANSWER_MATCH] == 0.5
        assert freq[Category.REPETITION] == 0.25
        assert Category.UNCHECKED not in freq

    def test_rows_sorted_by_key(self):
        rows = aggregate({"b": [srun(1.0)], "a": [srun(2.0)], "c": [srun(3.0)]})
        assert [r.key for r in rows] == ["a", "b", "c"]

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError):
            aggregate({"cell": []})
