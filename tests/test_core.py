"""Value-object invariants and config validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from blockdec.core import (
    Algorithm,
    BlockState,
    DecodingConfig,
    GenerationResult,
    PositionPrediction,
    RowTable,
    StepRecord,
    StopReason,
    TccfConfig,
    TccfTrace,
    Vocab,
    lint_config,
    row_stats,
    validate_config,
)


class TestVocab:
    def test_standard_layout(self):
        v = Vocab(5)
        assert (v.size, v.mask_id, v.eos_id, v.pad_id) == (5, 5, 6, 7)
        assert v.total_ids == 8

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Vocab(1)

    def test_size_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(Vocab)] == ["size"]
        assert Vocab(size=4) == Vocab(4)


class TestBlockState:
    def test_fully_masked(self):
        b = BlockState.fully_masked(4, mask_id=9)
        assert b.tokens == [9, 9, 9, 9]
        assert b.masked_positions() == [0, 1, 2, 3]
        assert not b.fully_decoded

    def test_assign_clears_flag(self):
        b = BlockState.fully_masked(3, mask_id=9)
        b.assign(1, 4)
        assert b.tokens == [9, 4, 9]
        assert b.masked_positions() == [0, 2]

    def test_assign_twice_rejected(self):
        b = BlockState.fully_masked(3, mask_id=9)
        b.assign(1, 4)
        with pytest.raises(ValueError):
            b.assign(1, 5)

    def test_from_tokens_round_trip(self):
        b = BlockState([1, 2, 3], mask_id=9)
        assert b.fully_decoded
        assert b.masked_positions() == []
        b = BlockState([9, 2, 9], mask_id=9)
        assert b.masked_positions() == [0, 2]
        assert not b.fully_decoded

    def test_fields_are_tokens_and_mask_id(self):
        assert [f.name for f in dataclasses.fields(BlockState)] == ["tokens", "mask_id"]


GOOD_ROW = [0.7, 0.3]
GOOD_STATS = row_stats(np.array(GOOD_ROW))


def add_last(rows, confidence=None, entropy=None) -> RowTable:
    """Add valid rows, then a last row with the given fields, to one table:
    each check must run on a row as it enters, whatever came before it."""
    table = RowTable(len(rows), len(rows[-1]))
    for good in rows[:-1]:
        table.add(good, *GOOD_STATS)
    table.add(rows[-1], confidence, entropy)
    return table


def index(values):
    row = np.array(values, dtype=np.int64)
    row.flags.writeable = False
    return row


class TestPositionPrediction:
    def test_from_probs_point_mass(self):
        probs = np.zeros(6)
        probs[2] = 1.0
        p = PositionPrediction.from_probs([0], [probs])
        assert int(np.argmax(p.probs[0])) == 2
        assert p.confidence.tolist() == [1.0]
        assert p.entropy.tolist() == [0.0]

    def test_from_probs_uniform_entropy(self):
        p = PositionPrediction.from_probs([1, 3], [[0.5, 0.5, 0.0, 0.0], np.full(4, 0.25)])
        assert p.positions.tolist() == [1, 3]
        assert p.confidence.tolist() == [0.5, 0.25]
        assert abs(p.entropy[0] - math.log(2)) < 1e-12
        assert abs(p.entropy[1] - math.log(4)) < 1e-12

    def test_from_probs_matches_row_stats(self):
        rows = np.random.default_rng(0).dirichlet(np.full(7, 0.3), size=5)
        p = PositionPrediction.from_probs(range(5), rows)
        stats = [row_stats(row) for row in rows]
        assert p.confidence.tolist() == [c for c, _ in stats]
        assert p.entropy.tolist() == [h for _, h in stats]

    def test_fields_are_read_only(self):
        rows = np.array([GOOD_ROW])
        p = PositionPrediction.from_probs([0], rows)
        with pytest.raises(ValueError):
            p.probs[0, 0] = 0.5
        rows[0, 0] = 0.1  # from_probs copied its input
        assert p.probs[0, 0] == 0.7

    def test_sum_checked(self):
        with pytest.raises(ValueError, match="sum"):
            add_last([GOOD_ROW, [0.5, 0.4]], confidence=0.5, entropy=0.3)  # 0.9
        with pytest.raises(ValueError, match="sum"):
            PositionPrediction.from_probs([0, 1], [GOOD_ROW, [0.5, 0.4]])

    def test_confidence_must_match_max(self):
        with pytest.raises(ValueError, match="max"):
            add_last([GOOD_ROW, [0.6, 0.4]], confidence=0.4, entropy=0.3)

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PositionPrediction.from_probs([0, 1], [GOOD_ROW, [1.2, -0.2]])
        with pytest.raises(ValueError, match="nonnegative"):
            add_last([GOOD_ROW, [1.2, -0.2]], confidence=1.2, entropy=0.3)

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError, match="entropy"):
            add_last([GOOD_ROW, [0.6, 0.4]], confidence=0.6, entropy=-0.1)

    def test_certainty_coupling(self):
        # confidence pinned at one forces entropy to zero, and vice versa
        with pytest.raises(ValueError, match="unit confidence"):
            add_last([GOOD_ROW, [1.0, 0.0]], confidence=1.0, entropy=0.5)
        with pytest.raises(ValueError, match="zero entropy"):
            add_last([GOOD_ROW, [0.6, 0.4]], confidence=0.6, entropy=0.0)

    def test_positions_strictly_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            PositionPrediction.from_probs([1, 0], [GOOD_ROW, GOOD_ROW])
        with pytest.raises(ValueError, match="ascending"):
            PositionPrediction.from_probs([2, 2], [GOOD_ROW, GOOD_ROW])

    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            PositionPrediction.from_probs([], np.zeros((0, 2)))
        with pytest.raises(ValueError):
            PositionPrediction.from_probs([0], GOOD_ROW)  # one row, not [1, V]
        with pytest.raises(ValueError):
            PositionPrediction.from_probs([0, 1], [GOOD_ROW])
        table = RowTable(2, 2)
        with pytest.raises(ValueError, match="need one row of width 2"):
            table.add([0.5, 0.3, 0.2], 0.5, 1.0)  # wrong width
        with pytest.raises(ValueError, match="need one row of width 2"):
            table.add([GOOD_ROW], *GOOD_STATS)  # [1, V], not one row


class TestRowTable:
    def test_add_returns_consecutive_ids_and_stores_the_stats(self):
        table = RowTable(3, 3)
        rows = [[0.2, 0.4, 0.4], [0.5, 0.25, 0.25]]
        assert [table.add(r, *row_stats(np.array(r))) for r in rows] == [0, 1]
        assert table.size == 2 and table.capacity == 3
        assert table.probs.tolist() == rows
        assert table.confidence.tolist() == [0.4, 0.5]
        assert table.entropy.tolist() == [row_stats(np.array(r))[1] for r in rows]
        assert table.argmax.tolist() == [1, 0]  # ties go to the lower id, as np.argmax

    def test_views_are_read_only_and_copies(self):
        row = np.array(GOOD_ROW)
        table = RowTable(2, 2)
        table.add(row, *GOOD_STATS)
        row[0] = 0.0  # add copied it
        for view in (table.probs, table.confidence, table.entropy, table.argmax):
            assert len(view) == 1
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0
        assert table.probs.tolist() == [GOOD_ROW]

    def test_full_table_and_refused_rows_append_nothing(self):
        table = RowTable(1, 2)
        with pytest.raises(ValueError, match="sum"):
            table.add([0.5, 0.4], 0.5, 0.3)
        assert table.size == 0
        table.add(GOOD_ROW, *GOOD_STATS)
        with pytest.raises(ValueError, match="full"):
            table.add(GOOD_ROW, *GOOD_STATS)
        assert table.size == 1


class TestSharedRows:
    ROWS = np.array([GOOD_ROW, [0.4, 0.6]])

    def shared(self, row, positions=(0, 2, 3, 5)):
        table = RowTable(3, 2)  # one free slot: ids must be below size, not capacity
        for r in self.ROWS:
            table.add(r, *row_stats(r))
        return PositionPrediction(positions, table, row)

    def test_per_position_stats_are_one_gather(self):
        p = self.shared(index([1, 0, 1, 1]))
        assert p.probs.shape == (2, 2)
        assert p.confidence.tolist() == [0.6, 0.7, 0.6, 0.6]
        assert p.entropy.tolist() == [row_stats(self.ROWS[r])[1] for r in (1, 0, 1, 1)]
        assert p.table.confidence.tolist() == [0.7, 0.6]
        for arr in (p.confidence, p.entropy, p.row):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_from_probs_index_is_the_identity(self):
        p = PositionPrediction.from_probs([4, 9], self.ROWS)
        assert p.row.tolist() == [0, 1] and not p.row.flags.writeable
        assert p.table.size == p.table.capacity == 2
        assert p.confidence.tolist() == p.table.confidence.tolist()

    @pytest.mark.parametrize("values", [[0, 1, 2, 1], [0, -1, 1, 1], [0, 1, 1], [0, 1, 1, 0, 1]])
    def test_out_of_range_negative_or_wrong_length_index_rejected(self, values):
        with pytest.raises(ValueError, match="row"):
            self.shared(index(values))

    def test_writable_or_untyped_index_rejected(self):
        with pytest.raises(ValueError, match="read-only int64"):
            self.shared(np.array([0, 1, 1, 0], dtype=np.int64))
        with pytest.raises(ValueError, match="read-only int64"):
            self.shared([0, 1, 1, 0])
        with pytest.raises(ValueError, match="read-only int64"):
            self.shared(index([0.0, 1.0, 1.0, 0.0]).astype(np.float64))

    def test_checks_run_on_every_row(self):
        # the bad row is the last one; every row is checked as it enters
        with pytest.raises(ValueError, match="sum"):
            PositionPrediction.from_probs([0, 1, 2], [GOOD_ROW, GOOD_ROW, [0.5, 0.4]])
        with pytest.raises(ValueError, match="max"):
            add_last([GOOD_ROW, GOOD_ROW, [0.6, 0.4]], confidence=0.4, entropy=0.3)


class TestValidateConfig:
    def test_valid_static(self):
        cfg = DecodingConfig(algorithm="static", block_size=8, steps=4)
        assert validate_config(cfg) == []

    def test_steps_must_be_positive(self):
        cfg = DecodingConfig(algorithm="static", block_size=8, steps=0)
        assert "steps must be positive" in validate_config(cfg)

    def test_tau_l_exceeds_tau_h(self):
        cfg = DecodingConfig(algorithm="bacd", tau_h=0.5, tau_l=0.9)
        assert "tau_l exceeds tau_h" in validate_config(cfg)

    def test_dynamic_requires_tau(self):
        cfg = DecodingConfig(algorithm="dynamic")
        assert any("tau" in v for v in validate_config(cfg))

    def test_entropy_requires_gamma(self):
        cfg = DecodingConfig(algorithm="entropy_bounded")
        assert any("gamma" in v for v in validate_config(cfg))

    def test_negative_gamma_rejected(self):
        cfg = DecodingConfig(algorithm="entropy_bounded", gamma=-0.1)
        assert validate_config(cfg) != []

    def test_tau_of_one_is_legal(self):
        cfg = DecodingConfig(algorithm="dynamic", tau=1.0)
        assert validate_config(cfg) == []

    def test_violations_accumulate(self):
        cfg = DecodingConfig(algorithm="static", block_size=0, steps=0,
                             max_new_tokens=0)
        assert len(validate_config(cfg)) >= 3

    def test_never_raises(self):
        cfg = DecodingConfig(algorithm="bacd", tau_h=-3.0, tau_l=7.0,
                             temperature=-1.0, block_size=-2)
        assert isinstance(validate_config(cfg), list)

    def test_tccf_fields_checked(self):
        tccf = TccfConfig(b_think=0, b_critic=4, marker=(), transition=(1,))
        cfg = DecodingConfig(algorithm="static", steps=1, tccf=tccf)
        violations = validate_config(cfg)
        assert any("b_think" in v for v in violations)
        assert any("marker" in v for v in violations)

    def test_unknown_algorithm_rejected_at_construction(self):
        with pytest.raises(ValueError):
            DecodingConfig(algorithm="greedy")


class TestLintConfig:
    def test_tau_one_flagged(self):
        cfg = DecodingConfig(algorithm="dynamic", tau=1.0)
        assert lint_config(cfg) != []

    def test_critic_not_smaller_flagged(self):
        tccf = TccfConfig(b_think=4, b_critic=8, marker=(1,), transition=(2,))
        cfg = DecodingConfig(algorithm="dynamic", tau=0.9, tccf=tccf)
        assert lint_config(cfg) != []

    def test_clean_config_silent(self):
        cfg = DecodingConfig(algorithm="dynamic", tau=0.9)
        assert lint_config(cfg) == []

    @pytest.mark.parametrize("stage1, flagged", [(None, False), (31, False), (32, False)])
    def test_stage1_cap_past_the_budget_flagged(self, stage1, flagged):
        tccf = TccfConfig(b_think=8, b_critic=2, marker=(1,), transition=(2,),
                          stage1_max_tokens=stage1)
        notes = lint_config(DecodingConfig(algorithm="dynamic", tau=0.9, max_new_tokens=32,
                                           tccf=tccf))
        assert any("stage1_max_tokens exceeds max_new_tokens" in n for n in notes) == flagged
        assert len(notes) == flagged


class TestStepRecord:
    def test_empty_unmask_rejected(self):
        with pytest.raises(ValueError):
            StepRecord(block_index=0, step_index=0, threshold_used=None,
                       unmasked_positions=(), confidences=(),
                       fallback_fired=False)

    def test_misaligned_confidences_rejected(self):
        with pytest.raises(ValueError):
            StepRecord(block_index=0, step_index=0, threshold_used=None,
                       unmasked_positions=(0, 1), confidences=(0.9,),
                       fallback_fired=False)

    def test_fallback_implies_singleton(self):
        with pytest.raises(ValueError):
            StepRecord(block_index=0, step_index=0, threshold_used=0.9,
                       unmasked_positions=(0, 1), confidences=(0.5, 0.4),
                       fallback_fired=True)


class TestGenerationResult:
    def test_generated_slots_sums_step_widths(self):
        steps = (
            StepRecord(block_index=0, step_index=0, threshold_used=None,
                       unmasked_positions=(0, 1, 2), confidences=(0.9,) * 3,
                       fallback_fired=False),
            StepRecord(block_index=0, step_index=1, threshold_used=None,
                       unmasked_positions=(3,), confidences=(0.8,),
                       fallback_fired=False),
        )
        res = GenerationResult(prompt_len=0, output_tokens=(1, 2, 3, 4), steps=steps,
                               stop_reason=StopReason.MAX_LENGTH, tccf=None)
        assert res.generated_slots == 4
        assert res.forward_passes == 2

    def test_pass_count_is_derived_from_steps(self):
        assert "forward_passes" not in [f.name for f in dataclasses.fields(GenerationResult)]
        res = GenerationResult(prompt_len=0, output_tokens=(), steps=(),
                               stop_reason=StopReason.MAX_LENGTH)
        assert res.forward_passes == 0


class TestTccfTrace:
    @pytest.mark.parametrize("stage2_passes, ran", [(0, False), (1, True), (3, True)])
    def test_critic_ran_is_derived_from_stage_two_passes(self, stage2_passes, ran):
        trace = TccfTrace(stage1_passes=2, stage2_passes=stage2_passes,
                          splice_position=None, forced_splice=False)
        assert trace.critic_ran is ran
        assert len(dataclasses.fields(TccfTrace)) == 4


def test_algorithm_values():
    assert Algorithm("static") is Algorithm.STATIC
    assert Algorithm("entropy_bounded") is Algorithm.ENTROPY_BOUNDED
    with pytest.raises(ValueError):
        Algorithm("beam")
