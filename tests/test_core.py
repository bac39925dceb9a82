"""Value-object invariants and config validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_assign_mask_rejected(self):
        b = BlockState.fully_masked(3, mask_id=9)
        with pytest.raises(ValueError, match="cannot assign the mask token"):
            b.assign(0, 9)
        assert b.masked_positions() == [0, 1, 2]

    def test_from_tokens_round_trip(self):
        b = BlockState([1, 2, 3], mask_id=9)
        assert b.fully_decoded
        assert b.masked_positions() == []
        b = BlockState([9, 2, 9], mask_id=9)
        assert b.masked_positions() == [0, 2]
        assert not b.fully_decoded

    def test_fields_are_tokens_and_mask_id(self):
        assert [f.name for f in dataclasses.fields(BlockState)] == ["tokens", "mask_id"]


def wide(*ordinary, width=5):
    """A row of ``width`` ids (``Vocab(width - 3)``) that starts ``ordinary``
    and puts zero on the rest."""
    return [*ordinary] + [0.0] * (width - len(ordinary))


GOOD_ROW = wide(0.7, 0.3)


def entropy_of(row) -> float:
    """Shannon entropy (nats), summed as the table sums it."""
    row = np.asarray(row, dtype=np.float64)
    nz = row[row > 0.0]
    return float(max(0.0, -(nz * np.log(nz)).sum()))


def add_last(rows) -> RowTable:
    """Add valid rows, then a last row, to one table: each check must run on
    a row as it enters, whatever came before it."""
    table = RowTable(len(rows), Vocab(len(rows[-1]) - 3))
    for good in rows[:-1]:
        table.add(good)
    table.add(rows[-1])
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
        assert int(np.argmax(p.table.probs[0])) == 2
        assert p.confidence.tolist() == [1.0]
        assert p.entropy.tolist() == [0.0]

    def test_from_probs_uniform_entropy(self):
        p = PositionPrediction.from_probs([1, 3], [wide(0.5, 0.5, width=7), wide(*[0.25] * 4, width=7)])
        assert p.positions.tolist() == [1, 3]
        assert p.confidence.tolist() == [0.5, 0.25]
        assert abs(p.entropy[0] - math.log(2)) < 1e-12
        assert abs(p.entropy[1] - math.log(4)) < 1e-12

    def test_from_probs_matches_row_stats(self):
        rows = np.zeros((5, 7))  # Vocab(4): ordinary ids 0-3 and eos 5 carry mass
        rows[:, [0, 1, 2, 3, 5]] = np.random.default_rng(0).dirichlet(np.full(5, 0.3), size=5)
        p = PositionPrediction.from_probs(range(5), rows)
        assert p.confidence.tolist() == rows.max(axis=1).tolist()
        assert p.entropy.tolist() == [entropy_of(row) for row in rows]

    def test_fields_are_read_only(self):
        rows = np.array([GOOD_ROW])
        p = PositionPrediction.from_probs([0], rows)
        with pytest.raises(ValueError):
            p.table.probs[0, 0] = 0.5
        rows[0, 0] = 0.1  # from_probs copied its input
        assert p.table.probs[0, 0] == 0.7

    def test_sum_checked(self):
        with pytest.raises(ValueError, match="sum"):
            add_last([GOOD_ROW, wide(0.5, 0.4)])  # 0.9
        with pytest.raises(ValueError, match="sum"):
            PositionPrediction.from_probs([0, 1], [GOOD_ROW, wide(0.5, 0.4)])

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PositionPrediction.from_probs([0, 1], [GOOD_ROW, wide(1.2, -0.2)])
        with pytest.raises(ValueError, match="nonnegative"):
            add_last([GOOD_ROW, wide(1.2, -0.2)])

    def test_certainty_coupling(self):
        # confidence pinned at one forces entropy to zero: 1e-10 of stray
        # mass passes the sum check but carries 2.3e-9 nats
        with pytest.raises(ValueError, match="unit confidence"):
            add_last([GOOD_ROW, wide(1.0, 1e-10)])

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
        table = RowTable(2, Vocab(2))
        with pytest.raises(ValueError, match="need one row of width 5"):
            table.add(wide(0.5, 0.3, 0.2, width=6))  # wrong width
        with pytest.raises(ValueError, match="need one row of width 5"):
            table.add([GOOD_ROW])  # [1, V], not one row

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_rows_narrower_than_a_vocab_rejected(self, width):
        # five columns is the narrowest vocab: two ordinary ids, mask, eos, pad
        with pytest.raises(ValueError, match="at least 2 ordinary tokens"):
            PositionPrediction.from_probs([0], [wide(1.0, width=width)])


class TestRowTable:
    def test_add_returns_consecutive_ids_and_stores_the_stats(self):
        table = RowTable(3, Vocab(3))
        rows = [wide(0.2, 0.4, 0.4, width=6), wide(0.5, 0.25, 0.25, width=6)]
        assert [table.add(r) for r in rows] == [0, 1]
        assert table.size == 2 and table.capacity == 3 and table.width == 6
        assert table.probs.tolist() == rows
        assert table.confidence.tolist() == [0.4, 0.5]
        assert table.entropy.tolist() == [entropy_of(r) for r in rows]
        assert table.argmax.tolist() == [1, 0]  # ties go to the lower id, as np.argmax

    @pytest.mark.parametrize("special", [2, 4])  # Vocab(2): mask 2, pad 4
    def test_mass_on_mask_or_pad_rejected(self, special):
        table = RowTable(2, Vocab(2))
        row = wide(0.7, 0.2)
        row[special] = 0.1
        with pytest.raises(ValueError, match=r"^row puts mass on mask or pad$"):
            table.add(row)
        assert table.size == 0
        table.add(wide(0.7, 0.2, 0.0, 0.1))  # eos may carry mass
        assert table.size == 1

    def test_add_checks_in_order(self):
        # shape, room, sum, sign, then mask/pad: each row fails the first
        full = RowTable(1, Vocab(2))
        full.add(GOOD_ROW)
        with pytest.raises(ValueError, match="width"):
            full.add(wide(0.5, 0.5, width=6))
        with pytest.raises(ValueError, match="full"):
            full.add(wide(0.5, 0.4, 0.1))
        table = RowTable(1, Vocab(2))
        with pytest.raises(ValueError, match="sum"):
            table.add(wide(1.2, -0.1, 0.1))
        with pytest.raises(ValueError, match="nonnegative"):
            table.add(wide(1.1, -0.2, 0.1))
        with pytest.raises(ValueError, match="mask or pad"):
            table.add(wide(1.0, 0.0, 1e-10))  # would fail "unit confidence" too
        assert table.size == 0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-20.0, 0.0), st.floats(0.0, 1.0))
    def test_zero_entropy_comes_with_unit_confidence(self, log_rest, split):
        # Derived stats make this true: a max c < 1 - 1e-9 alone carries
        # -c ln c > 1e-9 nats, so no accepted row has near-zero entropy below it.
        rest = 10.0 ** log_rest
        table = RowTable(1, Vocab(3))
        try:
            table.add(wide(1.0 - rest, rest * split, rest * (1.0 - split), width=6))
        except ValueError as exc:
            assert "unit confidence" in str(exc)
            return
        assert table.entropy[0] > 1e-12 or table.confidence[0] >= 1.0 - 1e-9

    def test_views_are_read_only_and_copies(self):
        row = np.array(GOOD_ROW)
        table = RowTable(2, Vocab(2))
        table.add(row)
        row[0] = 0.0  # add copied it
        for view in (table.probs, table.confidence, table.entropy, table.argmax):
            assert len(view) == 1
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0
        assert table.probs.tolist() == [GOOD_ROW]

    def test_full_table_and_refused_rows_append_nothing(self):
        table = RowTable(1, Vocab(2))
        with pytest.raises(ValueError, match="sum"):
            table.add(wide(0.5, 0.4))
        assert table.size == 0
        table.add(GOOD_ROW)
        with pytest.raises(ValueError, match="full"):
            table.add(GOOD_ROW)
        assert table.size == 1


class TestSharedRows:
    ROWS = np.array([GOOD_ROW, wide(0.4, 0.6)])

    def shared(self, row, positions=(0, 2, 3, 5)):
        table = RowTable(3, Vocab(2))  # one free slot: ids must be below size, not capacity
        for r in self.ROWS:
            table.add(r)
        return PositionPrediction(positions, table, row)

    def test_per_position_stats_are_one_gather(self):
        p = self.shared(index([1, 0, 1, 1]))
        assert p.table.probs.shape == (2, 5)
        assert p.confidence.tolist() == [0.6, 0.7, 0.6, 0.6]
        assert p.entropy.tolist() == [entropy_of(self.ROWS[r]) for r in (1, 0, 1, 1)]
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
            PositionPrediction.from_probs([0, 1, 2], [GOOD_ROW, GOOD_ROW, wide(0.5, 0.4)])
        with pytest.raises(ValueError, match="mask or pad"):
            add_last([GOOD_ROW, GOOD_ROW, wide(0.6, 0.0, 0.4)])


class TestValidateConfig:
    def test_valid_static(self):
        cfg = DecodingConfig(algorithm="static", block_size=8, steps=4)
        assert validate_config(cfg) == []

    def test_steps_must_be_positive(self):
        cfg = DecodingConfig(algorithm="static", block_size=8, steps=0)
        assert "steps must be positive" in validate_config(cfg)

    @pytest.mark.parametrize("fields, problem", [
        (dict(algorithm="dynamic", tau=0.5, seed=-1), "seed must be a nonnegative integer"),
        (dict(algorithm="bacd", tau_h=0.9), "tau_h and tau_l are required for bacd decoding"),
        (dict(algorithm="dynamic", tau=0.5, tccf=TccfConfig(4, 2, (1,), (), stage1_max_tokens=0)),
         "tccf stage1_max_tokens must be a positive integer"),
    ])
    def test_single_problem_reported(self, fields, problem):
        assert validate_config(DecodingConfig(**fields)) == [problem]

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
        res = GenerationResult(output_tokens=(1, 2, 3, 4), steps=steps,
                               stop_reason=StopReason.MAX_LENGTH, tccf=None)
        assert res.generated_slots == 4
        assert res.forward_passes == 2

    def test_pass_count_is_derived_from_steps(self):
        fields = [f.name for f in dataclasses.fields(GenerationResult)]
        assert fields == ["output_tokens", "steps", "stop_reason", "tccf"]
        res = GenerationResult(output_tokens=(), steps=(),
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
