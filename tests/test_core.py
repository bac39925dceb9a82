"""Value-object invariants and config validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.core import (
    ENTRY_BYTES,
    Algorithm,
    ConfigError,
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
from blockdec.denoisers import ContractViolation, OracleDenoiser, predict
from blockdec.sampling import decode_block
from blockdec.scheduler import generate, generate_tccf

from conftest import table_probs


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

    @pytest.mark.parametrize("size", [6.0, "7", None, True, False, 2.5])
    def test_a_size_that_is_not_an_integer_is_refused(self, size):
        # a float size once built, with mask_id 6.0, and failed later in a decode
        with pytest.raises(ValueError):
            Vocab(size)

    def test_a_numpy_integer_size_is_stored_as_int(self):
        vocab = Vocab(np.int64(6))
        assert type(vocab.size) is int and type(vocab.mask_id) is int
        assert vocab == Vocab(6) and hash(vocab) == hash(Vocab(6))
        oracle = OracleDenoiser(vocab=Vocab(np.int32(6)), target=(1, 2, 3), base_confidence=0.9, decay=0.8)
        cfg = DecodingConfig(algorithm="dynamic", tau=0.5, block_size=4, max_new_tokens=4)
        assert generate(oracle, (), cfg).output_tokens == (1, 2, 3, 7)


class TestBlockState:
    """A block is a plain token list, masked where it holds ``vocab.mask_id``.
    ``decode_block`` owns it; the guards a block once kept for itself (never
    commit twice, never commit the mask) follow from the predict contract."""

    VOCAB = Vocab(9)  # mask_id 9
    TARGET = (4, 1, 2, 3, 0, 5)

    class Snapshots:
        def __init__(self, inner):
            self.inner, self.vocab, self.blocks = inner, inner.vocab, []

        def predict(self, context, block):
            self.blocks.append(list(block))
            return self.inner.predict(context, block)

    def oracle(self):
        return OracleDenoiser(self.TARGET, self.VOCAB, base_confidence=0.9, decay=0.8)

    def decode(self, size):
        """Decode ``size`` positions one per pass; the blocks each pass saw, the block, the records."""
        den = self.Snapshots(self.oracle())
        cfg = DecodingConfig(algorithm="static", steps=size, block_size=size,
                             temperature=0.0, seed=0, max_new_tokens=size)
        block, records = decode_block(den, [], size, cfg, np.random.default_rng(0))
        return den.blocks, block, records

    def test_fully_masked(self):
        seen, block, _ = self.decode(4)
        assert seen[0] == [9, 9, 9, 9]
        assert predict(self.oracle(), [], seen[0]).positions == (0, 1, 2, 3)
        assert block == list(self.TARGET[:4])

    def test_assign_clears_flag(self):
        seen, block, records = self.decode(3)
        # one commit per pass: the next pass sees it filled, the rest masked
        pos = records[0].unmasked_positions[0]
        want = [9, 9, 9]
        want[pos] = block[pos]
        assert seen[1] == want
        assert predict(self.oracle(), [], [9, 4, 9]).positions == (0, 2)

    def test_assign_twice_rejected(self):
        class Stale:
            """Covers every position, committed or not."""
            vocab = self.VOCAB

            def predict(self, context, block):
                probs = np.zeros(self.vocab.total_ids)
                probs[: self.vocab.size] = 1.0 / self.vocab.size
                return PositionPrediction.from_probs(range(len(block)), [probs] * len(block))

        with pytest.raises(ContractViolation, match=r"covered positions \[0, 1, 2\], expected \[0, 2\]"):
            predict(Stale(), [], [9, 4, 9])
        seen, _, records = self.decode(3)
        for blk, rec in zip(seen, records):
            assert all(blk[pos] == 9 for pos in rec.unmasked_positions)

    def test_assign_mask_rejected(self):
        row = np.zeros(self.VOCAB.total_ids)
        row[0] = row[self.VOCAB.mask_id] = 0.5
        table = RowTable(self.VOCAB)
        with pytest.raises(ValueError, match="row puts mass on mask or pad"):
            table.add(row)
        assert table.size == 0
        _, block, _ = self.decode(4)
        assert 9 not in block


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
    table = RowTable(Vocab(len(rows[-1]) - 3))
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
        assert int(np.argmax(table_probs(p.table)[0])) == 2
        assert p.confidence == (1.0,)
        assert p.entropy == (0.0,)

    def test_from_probs_uniform_entropy(self):
        p = PositionPrediction.from_probs([1, 3], [wide(0.5, 0.5, width=7), wide(*[0.25] * 4, width=7)])
        assert p.positions == (1, 3)
        assert p.confidence == (0.5, 0.25)
        assert abs(p.entropy[0] - math.log(2)) < 1e-12
        assert abs(p.entropy[1] - math.log(4)) < 1e-12

    def test_from_probs_matches_row_stats(self):
        rows = np.zeros((5, 7))  # Vocab(4): ordinary ids 0-3 and eos 5 carry mass
        rows[:, [0, 1, 2, 3, 5]] = np.random.default_rng(0).dirichlet(np.full(5, 0.3), size=5)
        p = PositionPrediction.from_probs(range(5), rows)
        assert p.confidence == tuple(rows.max(axis=1).tolist())
        assert p.entropy == tuple(entropy_of(row) for row in rows)

    def test_fields_are_read_only(self):
        rows = np.array([GOOD_ROW])
        p = PositionPrediction.from_probs([0], rows)
        p.table.row(0)[0] = 0.5  # row() reads back a new copy
        rows[0, 0] = 0.1  # from_probs copied its input
        assert p.table.row(0)[0] == 0.7
        assert table_probs(p.table).tolist() == [GOOD_ROW]

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
        table = RowTable(Vocab(2))
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
        table = RowTable(Vocab(3))
        rows = [wide(0.2, 0.4, 0.4, width=6), wide(0.5, 0.25, 0.25, width=6)]
        assert [table.add(r) for r in rows] == [0, 1]
        assert table.size == 2 and table.width == 6
        assert table.nbytes == 2 * (8 * 6 + ENTRY_BYTES)  # stored dense, each with its stats
        assert table_probs(table).tolist() == rows
        assert table.confidence == [0.4, 0.5]
        assert table.entropy == [entropy_of(r) for r in rows]
        assert table.argmax == [1, 0]  # ties go to the lower id, as np.argmax

    @pytest.mark.parametrize("special", [2, 4])  # Vocab(2): mask 2, pad 4
    def test_mass_on_mask_or_pad_rejected(self, special):
        table = RowTable(Vocab(2))
        row = wide(0.7, 0.2)
        row[special] = 0.1
        with pytest.raises(ValueError, match=r"^row puts mass on mask or pad$"):
            table.add(row)
        assert table.size == 0
        table.add(wide(0.7, 0.2, 0.0, 0.1))  # eos may carry mass
        assert table.size == 1

    def test_add_checks_in_order(self):
        # shape, sum, sign, then mask/pad: each row fails the first
        table = RowTable(Vocab(2))
        with pytest.raises(ValueError, match="width"):
            table.add(wide(1.2, -0.1, 0.1, width=6))  # would fail sum and sign too
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
        table = RowTable(Vocab(3))
        try:
            table.add(wide(1.0 - rest, rest * split, rest * (1.0 - split), width=6))
        except ValueError as exc:
            assert "unit confidence" in str(exc)
            return
        assert table.entropy[0] > 1e-12 or table.confidence[0] >= 1.0 - 1e-9

    def test_views_are_read_only_and_copies(self):
        row = np.array(GOOD_ROW)
        table = RowTable(Vocab(2))
        table.add(row)
        row[0] = 0.0  # add copied it
        for stats in (table_probs(table), table.confidence, table.entropy, table.argmax):
            assert len(stats) == 1
        table.row(0)[0] = 0.0  # row() reads back a new copy
        assert table.row(0).tolist() == GOOD_ROW
        assert table_probs(table).tolist() == [GOOD_ROW]
        # the stats are Python numbers derived from the copy, not views of the input
        assert (table.confidence, table.entropy, table.argmax) == ([0.7], [entropy_of(GOOD_ROW)], [0])
        assert type(table.confidence[0]) is float and type(table.argmax[0]) is int

    def test_refused_rows_append_nothing(self):
        table = RowTable(Vocab(2))
        with pytest.raises(ValueError, match="sum"):
            table.add(wide(0.5, 0.4))
        assert table.size == table.nbytes == 0
        table.add(GOOD_ROW)
        with pytest.raises(ValueError, match="mask or pad"):
            table.add(wide(0.5, 0.4, 0.1))
        assert table.size == 1 and table.nbytes == 8 * 5 + ENTRY_BYTES


class TestSharedRows:
    ROWS = np.array([GOOD_ROW, wide(0.4, 0.6)])

    def shared(self, row, positions=(0, 2, 3, 5)):
        table = RowTable(Vocab(2))  # ids must be below size
        for r in self.ROWS:
            table.add(r)
        return PositionPrediction(positions, table, row)

    def test_per_position_stats_are_one_gather(self):
        p = self.shared(index([1, 0, 1, 1]))
        assert table_probs(p.table).shape == (2, 5)
        assert p.confidence == (0.6, 0.7, 0.6, 0.6)
        assert p.entropy == tuple(entropy_of(self.ROWS[r]) for r in (1, 0, 1, 1))
        assert p.table.confidence == [0.7, 0.6]
        for arr in (p.confidence, p.entropy, p.row):
            with pytest.raises(TypeError):
                arr[0] = 0

    def test_from_probs_index_is_the_identity(self):
        p = PositionPrediction.from_probs([4, 9], self.ROWS)
        assert p.row == (0, 1) and isinstance(p.row, tuple)
        assert p.table.size == 2
        assert list(p.confidence) == p.table.confidence

    @pytest.mark.parametrize("values", [[0, 1, 2, 1], [0, -1, 1, 1], [0, 1, 1], [0, 1, 1, 0, 1]])
    def test_out_of_range_negative_or_wrong_length_index_rejected(self, values):
        with pytest.raises(ValueError, match="row"):
            self.shared(index(values))

    def test_untyped_index_rejected_and_writable_index_copied(self):
        with pytest.raises(TypeError, match="integer"):
            self.shared(index([0.0, 1.0, 1.0, 0.0]).astype(np.float64))
        with pytest.raises(TypeError, match="integer"):
            self.shared([0, 1, 1.0, 0])
        with pytest.raises(TypeError, match="integer"):
            self.shared(index([0, 1, 1, 0]), positions=(0.0, 2, 3, 5))
        # the record holds tuples of its own: writes to the caller's arrays do not reach it
        row, pos = np.array([0, 1, 1, 0], dtype=np.int64), np.array([0, 2, 3, 5])
        p = self.shared(row, positions=pos)
        row[0], pos[0] = 1, 1
        assert p.row == (0, 1, 1, 0) and p.positions == (0, 2, 3, 5)
        assert p.confidence == (0.7, 0.6, 0.6, 0.7)
        assert {type(x) for x in p.row + p.positions} == {int}

    def test_checks_run_on_every_row(self):
        # the bad row is the last one; every row is checked as it enters
        with pytest.raises(ValueError, match="sum"):
            PositionPrediction.from_probs([0, 1, 2], [GOOD_ROW, GOOD_ROW, wide(0.5, 0.4)])
        with pytest.raises(ValueError, match="mask or pad"):
            add_last([GOOD_ROW, GOOD_ROW, wide(0.6, 0.0, 0.4)])


def _valid_fields(draw) -> dict:
    """Fields of a valid config, any algorithm, with or without TCCF."""
    tau_l, tau_h = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2)))
    tccf = draw(st.none() | st.builds(
        TccfConfig, st.integers(1, 6), st.integers(1, 6), st.lists(st.integers(0, 5), min_size=1, max_size=3),
        st.lists(st.integers(0, 5), max_size=3), st.none() | st.integers(1, 12)))
    return dict(algorithm=draw(st.sampled_from(list(Algorithm))), block_size=draw(st.integers(1, 6)),
                steps=draw(st.integers(1, 6)), tau=draw(st.floats(0.01, 1.0)), tau_h=tau_h, tau_l=tau_l,
                gamma=draw(st.floats(0.0, 3.0)), temperature=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                seed=draw(st.integers(0, 9)), max_new_tokens=draw(st.integers(1, 12)), tccf=tccf)


# Values of the wrong type or out of range for some field, NaN included.
MIXED = (st.booleans() | st.text(max_size=2) | st.just(math.nan) | st.integers(-2, 6)
         | st.floats(-1.0, 2.0) | st.none())
SCALARS = ["algorithm", "block_size", "steps", "tau", "tau_h", "tau_l", "gamma", "temperature", "seed",
           "max_new_tokens"]
TCCF_SCALARS = ["b_think", "b_critic", "stage1_max_tokens"]


@st.composite
def mixed_config_fields(draw) -> dict:
    """A valid config's fields with up to three replaced by :data:`MIXED`
    values, TCCF fields (``marker``/``transition`` as text too) included."""
    fields = _valid_fields(draw)
    for name in draw(st.sets(st.sampled_from(SCALARS), max_size=3)):
        fields[name] = draw(MIXED | st.sampled_from(["greedy", 3]) if name == "algorithm" else MIXED)
    if fields["tccf"] is not None:
        tccf = dataclasses.asdict(fields["tccf"])
        for name in draw(st.sets(st.sampled_from(TCCF_SCALARS + ["marker", "transition"]), max_size=2)):
            tccf[name] = draw(st.text(max_size=2) | st.just(()) if name in ("marker", "transition") else MIXED)
        fields["tccf"] = TccfConfig(**tccf)
    return fields


class TestValidateConfig:
    """A config is checked when it is built: an invalid one raises one
    :class:`ConfigError` that lists every problem :func:`validate_config`
    finds, and a config that exists validates clean."""

    def test_valid_static(self):
        cfg = DecodingConfig(algorithm="static", block_size=8, steps=4)
        assert validate_config(cfg) == []

    def test_steps_must_be_positive(self):
        with pytest.raises(ConfigError, match="steps must be positive"):
            DecodingConfig(algorithm="static", block_size=8, steps=0)

    @pytest.mark.parametrize("fields, problem", [
        (dict(algorithm="dynamic", tau=0.5, seed=-1), "seed must be a nonnegative integer"),
        (dict(algorithm="bacd", tau_h=0.9), "tau_h and tau_l are required for bacd decoding"),
        (dict(algorithm="dynamic", tau=0.5, tccf=TccfConfig(4, 2, (1,), (), stage1_max_tokens=0)),
         "tccf stage1_max_tokens must be a positive integer"),
        (dict(algorithm="bacd", tau_h=0.9, tau_l=0.0), "tau_l must lie in (0, 1]"),
        (dict(algorithm="bacd", tau_h=0.9, tau_l=math.nan), "tau_l must lie in (0, 1]"),
    ])
    def test_single_problem_reported(self, fields, problem):
        with pytest.raises(ConfigError) as exc:
            DecodingConfig(**fields)
        assert str(exc.value) == f"invalid config: {problem}"

    def test_tau_l_exceeds_tau_h(self):
        with pytest.raises(ConfigError, match="tau_l exceeds tau_h"):
            DecodingConfig(algorithm="bacd", tau_h=0.5, tau_l=0.9)

    def test_dynamic_requires_tau(self):
        with pytest.raises(ConfigError, match="tau"):
            DecodingConfig(algorithm="dynamic")

    def test_entropy_requires_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            DecodingConfig(algorithm="entropy_bounded")

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError, match="gamma must be finite and nonnegative"):
            DecodingConfig(algorithm="entropy_bounded", gamma=-0.1)

    def test_tau_of_one_is_legal(self):
        cfg = DecodingConfig(algorithm="dynamic", tau=1.0)
        assert validate_config(cfg) == []

    def test_violations_accumulate(self):
        with pytest.raises(ConfigError) as exc:
            DecodingConfig(algorithm="static", block_size=0, steps=0, max_new_tokens=0)
        assert len(str(exc.value).removeprefix("invalid config: ").split("; ")) >= 3

    def test_replace_checks_too(self):
        cfg = DecodingConfig(algorithm="dynamic", tau=0.5)
        with pytest.raises(ConfigError, match=r"tau must lie in \(0, 1\]"):
            dataclasses.replace(cfg, tau=2.0)

    @settings(max_examples=300, deadline=None)
    @given(mixed_config_fields())
    def test_never_raises(self, fields):
        # Building from any mix of types either raises ConfigError (never a
        # TypeError) or gives a config that decodes to the end.
        try:
            cfg = DecodingConfig(**fields)
        except ConfigError as exc:
            assert str(exc).startswith("invalid config: ")
            return
        assert validate_config(cfg) == []
        oracle = OracleDenoiser(vocab=Vocab(6), target=(1, 2, 3, 4), base_confidence=0.9, decay=0.8,
                                prompt_len=2)
        result = (generate_tccf if cfg.tccf else generate)(oracle, (0, 1), cfg)
        assert 0 < len(result.output_tokens) <= cfg.max_new_tokens

    def test_tccf_fields_checked(self):
        tccf = TccfConfig(b_think=0, b_critic=4, marker=(), transition=(1,))
        with pytest.raises(ConfigError) as exc:
            DecodingConfig(algorithm="static", steps=1, tccf=tccf)
        assert "b_think" in str(exc.value)
        assert "marker" in str(exc.value)

    def test_unknown_algorithm_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="invalid config: 'greedy' is not a valid Algorithm"):
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

    @pytest.mark.parametrize("stage1", [None, 31, 32, 33])
    def test_stage1_cap_past_max_new_tokens_is_clamped_silently(self, stage1):
        # stage 1 stops at the smaller of its cap and max_new_tokens (test_scheduler's
        # test_stage_one_stops_at_the_budget), so a cap past the budget needs no note
        tccf = TccfConfig(b_think=8, b_critic=2, marker=(1,), transition=(2,),
                          stage1_max_tokens=stage1)
        assert lint_config(DecodingConfig(algorithm="dynamic", tau=0.9, max_new_tokens=32, tccf=tccf)) == []


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
        # whether the critic ran is read from the stored pass count, not kept beside it
        assert (trace.stage2_passes > 0) is ran
        assert [f.name for f in dataclasses.fields(TccfTrace)] == [
            "stage1_passes", "stage2_passes", "splice_position", "forced_splice"]


def test_algorithm_values():
    assert Algorithm("static") is Algorithm.STATIC
    assert Algorithm("entropy_bounded") is Algorithm.ENTROPY_BOUNDED
    with pytest.raises(ValueError):
        Algorithm("beam")
