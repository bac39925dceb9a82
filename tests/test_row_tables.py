"""Each backend keeps one row table: every distinct distribution enters it
once, under a key the backend chooses, and a pass that might not fit starts
a new table whose size is set in bytes."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import denoisers, sampling
from blockdec.core import MAX_VOCAB_SIZE, ROW_TABLE_BYTES, DecodingConfig, PositionPrediction, RowTable, Vocab
from blockdec.denoisers import OracleDenoiser, _with_room
from blockdec.noise import nelbo_estimate
from blockdec.scheduler import generate

from conftest import BACKENDS, FreshTables, backend_maker

PROMPTS = [[1, 2, 3], [7], [30, 31, 32, 33]]
RULES = [dict(algorithm="dynamic", tau=0.5, block_size=4), dict(algorithm="bacd", tau_h=0.9, tau_l=0.5, block_size=8),
         dict(algorithm="entropy_bounded", gamma=1.5, block_size=5)]


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("temperature", [0.0, 0.5, 1.0])
def test_a_backend_decodes_and_scores_as_fresh_tables_do(kind, temperature):
    make = backend_maker(kind)
    for rule in RULES:
        for seed, prompt in enumerate(PROMPTS):
            cfg = DecodingConfig(**rule, temperature=temperature, seed=seed, max_new_tokens=24)
            got, want = generate(make(prompt), prompt, cfg), generate(FreshTables(make(prompt)), prompt, cfg)
            assert got == want
            score = [nelbo_estimate(den, prompt, got.output_tokens, cfg.block_size, [1.0, 0.6, 0.2],
                                    np.random.default_rng(seed))
                     for den in (make(prompt), FreshTables(make(prompt)))]
            assert np.float64(score[0]).tobytes() == np.float64(score[1]).tobytes()


FOUR_RULES = [dict(algorithm="static", steps=3), dict(algorithm="dynamic", tau=0.6),
              dict(algorithm="bacd", tau_h=0.9, tau_l=0.5), dict(algorithm="entropy_bounded", gamma=1.0)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BACKENDS), st.sampled_from(FOUR_RULES), st.sampled_from([0.0, 0.5, 1.0]),
       st.lists(st.integers(0, 39), min_size=1, max_size=4), st.integers(1, 8), st.integers(0, 2**16))
def test_a_record_reads_its_stats_from_its_table_as_python_numbers(kind, rule, temperature, prompt,
                                                                   block_size, seed):
    den = backend_maker(kind, Recorder)(prompt)
    cfg = DecodingConfig(**rule, block_size=block_size, temperature=temperature, seed=seed, max_new_tokens=16)
    generate(den, prompt, cfg)
    assert den.records
    for preds in den.records:
        assert isinstance(preds, PositionPrediction)
        fields = (preds.positions, preds.row, preds.confidence, preds.entropy)
        assert all(type(f) is tuple and len(f) == len(preds.positions) for f in fields)
        assert {type(x) for x in preds.positions + preds.row} == {int}
        assert {type(x) for x in preds.confidence + preds.entropy} == {float}
        table = preds.table
        assert len(table.confidence) == len(table.entropy) == len(table.argmax) == table.size
        for i, r in enumerate(preds.row):
            assert preds.confidence[i] == table.confidence[r] == float(table.probs[r].max())
            assert preds.entropy[i] == table.entropy[r]


class Recorder:
    """Keeps every record a backend returns, and so its table alive: identity
    checks compare live tables."""

    def __init__(self, inner):
        self.inner, self.vocab, self.records = inner, inner.vocab, []

    def predict(self, context, block):
        self.records.append(self.inner.predict(context, block))
        return self.records[-1]


def test_a_multi_block_oracle_decode_shares_one_table_and_indexes_each_row_once(monkeypatch):
    builds, draws = [], []
    build, realize = sampling._chunk_index, sampling._realize

    def counting_build(probs, temperature):
        builds.append(temperature)
        return build(probs, temperature)

    def recording_realize(preds, idx, temperature, rng):
        draws.extend((temperature, preds.row[i]) for i in idx)
        return realize(preds, idx, temperature, rng)

    monkeypatch.setattr(sampling, "_chunk_index", counting_build)
    monkeypatch.setattr(sampling, "_realize", recording_realize)
    den = Recorder(backend_maker("oracle")([]))
    result = generate(den, [], DecodingConfig(algorithm="dynamic", tau=0.5, block_size=4, temperature=1.0,
                                              max_new_tokens=24))
    assert max(r.block_index for r in result.steps) >= 2
    tables = [preds.table for preds in den.records]
    assert len(tables) == result.forward_passes > 3
    assert all(table is tables[0] for table in tables)
    assert len(builds) == len(set(draws)) < len(draws)


def test_an_oracle_over_a_vocab_of_300000_decodes():
    vocab = Vocab(300000)
    target = (299999, 0, 150000, 7, 299999, 0)
    cfg = DecodingConfig(algorithm="dynamic", tau=0.5, block_size=4, max_new_tokens=8)
    den = OracleDenoiser(target, vocab, 0.9, 0.8)
    assert generate(den, (), cfg).output_tokens == target + (vocab.eos_id,)
    assert den._table._probs.nbytes <= ROW_TABLE_BYTES
    sampled = DecodingConfig(algorithm="dynamic", tau=0.5, block_size=4, max_new_tokens=8, temperature=1.0)
    assert generate(OracleDenoiser(target, vocab, 0.9, 0.8), (), sampled) == \
        generate(FreshTables(OracleDenoiser(target, vocab, 0.9, 0.8)), (), sampled)


@pytest.mark.parametrize("size, rows", [(2, 1), (64, 32), (4096, 8), (300000, 1), (300000, 100), (MAX_VOCAB_SIZE, 1)])
def test_a_new_table_reserves_at_most_the_byte_budget_or_the_pass(size, rows):
    vocab = Vocab(size)
    row_bytes = 8 * vocab.total_ids
    table = _with_room(None, rows, vocab)
    assert rows <= table.capacity
    assert table._probs.nbytes == table.capacity * row_bytes <= max(ROW_TABLE_BYTES, rows * row_bytes)
    assert _with_room(table, table.capacity, vocab) is table  # it fits: no new table
    assert _with_room(table, table.capacity + 1, vocab) is not table


def test_the_budget_is_a_whole_number_of_bytes_of_rows(monkeypatch):
    # wide_vocab's 4,099-wide rows: 4,093 fit in the budget
    assert _with_room(None, 1, Vocab(4096)).capacity == ROW_TABLE_BYTES // (8 * 4099) == 4093
    monkeypatch.setattr(denoisers, "ROW_TABLE_BYTES", 3 * 8 * 4099 + 1)
    assert _with_room(None, 1, Vocab(4096)).capacity == 3


def test_a_new_table_takes_no_heap_for_its_capacity():
    # A table's rows and stats live in a mapping of its own: a heap block
    # the size of the capacity would be reused, page by page, by short-lived
    # objects once the table is gone (demo_grid's peak RSS rose 15% when the
    # stats of a 1.5M-row table came from the heap).
    tracemalloc.start()
    try:
        table = RowTable(1_500_000, Vocab(8))
        table.add(np.r_[np.full(8, 0.125), np.zeros(3)])
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert (table.confidence[0], table.argmax[0]) == (0.125, 0)
