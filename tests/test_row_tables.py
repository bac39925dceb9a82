"""Each backend keeps one row table: every distinct distribution enters it
once, under a key the backend chooses. Before each pass the table is kept while
the bytes it holds, its rows, their stats, its sampling indexes and its keys,
are within its one budget; else a new table takes the pass."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import core
from blockdec.core import (ENTRY_BYTES, MAX_VOCAB_SIZE, ROW_TABLE_BYTES, DecodingConfig, PositionPrediction,
                           RowTable, Vocab)
from blockdec.denoisers import OracleDenoiser, markov_fit
from blockdec.noise import nelbo_estimate
from blockdec.scheduler import generate

from conftest import (BACKENDS, CheckedTables, Draws, FreshTables, backend_maker, charged, held, position_worst,
                      table_probs, within_a_pass_of_the_budget)

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
        probs = table_probs(table)
        for i, r in enumerate(preds.row):
            assert preds.confidence[i] == table.confidence[r] == float(probs[r].max())
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
    draws = Draws(monkeypatch)
    den = Recorder(backend_maker("oracle")([]))
    result = generate(den, [], DecodingConfig(algorithm="dynamic", tau=0.5, block_size=4, temperature=1.0,
                                              max_new_tokens=24))
    assert max(r.block_index for r in result.steps) >= 2
    tables = [preds.table for preds in den.records]
    assert len(tables) == result.forward_passes > 3
    assert all(table is tables[0] for table in tables)
    drawn = draws.of(tables[0])
    # one index per drawn row, charged once as it was built
    assert len(set(drawn)) < len(drawn)
    assert tables[0].nbytes == charged(tables[0], drawn)


def test_an_oracle_over_a_vocab_of_300000_decodes():
    vocab = Vocab(300000)
    target = (299999, 0, 150000, 7, 299999, 0)
    cfg = DecodingConfig(algorithm="dynamic", tau=0.5, block_size=4, max_new_tokens=8)
    den = OracleDenoiser(target, vocab, 0.9, 0.8)
    assert generate(den, (), cfg).output_tokens == target + (vocab.eos_id,)
    # a spiked row keeps its peak and the three special ids: 2.4 MB dense, 500 bytes stored
    assert den._table.nbytes <= 5 * ENTRY_BYTES * den._table.size <= ROW_TABLE_BYTES
    sampled = DecodingConfig(algorithm="dynamic", tau=0.5, block_size=4, max_new_tokens=8, temperature=1.0)
    assert generate(OracleDenoiser(target, vocab, 0.9, 0.8), (), sampled) == \
        generate(FreshTables(OracleDenoiser(target, vocab, 0.9, 0.8)), (), sampled)


@pytest.mark.parametrize("size, rows", [(2, 1), (64, 32), (4096, 8), (300000, 1), (300000, 100), (MAX_VOCAB_SIZE, 1)])
def test_a_new_table_reserves_at_most_the_byte_budget_or_the_pass(monkeypatch, size, rows):
    # A new table reserves nothing, however wide its rows: it holds no bytes
    # until a pass adds them and takes that pass whatever it adds, past the
    # budget too. It is kept into the next pass only while what it holds fits
    # the budget: here the ``rows`` keys of a pass whose rows it already has.
    vocab = Vocab(size)
    monkeypatch.setattr(core, "ROW_TABLE_BYTES", rows * ENTRY_BYTES)
    table = RowTable(vocab)
    assert table.with_room() is table and table.size == table.nbytes == len(table.ids) == 0
    table.ids.update(((pos,), 0) for pos in range(rows))
    assert table.with_room() is table
    table.ids[(rows,)] = 0
    fresh = table.with_room()
    assert fresh is not table and fresh.vocab == vocab and fresh.size == fresh.nbytes == len(fresh.ids) == 0
    monkeypatch.setattr(core, "ROW_TABLE_BYTES", 0)
    assert fresh.with_room() is fresh


def test_the_budget_is_a_whole_number_of_bytes_of_rows(monkeypatch):
    # wide_vocab's 4,099-wide rows: a table is kept into a pass while 4,080 of
    # them fit, each charged 32,892 bytes dense with its stats, so passes of
    # one position fill it with 4,081; far more stored compact, since it is
    # bounded by the bytes it stores
    vocab = Vocab(4096)
    assert (8 * vocab.total_ids + ENTRY_BYTES, ROW_TABLE_BYTES // 32892) == (32892, 4080)
    monkeypatch.setattr(core, "ROW_TABLE_BYTES", 6 * 32892)
    dense, compact = RowTable(vocab), RowTable(vocab)
    ramp = np.r_[np.arange(1.0, 4097) / (4096 * 4097 / 2), np.zeros(3)]  # no repeated value: stored dense
    while dense.with_room() is dense:
        dense.add(ramp)
    assert dense.nbytes == 7 * 32892  # kept while 6 rows fit, so the 7th pass's row takes it past
    markov = np.r_[np.full(4096, 0.01 / 50.96), np.zeros(3)]
    markov[[5, 77, 900, 4000]] += 12.5 / 50.96  # four successors, each seen 12.5 times
    while compact.with_room() is compact:
        compact.add(markov / markov.sum())
    assert compact.nbytes == compact.size * 8 * ENTRY_BYTES  # 4 successors, 3 special ids, 1 for the dict
    assert compact.size == 247  # 246 rows of 800 bytes fit 197,352, so a 247th enters


def test_a_decode_whose_pass_could_fill_the_table_keeps_one_table(monkeypatch):
    # As at V = 6,000,000 under the real budget, one position could add more
    # than the whole budget, were it a new dense row with its index; yet an
    # oracle's spike rows are stored compact: the table holds a few KB and
    # serves every pass, where a reservation for the worst took a new one each.
    vocab = Vocab(4096)
    monkeypatch.setattr(core, "ROW_TABLE_BYTES", position_worst(vocab) // 2)
    target = (4095, 0, 2048, 7, 4095, 0)
    rolls, tables = [], {}
    den = CheckedTables(OracleDenoiser(target, vocab, 0.9, 0.8), rolls, tables)
    result = generate(den, (), DecodingConfig(algorithm="dynamic", tau=0.5, block_size=4, max_new_tokens=8))
    assert result.output_tokens == target + (vocab.eos_id,)
    assert (result.forward_passes, len(tables), rolls) == (4, 1, [])
    table = den.table
    assert table.size == len(table.ids) and held(table) < core.ROW_TABLE_BYTES  # each spike row built once


def test_a_new_table_reserves_no_heap():
    # Rows and their stats are appended as they come: a heap block reserved
    # ahead of them would be reused, page by page, by short-lived objects
    # once the table is gone (demo_grid's peak RSS rose 15% when the stats
    # of a 1.5M-row table came from the heap).
    tracemalloc.start()
    try:
        table = RowTable(Vocab(8))
        table.add(np.r_[np.full(8, 0.125), np.zeros(3)])
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert (table.confidence[0], table.argmax[0]) == (0.125, 0)


def test_a_temperature_sweep_keeps_every_table_within_its_budget(monkeypatch):
    # Sampled decodes over a sweep of temperatures share one Markov model, as
    # an experiment's runs do: each temperature indexes the rows it draws anew.
    # The indexes are charged to the table's one budget, so the sweep rolls
    # tables over instead of growing one without bound, and no output moves.
    vocab = Vocab(1024)
    rng = np.random.default_rng(4)
    succ = rng.integers(0, vocab.size, (vocab.size, 4))
    tok, corpus = 0, []
    for u in rng.integers(0, 4, 20_000).tolist():
        corpus.append(tok)
        tok = int(succ[tok, u])
    monkeypatch.setattr(core, "ROW_TABLE_BYTES", 40 * position_worst(vocab))  # five passes of 8 at their most
    temperatures = [0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.5, 2.0]
    prompts = [corpus[i : i + 4] for i in range(0, 400, 100)]
    runs = [(DecodingConfig(algorithm="dynamic", tau=0.9, block_size=8, temperature=temperature, seed=seed,
                            max_new_tokens=32), prompt)
            for temperature in temperatures for seed, prompt in enumerate(prompts)]
    rolls, tables = [], {}
    shared = CheckedTables(markov_fit(corpus, 1, 0.01, vocab=vocab), rolls, tables)
    fresh = FreshTables(markov_fit(corpus, 1, 0.01, vocab=vocab))
    draws = Draws(monkeypatch)
    for cfg, prompt in runs:
        assert generate(shared, prompt, cfg) == generate(fresh, prompt, cfg)
    assert len(tables) > 2 and within_a_pass_of_the_budget(tables)
    assert all(table.nbytes == charged(table, draws.of(table)) for table in tables)
    assert sum(len(set(draws.of(table))) for table in tables) > 8 * len(tables)

