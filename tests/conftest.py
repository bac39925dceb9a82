"""Shared test helpers: tiny denoisers and record builders."""

from __future__ import annotations

import contextlib
import math
import signal

import numpy as np
import pytest

from blockdec import core
from blockdec.core import (CDF_CHUNK, ENTRY_BYTES, GenerationResult, PositionPrediction, RowTable, StepRecord,
                           StopReason, Vocab)
from blockdec.denoisers import OracleDenoiser, ScriptedDenoiser, markov_fit
from blockdec.sampling import BacdState


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the test, instead of hanging the suite, if the block runs past
    ``seconds``; the failure is a ``BaseException``, so no ``except Exception``
    in the code under test swallows it."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def spiked_probs(vocab: Vocab, token: int, peak: float) -> np.ndarray:
    """Peak on one token, remainder uniform over the other ordinary ids."""
    probs = np.zeros(vocab.total_ids)
    if token == vocab.eos_id:
        probs[: vocab.size] = (1.0 - peak) / vocab.size
        probs[vocab.eos_id] = peak
    else:
        probs[: vocab.size] = (1.0 - peak) / (vocab.size - 1)
        probs[token] = peak
    return probs


def preds_from_confs(confs, vocab: Vocab | None = None, token: int = 0):
    """One record with a spiked row per (position, confidence) pair."""
    vocab = vocab or Vocab(10)
    return PositionPrediction.from_probs(
        [pos for pos, _ in confs], [spiked_probs(vocab, token, conf) for _, conf in confs])


class Uniforms:
    """A stand-in generator whose ``random(n)`` returns the next n uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out)


def cdf_probes(cdf: np.ndarray) -> list[float]:
    """Uniforms in [0, 1): 0 and each value of the normalized ``cdf`` and one
    ulp to either side. A sampler picks the token ``cdf.searchsorted(u,
    "right")`` at every one of them only if its own CDF has ``cdf``'s bits."""
    us = np.concatenate([[0.0], np.nextafter(cdf, 0.0), cdf, np.nextafter(cdf, 1.0)])
    return us[us < 1.0].tolist()


def drawn_at(table: RowTable, r: int, temperature: float, us) -> list[int]:
    """The tokens ``table.draw`` gives row ``r`` at ``temperature`` for the uniforms ``us``."""
    return table.draw([r] * len(us), temperature, Uniforms(us))


def kept_columns(row: np.ndarray, size: int) -> np.ndarray | None:
    """The columns a table keeps of ``row`` (``size`` ordinary ids) beside
    its base, the minimum ordinary value: those whose bits differ from it;
    None when that dict would take as many bytes as the dense row, which is
    then stored instead. A reference for ``RowTable.add``'s choice of form."""
    base = row[:size].min()
    cols = np.flatnonzero(row.view(np.int64) != base.view(np.int64))
    return cols if ENTRY_BYTES * (len(cols) + 1) < row.nbytes else None


def row_charge(row: np.ndarray, size: int) -> int:
    """The bytes a table charges ``row`` and its stats in the form it takes."""
    cols = kept_columns(row, size)
    return 8 * len(row) + ENTRY_BYTES if cols is None else ENTRY_BYTES * (len(cols) + 1)


def index_charge(row: np.ndarray, size: int) -> int:
    """The bytes a table charges one sampling index of ``row``: the raw start
    and normalized end of its chunks, and the CDF of each chunk holding a
    kept column (every chunk of a row stored dense)."""
    width, cols = len(row), kept_columns(row, size)
    chunks = range(0, width, CDF_CHUNK) if cols is None else {c - c % CDF_CHUNK for c in cols.tolist()}
    return 8 * (1 + 2 * (width // CDF_CHUNK) + sum(min(CDF_CHUNK, width - lo) for lo in chunks))


def charged(table: RowTable, drawn) -> int:
    """What ``table`` should be charged, tallied from its rows: each row in
    its form with its stats, and one index per ``(temperature, row)`` of
    ``drawn`` at a temperature above 0."""
    size = table.vocab.size
    return (sum(row_charge(table.row(r), size) for r in range(table.size))
            + sum(index_charge(table.row(r), size) for temperature, r in set(drawn) if temperature))


def held(table: RowTable) -> int:
    """The bytes ``RowTable.with_room`` holds ``table`` to its budget by:
    ``nbytes`` and ``ENTRY_BYTES`` for each key in ``ids``."""
    return table.nbytes + ENTRY_BYTES * len(table.ids)


def position_worst(vocab: Vocab) -> int:
    """The most one masked position of a pass can add to a table: a row
    charged dense with its stats, a sampling index of at most twice the dense
    row, and two keys (a Markov context and the suffix it backs off to)."""
    return 3 * 8 * vocab.total_ids + 3 * ENTRY_BYTES


class CheckedTables:
    """Delegates to a backend and checks every record it returns: the record
    indexes the backend's current table and its ids lie in that table. Before
    each pass the backend keeps its table while ``held`` is within
    ``core.ROW_TABLE_BYTES``, else a new, empty table takes the pass: so no
    record spans two tables, and a table ends a pass at most that pass's rows,
    indexes and keys over the budget. ``tables`` maps each table to ``held``
    before its latest pass and the most that pass can add, ``position_worst``
    a masked position; ``rolls`` gets an entry per table after the backend's
    first."""

    def __init__(self, model, rolls, tables):
        self.model, self.vocab, self.rolls, self.tables, self.table = model, model.vocab, rolls, tables, None

    def predict(self, context, block):
        before, budget = self.table, core.ROW_TABLE_BYTES
        start = None if before is None else held(before)  # the last pass's rows, indexes and keys included
        need = len(masked_of(block, self.vocab))
        preds = self.model.predict(context, block)
        table = preds.table
        assert table is self.model._table
        assert 0 <= min(preds.row) and max(preds.row) < table.size
        if table is before:
            assert start <= budget
        else:
            assert start is None or start > budget
            assert table.size <= need  # empty before this pass
            start = 0
            if before is not None:
                self.rolls.append(table)
            self.table = table
        self.tables[table] = (start, need * position_worst(self.vocab))
        return preds


def within_a_pass_of_the_budget(tables) -> bool:
    """Each table of a ``CheckedTables`` map holds at most what it held before
    its latest pass, at most the budget, and the most that pass could add."""
    return all(held(table) <= start + most for table, (start, most) in tables.items())


class Draws:
    """Patches ``RowTable.draw`` to record, per table, the ``(temperature,
    row)`` of every token drawn, in order. It keeps each table it saw alive,
    so no later table reuses its id."""

    def __init__(self, monkeypatch):
        self.by_table: dict[int, tuple[RowTable, list]] = {}
        draw = RowTable.draw

        def recording(table, rows, temperature, rng):
            self.by_table.setdefault(id(table), (table, []))[1].extend((temperature, r) for r in rows)
            return draw(table, rows, temperature, rng)

        monkeypatch.setattr(RowTable, "draw", recording)

    def of(self, table: RowTable) -> list:
        return self.by_table.get(id(table), (table, []))[1]


def bacd_after(history, tau_l: float, tau_h: float) -> BacdState:
    """A BACD state that has committed the confidences ``history``, in order."""
    state = BacdState(tau_h=tau_h, tau_l=tau_l)
    for c in history:
        state.total += c
        state.count += 1
    return state


def table_of(rows) -> RowTable:
    """A table holding ``rows``, [R, size + 3] for a ``Vocab(size)``."""
    rows = np.asarray(rows, dtype=np.float64)
    table = RowTable(Vocab(rows.shape[1] - 3))
    for r in rows:
        table.add(r)
    return table


def shared_record(positions, rows, row) -> PositionPrediction:
    """A record whose positions read ``rows`` through the row index ``row``."""
    return PositionPrediction(positions, table_of(rows), row)


def table_probs(table: RowTable) -> np.ndarray:
    """The read-only [size, V] matrix of every row of ``table``, rebuilt."""
    out = np.array([table.row(r) for r in range(table.size)]).reshape(table.size, table.width)
    out.flags.writeable = False
    return out


def position_probs(preds: PositionPrediction) -> np.ndarray:
    """The [M, V] matrix of a record: row ``i`` is position ``i``'s row. The
    ids go in as a list: numpy reads a tuple as one index per axis."""
    return table_probs(preds.table)[list(preds.row)]


def spike_conf_for_entropy(vocab: Vocab, target: float) -> float:
    """Invert the spiked-family entropy to hit ``target`` (nats)."""
    size = vocab.size

    def entropy(c: float) -> float:
        rest = (1.0 - c) / (size - 1)
        h = -c * math.log(c)
        if rest > 0.0:
            h -= (size - 1) * rest * math.log(rest)
        return h

    lo, hi = 1.0 / size, 1.0  # entropy falls from ln(size) to 0 on this range
    if not 0.0 <= target <= entropy(lo):
        raise ValueError(f"entropy {target} unreachable with vocab size {size}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if entropy(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def masked_of(block, vocab: Vocab) -> list[int]:
    """The masked positions of a block: those holding ``vocab.mask_id``."""
    return [pos for pos, tok in enumerate(block) if tok == vocab.mask_id]


class UniformDenoiser:
    """Uniform distribution over ordinary tokens at every masked position."""

    def __init__(self, vocab: Vocab):
        self.vocab = vocab

    def predict(self, context, block):
        probs = np.zeros(self.vocab.total_ids)
        probs[: self.vocab.size] = 1.0 / self.vocab.size
        masked = masked_of(block, self.vocab)
        return PositionPrediction.from_probs(masked, [probs] * len(masked))


class CountingDenoiser:
    """Wrapper that counts predict calls (forward passes)."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.calls = 0

    def predict(self, context, block):
        self.calls += 1
        return self.inner.predict(context, block)


def full_random_script(rng: np.random.Generator, vocab: Vocab, blocks: int,
                       block_size: int, conf_lo: float = None):
    """Script covering every (block, step, position) a decode could ask for."""
    lo = conf_lo if conf_lo is not None else 1.0 / vocab.size
    script = {}
    for b in range(blocks):
        for s in range(block_size):
            for p in range(block_size):
                conf = lo + (1.0 - lo) * rng.random() * 0.999
                tok = int(rng.integers(0, vocab.size))
                script[(b, s, p)] = (conf, tok)
    return script


def make_result(output, stop=StopReason.MAX_LENGTH, slot_groups=None,
                confidences=0.8, tccf=None):
    """Fabricate a GenerationResult whose steps carry the given slot counts.

    ``confidences`` is either a flat value or one tuple per step.
    """
    if slot_groups is None:
        slot_groups = [1] * len(output)
    steps = []
    for i, width in enumerate(slot_groups):
        if isinstance(confidences, (int, float)):
            confs = tuple([float(confidences)] * width)
        else:
            confs = tuple(confidences[i])
        steps.append(
            StepRecord(
                block_index=0,
                step_index=i,
                threshold_used=None,
                unmasked_positions=tuple(range(width)),
                confidences=confs,
                fallback_fired=False,
            )
        )
    return GenerationResult(
        output_tokens=tuple(output),
        steps=tuple(steps),
        stop_reason=stop,
        tccf=tccf,
    )


BACKENDS = ("markov", "oracle", "scripted")
# One valid field set per selection rule, for configs drawn over all four.
RULE_FIELDS = {"static": {"steps": 2}, "dynamic": {"tau": 0.5},
               "bacd": {"tau_h": 0.9, "tau_l": 0.4}, "entropy_bounded": {"gamma": 0.7}}


def chain_model(vocab_size=40, order=2):
    """An order-2 fit on a sparse random chain over ``vocab_size`` tokens."""
    rng = np.random.default_rng(5)
    succ = rng.integers(0, vocab_size, size=(vocab_size, 3))
    tok, corpus = 0, []
    for u in rng.integers(0, 3, size=4000).tolist():
        corpus.append(tok)
        tok = int(succ[tok, u])
    return markov_fit(corpus, order, 0.05, vocab=Vocab(vocab_size))


def backend_maker(kind: str, wrap=lambda backend: backend):
    """A function of the prompt that gives one run its ``kind`` backend over
    ``Vocab(40)``, as an experiment does: one Markov model shared by every
    run, a new oracle or scripted backend per run (the scripted one counts
    blocks). Its script covers 24 blocks of 24 steps at 8 positions, enough
    for a 24-token generate and for a NELBO estimate whose first noise level
    is 1. ``wrap`` wraps each backend as it is built."""
    vocab = Vocab(40)
    if kind == "markov":
        model = wrap(chain_model())
        return lambda prompt: model
    if kind == "oracle":
        target = tuple(np.random.default_rng(6).integers(0, 40, 20).tolist())
        return lambda prompt: wrap(OracleDenoiser(target, vocab, 0.9, 0.8, prompt_len=len(prompt)))
    rng = np.random.default_rng(7)
    script = {(b, s, p): (float(rng.uniform(0.1, 1.0)), int(rng.integers(0, 40)))
              for b in range(24) for s in range(24) for p in range(8)}
    return lambda prompt: wrap(ScriptedDenoiser(script, vocab))


class FreshTables:
    """Rebuilds every record of ``inner`` with ``from_probs``: one new table
    per pass with one row per position, the reference record builder."""

    def __init__(self, inner):
        self.inner, self.vocab = inner, inner.vocab

    def predict(self, context, block):
        preds = self.inner.predict(context, block)
        return PositionPrediction.from_probs(preds.positions, position_probs(preds))
