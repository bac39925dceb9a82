"""Pluggable denoiser backends and the prediction contract.

A denoiser receives clean left context plus the partially masked block
and must return one :class:`PositionPrediction` record per forward pass:
every masked position with the id of its distribution in a
:class:`~blockdec.core.RowTable` (positions that share a distribution may
share an id). Backends are deterministic: all
sampling randomness lives in the decoder. The :func:`predict` wrapper
enforces the contract and raises :class:`ContractViolation` when a
backend breaks it.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from .core import BlockState, PositionPrediction, RowTable, Vocab

__all__ = [
    "ROW_TABLE_ROWS",
    "ContractViolation",
    "Denoiser",
    "FixtureError",
    "MarkovDenoiser",
    "OracleDenoiser",
    "ScriptedDenoiser",
    "load_scripted",
    "markov_fit",
    "predict",
]


# Rows a Markov backend's table holds before it starts a new one.
ROW_TABLE_ROWS = 4096


class ContractViolation(RuntimeError):
    """A backend returned predictions that break the denoiser contract."""


class FixtureError(RuntimeError):
    """A scripted fixture is malformed or does not cover a query."""


class Denoiser(Protocol):
    vocab: Vocab

    def predict(self, context: Sequence[int], block: BlockState) -> PositionPrediction: ...


def predict(denoiser: Denoiser, context: Sequence[int], block: BlockState) -> PositionPrediction:
    """Query a backend and enforce the prediction contract.

    Preconditions: the context is mask-free and the block has at least one
    masked position. Postconditions: the record covers exactly the masked
    positions, in ascending order, with full-width distributions; each row
    was checked as it entered its table, zero mass on mask and pad included.
    Any ``Sequence[int]`` context works; on the read-only int64 view the
    session passes, the mask check is one vectorized comparison.
    """
    vocab = denoiser.vocab
    if vocab.mask_id in context:
        raise ValueError("context must not contain mask tokens")
    masked = block.masked_positions()
    if not masked:
        raise ValueError("block has no masked positions")

    preds = denoiser.predict(context, block)
    if not isinstance(preds, PositionPrediction):
        raise ContractViolation(f"backend returned {type(preds).__name__}, not PositionPrediction")
    if preds.positions.tolist() != masked:
        raise ContractViolation(f"backend covered positions {preds.positions.tolist()}, expected {masked}")
    if preds.table.width != vocab.total_ids:
        raise ContractViolation(f"rows have width {preds.table.width}, expected {vocab.total_ids}")
    return preds


def _spiked_distribution(vocab: Vocab, token: int, peak: float) -> np.ndarray:
    """Probability ``peak`` on ``token``, remainder uniform over the other
    ordinary tokens (over all of them when ``token`` is eos)."""
    probs = np.zeros(vocab.total_ids)
    if token == vocab.eos_id:
        probs[: vocab.size] = (1.0 - peak) / vocab.size
        probs[vocab.eos_id] = peak
    else:
        probs[: vocab.size] = (1.0 - peak) / (vocab.size - 1)
        probs[token] = peak
    return probs


class MarkovDenoiser:
    """Order-k Markov model fitted on a token corpus with add-lambda smoothing.

    A masked position conditions on the contiguous clean run immediately to
    its left (at most ``order`` tokens, block interior first, then the
    context tail). When the adjacent position is itself masked, the single
    nearest clean token to the left stands in, an approximation: ``d`` steps
    right of clean token ``l`` it reads ``T[l]`` where the chain gives
    ``T^d[l]``. With no clean token at all the unigram is used. Unseen
    contexts back off to shorter suffixes and finally to the unigram.
    Distributions cover ordinary tokens only, so Markov-driven generation
    stops at the length cap.

    Each distinct context's row is built and checked once, into a
    :class:`~blockdec.core.RowTable` of ``ROW_TABLE_ROWS`` rows that every
    record indexes; a pass that might not fit starts a new table and cache.
    """

    def __init__(self, order: int, smoothing: float, vocab: Vocab,
                 counts: dict[tuple[int, ...], dict[int, int]]):
        if order < 1:
            raise ValueError("order must be at least 1")
        if not (np.isfinite(smoothing) and smoothing >= 0.0):
            raise ValueError("smoothing must be finite and nonnegative")
        if () not in counts or not counts[()]:
            raise ValueError("counts must include a nonempty unigram table")
        self.order = order
        self.smoothing = smoothing
        self.vocab = vocab
        self._counts = {ctx: dict(table) for ctx, table in counts.items()}
        self._totals = {ctx: sum(table.values()) for ctx, table in self._counts.items()}
        self._roll_over(0)

    def _roll_over(self, rows: int) -> None:  # a new table, room for at least ``rows``
        self._table = RowTable(max(ROW_TABLE_ROWS, rows), self.vocab)
        self._cache: dict[tuple[int, ...], int] = {}  # context -> row id in _table

    def distribution(self, ctx: tuple[int, ...]) -> np.ndarray:
        """Smoothed next-token distribution after ``ctx``, with backoff."""
        row = self._entry(ctx)
        return self._table.probs[row]

    def _entry(self, ctx: tuple[int, ...]) -> int:
        # Back off to the longest suffix of ctx that has counts.
        length = min(self.order, len(ctx))
        while ctx[len(ctx) - length:] not in self._counts:
            length -= 1
        ctx = ctx[len(ctx) - length:]
        row = self._cache.get(ctx)
        if row is not None:
            return row
        if self._table.size == self._table.capacity:
            self._roll_over(1)
        size = self.vocab.size
        vec = np.zeros(size)
        for tok, cnt in self._counts[ctx].items():
            vec[tok] = cnt
        probs = np.zeros(self.vocab.total_ids)
        probs[:size] = (vec + self.smoothing) / (self._totals[ctx] + self.smoothing * size)
        row = self._cache[ctx] = self._table.add(probs)
        return row

    def predict(self, context: Sequence[int], block: BlockState) -> PositionPrediction:
        # A pass adds at most one row per position: start a new table first
        # if that might not fit, so that a record never spans two tables.
        if self._table.capacity - self._table.size < len(block):
            self._roll_over(len(block))
        # One left-to-right scan. ``run`` holds the last ``order`` tokens of
        # the clean run ending just left of the current position (empty right
        # after a masked one); a masked position after a masked one reads
        # ``last``, the nearest clean token as a context, whose row is ``gap``.
        # No clean run reaches further left than the last ``order`` context tokens.
        order, entry = self.order, self._entry
        tail = context[-order:]
        run = tail.tolist() if isinstance(tail, np.ndarray) else [int(t) for t in tail]
        last, gap = run[-1:], None
        mask_id = block.mask_id
        masked: list[int] = []
        index: list[int] = []
        for pos, tok in enumerate(block.tokens):
            if tok != mask_id:
                run.append(tok)
                if len(run) > order:
                    del run[0]
                continue
            if run:
                u = entry(tuple(run))
                last, run, gap = run[-1:], [], None
            else:
                if gap is None:
                    gap = entry(tuple(last))
                u = gap
            masked.append(pos)
            index.append(u)
        row = np.array(index, dtype=np.int64)
        row.flags.writeable = False
        return PositionPrediction(masked, self._table, row)


def markov_fit(corpus: Sequence[int], order: int, smoothing: float,
               vocab: Vocab | None = None) -> MarkovDenoiser:
    """Count every window of length 1..order over the corpus and build the
    smoothed Markov backend. The unigram table counts all corpus tokens."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must be nonempty")
    if order < 1:
        raise ValueError("order must be at least 1")
    if vocab is None:
        vocab = Vocab(max(2, max(corpus) + 1))
    for tok in corpus:
        if not 0 <= tok < vocab.size:
            raise ValueError(f"corpus token {tok} outside the ordinary range")

    counts: dict[tuple[int, ...], dict[int, int]] = {(): {}}
    uni = counts[()]
    for tok in corpus:
        uni[tok] = uni.get(tok, 0) + 1
    for length in range(1, order + 1):
        for i in range(len(corpus) - length):
            ctx = tuple(corpus[i : i + length])
            nxt = corpus[i + length]
            table = counts.setdefault(ctx, {})
            table[nxt] = table.get(nxt, 0) + 1
    return MarkovDenoiser(order, smoothing, vocab, counts)


class OracleDenoiser:
    """Backend that knows the ground-truth continuation.

    The true token at distance ``d`` from the nearest clean token on its
    left gets probability ``max(1/size, base_confidence * decay**(d-1))``;
    the remainder spreads uniformly over the other ordinary tokens.
    Positions past the end of the target are treated as eos, so greedy
    decoding terminates right after the target. ``prompt_len`` anchors
    block positions to target offsets.
    """

    def __init__(self, target: Sequence[int], vocab: Vocab,
                 base_confidence: float, decay: float, prompt_len: int = 0):
        if not 1.0 / vocab.size < base_confidence <= 1.0:
            raise ValueError("base_confidence must lie in (1/size, 1]")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")
        if prompt_len < 0:
            raise ValueError("prompt_len must be nonnegative")
        self.target = tuple(target)
        for tok in self.target:
            if not (0 <= tok < vocab.size or tok == vocab.eos_id):
                raise ValueError(f"target token {tok} is neither ordinary nor eos")
        self.vocab = vocab
        self.base_confidence = base_confidence
        self.decay = decay
        self.prompt_len = prompt_len

    def predict(self, context: Sequence[int], block: BlockState) -> PositionPrediction:
        offset = len(context) - self.prompt_len
        if offset < 0:
            raise ValueError("context is shorter than prompt_len")
        masked = block.masked_positions()
        rows = []
        for pos in masked:
            # Distance to the nearest clean token on the left; the context
            # tail counts, and an empty context behaves like distance to
            # the sequence start.
            j = pos - 1
            while j >= 0 and block.tokens[j] == block.mask_id:
                j -= 1
            d = pos - j
            gen_index = offset + pos
            true_tok = self.target[gen_index] if gen_index < len(self.target) else self.vocab.eos_id
            peak = max(1.0 / self.vocab.size, self.base_confidence * self.decay ** (d - 1))
            rows.append(_spiked_distribution(self.vocab, true_tok, peak))
        return PositionPrediction.from_probs(masked, rows)


class ScriptedDenoiser:
    """Backend that replays explicit per-query predictions from a script.

    The script maps ``(block_index, step_index, position)`` to a
    ``(confidence, token_id)`` pair; the distribution puts ``confidence``
    on the token and spreads the rest uniformly over the other ordinary
    tokens. A query is a script miss -> :class:`FixtureError`.

    The predict signature carries no step counter, so the instance tracks
    one itself: a fully masked block always starts step 0 of the next
    block (inside one block decode the masked set strictly shrinks), and
    blocks are numbered from construction, across a two-stage splice too.
    This is per-instance mutable state: use one instance per decoded sequence.
    """

    def __init__(self, script, vocab: Vocab):
        self.vocab = vocab
        self._script: dict[tuple[int, int, int], tuple[float, int]] = {}
        floor = 1.0 / vocab.size
        for key, (conf, tok) in dict(script).items():
            block_i, step_i, pos = key
            if min(block_i, step_i, pos) < 0:
                raise FixtureError(f"script key {key} has a negative component")
            if not floor <= conf <= 1.0:
                raise FixtureError(
                    f"script entry {key}: confidence {conf} outside [1/size, 1]"
                )
            if not (0 <= tok < vocab.size or tok == vocab.eos_id):
                raise FixtureError(f"script entry {key}: bad token id {tok}")
            self._script[(block_i, step_i, pos)] = (float(conf), int(tok))
        self._block = -1
        self._step = -1

    def predict(self, context: Sequence[int], block: BlockState) -> PositionPrediction:
        masked = block.masked_positions()
        if len(masked) == len(block):
            self._block += 1
            self._step = 0
        else:
            self._step += 1
        rows = []
        for pos in masked:
            key = (self._block, self._step, pos)
            entry = self._script.get(key)
            if entry is None:
                raise FixtureError(
                    f"script has no entry for block={self._block} "
                    f"step={self._step} position={pos}"
                )
            conf, tok = entry
            rows.append(_spiked_distribution(self.vocab, tok, conf))
        return PositionPrediction.from_probs(masked, rows)


def load_scripted(path, vocab: Vocab) -> ScriptedDenoiser:
    """Parse a script fixture: one ``block step position conf token_id``
    entry per line, blank lines and ``#`` comments ignored."""
    script: dict[tuple[int, int, int], tuple[float, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 5:
                raise FixtureError(
                    f"{path}: line {lineno}: expected 'block step position conf token_id'"
                )
            try:
                key = (int(parts[0]), int(parts[1]), int(parts[2]))
                entry = (float(parts[3]), int(parts[4]))
            except ValueError as exc:
                raise FixtureError(f"{path}: line {lineno}: {exc}") from exc
            if key in script:
                raise FixtureError(f"{path}: line {lineno}: duplicate entry for {key}")
            script[key] = entry
    if not script:
        raise FixtureError(f"{path}: script fixture is empty")
    return ScriptedDenoiser(script, vocab)
