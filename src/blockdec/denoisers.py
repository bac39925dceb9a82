"""Pluggable denoiser backends and the prediction contract.

A denoiser receives clean left context plus the partially masked block, a
token list in which a position is masked exactly when it holds the
backend's ``vocab.mask_id``. It must return one :class:`PositionPrediction`
record per forward pass: every masked position with the id of its
distribution in a :class:`~blockdec.core.RowTable` (positions that share a
distribution may share an id). Backends are deterministic: all
sampling randomness lives in the decoder. The :func:`predict` wrapper
enforces the contract and raises :class:`ContractViolation` when a
backend breaks it.
"""

from __future__ import annotations

import operator
from typing import Protocol, Sequence

import numpy as np

from .core import PositionPrediction, RowTable, Vocab, clipped, parsed


class ContractViolation(RuntimeError):
    """A backend returned predictions that break the denoiser contract."""


class FixtureError(RuntimeError):
    """A scripted fixture is malformed or does not cover a query."""


class Denoiser(Protocol):
    vocab: Vocab

    def predict(self, context: Sequence[int], block: Sequence[int]) -> PositionPrediction: ...


def predict(denoiser: Denoiser, context: Sequence[int], block: Sequence[int]) -> PositionPrediction:
    """Query a backend and enforce the prediction contract.

    Preconditions: the block has at least one masked position (checked on
    every pass) and the context is mask-free, which the caller checks once
    (``decode_block`` per block, ``nelbo_estimate`` per call): a pass reads
    none of it. Postconditions: the record covers exactly the masked
    positions, in ascending order, with full-width distributions; each row
    was checked as it entered its table, zero mass on mask and pad included.
    """
    vocab = denoiser.vocab
    mask_id = vocab.mask_id
    masked = [pos for pos, tok in enumerate(block) if tok == mask_id]
    if not masked:
        raise ValueError("block has no masked positions")

    preds = denoiser.predict(context, block)
    if not isinstance(preds, PositionPrediction):
        raise ContractViolation(f"backend returned {type(preds).__name__}, not PositionPrediction")
    if list(preds.positions) != masked:
        raise ContractViolation(f"backend covered positions {list(preds.positions)}, expected {masked}")
    if preds.table.width != vocab.total_ids:
        raise ContractViolation(f"rows have width {preds.table.width}, expected {vocab.total_ids}")
    return preds


def _spiked(backend, positions: list[int], spikes: list[tuple[int, float]]) -> PositionPrediction:
    """The record whose position ``i`` puts ``peak`` on ``token`` for ``spikes[i] = (token, peak)``,
    the rest uniform over the other ordinary tokens (all of them for eos); a row per distinct spike."""
    vocab = backend.vocab
    table = backend._table = backend._table.with_room()
    for spike in spikes:
        if spike not in table.ids:
            token, peak = spike
            probs = np.zeros(vocab.total_ids)
            probs[: vocab.size] = (1.0 - peak) / (vocab.size if token == vocab.eos_id else vocab.size - 1)
            probs[token] = peak
            table.ids[spike] = table.add(probs)
    return PositionPrediction(positions, table, [table.ids[spike] for spike in spikes])


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

    Each distinct context's row is built and checked once, into the
    backend's :class:`~blockdec.core.RowTable` under the context as its key,
    and each context that backs off is keyed to the row it reached;
    every record indexes that table. The backend owns ``counts``
    (``{context: {next: count}}``): it keeps the given dict, not a copy, and
    refuses a ``next`` outside ``[0, size)`` when that context's row is built.
    """

    def __init__(self, order: int, smoothing: float, vocab: Vocab,
                 counts: dict[tuple[int, ...], dict[int, int]]):
        if order < 1:
            raise ValueError("order must be at least 1")
        if () not in counts or not counts[()]:
            raise ValueError("counts must include a nonempty unigram table")
        totals = {ctx: sum(table.values()) for ctx, table in counts.items()}
        if not (smoothing >= 0.0 and np.isfinite(max(totals.values()) + smoothing * vocab.size)):
            raise ValueError(f"smoothing {smoothing!r} must be nonnegative, and total + smoothing * size finite")
        self.order = order
        self.smoothing = smoothing
        self.vocab = vocab
        self._counts = counts
        self._totals = totals
        self._table = RowTable(vocab)

    def distribution(self, ctx: tuple[int, ...]) -> np.ndarray:
        """Smoothed next-token distribution after ``ctx``, with backoff."""
        self._table = self._table.with_room()
        row = self._entry(ctx)
        return self._table.row(row)

    def _entry(self, ctx: tuple[int, ...]) -> int:
        """Row of ``ctx``'s distribution in the current table. The first lookup
        of a context backs off to the longest suffix with counts and keys the
        row under both, so a later lookup of either is one ``dict.get``; each key
        is charged to the table and goes with it when ``with_room`` starts a new one."""
        ids = self._table.ids
        row = ids.get(ctx)
        if row is not None:
            return row
        length = min(self.order, len(ctx))
        while ctx[len(ctx) - length:] not in self._counts:
            length -= 1
        key = ctx[len(ctx) - length:]
        if key not in ids:
            size = self.vocab.size
            vec = np.zeros(size)
            for tok, cnt in self._counts[key].items():
                if not 0 <= tok < size:  # -1 would count as size - 1
                    raise ValueError(f"context {key}: count token {tok} outside the ordinary range [0, {size})")
                vec[tok] = cnt
            probs = np.zeros(self.vocab.total_ids)
            probs[:size] = (vec + self.smoothing) / (self._totals[key] + self.smoothing * size)
            ids[key] = self._table.add(probs)
        row = ids[ctx] = ids[key]
        return row

    def predict(self, context: Sequence[int], block: Sequence[int]) -> PositionPrediction:
        self._table = self._table.with_room()
        # One left-to-right scan. ``run`` holds the last ``order`` tokens of
        # the clean run ending just left of the current position (empty right
        # after a masked one); a masked position after a masked one reads
        # ``last``, the nearest clean token as a context, whose row is ``gap``.
        # No clean run reaches further left than the last ``order`` context tokens.
        order, entry = self.order, self._entry
        tail = context[-order:]
        run = tail.tolist() if isinstance(tail, np.ndarray) else [int(t) for t in tail]
        last, gap = run[-1:], None
        mask_id = self.vocab.mask_id
        masked: list[int] = []
        index: list[int] = []
        for pos, tok in enumerate(block):
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
        return PositionPrediction(masked, self._table, index)


def markov_fit(corpus: Sequence[int], order: int, smoothing: float,
               vocab: Vocab | None = None) -> MarkovDenoiser:
    """Count every window of length 1..order over the corpus and build the
    smoothed Markov backend. The unigram table counts all corpus tokens.
    Each length codes its windows as one int64 array, a token as itself and
    a longer window as ``code * size + next`` (its digits in base ``size``)
    while the largest code leaves room below 2**63, an exact check: order 2
    up to size 2**21, order floor(63 / log2 size) - 1 in general. Where it
    leaves none, the codes are first ranked among the shorter distinct
    windows by one ``np.searchsorted`` over the corpus. One sort per length
    gives the distinct windows and counts; only those become tuples, each
    finding its prefix's by a ``searchsorted`` into the shorter windows. The
    arrays peak near 23 bytes a corpus token; an ``order`` past the corpus
    length costs nothing more. Tokens are read through ``operator.index``:
    ``True`` counts as 1, and ``1.5`` or a token past int64 raises
    ValueError here, not at a later pass."""
    if len(corpus) == 0:
        raise ValueError("corpus must be nonempty")
    if order < 1:
        raise ValueError("order must be at least 1")
    try:
        corpus = list(map(operator.index, corpus))
    except TypeError as exc:
        raise ValueError(f"corpus token is not an integer: {exc}") from None
    try:
        tokens = np.fromiter(corpus, np.int32, len(corpus))
        lo, hi = int(tokens.min()), int(tokens.max())
    except OverflowError:  # a token 2**31 from zero: refused below, as a range or vocab error
        lo, hi = min(corpus), max(corpus)
    bound = min(max(2, hi + 1) if vocab is None else vocab.size, 1 << 63)
    if lo < 0 or hi >= bound:
        tok = next(tok for tok in corpus if not 0 <= tok < bound)
        raise ValueError(f"corpus token {tok} outside the ordinary range [0, {bound})")
    if vocab is None:
        vocab = Vocab(bound)
    del corpus  # every token is below vocab.size <= MAX_VOCAB_SIZE < 2**24, so tokens is set

    size = vocab.size
    distinct, runs = np.unique(tokens, return_counts=True)
    counts = {(): dict(zip(distinct.tolist(), runs.tolist()))}
    contexts = [(tok,) for tok in counts[()]]  # one per distinct, sharing the unigram's ints
    codes, last = tokens, min(order, len(tokens) - 1)
    for length in range(1, last + 1):
        if length > 1:
            contexts = [contexts[p] + (t,) for p, t in zip(prefix, nxt)]
        if int(distinct[-1]) * size + size - 1 >= 1 << 63:  # the next code would wrap: rank it
            codes, distinct = np.searchsorted(distinct, codes), np.arange(len(distinct))
        shorter, codes = distinct, codes[:-1] * np.int64(size) + tokens[length:]
        distinct, runs = np.unique(codes, return_counts=True)
        prefix, nxt = np.searchsorted(shorter, distinct // size).tolist(), (distinct % size).tolist()
        if length == last:  # the last length's dicts are the fit's peak: free the arrays first
            tokens = codes = distinct = shorter = None
        for p, t, cnt in zip(prefix, nxt, runs.tolist()):
            counts.setdefault(contexts[p], {})[t] = cnt
    del tokens, codes, distinct, contexts  # freed before the backend builds its totals
    return MarkovDenoiser(order, smoothing, vocab, counts)


class OracleDenoiser:
    """Backend that knows the ground-truth continuation.

    The true token at distance ``d`` from the nearest clean token on its
    left gets probability ``max(1/size, base_confidence * decay**(d-1))``;
    the remainder spreads uniformly over the other ordinary tokens.
    Positions past the end of the target are treated as eos, so greedy
    decoding terminates right after the target. ``prompt_len`` anchors
    block positions to target offsets. Rows are keyed by (token, peak).
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
        self._table = RowTable(vocab)

    def predict(self, context: Sequence[int], block: Sequence[int]) -> PositionPrediction:
        offset = len(context) - self.prompt_len
        if offset < 0:
            raise ValueError("context is shorter than prompt_len")
        mask_id = self.vocab.mask_id
        masked, spikes = [], []
        # Distance to the nearest clean token on the left; position -1 is the
        # context tail, and an empty context behaves like the sequence start.
        clean = -1
        for pos, tok in enumerate(block):
            if tok != mask_id:
                clean = pos
                continue
            d = pos - clean
            gen_index = offset + pos
            true_tok = self.target[gen_index] if gen_index < len(self.target) else self.vocab.eos_id
            peak = max(1.0 / self.vocab.size, self.base_confidence * self.decay ** (d - 1))
            masked.append(pos)
            spikes.append((true_tok, peak))
        return _spiked(self, masked, spikes)


class ScriptedDenoiser:
    """Backend that replays explicit per-query predictions from a script.

    The script maps ``(block_index, step_index, position)`` to a
    ``(confidence, token_id)`` pair; the distribution puts ``confidence``
    on the token and spreads the rest uniformly over the other ordinary
    tokens. A query is a script miss -> :class:`FixtureError`. ``script``
    holds the checked entries; rows are keyed by (token, confidence).

    The predict signature carries no step counter, so the instance tracks
    one itself: a fully masked block always starts step 0 of the next
    block (inside one block decode the masked set strictly shrinks), and
    blocks are numbered from construction, across a two-stage splice too.
    A first query that is not a fully masked block is a :class:`FixtureError`.
    This is per-instance mutable state: use one instance per decoded sequence.
    """

    def __init__(self, script, vocab: Vocab):
        self.vocab = vocab
        self.script: dict[tuple[int, int, int], tuple[float, int]] = {}
        floor = 1.0 / vocab.size
        for key, (conf, tok) in dict(script).items():
            block_i, step_i, pos = key
            if min(block_i, step_i, pos) < 0:
                raise FixtureError(f"script key {clipped(str(key))} has a negative component")
            if not floor <= conf <= 1.0:
                raise FixtureError(
                    f"script entry {clipped(str(key))}: confidence {conf} outside [1/size, 1]"
                )
            if not (0 <= tok < vocab.size or tok == vocab.eos_id):
                raise FixtureError(f"script entry {clipped(str(key))}: bad token id {clipped(str(tok))}")
            self.script[(block_i, step_i, pos)] = (float(conf), int(tok))
        self._block = -1
        self._step = -1
        self._table = RowTable(vocab)

    def predict(self, context: Sequence[int], block: Sequence[int]) -> PositionPrediction:
        mask_id = self.vocab.mask_id
        masked = [pos for pos, tok in enumerate(block) if tok == mask_id]
        if len(masked) == len(block):
            self._block += 1
            self._step = 0
        elif self._block < 0:
            raise FixtureError(
                f"the first query did not start a block: {len(block) - len(masked)} "
                f"of its {len(block)} positions are already clean"
            )
        else:
            self._step += 1
        spikes = []
        for pos in masked:
            key = (self._block, self._step, pos)
            entry = self.script.get(key)
            if entry is None:
                raise FixtureError(
                    f"script has no entry for block={self._block} "
                    f"step={self._step} position={pos}"
                )
            conf, tok = entry
            spikes.append((tok, conf))
        return _spiked(self, masked, spikes)


def load_scripted(path, vocab: Vocab) -> ScriptedDenoiser:
    """Parse a script fixture: one ``block step position conf token_id``
    entry per line, blank lines and ``#`` comments ignored."""
    script: dict[tuple[int, int, int], tuple[float, int]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise FixtureError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FixtureError(
                f"{path}: line {lineno}: expected 'block step position conf token_id'"
            )
        try:
            key = (parsed(int, parts[0]), parsed(int, parts[1]), parsed(int, parts[2]))
            entry = (parsed(float, parts[3]), parsed(int, parts[4]))
        except ValueError as exc:
            raise FixtureError(f"{path}: line {lineno}: {exc}") from None
        if key in script:
            raise FixtureError(f"{path}: line {lineno}: duplicate entry for {clipped(str(key))}")
        script[key] = entry
    if not script:
        raise FixtureError(f"{path}: script fixture is empty")
    return ScriptedDenoiser(script, vocab)
