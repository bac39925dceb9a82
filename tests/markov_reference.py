"""References for the Markov backend: its fit and ``MarkovDenoiser.predict``.

``reference_counts`` is the per-window loop ``markov_fit`` ran before it
counted each order in one ``Counter`` pass. The rest is the loop the backend
ran before it read only the last ``order`` context tokens and scanned the
block once, kept as the differential oracle: it rebuilds the whole context
plus block and walks left from every masked position, building one row per
position from the counts, without the backend's row table or cache.
"""

from __future__ import annotations

import numpy as np

from blockdec.core import PositionPrediction

from conftest import masked_of


def reference_counts(corpus, order: int) -> dict[tuple[int, ...], dict[int, int]]:
    """``{context: {next: count}}`` over every window, one slice per window."""
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
    return counts


def reference_contexts(model, context, block) -> list[tuple[int, ...]]:
    """The context each masked position conditions on, before backoff."""
    mask_id = model.vocab.mask_id
    tokens = list(context) + list(block)
    clean = [True] * len(context) + [tok != mask_id for tok in block]
    base = len(context)
    contexts = []
    for pos in masked_of(block, model.vocab):
        idx = base + pos
        if idx > 0 and clean[idx - 1]:
            run: list[int] = []
            j = idx - 1
            while j >= 0 and clean[j] and len(run) < model.order:
                run.append(tokens[j])
                j -= 1
            ctx = tuple(reversed(run))
        else:
            j = idx - 1
            while j >= 0 and not clean[j]:
                j -= 1
            ctx = (tokens[j],) if j >= 0 else ()
        contexts.append(ctx)
    return contexts


def backoff(model, ctx: tuple[int, ...]) -> tuple[int, ...]:
    """The longest suffix of ``ctx`` (at most ``order`` tokens) with counts."""
    for length in range(min(model.order, len(ctx)), -1, -1):
        suffix = ctx[len(ctx) - length :]
        if suffix in model._counts:
            return suffix
    raise AssertionError("the unigram context () always has counts")


def reference_row(model, ctx: tuple[int, ...]) -> np.ndarray:
    """The smoothed distribution after ``ctx``, straight from the counts."""
    ctx = backoff(model, ctx)
    size, lam = model.vocab.size, model.smoothing
    vec = np.zeros(size)
    for tok, cnt in model._counts[ctx].items():
        vec[tok] = cnt
    probs = np.zeros(model.vocab.total_ids)
    probs[:size] = (vec + lam) / (sum(model._counts[ctx].values()) + lam * size)
    return probs


def reference_predict(model, context, block) -> PositionPrediction:
    """One fresh row per masked position, in a table of its own."""
    rows = [reference_row(model, ctx) for ctx in reference_contexts(model, context, block)]
    return PositionPrediction.from_probs(masked_of(block, model.vocab), rows)
