"""Full-context reference for ``MarkovDenoiser.predict``.

This is the loop the backend ran before it read only the last ``order``
context tokens and scanned the block once, kept as the differential
oracle: it rebuilds the whole context plus block and walks left from every
masked position, building one row per position.
"""

from __future__ import annotations

import numpy as np

from blockdec.core import PositionPrediction


def reference_contexts(model, context, block) -> list[tuple[int, ...]]:
    """The context each masked position conditions on, before backoff."""
    tokens = list(context) + block.tokens
    clean = [True] * len(context) + [not f for f in block.mask_flags]
    base = len(context)
    contexts = []
    for pos in block.masked_positions():
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


def reference_predict(model, context, block) -> PositionPrediction:
    """One row per masked position, no row index."""
    entries = [model._entry(ctx) for ctx in reference_contexts(model, context, block)]
    rows, confidence, entropy = zip(*entries)
    return PositionPrediction(block.masked_positions(), np.stack(rows), confidence, entropy)
