"""Full-context reference for ``MarkovDenoiser.predict``.

This is the loop the backend ran before it read only the last ``order``
context tokens, kept as the differential oracle: it rebuilds the whole
context plus block and walks left from every masked position.
"""

from __future__ import annotations

import numpy as np

from blockdec.core import PositionPrediction


def reference_predict(model, context, block) -> PositionPrediction:
    tokens = list(context) + block.tokens
    clean = [True] * len(context) + [not f for f in block.mask_flags]
    base = len(context)
    masked = block.masked_positions()
    entries = []
    for pos in masked:
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
        entries.append(model._entry(ctx))
    rows, confidence, entropy = zip(*entries)
    return PositionPrediction(masked, np.stack(rows), confidence, entropy)
