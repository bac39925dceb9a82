"""Per-position reference for ``blockdec.core.RowTable.draw``.

This is the realization the shared-row sampler replaced, kept as the
differential oracle: one ``rng.choice`` per committed position, in
ascending position order, on that position's own row.
"""

from __future__ import annotations

import numpy as np


def reference_weights(probs: np.ndarray, temperature: float) -> np.ndarray:
    """``probs`` tempered in log space, the max log subtracted: the max weighs
    exactly 1, a zero (log -inf) or an overflowing quotient 0."""
    if temperature != 1.0:
        with np.errstate(divide="ignore", over="ignore"):
            logs = np.log(probs)
            probs = np.exp((logs - logs.max()) / temperature)
    return probs / probs.sum()


def realize_one(probs: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    if temperature == 0.0:
        return int(np.argmax(probs))
    return int(rng.choice(len(probs), p=reference_weights(probs, temperature)))


def reference_tokens(probs: np.ndarray, temperature: float, uniforms) -> list[int]:
    """The tokens ``rng.choice(len(probs), p=weights)`` picks for each of the
    ``uniforms``, with the arithmetic of numpy's ``Generator.choice``."""
    cdf = reference_weights(probs, temperature).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, "right").tolist()


def reference_realize(probs: np.ndarray, row, chosen, temperature: float,
                      rng: np.random.Generator) -> list[int]:
    """Tokens for positions ``chosen`` (ascending indices), where position
    ``i`` reads ``probs[row[i]]`` (``probs[i]`` when ``row`` is None)."""
    return [realize_one(probs[i if row is None else row[i]], temperature, rng) for i in chosen]
