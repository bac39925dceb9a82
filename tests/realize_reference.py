"""Per-position reference for ``blockdec.sampling._realize``.

This is the realization the shared-row sampler replaced, kept as the
differential oracle: one ``rng.choice`` per committed position, in
ascending position order, on that position's own row.
"""

from __future__ import annotations

import math

import numpy as np


def reference_weights(probs: np.ndarray, temperature: float) -> np.ndarray:
    if temperature != 1.0:
        with np.errstate(divide="ignore"):
            probs = np.exp((np.log(probs) - math.log(probs.max())) / temperature)
    return probs / probs.sum()


def realize_one(probs: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    if temperature == 0.0:
        return int(np.argmax(probs))
    return int(rng.choice(len(probs), p=reference_weights(probs, temperature)))


def reference_realize(probs: np.ndarray, row, chosen, temperature: float,
                      rng: np.random.Generator) -> list[int]:
    """Tokens for positions ``chosen`` (ascending indices), where position
    ``i`` reads ``probs[row[i]]`` (``probs[i]`` when ``row`` is None)."""
    return [realize_one(probs[i if row is None else row[i]], temperature, rng) for i in chosen]
