"""Parallel unmasking: selection rules and the single-block decode loop.

Each decoding step runs one denoiser forward pass, picks a nonempty set
of masked positions to commit, and draws their tokens from the record's
row table (:meth:`RowTable.draw`: greedy at temperature zero,
temperature-scaled sampling otherwise). Selection is confidence based;
the threshold family shares an argmax fallback so that every step
commits at least one position and a block of size B finishes in at most
B passes. The rules read the per-position confidence and
entropy tuples of one prediction record per pass with list operations;
positions ascend, so stable sorts and ``max`` over the indices break ties
toward the lower position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import core
from .core import Algorithm, DecodingConfig, PositionPrediction, StepRecord
from .denoisers import Denoiser, predict

# Never called here (a config is valid by construction); perfbench/layers.py counts calls through this name.
validate_config = core.validate_config

# Absolute slack for the entropy-budget comparison; grid-valued entropies
# otherwise fail the inequality on the last ulp of a prefix sum.
ENTROPY_BUDGET_SLACK = 1e-12


@dataclass
class BacdState:
    """Running confidence sum for bounded adaptive thresholding.

    The threshold for the next step is the mean of the confidences
    committed so far, ``total / count``, clipped to ``[tau_l, tau_h]``;
    before the first commit it is ``tau_h``. :func:`select_bacd` adds each
    committed confidence to ``total`` one at a time, left to right, so the
    mean has one arithmetic on every Python version. One state per block.
    """

    tau_h: float
    tau_l: float
    total: float = field(default=0.0, init=False)
    count: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0.0 < self.tau_l <= self.tau_h <= 1.0:
            raise ValueError("need 0 < tau_l <= tau_h <= 1")

    def threshold(self) -> float:
        if not self.count:
            return self.tau_h
        return min(max(self.total / self.count, self.tau_l), self.tau_h)


# A rule's pick: ascending record indices, the threshold used (or None), fallback fired.
Selection = tuple[list[int], float | None, bool]


def _thresholded(preds: PositionPrediction, tau: float) -> tuple[list[int], bool]:
    # Indices strictly above tau, else the argmax one (lowest position on ties).
    conf = preds.confidence
    idx = [i for i, c in enumerate(conf) if c > tau]
    if idx:
        return idx, False
    return [max(range(len(conf)), key=conf.__getitem__)], True


def select_static(preds: PositionPrediction, n: int) -> Selection:
    """Commit the ``n`` most confident positions (all of them when fewer
    remain). Confidence ties break toward the lower position."""
    if n < 1:
        raise ValueError("n must be at least 1")
    conf = preds.confidence
    return sorted(sorted(range(len(conf)), key=conf.__getitem__, reverse=True)[:n]), None, False


def select_dynamic(preds: PositionPrediction, tau: float) -> Selection:
    """Commit every position whose confidence strictly exceeds ``tau``.

    Ties at the threshold stay masked. When nothing clears it, the single
    most confident position is committed and the fallback flag is set.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    idx, fallback = _thresholded(preds, tau)
    return idx, tau, fallback


def select_bacd(preds: PositionPrediction, state: BacdState) -> Selection:
    """One bounded-adaptive step: threshold from the running mean, strict
    comparison, argmax fallback, then the chosen confidences are added to
    ``state`` in ascending position order."""
    tau_t = state.threshold()
    idx, fallback = _thresholded(preds, tau_t)
    for i in idx:
        state.total += preds.confidence[i]
    state.count += len(idx)
    return idx, tau_t, fallback


def entropy_prefix_length(sorted_entropies: Sequence[float], gamma: float) -> int:
    """Length of the longest ascending-entropy prefix whose total, minus
    its largest member, stays within ``gamma``.

    For an ascending prefix of length m that quantity is the sum of the
    first m-1 entropies, so the check is a running-sum scan. Comparison
    carries a 1e-12 absolute slack: grid-valued entropies routinely land
    one ulp above an exactly attainable budget. A singleton prefix always
    qualifies.
    """
    if not gamma >= 0.0:  # NaN fails too
        raise ValueError("gamma must be nonnegative")
    taken = 0
    total = 0.0
    for h in sorted_entropies:
        if total > gamma + ENTROPY_BUDGET_SLACK:
            break
        taken += 1
        total += h
    return max(taken, 1) if len(sorted_entropies) else 0


def select_entropy_bounded(preds: PositionPrediction, gamma: float) -> Selection:
    """Commit the largest low-entropy prefix within the budget ``gamma``.

    Positions are ordered by ascending entropy (ties toward the lower
    position); the chosen set is the longest prefix whose summed entropy
    minus its maximum stays within gamma. The singleton prefix always
    qualifies, so there is no fallback path.
    """
    ent = preds.entropy
    ranked = sorted(range(len(ent)), key=ent.__getitem__)
    m = entropy_prefix_length([ent[i] for i in ranked], gamma)
    return sorted(ranked[:m]), None, False


def decode_block(
    denoiser: Denoiser,
    context: Sequence[int],
    block_size: int,
    cfg: DecodingConfig,
    rng: np.random.Generator,
    *,
    block_index: int = 0,
) -> tuple[list[int], list[StepRecord]]:
    """Decode one block from fully masked to fully committed.

    Every loop iteration is exactly one denoiser forward pass followed by
    one selection step; committed tokens are realized in ascending
    position order (which fixes the rng consumption order when sampling).
    The block is a token list, masked where it holds ``vocab.mask_id``.
    No position is committed twice and the mask is never committed: each
    record covers exactly the masked positions (:func:`predict` checks it)
    and no row puts mass on the mask (the row table refuses it). A masked
    context is refused here, once, not on every pass. Returns the clean
    tokens and one :class:`StepRecord` per pass, at most ``block_size``.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    mask_id = denoiser.vocab.mask_id
    if mask_id in context:
        raise ValueError("context must not contain mask tokens")

    block = [mask_id] * block_size
    records: list[StepRecord] = []
    bacd_state = BacdState(cfg.tau_h, cfg.tau_l) if cfg.algorithm is Algorithm.BACD else None
    static_n = math.ceil(block_size / cfg.steps) if cfg.algorithm is Algorithm.STATIC else None

    while mask_id in block:
        preds = predict(denoiser, context, block)
        if cfg.algorithm is Algorithm.STATIC:
            idx, threshold_used, fallback_fired = select_static(preds, static_n)
        elif cfg.algorithm is Algorithm.DYNAMIC:
            idx, threshold_used, fallback_fired = select_dynamic(preds, cfg.tau)
        elif cfg.algorithm is Algorithm.BACD:
            idx, threshold_used, fallback_fired = select_bacd(preds, bacd_state)
        else:
            idx, threshold_used, fallback_fired = select_entropy_bounded(preds, cfg.gamma)

        chosen = [preds.positions[i] for i in idx]
        for pos, tok in zip(chosen, preds.table.draw([preds.row[i] for i in idx], cfg.temperature, rng)):
            block[pos] = tok
        records.append(
            StepRecord(
                block_index=block_index,
                step_index=len(records),
                threshold_used=threshold_used,
                unmasked_positions=tuple(chosen),
                confidences=tuple([preds.confidence[i] for i in idx]),
                fallback_fired=fallback_fired,
            )
        )

    return block, records
