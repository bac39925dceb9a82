"""Parallel unmasking: selection rules and the single-block decode loop.

Each decoding step runs one denoiser forward pass, picks a nonempty set
of masked positions to commit, and realizes their tokens (greedy at
temperature zero, temperature-scaled sampling otherwise). Selection is
confidence based; the threshold family shares an argmax fallback so that
every step commits at least one position and a block of size B finishes
in at most B passes. The rules read the per-position confidence and
entropy vectors of one prediction record per pass; positions ascend, so
stable sorts and ``argmax`` break ties toward the lower position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    Algorithm,
    BlockState,
    DecodingConfig,
    PositionPrediction,
    StepRecord,
    validate_config,
)
from .denoisers import Denoiser, predict

__all__ = [
    "BacdState",
    "decode_block",
    "entropy_prefix_length",
    "select_bacd",
    "select_dynamic",
    "select_entropy_bounded",
    "select_static",
]

# Absolute slack for the entropy-budget comparison; grid-valued entropies
# otherwise fail the inequality on the last ulp of a prefix sum.
ENTROPY_BUDGET_SLACK = 1e-12
# Generator.choice's tolerance on the sum of its weights.
CHOICE_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)


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
Selection = tuple[np.ndarray, float | None, bool]


def _thresholded(preds: PositionPrediction, tau: float) -> tuple[np.ndarray, bool]:
    # Indices strictly above tau, else the argmax one (lowest position on ties).
    idx = np.flatnonzero(preds.confidence > tau)
    if len(idx):
        return idx, False
    return preds.confidence.argmax(keepdims=True), True


def select_static(preds: PositionPrediction, n: int) -> Selection:
    """Commit the ``n`` most confident positions (all of them when fewer
    remain). Confidence ties break toward the lower position."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return np.sort(np.argsort(-preds.confidence, kind="stable")[:n]), None, False


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
    for c in preds.confidence[idx].tolist():
        state.total += c
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
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    taken = 0
    total = 0.0
    for h in sorted_entropies:
        if total > gamma + ENTROPY_BUDGET_SLACK:
            break
        taken += 1
        total += h
    return max(taken, 1) if sorted_entropies else 0


def select_entropy_bounded(preds: PositionPrediction, gamma: float) -> Selection:
    """Commit the largest low-entropy prefix within the budget ``gamma``.

    Positions are ordered by ascending entropy (ties toward the lower
    position); the chosen set is the longest prefix whose summed entropy
    minus its maximum stays within gamma. The singleton prefix always
    qualifies, so there is no fallback path.
    """
    ranked = np.argsort(preds.entropy, kind="stable")
    m = entropy_prefix_length(preds.entropy[ranked].tolist(), gamma)
    return np.sort(ranked[:m]), None, False


def _weights(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Sampling weights of one row: tempered (for T != 1) in log space with
    the max subtracted, so that no weight underflows into a 0/0, then
    normalized as ``rng.choice`` was given them."""
    if temperature != 1.0:
        with np.errstate(divide="ignore", over="ignore"):
            probs = np.exp((np.log(probs) - math.log(probs.max())) / temperature)
    return probs / probs.sum()


def _cdf(probs: np.ndarray, temperature: float) -> np.ndarray:
    """CDF of one row's :func:`_weights`, with the input checks and the
    arithmetic of ``Generator.choice(len(p), p=p)``."""
    p = _weights(probs, temperature)
    if p.min() < 0.0:
        raise ValueError("probabilities are not non-negative")
    cdf = p.cumsum()
    if not abs(cdf[-1] - 1.0) <= CHOICE_SUM_TOL:  # NaN fails too
        raise ValueError("probabilities do not sum to 1")
    cdf /= cdf[-1]
    return cdf


def _realize(preds: PositionPrediction, idx: np.ndarray, temperature: float,
             rng: np.random.Generator) -> list[int]:
    """Tokens for the record's positions at indices ``idx`` (ascending).

    The table's stored argmax of each row at temperature zero. Otherwise one
    uniform per position, drawn in ascending position order, picks through
    the :func:`_cdf` of its row, built once per distinct row: the tokens and
    the generator state of one ``rng.choice`` per position. The committed
    confidence stays untempered."""
    rows = preds.row[idx]
    if temperature == 0.0:
        return preds.table.argmax[rows].tolist()
    probs = preds.table.probs
    cdfs: dict[int, np.ndarray] = {}
    tokens = []
    for r, u in zip(rows.tolist(), rng.random(len(rows)).tolist()):
        if r not in cdfs:
            cdfs[r] = _cdf(probs[r], temperature)
        tokens.append(int(cdfs[r].searchsorted(u, "right")))
    return tokens


def decode_block(
    denoiser: Denoiser,
    context: Sequence[int],
    block_size: int,
    cfg: DecodingConfig,
    rng: np.random.Generator,
    *,
    block_index: int = 0,
) -> tuple[BlockState, list[StepRecord]]:
    """Decode one block from fully masked to fully committed.

    Every loop iteration is exactly one denoiser forward pass followed by
    one selection step; committed tokens are realized in ascending
    position order (which fixes the rng consumption order when sampling).
    Returns the clean block and one :class:`StepRecord` per pass, at most
    ``block_size`` of them.
    """
    problems = validate_config(cfg)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    if block_size < 1:
        raise ValueError("block_size must be positive")

    block = BlockState.fully_masked(block_size, denoiser.vocab.mask_id)
    records: list[StepRecord] = []
    bacd_state = BacdState(cfg.tau_h, cfg.tau_l) if cfg.algorithm is Algorithm.BACD else None
    static_n = math.ceil(block_size / cfg.steps) if cfg.algorithm is Algorithm.STATIC else None

    while not block.fully_decoded:
        preds = predict(denoiser, context, block)
        if cfg.algorithm is Algorithm.STATIC:
            idx, threshold_used, fallback_fired = select_static(preds, static_n)
        elif cfg.algorithm is Algorithm.DYNAMIC:
            idx, threshold_used, fallback_fired = select_dynamic(preds, cfg.tau)
        elif cfg.algorithm is Algorithm.BACD:
            idx, threshold_used, fallback_fired = select_bacd(preds, bacd_state)
        else:
            idx, threshold_used, fallback_fired = select_entropy_bounded(preds, cfg.gamma)

        chosen = preds.positions[idx].tolist()
        for pos, tok in zip(chosen, _realize(preds, idx, cfg.temperature, rng)):
            block.assign(pos, tok)
        records.append(
            StepRecord(
                block_index=block_index,
                step_index=len(records),
                threshold_used=threshold_used,
                unmasked_positions=tuple(chosen),
                confidences=tuple(preds.confidence[idx].tolist()),
                fallback_fired=fallback_fired,
            )
        )
        del preds  # free this pass's record (and a from_probs table) before the next (peak RSS)

    return block, records
