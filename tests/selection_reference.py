"""Per-position reference implementations of the four selection rules.

These are the loops the array rules in ``blockdec.sampling`` replaced, kept
as the differential oracle: each works on a list of ``Row`` objects (one per
masked position, ascending) and returns plain tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from blockdec.sampling import ENTROPY_BUDGET_SLACK


@dataclass(frozen=True)
class Row:
    position: int
    confidence: float
    entropy: float


def rows_of(preds) -> list[Row]:
    return [Row(int(p), float(c), float(h))
            for p, c, h in zip(preds.positions, preds.confidence, preds.entropy)]


def argmax_fallback(rows) -> int:
    # Highest confidence wins; equal confidences go to the lowest position
    # (rows arrive in ascending position order).
    best = rows[0]
    for r in rows[1:]:
        if r.confidence > best.confidence:
            best = r
    return best.position


def select_static(rows, n: int):
    ranked = sorted(rows, key=lambda r: (-r.confidence, r.position))
    return tuple(sorted(r.position for r in ranked[: min(n, len(ranked))])), None, False


def select_dynamic(rows, tau: float):
    chosen = [r.position for r in rows if r.confidence > tau]
    if chosen:
        return tuple(sorted(chosen)), tau, False
    return (argmax_fallback(rows),), tau, True


def left_to_right_sum(values) -> float:
    # An explicit loop: sum() of floats is compensated from Python 3.12 on,
    # and the rule's running sum is not.
    total = 0.0
    for v in values:
        total += v
    return total


def bacd_threshold(tau_h: float, tau_l: float, history) -> float:
    if not history:
        return tau_h
    return min(max(left_to_right_sum(history) / len(history), tau_l), tau_h)


def select_bacd(rows, tau_h: float, tau_l: float, history):
    """Returns (chosen, threshold, fallback, extended history)."""
    tau_t = bacd_threshold(tau_h, tau_l, history)
    by_pos = {r.position: r for r in rows}
    chosen = sorted(r.position for r in rows if r.confidence > tau_t)
    fallback = not chosen
    if fallback:
        chosen = [argmax_fallback(rows)]
    return tuple(chosen), tau_t, fallback, tuple(history) + tuple(by_pos[p].confidence for p in chosen)


def entropy_prefix_length(sorted_entropies, gamma: float) -> int:
    taken = 0
    total = 0.0
    for h in sorted_entropies:
        if total > gamma + ENTROPY_BUDGET_SLACK:
            break
        taken += 1
        total += h
    return max(taken, 1) if sorted_entropies else 0


def select_entropy_bounded(rows, gamma: float):
    ranked = sorted(rows, key=lambda r: (r.entropy, r.position))
    m = entropy_prefix_length([r.entropy for r in ranked], gamma)
    return tuple(sorted(r.position for r in ranked[:m])), None, False
