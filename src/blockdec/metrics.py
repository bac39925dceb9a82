"""Run metrics: throughput, confidence, and output-quality buckets.

Throughput is tokens per forward pass (TPF): the decode-slot count over
the pooled pass count. Slots count every committed position, including
tokens later discarded by eos truncation or the length cap, because the
passes that produced them were spent either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .core import GenerationResult, StopReason


class Category(str, Enum):
    ANSWER_MATCH = "answer_match"
    ANSWER_MISMATCH = "answer_mismatch"
    REPETITION = "repetition"
    INSUFFICIENT_LENGTH = "insufficient_length"
    UNCHECKED = "unchecked"


@dataclass(frozen=True)
class RunSummary:
    tpf: float
    mean_confidence: float
    output_len: int
    category: Category


@dataclass(frozen=True)
class AggregateRow:
    key: str | int  # a label or a grid index; rows sort by it
    runs: int
    mean_tpf: float
    mean_confidence: float
    frequencies: Mapping[Category, float]


def tpf(result: GenerationResult) -> float:
    """Tokens per forward pass."""
    return result.generated_slots / result.forward_passes


def _mean(values: Sequence[float]) -> float:
    """Mean summed left to right: Python 3.12's ``sum()`` rounds differently."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def mean_confidence(result: GenerationResult) -> float:
    """Mean confidence over every committed position of every step."""
    return _mean([c for rec in result.steps for c in rec.confidences])


def detect_repetition(tokens: Sequence[int], max_period: int = 32, min_repeats: int = 4) -> bool:
    """True when the sequence ends in a short cycle repeated enough times.

    Scans periods 1..max_period and counts how often the final
    ``period``-length window repeats back to back at the tail.
    """
    if max_period < 1 or min_repeats < 2:
        raise ValueError("need max_period >= 1 and min_repeats >= 2")
    tokens = list(tokens)
    n = len(tokens)
    for period in range(1, min(max_period, n // min_repeats) + 1):
        tail = tokens[n - period :]
        repeats = 1
        while repeats < min_repeats and n - (repeats + 1) * period >= 0:
            if tokens[n - (repeats + 1) * period : n - repeats * period] != tail:
                break
            repeats += 1
        if repeats >= min_repeats:
            return True
    return False


def _pre_eos(result: GenerationResult) -> list[int]:
    out = list(result.output_tokens)
    if result.stop_reason is StopReason.EOS and out:
        out = out[:-1]
    return out


def classify(
    result: GenerationResult,
    target: Sequence[int] | None = None,
) -> Category:
    """Bucket a run, most degenerate condition first.

    Repetition beats everything; a length-capped stop is flagged as
    insufficient; otherwise the pre-eos output is checked against the
    target when one is given, and runs without a target are unchecked.
    """
    body = _pre_eos(result)
    if detect_repetition(body):
        return Category.REPETITION
    if result.stop_reason is StopReason.MAX_LENGTH:
        return Category.INSUFFICIENT_LENGTH
    if target is not None:
        return Category.ANSWER_MATCH if body == list(target) else Category.ANSWER_MISMATCH
    return Category.UNCHECKED


def summarize(
    result: GenerationResult,
    target: Sequence[int] | None = None,
) -> RunSummary:
    return RunSummary(
        tpf=tpf(result),
        mean_confidence=mean_confidence(result),
        output_len=len(result.output_tokens),
        category=classify(result, target),
    )


def aggregate(cells: Mapping[str | int, Sequence[RunSummary]]) -> list[AggregateRow]:
    """Reduce grouped summaries to one row per config cell.

    Rows come back sorted by key; frequencies cover only the categories
    observed in that cell. Every cell must be nonempty.
    """
    rows = []
    for key in sorted(cells):
        group = list(cells[key])
        if not group:
            raise ValueError(f"aggregate cell {key!r} is empty")
        freqs: dict[Category, float] = {}
        for s in group:
            freqs[s.category] = freqs.get(s.category, 0.0) + 1.0
        for cat in freqs:
            freqs[cat] /= len(group)
        rows.append(
            AggregateRow(
                key=key,
                runs=len(group),
                mean_tpf=_mean([s.tpf for s in group]),
                mean_confidence=_mean([s.mean_confidence for s in group]),
                frequencies=freqs,
            )
        )
    return rows
