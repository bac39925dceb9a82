"""Shared test helpers: tiny denoisers and record builders."""

from __future__ import annotations

import math

import numpy as np

from blockdec.core import GenerationResult, PositionPrediction, RowTable, StepRecord, StopReason, Vocab
from blockdec.sampling import BacdState


def spiked_probs(vocab: Vocab, token: int, peak: float) -> np.ndarray:
    """Peak on one token, remainder uniform over the other ordinary ids."""
    probs = np.zeros(vocab.total_ids)
    if token == vocab.eos_id:
        probs[: vocab.size] = (1.0 - peak) / vocab.size
        probs[vocab.eos_id] = peak
    else:
        probs[: vocab.size] = (1.0 - peak) / (vocab.size - 1)
        probs[token] = peak
    return probs


def preds_from_confs(confs, vocab: Vocab | None = None, token: int = 0):
    """One record with a spiked row per (position, confidence) pair."""
    vocab = vocab or Vocab(10)
    return PositionPrediction.from_probs(
        [pos for pos, _ in confs], [spiked_probs(vocab, token, conf) for _, conf in confs])


def bacd_after(history, tau_l: float, tau_h: float) -> BacdState:
    """A BACD state that has committed the confidences ``history``, in order."""
    state = BacdState(tau_h=tau_h, tau_l=tau_l)
    for c in history:
        state.total += c
        state.count += 1
    return state


def table_of(rows) -> RowTable:
    """A full table holding ``rows``, [R, size + 3] for a ``Vocab(size)``."""
    rows = np.asarray(rows, dtype=np.float64)
    table = RowTable(len(rows), Vocab(rows.shape[1] - 3))
    for r in rows:
        table.add(r)
    return table


def read_only(values) -> np.ndarray:
    index = np.array(values, dtype=np.int64)
    index.flags.writeable = False
    return index


def shared_record(positions, rows, row) -> PositionPrediction:
    """A record whose positions read ``rows`` through the row index ``row``."""
    return PositionPrediction(positions, table_of(rows), read_only(row))


def position_probs(preds: PositionPrediction) -> np.ndarray:
    """The [M, V] matrix of a record: row ``i`` is position ``i``'s row."""
    return preds.table.probs[preds.row]


def spike_conf_for_entropy(vocab: Vocab, target: float) -> float:
    """Invert the spiked-family entropy to hit ``target`` (nats)."""
    size = vocab.size

    def entropy(c: float) -> float:
        rest = (1.0 - c) / (size - 1)
        h = -c * math.log(c)
        if rest > 0.0:
            h -= (size - 1) * rest * math.log(rest)
        return h

    lo, hi = 1.0 / size, 1.0  # entropy falls from ln(size) to 0 on this range
    if not 0.0 <= target <= entropy(lo):
        raise ValueError(f"entropy {target} unreachable with vocab size {size}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if entropy(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class UniformDenoiser:
    """Uniform distribution over ordinary tokens at every masked position."""

    def __init__(self, vocab: Vocab):
        self.vocab = vocab

    def predict(self, context, block):
        probs = np.zeros(self.vocab.total_ids)
        probs[: self.vocab.size] = 1.0 / self.vocab.size
        masked = block.masked_positions()
        return PositionPrediction.from_probs(masked, [probs] * len(masked))


class CountingDenoiser:
    """Wrapper that counts predict calls (forward passes)."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.calls = 0

    def predict(self, context, block):
        self.calls += 1
        return self.inner.predict(context, block)


def full_random_script(rng: np.random.Generator, vocab: Vocab, blocks: int,
                       block_size: int, conf_lo: float = None):
    """Script covering every (block, step, position) a decode could ask for."""
    lo = conf_lo if conf_lo is not None else 1.0 / vocab.size
    script = {}
    for b in range(blocks):
        for s in range(block_size):
            for p in range(block_size):
                conf = lo + (1.0 - lo) * rng.random() * 0.999
                tok = int(rng.integers(0, vocab.size))
                script[(b, s, p)] = (conf, tok)
    return script


def make_result(output, stop=StopReason.MAX_LENGTH, slot_groups=None,
                confidences=0.8, tccf=None):
    """Fabricate a GenerationResult whose steps carry the given slot counts.

    ``confidences`` is either a flat value or one tuple per step.
    """
    if slot_groups is None:
        slot_groups = [1] * len(output)
    steps = []
    for i, width in enumerate(slot_groups):
        if isinstance(confidences, (int, float)):
            confs = tuple([float(confidences)] * width)
        else:
            confs = tuple(confidences[i])
        steps.append(
            StepRecord(
                block_index=0,
                step_index=i,
                threshold_used=None,
                unmasked_positions=tuple(range(width)),
                confidences=confs,
                fallback_fired=False,
            )
        )
    return GenerationResult(
        output_tokens=tuple(output),
        steps=tuple(steps),
        stop_reason=stop,
        tccf=tccf,
    )
