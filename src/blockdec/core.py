"""Core types shared by the decoding engine.

Everything here is plain data: vocabularies, per-pass prediction records,
decoding configuration, and the step/result records emitted by the
generation loop. The mutable types are :class:`BlockState`, which the
block decoder updates in place as positions are committed, and the
append-only :class:`RowTable` that prediction records index into.
"""

from __future__ import annotations

import math
import mmap
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Algorithm",
    "BlockState",
    "DecodingConfig",
    "GenerationResult",
    "PositionPrediction",
    "RowTable",
    "StepRecord",
    "StopReason",
    "TccfConfig",
    "TccfTrace",
    "Vocab",
    "lint_config",
    "token_array",
    "validate_config",
]

# Tolerance used by prediction self-checks.
PROB_SUM_TOL = 1e-9


class Algorithm(str, Enum):
    """Parallel unmasking strategies supported by the block decoder."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    BACD = "bacd"
    ENTROPY_BOUNDED = "entropy_bounded"


class StopReason(str, Enum):
    EOS = "eos"
    MAX_LENGTH = "max_length"


@dataclass(frozen=True)
class Vocab:
    """Token id layout: ordinary ids first, special ids at the top.

    Ordinary tokens occupy ``0 .. size-1``; the mask, eos, and pad ids are
    ``size``, ``size + 1`` and ``size + 2``, so that denoiser distributions
    over ordinary tokens are a contiguous prefix of the id space.
    """

    size: int  # number of ordinary tokens

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("vocab needs at least 2 ordinary tokens")

    mask_id = property(lambda self: self.size)
    eos_id = property(lambda self: self.size + 1)
    pad_id = property(lambda self: self.size + 2)
    total_ids = property(lambda self: self.size + 3)


@dataclass
class BlockState:
    """Mutable state of the block currently being decoded: a position is
    masked exactly when it holds ``mask_id``. All mutation goes through
    :meth:`assign`."""

    tokens: list[int]
    mask_id: int

    @classmethod
    def fully_masked(cls, size: int, mask_id: int) -> "BlockState":
        return cls([mask_id] * size, mask_id)

    def __len__(self) -> int:
        return len(self.tokens)

    def masked_positions(self) -> list[int]:
        return [i for i, tok in enumerate(self.tokens) if tok == self.mask_id]

    @property
    def fully_decoded(self) -> bool:
        return self.mask_id not in self.tokens

    def assign(self, position: int, token: int) -> None:
        """Commit a token at a still-masked position."""
        if self.tokens[position] != self.mask_id:
            raise ValueError(f"position {position} is already decoded")
        if token == self.mask_id:
            raise ValueError("cannot assign the mask token")
        self.tokens[position] = token


def token_array(tokens) -> np.ndarray:
    """Tokens as a new int64 array. A token that is not an integer (``1.5``)
    or does not fit in int64 (``2**70``) raises ValueError instead of being
    truncated or overflowing in the cast."""
    try:
        return np.array([operator.index(tok) for tok in tokens], dtype=np.int64)
    except TypeError as exc:
        raise ValueError(f"token is not an integer: {exc}") from None
    except OverflowError:
        raise ValueError("token does not fit in int64") from None


class RowTable:
    """Append-only table of checked categoricals: ``probs`` [R, V] over
    ``vocab``'s full id space with their ``confidence`` (max), ``entropy``
    (nats) and ``argmax`` [R], all read-only ``[:size]`` views of storage
    sized once for ``capacity`` rows. :meth:`add` checks a row once, when it
    enters, and derives its stats."""

    def __init__(self, capacity: int, vocab: Vocab):
        self.capacity, self.vocab, self.width = capacity, vocab, vocab.total_ids
        self.size = 0
        # A mapping of its own: pages are committed as rows are written, and
        # the empty tail holds no heap that short-lived objects would reuse.
        self._probs = np.frombuffer(mmap.mmap(-1, capacity * self.width * 8)).reshape(capacity, self.width)
        self._confidence = np.empty(capacity)
        self._entropy = np.empty(capacity)
        self._argmax = np.empty(capacity, dtype=np.int64)

    def _view(self, storage: np.ndarray) -> np.ndarray:
        view = storage[: self.size]
        view.flags.writeable = False
        return view

    probs = property(lambda self: self._view(self._probs))
    confidence = property(lambda self: self._view(self._confidence))
    entropy = property(lambda self: self._view(self._entropy))
    argmax = property(lambda self: self._view(self._argmax))

    def add(self, probs) -> int:
        """Check one [V] row, derive its stats and append it; returns its id.
        A row must sum to 1, be nonnegative and put no mass on mask or pad."""
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (self.width,):
            raise ValueError(f"need one row of width {self.width}, not shape {probs.shape}")
        if self.size == self.capacity:
            raise ValueError(f"row table is full ({self.capacity} rows)")
        total = float(probs.sum())
        if not abs(total - 1.0) <= PROB_SUM_TOL:  # a NaN sum fails too
            raise ValueError(f"probs sum to {total!r}, not 1")
        if probs.min() < 0.0:
            raise ValueError("probs must be nonnegative")
        if probs[self.vocab.mask_id] > 0.0 or probs[self.vocab.pad_id] > 0.0:
            raise ValueError("row puts mass on mask or pad")
        nz = probs[probs > 0.0]  # max and Shannon entropy (nats), summed in one fixed order
        confidence, entropy = float(probs.max()), float(max(0.0, -(nz * np.log(nz)).sum()))
        if confidence >= 1.0 - 1e-12 and entropy > 1e-9:
            raise ValueError("unit confidence requires zero entropy")
        row = self.size
        self._probs[row] = probs
        self._confidence[row], self._entropy[row] = confidence, entropy
        self._argmax[row] = probs.argmax()
        self.size += 1
        return row


@dataclass(frozen=True, eq=False)
class PositionPrediction:
    """Denoiser output for one forward pass: the masked ``positions`` [M]
    (strictly ascending) and the id ``row[i]`` of each one's distribution in
    ``table``, a read-only int64 [M] index; positions that share a
    distribution share an id. Rows are checked once, when they enter the
    table, so a pass checks only the shapes, the order and the ids. The
    per-position ``confidence`` and ``entropy`` [M] that selection reads are
    gathered once at construction. :meth:`from_probs` builds a fresh table
    with one row per position, its width ``size + 3`` for a ``Vocab(size)``."""

    positions: np.ndarray
    table: RowTable
    row: np.ndarray
    confidence: np.ndarray = field(init=False, repr=False)
    entropy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64).view()
        pos.flags.writeable = False  # the caller's own array stays writeable
        object.__setattr__(self, "positions", pos)
        table, row = self.table, self.row
        if not (isinstance(row, np.ndarray) and row.dtype == np.int64
                and row.ndim == 1 and not row.flags.writeable):
            raise ValueError("row must be a read-only int64 vector")
        if pos.size < 1 or pos.shape != row.shape:
            raise ValueError("need [M] positions and an [M] row index, M >= 1")
        ids = row.tolist()
        if min(ids) < 0 or max(ids) >= table.size:
            raise ValueError(f"row values must lie in [0, {table.size})")
        if (pos[1:] <= pos[:-1]).any():
            raise ValueError("positions must be strictly ascending")
        conf, ent = table._confidence[row], table._entropy[row]
        conf.flags.writeable = ent.flags.writeable = False
        object.__setattr__(self, "confidence", conf)
        object.__setattr__(self, "entropy", ent)

    @classmethod
    def from_probs(cls, positions, probs) -> "PositionPrediction":
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim != 2 or not len(arr):
            raise ValueError("need [M, V] probs, M >= 1")
        table = RowTable(len(arr), Vocab(arr.shape[1] - 3))
        for probs_row in arr:
            table.add(probs_row)
        row = np.arange(len(arr), dtype=np.int64)
        row.flags.writeable = False
        return cls(positions, table, row)


@dataclass(frozen=True)
class TccfConfig:
    """Two-stage schedule: coarse blocks while thinking, fine blocks after.

    The marker is the token sequence whose appearance ends stage 1; it is
    spliced out and replaced by ``transition`` before stage 2 begins.
    Stage 1 stops at ``stage1_max_tokens`` or the run's max_new_tokens,
    whichever is smaller; hitting that cap forces the transition without a marker.
    """

    b_think: int
    b_critic: int
    marker: tuple[int, ...]
    transition: tuple[int, ...]
    stage1_max_tokens: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "marker", tuple(self.marker))
        object.__setattr__(self, "transition", tuple(self.transition))


@dataclass(frozen=True)
class DecodingConfig:
    """Hyperparameters for one decoding run.

    Only the fields relevant to ``algorithm`` are consulted: ``steps`` for
    static, ``tau`` for dynamic, ``tau_h``/``tau_l`` for bacd, ``gamma``
    for entropy-bounded. ``validate_config`` reports what is missing or
    out of range without raising.
    """

    algorithm: Algorithm
    block_size: int = 16
    steps: int | None = None  # static: per-block step budget N
    tau: float | None = None  # dynamic threshold
    tau_h: float | None = None  # bacd upper clip
    tau_l: float | None = None  # bacd lower clip
    gamma: float | None = None  # entropy budget
    temperature: float = 0.0
    seed: int = 0
    max_new_tokens: int = 128
    tccf: TccfConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool) and math.isfinite(x)


def _in_unit(x) -> bool:
    return _is_real(x) and 0.0 < x <= 1.0


def validate_config(cfg: DecodingConfig) -> list[str]:
    """Collect every violation in ``cfg``; an empty list means valid.

    Never raises, whatever the field types: this is the one validation
    entry point that reports instead of aborting, so callers can surface
    all problems at once.
    """
    problems: list[str] = []
    if not _is_int(cfg.block_size) or cfg.block_size < 1:
        problems.append("block_size must be a positive integer")
    if not _is_int(cfg.max_new_tokens) or cfg.max_new_tokens < 1:
        problems.append("max_new_tokens must be a positive integer")
    if not _is_real(cfg.temperature) or cfg.temperature < 0.0:
        problems.append("temperature must be finite and nonnegative")
    if not _is_int(cfg.seed) or cfg.seed < 0:
        problems.append("seed must be a nonnegative integer")

    alg = cfg.algorithm
    if alg is Algorithm.STATIC:
        if cfg.steps is None:
            problems.append("steps is required for static decoding")
        elif not _is_int(cfg.steps) or cfg.steps < 1:
            problems.append("steps must be positive")
    elif alg is Algorithm.DYNAMIC:
        if cfg.tau is None:
            problems.append("tau is required for dynamic decoding")
        elif not _in_unit(cfg.tau):
            problems.append("tau must lie in (0, 1]")
    elif alg is Algorithm.BACD:
        if cfg.tau_h is None or cfg.tau_l is None:
            problems.append("tau_h and tau_l are required for bacd decoding")
        else:
            if not _in_unit(cfg.tau_h):
                problems.append("tau_h must lie in (0, 1]")
            if not _in_unit(cfg.tau_l):
                problems.append("tau_l must lie in (0, 1]")
            if _is_real(cfg.tau_h) and _is_real(cfg.tau_l) and cfg.tau_l > cfg.tau_h:
                problems.append("tau_l exceeds tau_h")
    elif alg is Algorithm.ENTROPY_BOUNDED:
        if cfg.gamma is None:
            problems.append("gamma is required for entropy-bounded decoding")
        elif not _is_real(cfg.gamma) or cfg.gamma < 0.0:
            problems.append("gamma must be finite and nonnegative")

    tc = cfg.tccf
    if tc is not None:
        if not _is_int(tc.b_think) or tc.b_think < 1:
            problems.append("tccf b_think must be a positive integer")
        if not _is_int(tc.b_critic) or tc.b_critic < 1:
            problems.append("tccf b_critic must be a positive integer")
        if not tc.marker:
            problems.append("tccf marker must be nonempty")
        if tc.stage1_max_tokens is not None and (not _is_int(tc.stage1_max_tokens) or tc.stage1_max_tokens < 1):
            problems.append("tccf stage1_max_tokens must be a positive integer")
        for name in ("marker", "transition"):
            try:
                token_array(getattr(tc, name))
            except ValueError as exc:
                problems.append(f"tccf {name}: {exc}")
    return problems


def lint_config(cfg: DecodingConfig) -> list[str]:
    """Non-fatal configuration smells, for CLI warnings."""
    notes: list[str] = []
    if cfg.tccf is not None and cfg.tccf.b_critic >= cfg.tccf.b_think:
        notes.append("b_critic is not smaller than b_think; staging has no effect")
    if cfg.algorithm is Algorithm.DYNAMIC and cfg.tau == 1.0:
        notes.append("tau == 1.0 never clears the threshold; every step decodes one token")
    return notes


@dataclass(frozen=True)
class StepRecord:
    """One forward pass of the block decoder.

    ``confidences`` aligns with ``unmasked_positions`` (ascending). When
    the threshold filtered out everything, the argmax fallback fires and
    the record holds exactly one position.
    """

    block_index: int
    step_index: int
    threshold_used: float | None
    unmasked_positions: tuple[int, ...]
    confidences: tuple[float, ...]
    fallback_fired: bool

    def __post_init__(self):
        object.__setattr__(self, "unmasked_positions", tuple(self.unmasked_positions))
        object.__setattr__(self, "confidences", tuple(self.confidences))
        if not self.unmasked_positions:
            raise ValueError("a step must unmask at least one position")
        if len(self.unmasked_positions) != len(self.confidences):
            raise ValueError("confidences must align with unmasked_positions")
        if self.fallback_fired and len(self.unmasked_positions) != 1:
            raise ValueError("fallback steps unmask exactly one position")


@dataclass(frozen=True)
class TccfTrace:
    """Stage accounting attached to two-stage runs."""

    stage1_passes: int
    stage2_passes: int
    splice_position: int | None  # committed offset where the marker was removed
    forced_splice: bool
    critic_ran = property(lambda self: self.stage2_passes > 0)


@dataclass(frozen=True)
class GenerationResult:
    """Completed generation: surviving tokens plus the full step log.

    ``output_tokens`` excludes the prompt. The decode-slot count (sum of
    ``len(r.unmasked_positions)``) can exceed ``len(output_tokens)`` when
    eos truncation or the length cap discarded tail tokens; throughput
    metrics count slots, since those forward passes really ran.
    """

    output_tokens: tuple[int, ...]
    steps: tuple[StepRecord, ...]
    stop_reason: StopReason
    tccf: TccfTrace | None = None
    forward_passes = property(lambda self: len(self.steps))

    def __post_init__(self):
        object.__setattr__(self, "output_tokens", tuple(self.output_tokens))
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def generated_slots(self) -> int:
        """Tokens decoded across all passes, discarded tails included."""
        return sum(len(r.unmasked_positions) for r in self.steps)
