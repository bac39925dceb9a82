"""Core types shared by the decoding engine.

Everything here is plain data: vocabularies, per-pass prediction records,
decoding configuration, and the step/result records emitted by the
generation loop. The one mutable type is the append-only :class:`RowTable`
that prediction records index into. A block being decoded is a plain token
list in which a position is masked exactly when it holds ``vocab.mask_id``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Tolerance used by prediction self-checks.
PROB_SUM_TOL = 1e-9


class ConfigError(ValueError):
    """An input is unusable: a decoding config, a prompt or TCCF token, an
    experiment file, a corpus or a model file. The CLI ends it in exit 1."""


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

    size: int  # number of ordinary tokens, in [2, MAX_VOCAB_SIZE]

    def __post_init__(self):
        try:  # an int, a numpy integer stored as int; not a float or a string
            object.__setattr__(self, "size", operator.index(self.size))
        except TypeError:
            raise ValueError(f"vocab size {clipped(repr(self.size))} is not an integer") from None
        if self.size < 2:
            raise ValueError(f"vocab size {self.size}: a vocab needs at least 2 ordinary tokens")
        if self.size > MAX_VOCAB_SIZE:
            raise ValueError(f"vocab size {self.size} is too large: one row of it exceeds "
                             f"the {ROW_TABLE_BYTES}-byte row table (at most {MAX_VOCAB_SIZE})")

    mask_id = property(lambda self: self.size)
    eos_id = property(lambda self: self.size + 1)
    pad_id = property(lambda self: self.size + 2)
    total_ids = property(lambda self: self.size + 3)


def clipped(text: str, size: str = "") -> str:
    """``text``, or past 24 characters its first 12 and ``size`` (its length by
    default): how an error line shows a value it did not accept."""
    return text if len(text) <= 24 else f"{text[:12]}… ({size or f'{len(text)} characters'})"


def parsed(cast, field: str):
    """``cast(field)``; the ValueError for a field it refuses (``int()`` and
    ``float()`` echo it) shows the field clipped."""
    try:
        return cast(field)
    except ValueError as exc:
        raise ValueError(str(exc).replace(repr(field), clipped(repr(field)))) from None


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


# A row table's byte budget: its rows, their stats, its sampling indexes and keys (the one bound on a table).
ROW_TABLE_BYTES = 128 << 20
# The widest vocab whose one float64 row over all its ids fits a row table's bytes.
MAX_VOCAB_SIZE = ROW_TABLE_BYTES // 8 - 3
# Bytes of one value kept in a row's dict: its hash-table slot, int key and float (75-105 B by tracemalloc).
ENTRY_BYTES = 100
# Columns per chunk of a row's sampling CDF: a draw recomputes one chunk.
CDF_CHUNK = 64


class RowTable:
    """Append-only table of checked categoricals over ``vocab``'s full id
    space, and each row's ``confidence`` (max), ``entropy`` (nats) and
    ``argmax``, Python lists of ``size`` floats, floats and ints. :meth:`add`
    checks a dense [V] row once, when it enters, and derives its stats from it;
    :meth:`draw` realizes committed tokens from the rows.

    A row is stored as its base, the minimum over its ordinary columns, plus
    a dict of the columns whose value differs from it in any bit: a Markov
    row is one smoothing value but for its successors and the special ids.
    When that dict would take as many bytes as the dense row (``ENTRY_BYTES``
    a value and one more for the dict and the base, against 8 a column), the
    row is stored dense instead. ``nbytes`` charges a row the form it took plus
    ``ENTRY_BYTES`` for its stats (a compact row's ``+ 1``), and a sampling index
    its arrays' bytes; :meth:`with_room` checks it, and ``ENTRY_BYTES`` a key in
    ``ids``, against the table's one bound. :meth:`row` and :meth:`at` read the
    rows back, each value with the bits it had."""

    def __init__(self, vocab: Vocab):
        self.vocab, self.width = vocab, vocab.total_ids
        self.size = self.nbytes = 0
        self.confidence, self.entropy, self.argmax = [], [], []  # one entry per row, appended by add
        # one entry per row: the base and the dict of differing columns, or None and the dense row
        self._base: list[float | None] = []
        self._diff: list[dict[int, float] | np.ndarray] = []
        self.ids: dict = {}  # the owning backend's key (a context, a spike) -> row id
        # temperature -> row id -> the row's sampling chunk index, built at its first draw
        self._index: dict[float, dict[int, tuple]] = {}

    def with_room(self) -> RowTable:
        """This table while its charged bytes, ``nbytes`` and ``ENTRY_BYTES`` a key in
        ``ids``, are within the budget, else a new, empty one. Run before each pass: no
        record spans two tables, and a table ends a pass at most that pass over the budget."""
        return self if self.nbytes + ENTRY_BYTES * len(self.ids) <= ROW_TABLE_BYTES else RowTable(self.vocab)

    def draw(self, rows, temperature: float, rng: np.random.Generator) -> list[int]:
        """One token from each of ``rows`` (row ids, in ascending position order):
        the stored argmax at temperature zero; else, for each uniform of one
        ``rng.random(len(rows))``, the first column whose normalized CDF value
        exceeds it, the tokens and generator state of one ``rng.choice`` per row.
        A draw reads the row's chunk index, built at its first draw at
        ``temperature``, with every compared value in the full CDF's bits."""
        if temperature == 0.0:
            argmax = self.argmax
            return [argmax[r] for r in rows]
        index = self._index.setdefault(temperature, {})
        tokens = []
        for r, u in zip(rows, rng.random(len(rows)).tolist()):
            last, starts, ends, cdfs, plain = index.get(r) or self._chunk_index(r, temperature)
            k = int(ends.searchsorted(u, "right"))  # the first chunk whose normalized end exceeds u
            cdf = cdfs.get(k)
            if cdf is None:  # summed from the chunk's start as the full CDF sums it
                cdf = np.full(min(CDF_CHUNK, self.width - k * CDF_CHUNK), plain)
                cdf[0] += starts[k]
                cdf = cdf.cumsum()
                cdf /= last
            tokens.append(k * CDF_CHUNK + int(cdf.searchsorted(u, "right")))
        return tokens

    def _chunk_index(self, r: int, temperature: float) -> tuple:
        """Build, charge and keep row ``r``'s sampling CDF at ``temperature``,
        ``Generator.choice``'s ``cdf = p.cumsum(); cdf /= cdf[-1]`` on ``p = w / w.sum()``.
        ``w`` is the row at T = 1, else the row tempered in log space with the
        max log subtracted: the max weighs exactly 1, a zero column or an
        overflowing quotient 0. Kept: the last raw value, the raw value before each
        ``CDF_CHUNK``-column chunk, the full chunks' normalized ends, the
        normalized CDF of each chunk holding a column that differs from the
        base, and ``plain``, the normalized weight of a base column, which is
        every column of the other chunks (~1 KB and a few 512-byte chunks for
        a 4,099-wide Markov row)."""
        w = self.row(r)
        if temperature != 1.0:
            with np.errstate(divide="ignore", over="ignore"):
                lw = np.log(w)
                w = np.exp((lw - lw.max()) / temperature)
        p = w / w.sum()
        cdf = p.cumsum()
        last = cdf[-1]
        raw_ends = cdf[CDF_CHUNK - 1 :: CDF_CHUNK]
        differing = range(self.width) if self._base[r] is None else self._diff[r]
        cdfs = {k: cdf[k * CDF_CHUNK : (k + 1) * CDF_CHUNK] / last for k in {c // CDF_CHUNK for c in differing}}
        plain = next((p[lo] for lo in range(0, self.width, CDF_CHUNK) if lo // CDF_CHUNK not in cdfs), None)
        starts, ends = np.concatenate(([0.0], raw_ends)), raw_ends / last
        self.nbytes += starts.nbytes + ends.nbytes + sum(chunk.nbytes for chunk in cdfs.values())
        entry = self._index.setdefault(temperature, {})[r] = (last, starts, ends, cdfs, plain)
        return entry

    def row(self, r: int) -> np.ndarray:
        """A new dense [V] copy of row ``r``."""
        base, diff = self._base[r], self._diff[r]
        if base is None:
            return diff.copy()
        out = np.full(self.width, base)
        out[list(diff)] = list(diff.values())
        return out

    def at(self, rows, cols) -> np.ndarray:
        """``row(r)[c]`` for each pair of ``rows`` and ``cols``, as float64."""
        base, diff = self._base, self._diff
        return np.array([diff[r][c] if base[r] is None else diff[r].get(c, base[r])
                         for r, c in zip(rows, cols)], dtype=np.float64)

    def add(self, probs) -> int:
        """Check one [V] row, derive its stats and append it; returns its id.
        A row must sum to 1, be nonnegative and put no mass on mask or pad."""
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (self.width,):
            raise ValueError(f"need one row of width {self.width}, not shape {probs.shape}")
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
        base = probs[: self.vocab.size].min()
        cols = np.flatnonzero(probs.view(np.int64) != base.view(np.int64))
        if ENTRY_BYTES * (len(cols) + 1) < probs.nbytes:
            self._base.append(float(base))
            self._diff.append(dict(zip(cols.tolist(), probs[cols].tolist())))
            self.nbytes += ENTRY_BYTES * (len(cols) + 1)
        else:
            self._base.append(None)
            self._diff.append(probs.copy())
            self.nbytes += probs.nbytes + ENTRY_BYTES
        self.confidence.append(confidence)
        self.entropy.append(entropy)
        self.argmax.append(int(probs.argmax()))
        self.size += 1
        return self.size - 1


@dataclass(frozen=True, eq=False)
class PositionPrediction:
    """Denoiser output for one forward pass: the masked ``positions``
    (strictly ascending) and the id ``row[i]`` of each one's distribution in
    ``table``, both tuples of M >= 1 Python ints; positions that share a
    distribution share an id: a backend adds each distinct distribution to
    its one table once and builds its records from the ids it got back. Rows are
    checked as they enter the table, so a pass checks only the lengths, the
    order and the ids. The ``confidence`` and ``entropy`` tuples that
    selection reads are gathered from the table's stats at construction.
    :meth:`from_probs`, for reference records in tests, builds a fresh table
    with one row per position."""

    positions: tuple[int, ...]
    table: RowTable
    row: tuple[int, ...]
    confidence: tuple[float, ...] = field(init=False, repr=False)
    entropy: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        table = self.table
        pos, row = tuple(map(operator.index, self.positions)), tuple(map(operator.index, self.row))
        if not pos or len(pos) != len(row):
            raise ValueError("need M positions and M row ids, M >= 1")
        if min(row) < 0 or max(row) >= table.size:
            raise ValueError(f"row values must lie in [0, {table.size})")
        if not all(map(operator.lt, pos, pos[1:])):
            raise ValueError("positions must be strictly ascending")
        conf, ent = table.confidence, table.entropy
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "confidence", tuple([conf[r] for r in row]))
        object.__setattr__(self, "entropy", tuple([ent[r] for r in row]))

    @classmethod
    def from_probs(cls, positions, probs) -> "PositionPrediction":
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim != 2 or not len(arr):
            raise ValueError("need [M, V] probs, M >= 1")
        table = RowTable(Vocab(arr.shape[1] - 3))
        return cls(positions, table, [table.add(probs_row) for probs_row in arr])


@dataclass(frozen=True)
class TccfConfig:
    """Two-stage schedule: coarse blocks while thinking, fine blocks after.

    The marker is the token sequence whose appearance ends stage 1; it is
    spliced out and replaced by ``transition`` before stage 2 begins.
    Stage 1 ends at the first block boundary at or past ``stage1_max_tokens``
    or the run's max_new_tokens, whichever is smaller, and a forced transition
    (no marker by then) lands there: ``splice_position`` can exceed the cap and
    the output length. An eos inside max_new_tokens ends either stage.
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
    """Hyperparameters for one decoding run; valid by construction.

    Only the fields relevant to ``algorithm`` are consulted: ``steps`` for
    static, ``tau`` for dynamic, ``tau_h``/``tau_l`` for bacd, ``gamma``
    for entropy-bounded. Construction (``dataclasses.replace`` included)
    raises one :class:`ConfigError` listing every problem
    :func:`validate_config` finds, so a config that exists is valid and
    nothing downstream checks it again.
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
        try:
            object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        except ValueError as exc:
            raise ConfigError(f"invalid config: {exc}") from None
        problems = validate_config(self)
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool) and math.isfinite(x)


def _in_unit(x) -> bool:
    return _is_real(x) and 0.0 < x <= 1.0


def validate_config(cfg: DecodingConfig) -> list[str]:
    """Collect every violation in ``cfg``; an empty list means valid.

    Never raises, whatever the field types, so that
    ``DecodingConfig.__post_init__``, its one caller in the package, can
    report all problems at once. A constructed config always gives ``[]``.
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
