"""Block-autoregressive generation loops.

:func:`generate` decodes fixed-size blocks left to right, committing each
finished block into the context for the next one, until eos or the length
cap. :func:`generate_tccf` runs the same loop in two stages: coarse
blocks until a marker sequence appears in the committed output, then a
splice that swaps the marker for a transition sequence, then fine blocks
to the end. Both are calls of one block loop, :func:`_decode`. Forward
passes are pooled across stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DecodingConfig,
    GenerationResult,
    StepRecord,
    StopReason,
    TccfTrace,
    token_array,
    validate_config,
)
from .denoisers import Denoiser
from .sampling import decode_block

__all__ = ["GenerationSession", "find_marker", "generate", "generate_tccf"]


def find_marker(tokens: Sequence[int], marker: Sequence[int], start: int = 0) -> int | None:
    """Index of the leftmost occurrence of ``marker`` in ``tokens`` that
    begins at or after ``start``."""
    marker = list(marker)
    if not marker:
        raise ValueError("marker must be nonempty")
    window = list(tokens[start:])
    span = len(marker)
    for i in range(len(window) - span + 1):
        if window[i : i + span] == marker:
            return start + i
    return None


@dataclass
class GenerationSession:
    """Mutable state threaded through one generation.

    Prompt + committed tokens live in one int64 buffer, ``buf[:length]``,
    sized from the config and grown geometrically if a run outgrows it;
    eos truncation and the TCCF splice are :meth:`splice` calls on it. The
    committed tokens never contain mask tokens: blocks land here only after
    they are fully decoded. Also keeps the pooled step log.
    """

    denoiser: Denoiser
    prompt_len: int
    cfg: DecodingConfig
    rng: np.random.Generator
    buf: np.ndarray
    length: int
    records: list[StepRecord] = field(default_factory=list)
    blocks_emitted: int = 0

    @classmethod
    def start(cls, denoiser: Denoiser, prompt, cfg: DecodingConfig) -> "GenerationSession":
        problems = validate_config(cfg)
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))
        prompt = token_array(prompt)
        buf = np.empty(len(prompt) + cfg.max_new_tokens + cfg.block_size, dtype=np.int64)
        buf[: len(prompt)] = prompt
        return cls(denoiser=denoiser, prompt_len=len(prompt), cfg=cfg, rng=np.random.default_rng(cfg.seed),
                   buf=buf, length=len(prompt))

    @property
    def committed(self) -> np.ndarray:
        return self.buf[self.prompt_len : self.length]

    def splice(self, at: int, tokens: Sequence[int] = ()) -> None:
        """Keep the first ``at`` committed tokens, then append ``tokens``."""
        start = min(self.length, self.prompt_len + at)
        self.length = start + len(tokens)
        if self.length > len(self.buf):
            self.buf = np.resize(self.buf, 2 * self.length)
        self.buf[start : self.length] = tokens

    def decode_next(self, block_size: int) -> list[int]:
        """Decode one block against the current context and commit it."""
        context = self.buf[: self.length]
        context.flags.writeable = False  # the view only; the buffer stays writeable
        block, recs = decode_block(self.denoiser, context, block_size, self.cfg, self.rng,
                                   block_index=self.blocks_emitted)
        self.records.extend(recs)
        self.blocks_emitted += 1
        self.splice(len(self.committed), block.tokens)
        return block.tokens

    def result(self, stop: StopReason, tccf: TccfTrace | None = None) -> GenerationResult:
        """The run so far, trimmed to ``max_new_tokens``."""
        self.splice(self.cfg.max_new_tokens)
        return GenerationResult(output_tokens=tuple(self.committed.tolist()),
                                steps=tuple(self.records), stop_reason=stop, tccf=tccf)


def _decode(session: GenerationSession, block_size: int, cap: int,
            marker: Sequence[int] = ()) -> tuple[StopReason | None, int | None]:
    """Decode blocks of ``block_size`` until one of three things happens:

    * an eos lands inside the output budget (committed offset below
      ``max_new_tokens``): truncate after the first one, return ``(EOS, None)``;
    * ``marker`` completes before any such eos (occurrences spanning block
      boundaries included): return ``(None, offset of the marker)``;
    * the committed length reaches ``cap``: return ``(MAX_LENGTH, None)``.

    An eos at or past ``max_new_tokens`` would be cut by the final trim, so
    it does not end the run.
    """
    budget = session.cfg.max_new_tokens
    eos = session.denoiser.vocab.eos_id
    while len(session.committed) < cap:
        start = len(session.committed)
        tokens = session.decode_next(block_size)
        eos_at = start + tokens.index(eos) if eos in tokens else budget  # >= budget: no eos
        if marker:
            # Windows ending before this block already missed the marker.
            marker_at = find_marker(session.committed, marker, max(0, start - len(marker) + 1))
            if marker_at is not None and (eos_at >= budget or marker_at + len(marker) <= eos_at):
                return None, marker_at
        if eos_at < budget:
            session.splice(eos_at + 1)
            return StopReason.EOS, None
    return StopReason.MAX_LENGTH, None


def generate(denoiser: Denoiser, prompt, cfg: DecodingConfig) -> GenerationResult:
    """Decode blocks of ``cfg.block_size`` until eos or the length cap.

    An eos within the first ``max_new_tokens`` output slots ends the run:
    the output is truncated at the first eos, inclusive. Otherwise the run
    stops once the committed length reaches ``max_new_tokens``. Either way
    the output never exceeds ``max_new_tokens`` (the final block may
    overshoot internally by up to block_size - 1 slots). Set ``cfg.tccf``
    only for :func:`generate_tccf`: here it raises ValueError.
    """
    if cfg.tccf is not None:
        raise ValueError("cfg.tccf is set: use generate_tccf for two-stage runs")
    session = GenerationSession.start(denoiser, prompt, cfg)
    stop, _ = _decode(session, cfg.block_size, cfg.max_new_tokens)
    return session.result(stop)


def generate_tccf(denoiser: Denoiser, prompt, cfg: DecodingConfig) -> GenerationResult:
    """Two-stage generation: think coarse, then critique fine.

    Stage 1 decodes blocks of ``b_think`` and searches the committed
    output after each block for the marker sequence (occurrences spanning
    block boundaries included). On a hit, the marker and everything after
    it are replaced by the transition sequence and stage 2 takes over with
    blocks of ``b_critic`` until eos or ``max_new_tokens``. Hitting the
    stage-1 cap without a marker forces the transition splice instead. An
    eos that lands before any marker ends the run single-stage, with the
    trace noting that the critic stage never ran.

    Length budgets compare the committed length including spliced-in
    transition tokens, so a degenerate config whose marker equals its
    transition reproduces the plain loop exactly.
    """
    tc = cfg.tccf
    if tc is None:
        raise ValueError("generate_tccf requires cfg.tccf")
    session = GenerationSession.start(denoiser, prompt, cfg)
    stage1_cap = min(tc.stage1_max_tokens or cfg.max_new_tokens, cfg.max_new_tokens)
    stop, splice_at = _decode(session, tc.b_think, stage1_cap, tc.marker)
    stage1_passes = len(session.records)
    if stop is StopReason.EOS:
        return session.result(stop, TccfTrace(stage1_passes, 0, None, False))
    forced = splice_at is None
    splice_at = len(session.committed) if forced else splice_at
    session.splice(splice_at, tc.transition)  # bridge into the critic stage
    stop, _ = _decode(session, tc.b_critic, cfg.max_new_tokens)
    trace = TccfTrace(stage1_passes=stage1_passes, stage2_passes=len(session.records) - stage1_passes,
                      splice_position=splice_at, forced_splice=forced)
    return session.result(stop, trace)
