"""Block-autoregressive generation loops.

:func:`generate` decodes fixed-size blocks left to right, committing each
finished block into the context for the next one, until eos or the length
cap. :func:`generate_tccf` runs the same loop in two stages: coarse
blocks until a marker sequence appears in the committed output, then a
splice that swaps the marker for a transition sequence, then fine blocks
to the end. Forward passes are pooled across stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    Algorithm,
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
    they are fully decoded. Also keeps the pooled step log and (optionally)
    the cross-block adaptive-threshold history.
    """

    denoiser: Denoiser
    prompt_len: int
    cfg: DecodingConfig
    rng: np.random.Generator
    buf: np.ndarray
    length: int
    records: list[StepRecord] = field(default_factory=list)
    blocks_emitted: int = 0
    bacd_carry: list[float] | None = None

    @classmethod
    def start(cls, denoiser: Denoiser, prompt, cfg: DecodingConfig) -> "GenerationSession":
        problems = validate_config(cfg)
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))
        prompt = token_array(prompt)
        buf = np.empty(len(prompt) + cfg.max_new_tokens + cfg.block_size, dtype=np.int64)
        buf[: len(prompt)] = prompt
        carry = [] if cfg.algorithm is Algorithm.BACD and cfg.bacd_cross_block_history else None
        return cls(denoiser=denoiser, prompt_len=len(prompt), cfg=cfg, rng=np.random.default_rng(cfg.seed),
                   buf=buf, length=len(prompt), bacd_carry=carry)

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
        history = tuple(self.bacd_carry) if self.bacd_carry is not None else ()
        block, recs = decode_block(self.denoiser, context, block_size, self.cfg, self.rng,
                                   block_index=self.blocks_emitted, bacd_history=history)
        if self.bacd_carry is not None:
            for rec in recs:
                self.bacd_carry.extend(rec.confidences)
        self.records.extend(recs)
        self.blocks_emitted += 1
        self.splice(len(self.committed), block.tokens)
        return block.tokens

    def result(self, stop: StopReason, tccf: TccfTrace | None = None) -> GenerationResult:
        return GenerationResult(prompt_len=self.prompt_len, output_tokens=tuple(self.committed.tolist()),
                                forward_passes=len(self.records), steps=tuple(self.records),
                                stop_reason=stop, tccf=tccf)


def _first_eos(tokens: list[int], eos_id: int) -> int | None:
    return tokens.index(eos_id) if eos_id in tokens else None


def _decode_to_end(session: GenerationSession, block_size: int) -> StopReason:
    """Decode blocks until eos (truncating after the first, inclusive) or
    until the committed length reaches ``max_new_tokens`` (trimming to it)."""
    cap = session.cfg.max_new_tokens
    while len(session.committed) < cap:
        start = len(session.committed)
        eos_at = _first_eos(session.decode_next(block_size), session.denoiser.vocab.eos_id)
        if eos_at is not None:
            session.splice(start + eos_at + 1)
            return StopReason.EOS
    session.splice(cap)
    return StopReason.MAX_LENGTH


def generate(denoiser: Denoiser, prompt, cfg: DecodingConfig) -> GenerationResult:
    """Decode blocks of ``cfg.block_size`` until eos or the length cap.

    A block containing eos ends the run: the output is truncated at the
    first eos, inclusive. Otherwise the run stops once the committed
    length reaches ``max_new_tokens`` and is trimmed to exactly that
    length (the final block may overshoot by up to block_size - 1).
    """
    session = GenerationSession.start(denoiser, prompt, cfg)
    return session.result(_decode_to_end(session, cfg.block_size))


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
    eos = denoiser.vocab.eos_id
    stage1_cap = tc.stage1_max_tokens if tc.stage1_max_tokens is not None else cfg.max_new_tokens

    forced = False
    while True:
        start = len(session.committed)
        tokens = session.decode_next(tc.b_think)
        # Windows ending before this block already missed the marker.
        marker_at = find_marker(session.committed, tc.marker, max(0, start - len(tc.marker) + 1))
        eos_at = _first_eos(tokens, eos)
        eos_abs = start + eos_at if eos_at is not None else None
        if marker_at is not None and (eos_abs is None or marker_at + len(tc.marker) <= eos_abs):
            splice_at = marker_at  # drop the marker and the tail decoded after it
            break
        if eos_abs is not None:
            session.splice(eos_abs + 1)
            trace = TccfTrace(
                stage1_passes=len(session.records),
                stage2_passes=0,
                splice_position=None,
                forced_splice=False,
                critic_ran=False,
            )
            return session.result(StopReason.EOS, trace)
        if len(session.committed) >= stage1_cap:
            splice_at = len(session.committed)
            forced = True
            break

    session.splice(splice_at, tc.transition)  # bridge into the critic stage
    stage1_passes = len(session.records)
    stop = _decode_to_end(session, tc.b_critic)
    stage2_passes = len(session.records) - stage1_passes
    trace = TccfTrace(
        stage1_passes=stage1_passes,
        stage2_passes=stage2_passes,
        splice_position=splice_at,
        forced_splice=forced,
        critic_ran=stage2_passes > 0,
    )
    return session.result(stop, trace)
