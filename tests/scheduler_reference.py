"""Reference for the block scheduler: plain and two-stage generation as one
plain-Python loop over a list of committed tokens.

It decodes each block with ``decode_block`` (the layer under the scheduler,
which has its own references), counts the blocks itself, and after every
block scans the whole output from the start: for the first eos, for the
leftmost marker. No buffer, no view, no incremental search. It returns what
:class:`GenerationResult` holds, as plain values.
"""

from __future__ import annotations

import numpy as np

from blockdec.core import StopReason, TccfTrace
from blockdec.sampling import decode_block


def first_match(tokens: list[int], marker: tuple[int, ...]) -> int | None:
    for i in range(len(tokens) - len(marker) + 1):
        if tuple(tokens[i : i + len(marker)]) == marker:
            return i
    return None


def reference_run(denoiser, prompt, cfg):
    """``(output tokens, records, stop reason, trace)`` of one run:
    ``generate`` when ``cfg.tccf`` is None, ``generate_tccf`` otherwise."""
    prompt = [int(t) for t in prompt]
    rng = np.random.default_rng(cfg.seed)
    eos, budget = denoiser.vocab.eos_id, cfg.max_new_tokens
    out: list[int] = []
    records: list = []
    blocks = 0

    def stage(block_size: int, cap: int, marker: tuple[int, ...]):
        # Blocks until an eos inside the budget, the marker or the cap.
        nonlocal blocks
        while len(out) < cap:
            block, recs = decode_block(denoiser, prompt + out, block_size, cfg, rng, block_index=blocks)
            blocks += 1
            records.extend(recs)
            out.extend(block)
            eos_at = next((i for i, tok in enumerate(out) if tok == eos and i < budget), None)
            marker_at = first_match(out, marker) if marker else None
            if marker_at is not None and (eos_at is None or marker_at + len(marker) <= eos_at):
                return None, marker_at
            if eos_at is not None:
                del out[eos_at + 1 :]
                return StopReason.EOS, None
        return StopReason.MAX_LENGTH, None

    tc = cfg.tccf
    if tc is None:
        stop, _ = stage(cfg.block_size, budget, ())
        return tuple(out[:budget]), tuple(records), stop, None
    cap = budget if tc.stage1_max_tokens is None else min(tc.stage1_max_tokens, budget)
    stop, marker_at = stage(tc.b_think, cap, tc.marker)
    stage1_passes = len(records)
    if stop is StopReason.EOS:
        return tuple(out[:budget]), tuple(records), stop, TccfTrace(stage1_passes, 0, None, False)
    forced = marker_at is None
    splice_at = len(out) if forced else marker_at
    out[splice_at:] = tc.transition
    stop, _ = stage(tc.b_critic, budget, ())
    trace = TccfTrace(stage1_passes, len(records) - stage1_passes, splice_at, forced)
    return tuple(out[:budget]), tuple(records), stop, trace
