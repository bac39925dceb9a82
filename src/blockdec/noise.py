"""Forward masking process and the masked-likelihood training bound.

The forward process masks each position independently with probability
``t`` (linear schedule: keep probability ``1 - t``). The estimator below
Monte-Carlo averages the per-``t`` reconstruction loss of a denoiser over
caller-supplied noise levels, block by block with clean left context.
"""

from __future__ import annotations

import numpy as np

from .core import BlockState, Vocab, token_array
from .denoisers import predict

__all__ = ["forward_mask", "nelbo_estimate"]


def forward_mask(block: BlockState, t: float, rng: np.random.Generator) -> BlockState:
    """Mask each position of a clean block independently with probability ``t``.

    Consumes exactly ``len(block)`` uniform draws in position order, so a
    seeded generator reproduces the same mask pattern bit for bit.
    ``t = 0`` masks nothing and ``t = 1`` masks everything; ``t`` outside
    ``[0, 1]`` raises ValueError.
    """
    if block.masked_positions():
        raise ValueError("forward_mask expects a fully clean block")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"noise level t={t!r} outside [0, 1]")
    flags = (rng.random(len(block)) < t).tolist()
    tokens = [block.mask_id if f else tok for tok, f in zip(block.tokens, flags)]
    return BlockState(tokens, block.mask_id)


def nelbo_estimate(
    denoiser,
    prompt,
    response,
    block_size: int,
    t_samples,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of the masked reconstruction bound.

    For each noise level ``t`` the response blocks are independently
    masked, the denoiser predicts every masked position given the clean
    prompt and the clean preceding blocks (through the contract wrapper
    :func:`predict`), and the negative log
    probability of the true tokens is summed and scaled by ``1/t``. The
    returned value is the mean over ``t_samples``.

    Parameters
    ----------
    denoiser : object with ``vocab`` and ``predict(context, block)``
    prompt : sequence of conditioning tokens (may be empty)
    response : sequence of response tokens; padded with ``pad_id`` up to
        a multiple of ``block_size``. Pad positions are never masked and
        never contribute loss. A token of either that is not an integer or
        does not fit in int64 raises ValueError.
    t_samples : iterable of noise levels in (0, 1]; the caller owns the
        sampling strategy (uniform on (0, 1] is the usual choice).
    rng : generator driving the mask draws, consumed in block order.

    Returns
    -------
    float
        Mean scaled reconstruction loss; 0 when every prediction puts
        probability one on the truth, ``inf`` if any true token ever
        receives zero mass.
    """
    vocab: Vocab = denoiser.vocab
    prompt, response = list(prompt), list(response)
    if not response:
        raise ValueError("response must be nonempty")
    t_samples = [float(t) for t in t_samples]
    if not t_samples:
        raise ValueError("t_samples must be nonempty")
    for t in t_samples:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"noise level t={t!r} outside (0, 1]")
    if block_size < 1:
        raise ValueError("block_size must be positive")

    pad = (-len(response)) % block_size
    # Each block's context is an O(1) read-only view of a prefix of this.
    full = token_array(prompt + response + [vocab.pad_id] * pad)
    full.flags.writeable = False
    padded = full[len(prompt) :].tolist()
    blocks = [padded[i : i + block_size] for i in range(0, len(padded), block_size)]

    estimates = []
    with np.errstate(divide="ignore"):
        for t in t_samples:
            total = 0.0
            for k, truth in enumerate(blocks):
                noised = forward_mask(BlockState(truth, vocab.mask_id), t, rng)
                # Pads stay clean regardless of the draw.
                for i, tok in enumerate(truth):
                    if tok == vocab.pad_id and noised.tokens[i] == vocab.mask_id:
                        noised.assign(i, tok)
                masked = noised.masked_positions()
                if not masked:
                    continue
                context = full[: len(prompt) + k * block_size]
                preds = predict(denoiser, context, noised)
                probs = preds.table.probs
                for r, i in zip(preds.row.tolist(), masked):
                    total += -float(np.log(probs[r, truth[i]]))
            estimates.append(total / t)
    return float(np.mean(estimates))
