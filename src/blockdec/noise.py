"""Forward masking process and the masked-likelihood training bound.

The forward process masks each position independently with probability
``t`` (linear schedule: keep probability ``1 - t``). The estimator below
Monte-Carlo averages the per-``t`` reconstruction loss of a denoiser over
caller-supplied noise levels, block by block with clean left context.
"""

from __future__ import annotations

import numpy as np

from .core import Vocab, token_array
from .denoisers import predict


def forward_mask(tokens, vocab: Vocab, t: float, rng: np.random.Generator) -> list[int]:
    """A new list: each token of a clean block replaced by ``vocab.mask_id``
    independently with probability ``t``.

    Consumes exactly ``len(tokens)`` uniform draws in position order, so a
    seeded generator reproduces the same mask pattern bit for bit.
    ``t = 0`` masks nothing and ``t = 1`` masks everything; ``t`` outside
    ``[0, 1]`` raises ValueError.
    """
    mask_id = vocab.mask_id
    if mask_id in tokens:
        raise ValueError("forward_mask expects a fully clean block")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"noise level t={t!r} outside [0, 1]")
    flags = (rng.random(len(tokens)) < t).tolist()
    return [mask_id if f else tok for tok, f in zip(tokens, flags)]


def nelbo_estimate(
    denoiser,
    prompt,
    response,
    block_size: int,
    t_samples,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of the masked reconstruction bound.

    For each noise level ``t`` one mask is drawn over the whole padded
    response. Then, block by block, the denoiser predicts the block's masked
    positions given the clean prompt and the clean preceding blocks (through
    the contract wrapper :func:`predict`), and the negative log probability
    of the true tokens, read with one ``RowTable.at`` gather per block, is
    summed and scaled by ``1/t``. The returned value is the mean over ``t_samples``.

    Parameters
    ----------
    denoiser : object with ``vocab`` and ``predict(context, block)``
    prompt : sequence of conditioning tokens (may be empty)
    response : sequence of response tokens; padded with ``pad_id`` up to
        a multiple of ``block_size``. Pad positions are never masked and
        never contribute loss. A token of either that is not an integer or
        does not fit in int64 raises ValueError, as does a prompt token
        outside ``[0, vocab.size)`` or a response token that is not
        ordinary, eos or pad.
    t_samples : iterable of noise levels in (0, 1]; the caller owns the
        sampling strategy (uniform on (0, 1] is the usual choice).
    rng : generator driving the mask draws: one uniform per padded-response
        token per noise level, in position order, levels in the given
        order. Pads are drawn for but never masked. Losses are summed in
        position order, so the same generator state gives the same bits.

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

    mask_id, pad_id = vocab.mask_id, vocab.pad_id
    pad = (-len(response)) % block_size
    # Each block's context is an O(1) read-only view of a prefix of this.
    full = token_array(prompt + response + [pad_id] * pad)
    full.flags.writeable = False
    head, tail = full[: len(prompt)], full[len(prompt) :]
    if len(head) and (head.min() < 0 or head.max() >= vocab.size):
        raise ValueError(f"prompt token outside the ordinary range [0, {vocab.size})")
    if tail.min() < 0 or tail.max() > pad_id or mask_id in tail:
        raise ValueError("response token is not ordinary, eos or pad")
    padded = tail.tolist()
    pads = [i for i, tok in enumerate(padded) if tok == pad_id]

    estimates = []
    with np.errstate(divide="ignore"):
        for t in t_samples:
            noised = forward_mask(padded, vocab, t, rng)
            for i in pads:  # drawn for, never masked
                noised[i] = pad_id
            total = 0.0
            for k in range(0, len(padded), block_size):
                block = noised[k : k + block_size]
                if mask_id not in block:
                    continue
                preds = predict(denoiser, full[: len(prompt) + k], block)
                truths = [padded[k + i] for i in preds.positions]
                for v in np.log(preds.table.at(preds.row, truths)).tolist():
                    total -= v
            estimates.append(total / t)
    return float(np.mean(estimates))
