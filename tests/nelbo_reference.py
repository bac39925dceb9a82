"""Reference for ``noise.nelbo_estimate``: the per-block loop it ran before it
drew one mask per noise level over the whole padded response and took one
array ``np.log`` per block. Kept verbatim as the differential oracle: one
``forward_mask`` call per block, the pads restored per block, and one scalar
``np.log`` per masked position, summed in position order.
"""

from __future__ import annotations

import numpy as np

from blockdec.core import Vocab, token_array
from blockdec.denoisers import predict
from blockdec.noise import forward_mask

from conftest import table_probs


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
        does not fit in int64 raises ValueError, as does a prompt token
        outside ``[0, vocab.size)`` or a response token that is not
        ordinary, eos or pad.
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
    blocks = [padded[i : i + block_size] for i in range(0, len(padded), block_size)]

    estimates = []
    with np.errstate(divide="ignore"):
        for t in t_samples:
            total = 0.0
            for k, truth in enumerate(blocks):
                noised = forward_mask(truth, vocab, t, rng)
                # Pads stay clean regardless of the draw.
                noised = [pad_id if tok == pad_id else n for tok, n in zip(truth, noised)]
                masked = [i for i, tok in enumerate(noised) if tok == mask_id]
                if not masked:
                    continue
                context = full[: len(prompt) + k * block_size]
                preds = predict(denoiser, context, noised)
                probs = table_probs(preds.table)
                for r, i in zip(preds.row, masked):
                    total += -float(np.log(probs[r, truth[i]]))
            estimates.append(total / t)
    return float(np.mean(estimates))
