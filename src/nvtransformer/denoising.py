"""Denoising multi-head attention over a projected posterior.

Evaluation path: queries are denoised against the (n+1)-component diagonal
Gaussian mixture in closed form.  Scores are the full component
log-densities of the corrupted query, so the path agrees with the slow
mixture oracle to rounding error even when component variances differ
(the prior's variance always does).  For components sharing one variance the
query-norm and normaliser terms are constant across keys and the weights
reduce to softmax(U mu^T / scale + pseudo-count bias), which is how the
identity initialisation reproduces standard attention.

Training path: one Monte-Carlo draw, mixture weights from a Dirichlet over
pseudo-counts and component vectors from their Gaussians; attention then
runs on the sampled impulses with the sampled log-weights as key biases.

Masks address the n token components only; the prior component is always
visible (it acts as the start-of-sequence anchor in the causal case).  A
callback can receive the head-averaged (m, n+1) weight matrix, whose last
column belongs to the prior.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .attention import (
    NO_MASK,
    AttentionMask,
    AttentionParams,
    _mask_bias,
    attend_heads,
    merge_heads,
    split_heads,
)
from .nvib import DpPosterior, NvibProjection, project
from .numeric import as_matrix, sample_dirichlet, sample_gaussian, softmax_rows

__all__ = [
    "eval_dattn_multihead",
    "train_dattn_multihead",
    "nv_self_attention",
    "nv_causal_attention",
]

MapSink = Callable[[np.ndarray], None] | None


def _component_mask_bias(
    mask: AttentionMask, m: int, n_tokens: int
) -> np.ndarray:
    """Additive (m, n_tokens+1) bias; the prior column is always 0.

    A custom mask may cover just the tokens (m, n) or all components
    (m, n+1); in the wide form the prior column must be fully visible.
    """
    if mask.kind == "custom" and mask.custom.shape == (m, n_tokens + 1):
        visible = mask.custom.astype(bool)
        if not np.all(visible[:, -1]):
            raise ValueError("the prior component must never be masked")
    else:
        visible = np.ones((m, n_tokens + 1), dtype=bool)
        visible[:, :-1] = mask.visible(m, n_tokens)
    return _mask_bias(visible)


def eval_dattn_multihead(
    queries_pre: np.ndarray,
    dp: DpPosterior,
    params: AttentionParams,
    mask: AttentionMask = NO_MASK,
    map_sink: MapSink = None,
) -> np.ndarray:
    """Closed-form denoising attention of m queries over n+1 components.

    Per head i, with U_i = Q_i (W^K_i)^T projected back to width d and
    sigma_r^2 = sqrt(d/h) + sigma^2 the corrupted-query variances:

      scores = U_i (mu/sigma_r^2)^T - 0.5 (U_i*U_i) (1/sigma_r^2)^T
               + Q_i b^K_i / sqrt(d/h)
               + log alpha - 0.5 ||mu/sigma_r||^2 - sum log sigma_r

    (the Q_i b^K_i term is constant per query and cancels in the softmax;
    it is kept for parity with the standard path).  The pseudo-count
    normaliser log alpha_0 is deliberately NOT subtracted: softmax removes
    any per-query constant exactly, and subtracting a total over all
    components would let causally-hidden tokens perturb visible rows at the
    last bit.  The output interpolates between the queries and the component
    means by sigma^2/sigma_r^2 before the value projection.
    """
    queries_pre = as_matrix(queries_pre)
    d = params.model_dim
    if queries_pre.shape[1] != d or dp.dim != d:
        raise ValueError("query/component width must equal model_dim")
    m = queries_pre.shape[0]
    bias = _component_mask_bias(mask, m, dp.n_tokens)
    h = params.heads
    scale = np.sqrt(params.head_dim)

    sig2 = dp.sigma * dp.sigma                      # (n+1, d)
    var_r = scale + sig2                            # corrupted-query variances
    inv_var = 1.0 / var_r
    # per-component key bias: pseudo-count weight + Gaussian normalisation
    # (the alpha_0 shift is constant per query and left to the softmax)
    c = (
        dp.log_alpha
        - 0.5 * np.sum(dp.mu * dp.mu * inv_var, axis=1)
        - 0.5 * np.sum(np.log(var_r), axis=1)
    )

    q = split_heads(queries_pre @ params.wq + params.bq, h)    # (h, m, d/h)
    u = q @ split_heads(params.wk, h).transpose(0, 2, 1)        # (h, m, d)
    qbk = q @ split_heads(params.bk[None, :], h).transpose(0, 2, 1)  # (h, m, 1)
    scores = (
        u @ (dp.mu * inv_var).T
        - 0.5 * (u * u) @ inv_var.T
        + qbk / scale
        + c[None, :]
    )
    w = softmax_rows((scores + bias).reshape(h * m, -1)).reshape(h, m, -1)
    if map_sink is not None:
        map_sink(np.mean(w, axis=0))
    # denoised vectors: interpolate query toward means, then project
    denoised = (w @ (sig2 * inv_var)) * u + w @ (scale * inv_var * dp.mu)
    return merge_heads(denoised @ split_heads(params.wv, h)) + params.bv


def train_dattn_multihead(
    queries_pre: np.ndarray,
    dp: DpPosterior,
    params: AttentionParams,
    rng: np.random.Generator,
    mask: AttentionMask = NO_MASK,
    map_sink: MapSink = None,
) -> np.ndarray:
    """One-sample Monte-Carlo denoising attention.

    Draws mixture weights pi ~ Dirichlet(alpha) over all n+1 components and
    component vectors Z~ from their Gaussians, then runs standard attention
    over the sampled impulses with key bias log pi - ||Z~||^2 / (2 sqrt(d/h)).
    """
    queries_pre = as_matrix(queries_pre)
    d = params.model_dim
    if queries_pre.shape[1] != d or dp.dim != d:
        raise ValueError("query/component width must equal model_dim")
    bias = _component_mask_bias(mask, queries_pre.shape[0], dp.n_tokens)
    h = params.heads
    scale = np.sqrt(params.head_dim)

    pi = sample_dirichlet(rng, np.exp(dp.log_alpha))
    z_tilde = sample_gaussian(rng, dp.mu, dp.sigma)  # (n+1, d)
    with np.errstate(divide="ignore"):
        key_bias = np.log(pi) - np.sum(z_tilde * z_tilde, axis=1) / (2.0 * scale)

    out, w = attend_heads(
        split_heads(queries_pre @ params.wq + params.bq, h),
        split_heads(z_tilde @ params.wk + params.bk, h),
        split_heads(z_tilde @ params.wv + params.bv, h),
        bias + key_bias[None, :],
    )
    if map_sink is not None:
        map_sink(np.mean(w, axis=0))
    return merge_heads(out)


def nv_self_attention(
    z_prev: np.ndarray,
    proj: NvibProjection,
    params: AttentionParams,
    mask: AttentionMask = NO_MASK,
    map_sink: MapSink = None,
) -> np.ndarray:
    """Self-attention variant: keys/values come from projecting z_prev,
    queries from z_prev itself (the pre-projection vectors).  There is no
    pseudo-count skip connection."""
    dp = project(z_prev, proj)
    return eval_dattn_multihead(z_prev, dp, params, mask=mask, map_sink=map_sink)


def nv_causal_attention(
    z_prev: np.ndarray,
    proj: NvibProjection,
    params: AttentionParams,
    map_sink: MapSink = None,
) -> np.ndarray:
    """Causal self-attention: token keys j <= t visible to query t, the
    prior visible everywhere (so position 1 still has two components)."""
    return nv_self_attention(
        z_prev,
        proj,
        params,
        mask=AttentionMask("causal"),
        map_sink=map_sink,
    )
