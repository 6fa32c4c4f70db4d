"""Standard multi-head attention over a set of vectors.

Full d x d projection matrices are stored once; head i owns columns
[i*d/h, (i+1)*d/h) of each.  `attention` computes all heads at once in three
steps: `split_heads` reshapes the projected (..., m, d) rows into
(..., h, m, d/h) stacks; stacked matrix products form the (..., h, m, n)
scores, one mask shared by every head hides keys, and a single softmax runs
over the stack; `merge_heads` lays the (..., h, m, d/h) outputs back side
by side in (..., m, d).  Each head value-projects into its own slice of the
output, so there is no separate output projection.  The denoising kernel
reuses the same split and merge steps.  The model runs only the head-space
denoising kernel, whose posterior without forms is this standard attention
(`denoising`); `attention` is the reference it is tested against.

Both kernels, `attention` and `denoising.eval_dattn_multihead`, take queries
(..., m, d) over keys (..., n, d), with the same leading axes, and which
keys each query sees is one rule (`check_inputs`): query t of a `causal`
call (the decoder's self-attention) sees token keys j <= t, a False in a
padded batch's key_valid hides that key from every query of its sequence,
and a twin site's last key, the prior component [P], is seen by every
query.  A mask is built only when a key is hidden, so an unmasked call over
all-valid keys, such as every step of a greedy decode over an unpadded
source, builds none.

Each result is allocated once and transformed in place by the operations of
the out-of-place form, in its order, so the bits are the same: a projection
adds its bias to the product (`numeric.affine`), the scores are divided and
take -inf where a key is hidden, and `softmax_rows` normalises the
scores in place, so the weights take no buffer of their own.  No kernel
writes its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import affine, softmax_rows

__all__ = ["AttentionParams", "attention"]


@dataclass(frozen=True)
class AttentionParams:
    """Query/key/value projections for one attention site.

    wq, wk, wv are (d, d); bq, bk, bv are (d,).  `heads` must divide d.
    Head i uses columns [i*d/h, (i+1)*d/h) of each matrix and the matching
    bias slice.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    heads: int

    def __post_init__(self):
        d = self.model_dim
        for name in ("wq", "wk", "wv"):
            m = getattr(self, name)
            if m.shape != (d, d):
                raise ValueError(f"{name} must be ({d}, {d}), got {m.shape}")
        for name in ("bq", "bk", "bv"):
            v = getattr(self, name)
            if v.shape != (d,):
                raise ValueError(f"{name} must be ({d},), got {v.shape}")
        if self.heads < 1 or d % self.heads != 0:
            raise ValueError(f"heads={self.heads} must divide model_dim={d}")

    @property
    def model_dim(self) -> int:
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


def _hidden(visible: np.ndarray) -> np.ndarray:
    """The mask of hidden keys, ~visible; the last axis indexes keys.
    Rejects rows with nothing visible (their softmax would be undefined)."""
    if not visible.any(axis=-1).all():
        raise ValueError("a query row has every key masked")
    return ~visible


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., m, d) -> (..., h, m, d/h); head i holds columns
    [i*d/h, (i+1)*d/h)."""
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-3, -2)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., h, m, d/h) -> (..., m, d); the inverse of `split_heads`."""
    s = x.shape
    return x.swapaxes(-3, -2).reshape(s[:-3] + (s[-2], s[-3] * s[-1]))


def check_inputs(queries, keys, d: int, key_valid=None, causal=False, prior=False):
    """The input and visibility rules of the attention kernels.

    Queries (..., m, d) over keys (..., n, d) with the same leading axes and
    width d, and any key_valid shaped like the keys less their last axis.
    Query t of a `causal` call sees token keys j <= t, so m must equal the
    token count; a False in key_valid hides that key from every query of
    its sequence; with `prior` the last key is [P], seen by every query.
    Returns the queries and keys as arrays and the mask of hidden keys,
    (m, n) or (..., 1, m, n) to share over the heads, or None when no key
    is hidden.
    """
    q, k = np.asarray(queries, dtype=np.float64), np.asarray(keys, dtype=np.float64)
    if (q.ndim < 2 or k.ndim != q.ndim or k.shape[:-2] != q.shape[:-2]
            or q.shape[-1] != d or k.shape[-1] != d):
        raise ValueError(
            f"queries {q.shape} and keys {k.shape} need the same leading axes and width {d}"
        )
    valid = None if key_valid is None else np.asarray(key_valid, dtype=bool)
    if valid is not None and valid.shape != k.shape[:-1]:
        raise ValueError(
            f"a padded batch's key_valid {valid.shape} must be its keys' {k.shape[:-1]}"
        )
    m, n = q.shape[-2], k.shape[-2]
    if causal and m != n - prior:
        raise ValueError(f"causal mask needs square shape, got ({m}, {n - prior})")
    if not (causal or n == 0 or (valid is not None and not valid.all())):
        return q, k, None
    visible = np.tri(m, n, dtype=bool) if causal else np.ones((m, n), dtype=bool)
    if valid is not None:
        visible = visible & valid[..., None, None, :]
    if prior:
        visible[..., -1] = True
    return q, k, _hidden(visible)


def attention(
    u_prime: np.ndarray,
    z: np.ndarray,
    params: AttentionParams,
    causal: bool = False,
    key_valid: np.ndarray | None = None,
) -> np.ndarray:
    """Multi-head attention of m query vectors over n key/value vectors.

    Scores per head are (Q_i K_i^T + Q_i b^K_i) / sqrt(d/h), b^K folded
    into the keys; the key-bias term is constant per query, so it never
    changes the weights (the denoising paths leave it out).

    Queries u_prime (..., m, d) over keys z (..., n, d) give (..., m, d).
    The keys each query sees are `check_inputs`': with `causal`, m must
    equal n and query t sees keys j <= t; a boolean `key_valid` shaped like
    z less its last axis, such as a padded batch's (B, n), gives invalid
    keys zero weight in every row of their sequence, so no valid row reads
    a padded key.
    """
    u_prime, z, hidden = check_inputs(u_prime, z, params.model_dim, key_valid, causal)
    h = params.heads
    q = split_heads(affine(u_prime, params.wq, params.bq), h)
    # keys with bias folded in: Q_i K_i^T = Q_i (Z W^K_i)^T + Q_i b^K_i
    k = split_heads(affine(z, params.wk, params.bk), h)
    v = split_heads(affine(z, params.wv, params.bv), h)
    # `hidden` broadcasts against the (..., h, m, n) scores
    scores = q @ k.swapaxes(-1, -2)
    scores /= math.sqrt(params.head_dim)
    if hidden is not None:
        np.copyto(scores, -np.inf, where=hidden)
    return merge_heads(softmax_rows(scores, out=scores) @ v)
