"""Denoising multi-head attention over a projected posterior.

Evaluation path: queries are denoised against the (n+1)-component diagonal
Gaussian mixture in closed form.  Scores are the full component
log-densities of the corrupted query, so the path agrees with the slow
test-side mixture oracle (`tests/reference.py`) to rounding error even when
component variances differ (the prior's variance always does).  For
components sharing one variance the query-norm and normaliser terms are
constant across keys and the weights reduce to softmax(U mu^T / scale +
pseudo-count bias), which is how the identity initialisation reproduces
standard attention.

The closed form is evaluated in one of two ways, chosen by the posterior
passed in.  The general path is the reference, on any `DpPosterior`: it
works at width d in every head (the per-head query U_i = Q_i (W^K_i)^T is
projected back to d), so it costs h times the FLOPs of standard attention,
and the head-space path is tested against it.  The head-space path takes a
`KeyedPosterior`, the twin's: under `NvibProjection` every token component
shares one variance row and the prior has its own, so the tokens' quadratic
term is the same in every token column and only [P]'s column keeps one.
With the interpolation terms, whose token share is 1 - w_P as the weights
sum to 1, that is one (d/h, 3d/h) form per head (`SiteForms`, built once
per site by `site_forms`); the component means enter only through
head-width keys and values, written in one pass from the site's vectors
(`head_keys`).  The two paths agree to rounding error.  A
keyed posterior is one (n+1, 3d+1) row matrix, [P] last, [mu | k | v | c]
(`KeyedPosterior.rows`).  Each row depends on its own component alone, so a
causal cache appends a step's rows to one buffer.  A keyed posterior
without forms is standard attention, the twin at zero token variance and
no prior (`standard_keys`): its [P] takes no weight.

Both paths also take a padded batch: (B, m, d) queries over a batch of B
posteriors, with per-row forms stacked (B, ...) when the sequences sit at
different dials; a mixed batch's standard rows carry an all-zero `f`.  A
padded token's component carries pseudo-count zero (see `project`,
`head_keys` and `standard_keys`), so it takes no weight, while [P] is
always visible.

There is no training path here.  The post-hoc dials never sample
attention, so the one-sample Monte-Carlo path (mixture weights from a
Dirichlet over pseudo-counts, component vectors from their Gaussians,
attention over the sampled impulses) is a test-side reference
(`tests/reference.py`), whose mean over draws is checked against the
evaluation path.

Which components each query sees is the standard kernel's rule
(`attention.check_inputs`): a `causal` call hides the token components
after t from query t, and the prior component, the last, is always visible
(the start-of-sequence anchor).  A callback can receive the head-averaged
(m, n+1) weight matrix, whose last column belongs to the prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .attention import AttentionParams, check_inputs, merge_heads, split_heads
# project is not called here; bench/spans.py traces it in this namespace.
from .nvib import DpPosterior, NvibProjection, project, token_log_alpha
from .numeric import affine, softmax_rows

__all__ = [
    "SiteForms",
    "KeyedPosterior",
    "site_forms",
    "standard_keys",
    "head_keys",
    "eval_dattn_multihead",
]

MapSink = Callable[[np.ndarray], None] | None


@dataclass(frozen=True)
class SiteForms:
    """Head-space forms of one site whose token components share a variance.

    With sigma_r^2 = sqrt(d/h) + sigma^2 in each variance class, the tokens'
    (tok) and the prior's (P), A = W^K_i^T diag(1/sigma_r^2) W^K_i and
    B = W^K_i^T diag(sigma^2/sigma_r^2) W^V_i in head i: inv_var (d,) is the
    tokens' 1/sigma_r^2, half_log_var () their 0.5 sum log sigma_r^2, f
    (h, d/h, 3d/h) holds [-(A^P - A^tok)/2 | B^tok | B^P - B^tok] per head,
    so that one product q @ f gives [P]'s quadratic term, added as it is,
    and both interpolation terms, and prior_row (3d+1,) is [P]'s row of
    `KeyedPosterior.rows`.  The tokens' forms of a padded batch's sequences
    may be stacked, (B, ...); [P]'s row is every sequence's; a mixed
    batch's `f` leads with zero rows.
    """

    inv_var: np.ndarray
    half_log_var: np.ndarray
    f: np.ndarray
    prior_row: np.ndarray


def site_forms(proj: NvibProjection, params: AttentionParams) -> SiteForms:
    """The head-space forms of a site: its projection's token variance
    class against its prior's, and the prior's keyed row.  A projection
    with one dial per row (b_sigma (B, d)) gives the tokens' forms stacked
    (B, ...), each row's products taken as for that row alone."""
    h, dh, prior = params.heads, params.head_dim, proj.prior
    scale = math.sqrt(dh)
    tok2, p2 = np.square(proj.token_sigma), np.square(prior.sigma_p)
    tok_r, p_r = scale + tok2, scale + p2           # sigma_r^2: tokens, prior
    inv_tok, inv_p = 1.0 / tok_r, 1.0 / p_r
    wk, wv = split_heads(params.wk, h), split_heads(params.wv, h)
    wk_t = wk.swapaxes(-1, -2)
    # W^K_i^T diag(.) [W^K_i | W^V_i | W^V_i]; the prior's B is every row's
    f = np.empty(tok2.shape[:-1] + (h, dh, 3 * dh))
    f[..., :dh] = (wk_t * (0.5 * (inv_tok - inv_p))[..., None, None, :]) @ wk
    f[..., dh : 2 * dh] = (wk_t * (tok2 * inv_tok)[..., None, None, :]) @ wv
    f[..., 2 * dh :] = (wk_t * (p2 * inv_p)) @ wv - f[..., dh : 2 * dh]
    x = prior.mu_p * inv_p
    c = prior.log_alpha0_p - 0.5 * (prior.mu_p @ x) - 0.5 * np.log(p_r).sum()
    return SiteForms(
        inv_var=inv_tok,
        half_log_var=0.5 * np.log(tok_r).sum(axis=-1),
        f=f,
        prior_row=np.concatenate((prior.mu_p, x @ params.wk, scale * x @ params.wv, (c,))),
    )


@dataclass(frozen=True)
class KeyedPosterior:
    """One site's head-space keys of a posterior as one row matrix (`head_keys`).

    Rows (n+1, 3d+1) are [mu | k | v | c]: k = (mu/sigma_r^2) W^K and
    v = (sqrt(d/h) mu/sigma_r^2) W^V, head i in columns [i*d/h, (i+1)*d/h),
    and c the score bias log alpha - 0.5 ||mu/sigma_r||^2 - 0.5 sum log
    sigma_r^2.  A padded batch's rows are a (B, n+1, 3d+1) stack.  A
    posterior without forms is standard attention (`standard_keys`).  Its
    head views are split once; a causal cache's prefix `upto(n)` cuts its whole's.
    """

    rows: np.ndarray
    forms: SiteForms | None
    whole: KeyedPosterior | None = field(default=None, repr=False, compare=False)

    @property
    def mu(self) -> np.ndarray:
        return self.rows[..., : (self.rows.shape[-1] - 1) // 3]

    def upto(self, n: int) -> KeyedPosterior:
        return KeyedPosterior(self.rows[..., :n, :], self.forms, self)

    def heads(self, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of k^T (..., h, d/h, n+1), v (..., h, n+1, d/h), c (..., 1, 1, n+1)."""
        if self.whole is not None:  # a prefix, attended once: its whole's, cut
            (kt, v, c), n = self.whole.heads(h), self.rows.shape[-2]
            return kt[..., :n], v[..., :n, :], c[..., :n]
        if "_heads" not in vars(self):  # split once, on the first attend
            r, d = self.rows, self.mu.shape[-1]
            k, v = split_heads(r[..., d : 2 * d], h), split_heads(r[..., 2 * d : -1], h)
            vars(self)["_heads"] = k.swapaxes(-1, -2), v, r[..., None, None, :, -1]
        return vars(self)["_heads"]


def standard_keys(z, params: AttentionParams, valid=None, out=None) -> KeyedPosterior:
    """Standard attention's keys of vectors z, as for `head_keys`, written
    to `out` if given: a posterior without forms, rows [z | z W^K/sqrt(d/h)
    | z W^V | c], c 0 for a valid vector and -inf for a padded one and for
    [P].  b^K is constant per query and drops out; b^V enters after the
    mix."""
    d = z.shape[-1]
    rows = np.empty(z.shape[:-2] + (z.shape[-2] + 1, 3 * d + 1)) if out is None else out
    rows[..., -1, :] = 0.0
    rows[..., -1, -1] = -np.inf
    tok = rows[..., :-1, :]
    tok[..., :d] = z
    np.matmul(z, params.wk / math.sqrt(params.head_dim), out=tok[..., d : 2 * d])
    np.matmul(z, params.wv, out=tok[..., 2 * d : -1])
    tok[..., -1] = 0.0 if valid is None else np.where(valid, 0.0, -np.inf)
    return KeyedPosterior(rows, None)


def head_keys(
    z, proj: NvibProjection, params: AttentionParams, forms: SiteForms, valid=None,
    head: int = 0, out=None,
) -> KeyedPosterior:
    """The site's keys of `project(z, proj, valid)`, written in one pass
    (to `out` if given) from the vectors z, (n, d) or a padded batch (B, n,
    d) with its (B, n) `valid`, unvalidated.  `forms` is `site_forms`' of
    `proj`, or a (B, ...) stack of them.  The token means are z, so c is
    `token_log_alpha` (-inf for a padded row) - 0.5 sum z*z/sigma_r^2 -
    half_log_var; [P]'s row is the forms' own.  A mixed batch's first
    `head` rows are `standard_keys`'; inv_var and half_log_var are the
    twins' rows alone."""
    d = z.shape[-1]
    rows = out = np.empty(z.shape[:-2] + (z.shape[-2] + 1, 3 * d + 1)) if out is None else out
    if head:
        std_valid, valid = (None, None) if valid is None else (valid[:head], valid[head:])
        standard_keys(z[:head], params, std_valid, rows[:head])
        z, out = z[head:], rows[head:]
    x = z * forms.inv_var[..., None, :]
    out[..., -1, :] = forms.prior_row
    tok = out[..., :-1, :]
    tok[..., :d] = z
    np.matmul(x, params.wk, out=tok[..., d : 2 * d])
    np.matmul(math.sqrt(params.head_dim) * x, params.wv, out=tok[..., 2 * d : -1])
    c = token_log_alpha(z * z, proj, valid) - 0.5 * np.add.reduce(z * x, axis=-1)
    np.subtract(c, forms.half_log_var[..., None], out=tok[..., -1])
    return KeyedPosterior(rows, forms)


def eval_dattn_multihead(
    queries_pre: np.ndarray,
    dp: DpPosterior | KeyedPosterior,
    params: AttentionParams,
    causal: bool = False,
    map_sink: MapSink = None,
) -> np.ndarray:
    """Closed-form denoising attention of m queries over n+1 components.

    Per head i, with Q_i the head's queries, U_i = Q_i (W^K_i)^T projected
    back to width d and sigma_r^2 = sqrt(d/h) + sigma^2 the corrupted-query
    variances:

      scores = U_i (mu/sigma_r^2)^T - 0.5 (U_i*U_i) (1/sigma_r^2)^T
               + log alpha - 0.5 ||mu/sigma_r||^2 - sum log sigma_r

    Terms constant per query are left to the softmax, which removes them
    exactly: the key bias's Q_i b^K_i / sqrt(d/h), and the normaliser
    log alpha_0, whose total over all components would also let
    causally-hidden tokens perturb visible rows at the last bit.  The output
    interpolates between the queries and the component means by
    sigma^2/sigma_r^2 before the value projection.

    A `KeyedPosterior` (see `head_keys`; the token components share one
    variance) is evaluated in head space, at the cost of standard attention
    plus one (d/h, 3d/h) form per query and head, F_i = [-(A^P - A^tok)/2 |
    B^tok | B^P - B^tok] (`SiteForms`).  With K_i, V_i, c of the posterior
    and w_P the prior's weight, the tokens' share being 1 - w_P (sum w = 1):

      scores = Q_i K_i^T + c, plus -0.5 Q_i (A^P - A^tok) Q_i^T in [P]'s column
      output = w V_i + Q_i B^tok + w_P Q_i (B^P - B^tok)

    The tokens' own quadratic term, -0.5 Q_i A^tok Q_i^T, is the same in
    every column and is left to the softmax too.  A `DpPosterior` takes the
    general path above.

    A padded batch is (B, m, d) queries over a batch of B posteriors; the
    result is then (B, m, d) and the map (B, m, n+1).
    """
    queries_pre, _, hidden = check_inputs(
        queries_pre, dp.mu, params.model_dim, causal=causal, prior=True
    )
    h = params.heads
    q = split_heads(affine(queries_pre, params.wq, params.bq), h)  # (..., h, m, d/h)
    forms = mix = None
    if isinstance(dp, KeyedPosterior):  # head space; without forms, standard attention
        (kt, v, c), forms, dh = dp.heads(h), dp.forms, q.shape[-1]
        scores = q @ kt
        scores += c
        if forms is not None:
            qf = q @ forms.f                        # (..., h, m, 3d/h)
            scores[..., -1] += np.add.reduce(qf[..., :dh] * q, axis=-1)
    else:
        scores, mix = _general_path(q, dp, params)
    if hidden is not None:
        np.copyto(scores, -np.inf, where=hidden)
    w = softmax_rows(scores, out=scores)
    if map_sink is not None:
        map_sink(np.add.reduce(w, axis=-3) / h)   # np.mean over the heads
    out = w @ v if mix is None else mix(w)
    if forms is not None:  # the weights sum to 1: the tokens' share is 1 - w_P
        out += qf[..., dh : 2 * dh]
        out += w[..., -1:] * qf[..., 2 * dh :]
    out = merge_heads(out)
    out += params.bv
    return out


def _general_path(q, dp: DpPosterior, params: AttentionParams):
    """The general path: (..., h, m, n+1) scores and the map from weights to
    the (..., h, m, d/h) head outputs, at width d per head."""
    h = params.heads
    scale = math.sqrt(params.head_dim)
    mu, sigma, log_alpha = dp.mu, dp.sigma, dp.log_alpha
    sig2 = sigma * sigma                            # (..., n+1, d)
    var_r = scale + sig2                            # corrupted-query variances
    inv_var = 1.0 / var_r
    # per-component key bias: pseudo-count weight + Gaussian normalisation
    # (the alpha_0 shift is constant per query and left to the softmax)
    c = (
        log_alpha
        - 0.5 * np.sum(mu * mu * inv_var, axis=-1)
        - 0.5 * np.sum(np.log(var_r), axis=-1)
    )

    def per_head(x):                                # (..., n+1, d) -> (..., 1, n+1, d)
        return x[..., None, :, :]

    u = q @ split_heads(params.wk, h).swapaxes(-1, -2)         # (..., h, m, d)
    scores = (
        u @ per_head(mu * inv_var).swapaxes(-1, -2)
        - 0.5 * (u * u) @ per_head(inv_var).swapaxes(-1, -2)
        + c[..., None, None, :]
    )

    def mix(w):
        # denoised vectors: interpolate query toward means, then project
        denoised = (w @ per_head(sig2 * inv_var)) * u + w @ per_head(scale * inv_var * mu)
        return denoised @ split_heads(params.wv, h)

    return scores, mix
