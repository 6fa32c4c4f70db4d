"""Test-side references: what the package's kernels are checked against.

Nothing the package runs is here; the tests import these to arbitrate it.

- Mixture semantics for attention as Bayesian query denoising.  A set of
  vectors Z induces a mixture of impulses whose weights grow with
  exp(||z_i||^2 / (2 scale)).  Denoising a query u corrupted by Gaussian
  noise of per-dimension variance `scale` against that mixture reproduces
  standard attention exactly (`build_f_z`, `dattn_impulses`, against the
  projection-free `attn_core`); against a mixture of diagonal Gaussians it
  gives the closed form the evaluation kernel must match
  (`to_gaussian_mixture`, `dattn_gaussians_oracle`).  These are written for
  clarity over speed: explicit per-component log densities, log-space
  normalisation, no clever regrouping.
- The one-sample training path of denoising attention
  (`train_dattn_multihead`), with the seeded draws it makes
  (`sample_gaussian`, `sample_dirichlet`).  The package's post-hoc dials
  never sample attention; acceptance criterion 7 checks that this path's
  mean over draws approaches the evaluation kernel.
- The brute-force prior statistics of an explicit stack of site vectors
  (`site_stats`), which the streaming estimator must match (criterion 8),
  and a corpus with zero between-sequence variance
  (`make_template_corpus`, criterion 6).
- Log-sum-exp over rows (`logsumexp_rows`) and a posterior's total log
  pseudo-count (`log_alpha_total`); the package never forms the total.
- The pseudo-count clamp taken on every call (`clamp_every_call`), which
  `nvib.token_log_alpha` takes only when a value lies past it.

pytest does not collect this module; test files import it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nvtransformer.attention import AttentionParams, check_inputs, merge_heads, split_heads
from nvtransformer.denoising import MapSink
from nvtransformer.evaluate import FIRST_TOKEN
from nvtransformer.model import ModelConfig
from nvtransformer.numeric import _check_count, affine, make_rng, softmax_rows
from nvtransformer.nvib import LOG_ALPHA_CLAMP, DpPosterior, EmpiricalPrior, NvibProjection
from nvtransformer.priors import _SiteAcc

LOG_2PI = np.log(2.0 * np.pi)


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, max-stabilised: (..., n) -> (...)."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise ValueError("logsumexp given a row with no finite entries")
    return (m + np.log(np.sum(np.exp(a - m), axis=-1, keepdims=True)))[..., 0]


def log_alpha_total(dp: DpPosterior) -> float | np.ndarray:
    """log of the summed pseudo-counts, prior included: one total per
    posterior, a float, or (B,) for a padded batch."""
    return logsumexp_rows(dp.log_alpha)[()]


def clamp_every_call(zz: np.ndarray, proj: NvibProjection, valid=None) -> tuple[np.ndarray, int]:
    """`token_log_alpha`'s values and the clamp events it counts, by its
    rule as it was before it skipped the clamp when nothing lies past it:
    every value clamped, and a value counted where the clamp moved it (or
    where it is NaN) on a valid row."""
    log_alpha = zz @ proj.w_alpha + np.asarray(proj.b_alpha)[..., None]
    clamped = np.minimum(np.maximum(log_alpha, -LOG_ALPHA_CLAMP), LOG_ALPHA_CLAMP)
    hit = clamped != log_alpha
    events = np.count_nonzero(hit if valid is None else hit & valid)
    if valid is not None:
        clamped[~valid] = -np.inf
    return clamped, events


def site_stats(
    vectors: np.ndarray, d: int, h: int, group: str = "encoder", layer_id: int = 0
) -> EmpiricalPrior:
    """Prior statistics of an explicit stack of site vectors (n, d).

    The brute-force entry point: used directly in tests and as the oracle
    the streaming path must match.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != d:
        raise ValueError("vectors must be (n, d)")
    acc = _SiteAcc.fresh(d)
    acc.add(vectors, np.sqrt(d / h))
    return acc.finalize(group, layer_id)


def make_template_corpus(config: ModelConfig, n: int, seed: int) -> list[list[int]]:
    """A corpus with zero between-sequence variance: one seeded template
    sequence repeated n times.  Within-sequence token variety still gives
    every site a rich latent distribution, while any sequence-level
    subsample reproduces the full-corpus statistics up to the sample-size
    correction."""
    _check_count(n, "n")
    if config.vocab <= FIRST_TOKEN:
        raise ValueError(f"template corpus needs vocab > {FIRST_TOKEN}")
    rng = make_rng(seed)
    length = min(30, config.max_len - 1)
    template = rng.integers(FIRST_TOKEN, config.vocab, length).tolist()
    return [list(template) for _ in range(n)]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def sample_gaussian(
    rng: np.random.Generator, mu: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Elementwise mu + sigma * eps with eps ~ N(0, 1).

    `sigma` holds standard deviations (not variances) and must be >= 0;
    sigma == 0 returns mu exactly.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0.0):
        raise ValueError("negative standard deviation")
    eps = rng.standard_normal(size=np.broadcast_shapes(mu.shape, sigma.shape))
    return mu + sigma * eps


def sample_dirichlet(rng: np.random.Generator, alpha: np.ndarray) -> np.ndarray:
    """One draw from Dirichlet(alpha) via normalised Gamma(alpha_j, 1) draws.

    Composing from gamma draws keeps the construction explicit and works for
    the extreme concentrations the projection produces (alpha spanning
    exp(-700) .. exp(700)).  If every gamma draw underflows to zero the mass
    is assigned to the largest concentration, which is the correct limit.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1 or alpha.size == 0:
        raise ValueError("alpha must be a nonempty vector")
    if np.any(alpha <= 0.0):
        raise ValueError("Dirichlet concentrations must be positive")
    draws = rng.standard_gamma(alpha)
    total = draws.sum()
    if total == 0.0:
        # all components underflowed; degenerate limit
        out = np.zeros_like(alpha)
        out[int(np.argmax(alpha))] = 1.0
        return out
    return draws / total


@dataclass(frozen=True)
class MixtureOfImpulses:
    """Impulse locations (n, d) with normalised weights (n,)."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.locations.ndim != 2:
            raise ValueError("locations must be (n, d)")
        n = self.locations.shape[0]
        if self.weights.shape != (n,):
            raise ValueError("weights must align with locations")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class GaussianMixtureRepr:
    """Diagonal-Gaussian mixture: means (n, d), stds (n, d), weights (n,)."""

    mu: np.ndarray
    sigma: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.mu.ndim != 2 or self.sigma.shape != self.mu.shape:
            raise ValueError("mu and sigma must both be (n, d)")
        if self.weights.shape != (self.mu.shape[0],):
            raise ValueError("weights must align with components")
        if np.any(self.sigma < 0.0):
            raise ValueError("sigma must be nonnegative")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


def build_f_z(z: np.ndarray, scale: float) -> MixtureOfImpulses:
    """Impulse mixture over the rows of z with weights
    proportional to exp(||z_i||^2 / (2 scale)), normalised in log space."""
    z = as_matrix(z)
    if z.shape[0] == 0:
        raise ValueError("need at least one vector")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    logw = np.sum(z * z, axis=1) / (2.0 * scale)
    logw = logw - logsumexp_rows(logw[None, :])[0]
    return MixtureOfImpulses(locations=z.copy(), weights=np.exp(logw))


def _log_diag_gaussian(u: np.ndarray, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """log N(u_q; mu_k, diag(var_k)) for every query/component pair.

    u: (m, d); mu, var: (n, d) -> (m, n).
    """
    # sum over dimensions of -0.5*(log 2pi + log var + (u-mu)^2/var)
    diff = u[:, None, :] - mu[None, :, :]            # (m, n, d)
    quad = np.sum(diff * diff / var[None, :, :], axis=2)
    logdet = np.sum(np.log(var), axis=1)             # (n,)
    d = u.shape[1]
    return -0.5 * (d * LOG_2PI + logdet[None, :] + quad)


def dattn_impulses(u: np.ndarray, f: MixtureOfImpulses, scale: float) -> np.ndarray:
    """Posterior mean of the denoised query under an impulse mixture.

    The query is modelled as an impulse location corrupted by Gaussian noise
    with per-dimension variance `scale`; the posterior over components is
    responsibility-weighted and the posterior mean is the weighted sum of
    locations.
    """
    u = as_matrix(u)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    z = f.locations
    if u.shape[1] != z.shape[1]:
        raise ValueError("query width must match impulse width")
    var = np.full_like(z, scale)
    with np.errstate(divide="ignore"):
        logpost = np.log(f.weights)[None, :] + _log_diag_gaussian(u, z, var)
    logpost = logpost - logsumexp_rows(logpost)[:, None]
    return np.exp(logpost) @ z


def dattn_gaussians_oracle(
    u: np.ndarray, g: GaussianMixtureRepr, scale: float
) -> np.ndarray:
    """Denoised queries under a diagonal-Gaussian mixture, exactly.

    Component k has marginal likelihood N(u; mu_k, (scale + sigma_k^2) I)
    for the corrupted query, giving responsibilities; its posterior mean for
    the clean vector interpolates mu_k toward u by sigma_k^2/(scale+sigma_k^2)
    per dimension.  Written as mu + ratio*(u - mu) so that sigma == 0
    degenerates to the impulse case bit-for-bit.
    """
    u = as_matrix(u)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if u.shape[1] != g.mu.shape[1]:
        raise ValueError("query width must match component width")
    var = scale + g.sigma * g.sigma                  # (n, d) marginal variances
    with np.errstate(divide="ignore"):
        logpost = np.log(g.weights)[None, :] + _log_diag_gaussian(u, g.mu, var)
    logpost = logpost - logsumexp_rows(logpost)[:, None]
    resp = np.exp(logpost)                           # (m, n)

    ratio = (g.sigma * g.sigma) / var                # (n, d)
    # responsibility-averaged posterior means, split so the sigma == 0 case
    # degenerates to the impulse path bit-for-bit: the mean term uses the
    # same matmul, the query-pull term is an exact zero
    pull = np.sum(
        resp[:, :, None] * ratio[None, :, :]
        * (u[:, None, :] - g.mu[None, :, :]),
        axis=1,
    )
    return resp @ g.mu + pull


def to_gaussian_mixture(dp: DpPosterior) -> GaussianMixtureRepr:
    """Normalise pseudo-counts into mixture weights (log-sum-exp, prior
    included) and expose the components as a Gaussian mixture."""
    if dp.mu.ndim != 2:
        raise ValueError("to_gaussian_mixture takes one posterior, not a padded batch")
    logw = dp.log_alpha - log_alpha_total(dp)
    return GaussianMixtureRepr(
        mu=dp.mu.copy(), sigma=dp.sigma.copy(), weights=np.exp(logw)
    )


def attn_core(u: np.ndarray, z: np.ndarray, scale: float) -> np.ndarray:
    """Projection-free attention: softmax_rows(u z^T / scale) z.

    `scale` is the score divisor (sqrt of the model or head width by
    convention) and must be positive.
    """
    u = as_matrix(u)
    z = as_matrix(z)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if u.shape[1] != z.shape[1]:
        raise ValueError(f"width mismatch: u {u.shape} vs z {z.shape}")
    return softmax_rows(u @ z.T / scale) @ z


def train_dattn_multihead(
    queries_pre: np.ndarray,
    dp: DpPosterior,
    params: AttentionParams,
    rng: np.random.Generator,
    causal: bool = False,
    map_sink: MapSink = None,
) -> np.ndarray:
    """One-sample Monte-Carlo denoising attention.

    Draws mixture weights pi ~ Dirichlet(alpha) over all n+1 components and
    component vectors Z~ from their Gaussians, then runs standard attention
    over the sampled impulses with key bias log pi - ||Z~||^2 / (2 sqrt(d/h)),
    added to the scores after their division; the prior component, the
    last, is always visible (`attention.check_inputs`).
    """
    if dp.mu.ndim != 2:
        raise ValueError("train_dattn_multihead takes one posterior, not a padded batch")
    queries_pre, _, hidden = check_inputs(
        queries_pre, dp.mu, params.model_dim, causal=causal, prior=True
    )
    h = params.heads
    scale = math.sqrt(params.head_dim)

    pi = sample_dirichlet(rng, np.exp(dp.log_alpha))
    z_tilde = sample_gaussian(rng, dp.mu, dp.sigma)  # (n+1, d)
    with np.errstate(divide="ignore"):
        key_bias = np.log(pi) - np.sum(z_tilde * z_tilde, axis=1) / (2.0 * scale)

    q = split_heads(affine(queries_pre, params.wq, params.bq), h)
    k = split_heads(affine(z_tilde, params.wk, params.bk), h)
    v = split_heads(affine(z_tilde, params.wv, params.bv), h)
    scores = q @ k.swapaxes(-1, -2)
    scores /= scale
    scores += key_bias
    if hidden is not None:
        np.copyto(scores, -np.inf, where=hidden)
    w = softmax_rows(scores, out=scores)
    if map_sink is not None:
        map_sink(np.mean(w, axis=0))
    return merge_heads(w @ v)
