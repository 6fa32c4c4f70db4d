"""Projection of a set of vectors onto Dirichlet-process posterior parameters.

Each token vector is mapped to a Gaussian component (mean, diagonal std) and
a pseudo-count; an empirical prior component is appended as the LAST row.
With the identity initialisation the component means are the vectors
themselves, the stds collapse toward zero, and the pseudo-counts reproduce
the exp(||z||^2 / (2 sqrt(d/h))) weighting that makes denoising attention
coincide with standard attention.

Pseudo-counts are carried in log space end to end and their total is never
formed: the attention softmax normalises them.  The test-side
`tests/reference.py::log_alpha_total` forms it, by log-sum-exp.

`project` writes a posterior as a `DpPosterior`, the general path of
`denoising.eval_dattn_multihead`; the twin's key map, `denoising.head_keys`,
writes the same posterior's keys straight from the vectors and shares the
clamp rule (`token_log_alpha`).  Reading a posterior as an explicit mixture
for the oracles is test-side (`tests/reference.py::to_gaussian_mixture`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .numeric import _check_integer

__all__ = [
    "LOG_ALPHA_CLAMP",
    "SIGMA_SQ_FLOOR",
    "TAU_SIGMA_MIN",
    "SIGMA_P_RANGE",
    "ALPHA_CLAMP_EVENTS",
    "TauConfig",
    "EmpiricalPrior",
    "NvibProjection",
    "DpPosterior",
    "identity_init",
    "project",
    "token_log_alpha",
]

LOG_ALPHA_CLAMP = 700.0     # |log alpha| beyond this would overflow exp
SIGMA_SQ_FLOOR = 1e-76      # smallest representable component variance
TAU_SIGMA_MIN = 1e-38       # variance dial floor; log of its square is finite
SIGMA_P_RANGE = (2.0**-1022 / TAU_SIGMA_MIN, 2.0**-26 / TAU_SIGMA_MIN)  # tiny, sqrt eps

GROUPS = ("encoder", "cross", "decoder")
_FIELD_SUFFIX = {"encoder": "enc", "cross": "cross", "decoder": "dec"}


class _ClampCounter:
    """Counts how often projected log pseudo-counts hit the clamp."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0


ALPHA_CLAMP_EVENTS = _ClampCounter()


@dataclass(frozen=True)
class TauConfig:
    """Regularisation dials per attention group.

    tau_alpha shifts log pseudo-counts in units of the prior's norm spread;
    tau_sigma scales component stds relative to the prior std.  Every dial
    must be a finite real number, not a bool, and is stored as a Python
    float, so any dial saves as it reloads; tau_sigma below TAU_SIGMA_MIN
    would make log(sigma^2) overflow and is rejected.  The fields are the
    alpha dials then the sigma dials, each in GROUPS order.
    """

    tau_alpha_enc: float = 10.0
    tau_alpha_cross: float = 10.0
    tau_alpha_dec: float = 10.0
    tau_sigma_enc: float = TAU_SIGMA_MIN
    tau_sigma_cross: float = TAU_SIGMA_MIN
    tau_sigma_dec: float = TAU_SIGMA_MIN

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:  # an int past float range
                raise ValueError(f"{f.name} must be a number within float range") from None
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            object.__setattr__(self, f.name, value)
        for g in GROUPS:
            if self.tau_sigma(g) < TAU_SIGMA_MIN:
                raise ValueError(
                    f"tau_sigma for {g} below floor {TAU_SIGMA_MIN:g}"
                )

    @classmethod
    def uniform(cls, tau_alpha: float, tau_sigma: float) -> "TauConfig":
        """The same two dials in every group."""
        n = len(GROUPS)
        return cls(*[tau_alpha] * n, *[tau_sigma] * n)

    def tau_alpha(self, group: str) -> float:
        return getattr(self, f"tau_alpha_{_FIELD_SUFFIX[group]}")

    def tau_sigma(self, group: str) -> float:
        return getattr(self, f"tau_sigma_{_FIELD_SUFFIX[group]}")


def identity_taus() -> TauConfig:
    """Dial setting at which the reinterpreted model matches the original."""
    return TauConfig()


@dataclass(frozen=True)
class EmpiricalPrior:
    """Per-site corpus statistics backing the appended prior component.

    mu_p/sigma_p are per-dimension mean and std of the site's vectors;
    log_alpha0_p is the mean scaled squared norm ||z||^2 / (2 sqrt(d/h));
    epsilon_alpha is the std of those same per-token quantities.

    Each sigma_p entry lies in SIGMA_P_RANGE, [tiny, sqrt(eps)] / TAU_SIGMA_MIN
    (about [2.2e-270, 1.49e30]), so at the floor dial a token's std is normal
    and its square vanishes next to the query noise (the identity corner).
    """

    mu_p: np.ndarray
    sigma_p: np.ndarray
    log_alpha0_p: float
    epsilon_alpha: float
    layer_group: str
    layer_id: int

    def __post_init__(self):
        if self.layer_group not in GROUPS:
            raise ValueError(f"unknown layer_group {self.layer_group!r}")
        _check_integer(self.layer_id, "layer_id")
        # stored as float64 and int whatever real numbers it is built from,
        # NumPy scalars too, so a prior saves as it reloads
        object.__setattr__(self, "layer_id", int(self.layer_id))
        for name in ("mu_p", "sigma_p", "log_alpha0_p", "epsilon_alpha"):
            value = np.asarray(getattr(self, name))
            if value.dtype.kind not in "iuf" or not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite real numbers")
            if value.ndim and name in ("log_alpha0_p", "epsilon_alpha"):
                raise ValueError(f"{name} must be a number, got shape {value.shape}")
            value = value.astype(np.float64, copy=False)
            object.__setattr__(self, name, value if value.ndim else float(value))
        if np.ndim(self.mu_p) != 1 or np.shape(self.sigma_p) != np.shape(self.mu_p):
            raise ValueError("mu_p and sigma_p must be matching vectors")
        lo, hi = SIGMA_P_RANGE
        # sigma_p's extremes decide its checks; the initials pass an empty one
        s_min, s_max = self.sigma_p.min(initial=hi), self.sigma_p.max(initial=lo)
        with np.errstate(over="ignore"):   # the squares the kernel takes
            if not math.isfinite(max(-s_min, s_max) ** 2):
                raise ValueError("sigma_p squared overflows float64")
            if not math.isfinite(np.add.reduce(self.mu_p * self.mu_p)):
                raise ValueError("sum(mu_p**2) overflows float64")
        if not (lo <= s_min and s_max <= hi):
            raise ValueError(f"sigma_p must be positive and within [{lo:.3g}, {hi:.3g}]")
        if self.epsilon_alpha < 0.0:
            raise ValueError("epsilon_alpha must be nonnegative")

    @property
    def dim(self) -> int:
        return self.mu_p.shape[0]


@dataclass(frozen=True)
class NvibProjection:
    """The identity-initialised map from vectors to posterior parameters
    (`identity_init`), whose offsets b_sigma and b_alpha carry the dials:

    mu(Z) = Z
    sigma(Z) = token_sigma, about exp(b_sigma / 2), one std row for every token
    log alpha(Z) = (Z*Z) w_alpha + b_alpha

    `token_sigma` is read once, at construction (the arrays must not be
    modified afterwards); the variance the tokens share is what lets
    denoising attention run in head space.

    For a padded batch of B sequences, b_alpha may hold one value per
    sequence, (B,), with b_sigma then (B, d): the rows share w_alpha and
    differ in their dial offsets, as twins reinterpreted at different dials
    do.  `token_sigma` is then (B, d).
    """

    b_sigma: np.ndarray
    w_alpha: np.ndarray
    b_alpha: float
    prior: EmpiricalPrior
    token_sigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.prior.dim
        if self.w_alpha.shape != (d,):
            raise ValueError("w_alpha must be (d,)")
        rows = np.shape(self.b_alpha)
        if len(rows) > 1 or self.b_sigma.shape != rows + (d,):
            raise ValueError("b_sigma must be (d,) with one b_alpha, or (B, d) with b_alpha (B,)")
        object.__setattr__(self, "token_sigma", _sigma(self.b_sigma))


@dataclass(frozen=True)
class DpPosterior:
    """Mixture parameters for n tokens plus the prior as the last row.

    mu, sigma: (n+1, d); log_alpha: (n+1,).  sigma holds stds.  A padded
    batch of B posteriors adds a leading axis to each; a padded token's
    component has log_alpha -inf, pseudo-count zero.
    """

    mu: np.ndarray
    sigma: np.ndarray
    log_alpha: np.ndarray

    def __post_init__(self):
        if self.mu.ndim not in (2, 3) or self.sigma.shape != self.mu.shape:
            raise ValueError("mu and sigma must both be (n+1, d), or (B, n+1, d)")
        if self.log_alpha.shape != self.mu.shape[:-1]:
            raise ValueError("log_alpha must have one entry per component")
        if self.mu.shape[-2] < 1:
            raise ValueError("need at least the prior component")
        if np.any(self.sigma < 0.0):
            raise ValueError("sigma must be nonnegative")


def identity_init(
    prior: EmpiricalPrior, tau_alpha: float, tau_sigma: float, d: int, h: int
) -> NvibProjection:
    """Projection whose denoising attention reproduces standard attention.

    Means pass through unchanged, stds are pinned at sigma_p * tau_sigma,
    and log pseudo-counts are the scaled squared norm plus the dial offset
    epsilon_alpha * tau_alpha.  Dials must be finite, as TauConfig's are;
    given as (B,) arrays, one per row of a padded batch, they give the
    per-row b_alpha (B,) and b_sigma (B, d).  Once b_alpha passes
    LOG_ALPHA_CLAMP, raising tau_alpha further moves the twin away from the
    identity: every token's log pseudo-count sits at the clamp, so the norm
    weighting is lost (the README quick start's `certify --tau-alpha 1e308`
    reads a max logit diff of 1.66 and fails).
    """
    if h < 1 or d % h != 0:
        raise ValueError(f"heads={h} must divide d={d}")
    if prior.dim != d:
        raise ValueError(f"prior dimension {prior.dim} != d={d}")
    for name, dial in (("tau_alpha", tau_alpha), ("tau_sigma", tau_sigma)):
        if not np.isfinite(dial).all():
            raise ValueError(f"{name} must be finite")
    tau_sigma = np.asarray(tau_sigma)
    if (tau_sigma < TAU_SIGMA_MIN).any():
        raise ValueError(f"tau_sigma below floor {TAU_SIGMA_MIN:g}")
    scale = np.sqrt(d / h)
    with np.errstate(over="ignore"):  # `_sigma`, `token_log_alpha` clamp an inf
        std = prior.sigma_p * tau_sigma[..., None]
        b_alpha = prior.epsilon_alpha * tau_alpha
    return NvibProjection(
        b_sigma=2.0 * np.log(std),
        w_alpha=np.full(d, 1.0 / (2.0 * scale)),
        b_alpha=b_alpha,
        prior=prior,
    )


def _sigma(log_sig2: np.ndarray) -> np.ndarray:
    """Component stds from log variances: the log is clamped so exp stays
    finite even for an extreme b_sigma, the variance floored at
    SIGMA_SQ_FLOOR."""
    log_sig2 = np.minimum(log_sig2, LOG_ALPHA_CLAMP)
    return np.sqrt(np.maximum(np.exp(log_sig2), SIGMA_SQ_FLOOR))


def token_log_alpha(zz: np.ndarray, proj: NvibProjection, valid=None) -> np.ndarray:
    """log pseudo-counts of vectors with squared entries zz, (n, d) or (B,
    n, d): zz @ w_alpha + b_alpha clamped to +-LOG_ALPHA_CLAMP, clamps of
    real vectors counted on ALPHA_CLAMP_EVENTS, -inf where `valid` is False.
    The one clamp rule of `project` and of the twin's key map; it clamps
    and counts only when some value, or a NaN, lies past the clamp."""
    log_alpha = zz @ proj.w_alpha + np.asarray(proj.b_alpha)[..., None]
    if not np.maximum.reduce(np.abs(log_alpha), axis=None, initial=0.0) <= LOG_ALPHA_CLAMP:
        clamped = np.minimum(np.maximum(log_alpha, -LOG_ALPHA_CLAMP), LOG_ALPHA_CLAMP)
        hit = clamped != log_alpha
        ALPHA_CLAMP_EVENTS.count += np.count_nonzero(hit if valid is None else hit & valid)
        log_alpha = clamped
    if valid is not None:
        log_alpha[~valid] = -np.inf
    return log_alpha


def project(
    z: np.ndarray, proj: NvibProjection, valid: np.ndarray | None = None
) -> DpPosterior:
    """Map n vectors to an (n+1)-component posterior, prior row last.

    z is (n, d), or a padded batch (B, n, d) whose boolean (B, n) `valid`
    marks each sequence's real vectors (all of them when None).  A padded
    vector's component gets pseudo-count zero, log alpha -inf, so no
    attention weight; a projection with one b_alpha per row projects each
    sequence with its own.  log pseudo-counts are `token_log_alpha`'s;
    component variances are floored at SIGMA_SQ_FLOOR.
    """
    z = np.asarray(z, dtype=np.float64)
    d = proj.prior.dim
    b_alpha = np.asarray(proj.b_alpha)
    if z.ndim not in (2, 3) or b_alpha.shape not in ((), z.shape[:-2]):
        raise ValueError(
            f"vectors {z.shape} do not fit a projection with b_alpha {b_alpha.shape}"
        )
    if z.shape[-1] != d:
        raise ValueError(f"vector width {z.shape[-1]} != projection dim {d}")
    if valid is not None and (z.ndim != 3 or valid.shape != z.shape[:2]):
        raise ValueError("a padded batch needs (B, n, d) vectors and a (B, n) valid")

    clamped = token_log_alpha(z * z, proj, valid)
    p = proj.prior
    shape = z.shape[:-2] + (z.shape[-2] + 1,)
    mu_all, sigma_all = np.empty(shape + (d,)), np.empty(shape + (d,))
    log_alpha_all = np.empty(shape)
    mu_all[..., :-1, :], mu_all[..., -1, :] = z, p.mu_p
    sigma_all[..., :-1, :], sigma_all[..., -1, :] = proj.token_sigma[..., None, :], p.sigma_p
    log_alpha_all[..., :-1], log_alpha_all[..., -1] = clamped, p.log_alpha0_p
    return DpPosterior(mu=mu_all, sigma=sigma_all, log_alpha=log_alpha_all)

