"""Certification and dial-sweep machinery shared by the CLI and the tests.

Certification compares the reinterpreted model against its standard twin on
seeded random inputs: max-abs logit difference under teacher forcing plus
greedy-decode agreement.  Sweeps evaluate a list of dial settings and
report, per setting, the same divergence metrics along with the average
attention mass the prior component receives in each group.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .model import (
    BOS_ID,
    ModelConfig,
    ModelWeights,
    forward_nv,
    forward_standard,
    greedy_decode,
    reinterpret,
)
from .nvib import GROUPS, EmpiricalPrior, TAU_SIGMA_MIN, TauConfig
from .numeric import make_rng

__all__ = [
    "TAU_ALPHA_RANGE",
    "TAU_SIGMA_RANGE",
    "CertifyResult",
    "SweepRow",
    "make_random_corpus",
    "make_template_corpus",
    "random_eval_inputs",
    "token_overlap",
    "certify",
    "interp_taus",
    "grid_points",
    "run_sweep",
    "sweep_csv",
]

# dial search space
TAU_ALPHA_RANGE = (-15.0, 10.0)
TAU_SIGMA_RANGE = (TAU_SIGMA_MIN, 0.5)

FIRST_TOKEN = 3  # ids 0..2 are reserved (padding unused, BOS, EOS)


def make_random_corpus(
    config: ModelConfig, n: int, seed: int, min_len: int = 4, max_len: int | None = None
) -> list[list[int]]:
    """Random token sequences over the non-reserved vocabulary."""
    rng = make_rng(seed)
    hi = max_len if max_len is not None else min(config.max_len - 1, 16)
    out = []
    for _ in range(n):
        length = int(rng.integers(min_len, hi + 1))
        out.append(rng.integers(FIRST_TOKEN, config.vocab, length).tolist())
    return out


def make_template_corpus(
    config: ModelConfig, n: int, seed: int, length: int = 30
) -> list[list[int]]:
    """A corpus with zero between-sequence variance: one seeded template
    sequence repeated n times.  Within-sequence token variety still gives
    every site a rich latent distribution, while any sequence-level
    subsample reproduces the full-corpus statistics up to the sample-size
    correction."""
    rng = make_rng(seed)
    length = min(length, config.max_len - 1)
    template = rng.integers(FIRST_TOKEN, config.vocab, length).tolist()
    return [list(template) for _ in range(n)]


def random_eval_inputs(
    config: ModelConfig, k: int, seed: int, src_len: int | None = None
) -> list[tuple[list[int], list[int]]]:
    """(source, teacher-forced target) pairs with random contents."""
    rng = make_rng(seed)
    pairs = []
    for _ in range(k):
        ls = src_len or int(rng.integers(4, min(12, config.max_len)))
        lt = int(rng.integers(3, min(12, config.max_len - 1)))
        src = rng.integers(FIRST_TOKEN, config.vocab, ls).tolist()
        tgt = [BOS_ID] + rng.integers(FIRST_TOKEN, config.vocab, lt).tolist()
        pairs.append((src, tgt))
    return pairs


def token_overlap(a: list[int], b: list[int]) -> float:
    """Fraction of aligned positions that agree, over the longer length.
    Two empty sequences count as full agreement."""
    if not a and not b:
        return 1.0
    matches = sum(1 for x, y in zip(a, b) if x == y)
    return matches / max(len(a), len(b))


@dataclass(frozen=True)
class CertifyResult:
    passed: bool
    max_logit_diff: float
    overlap_pct: float
    trials: int
    tol: float


class _MassCollector:
    """Accumulates the prior column's head-averaged weight per group."""

    def __init__(self):
        self.total = dict.fromkeys(GROUPS, 0.0)
        self.count = dict.fromkeys(GROUPS, 0)

    def hook(self, group: str, layer_id: int, weights: np.ndarray) -> None:
        self.total[group] += float(np.sum(weights[:, -1]))
        self.count[group] += weights.shape[0]

    def mean(self, group: str) -> float:
        if self.count[group] == 0:
            return float("nan")
        return self.total[group] / self.count[group]


def certify(
    w: ModelWeights,
    priors: list[EmpiricalPrior],
    taus: TauConfig,
    trials: int,
    tol: float,
    seed: int = 0,
    decode_steps: int = 16,
) -> CertifyResult:
    """Equivalence check of reinterpret(w, priors, taus) against w: a
    one-point `run_sweep`.  Passes iff the worst teacher-forced logit
    deviation stays within `tol` and every greedy decode matches exactly.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    (row,) = run_sweep(w, priors, [taus], trials, seed, decode_steps)
    return CertifyResult(
        passed=(row.logit_max_diff <= tol and row.overlap_pct == 100.0),
        max_logit_diff=row.logit_max_diff,
        overlap_pct=row.overlap_pct,
        trials=trials,
        tol=tol,
    )


def interp_taus(t: float) -> TauConfig:
    """Linear path from the identity corner (t=0) to the over-regularised
    corner (t=1) of the dial space, all groups moving together."""
    a = TAU_ALPHA_RANGE[1] + t * (TAU_ALPHA_RANGE[0] - TAU_ALPHA_RANGE[1])
    s = TAU_SIGMA_RANGE[0] + t * (TAU_SIGMA_RANGE[1] - TAU_SIGMA_RANGE[0])
    return TauConfig.uniform(a, s)


def grid_points(spec: str, seed: int = 0) -> list[TauConfig]:
    """Parse a sweep grid description.

    'interp:K'  K settings linearly interpolating identity -> over-regularised
    'random:K'  K settings drawn uniformly from the search box, per group
    """
    kind, _, arg = spec.partition(":")
    try:
        k = int(arg)
    except ValueError:
        raise ValueError(f"bad grid spec {spec!r}") from None
    if k < 1:
        raise ValueError("grid needs at least one point")
    if kind == "interp":
        ts = np.linspace(0.0, 1.0, k) if k > 1 else np.array([0.0])
        return [interp_taus(float(t)) for t in ts]
    if kind == "random":
        rng = make_rng(seed)
        out = []
        for _ in range(k):
            # one alpha dial then one sigma dial per group, in field order
            a = rng.uniform(*TAU_ALPHA_RANGE, len(GROUPS))
            s = rng.uniform(*TAU_SIGMA_RANGE, len(GROUPS))
            out.append(TauConfig(*a.tolist(), *s.tolist()))
        return out
    raise ValueError(f"bad grid spec {spec!r}")


@dataclass(frozen=True)
class SweepRow:
    taus: TauConfig
    logit_max_diff: float
    overlap_pct: float
    prior_mass_enc: float
    prior_mass_cross: float
    prior_mass_dec: float
    mean_decode_len: float


def run_sweep(
    w: ModelWeights,
    priors: list[EmpiricalPrior],
    points: list[TauConfig],
    trials: int = 6,
    seed: int = 0,
    decode_steps: int = 16,
) -> list[SweepRow]:
    """Evaluate every dial setting on one shared set of seeded inputs.

    Points are independent of each other, so they could be farmed out to
    workers; rows are produced in the given order either way.
    """
    pairs = random_eval_inputs(w.config, trials, seed)
    baseline = [greedy_decode(w, src, decode_steps) for src, _ in pairs]
    refs = [forward_standard(w, src, tgt) for src, tgt in pairs]
    rows = []
    for taus in points:
        nvm = reinterpret(w, priors, taus)
        masses = _MassCollector()
        worst = 0.0
        overlaps = []
        lengths = []
        for (src, tgt), ref, ref_decode in zip(pairs, refs, baseline):
            got = forward_nv(nvm, src, tgt, map_hook=masses.hook)
            worst = max(worst, float(np.max(np.abs(got - ref))))
            dec = greedy_decode(nvm, src, decode_steps)
            overlaps.append(token_overlap(ref_decode, dec))
            lengths.append(len(dec))
        rows.append(
            SweepRow(
                taus=taus,
                logit_max_diff=worst,
                overlap_pct=100.0 * float(np.mean(overlaps)),
                prior_mass_enc=masses.mean("encoder"),
                prior_mass_cross=masses.mean("cross"),
                prior_mass_dec=masses.mean("decoder"),
                mean_decode_len=float(np.mean(lengths)),
            )
        )
    return rows


SWEEP_HEADER = (
    "tau_alpha_e,tau_alpha_c,tau_alpha_d,tau_sigma_e,tau_sigma_c,tau_sigma_d,"
    "logit_max_diff,decode_overlap_pct,prior_mass_enc,prior_mass_cross,"
    "prior_mass_dec,mean_decode_len"
)


def sweep_csv(rows: list[SweepRow]) -> str:
    """One line per row: the six dials in TauConfig field order, then the
    SweepRow metrics in field order."""
    out = [SWEEP_HEADER]
    for r in rows:
        values = astuple(r.taus) + astuple(r)[1:]
        out.append(",".join(f"{v:.12g}" for v in values))
    return "\n".join(out) + "\n"
