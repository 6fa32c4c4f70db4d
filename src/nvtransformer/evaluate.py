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
    _greedy,
    _pad,
    _teacher_forced,
    _Twins,
)
# forward_nv, forward_standard, greedy_decode and reinterpret are not called
# here: the sweep runs their batched internals; bench/spans.py traces them in
# this namespace.
from .model import forward_nv, forward_standard, greedy_decode, reinterpret
from .nvib import GROUPS, EmpiricalPrior, TauConfig, identity_taus
from .numeric import _check_count, _check_integer, make_rng
from .serialize import _TOKEN_ID

__all__ = [
    "TAU_ALPHA_RANGE",
    "TAU_SIGMA_RANGE",
    "CertifyResult",
    "SweepRow",
    "make_random_corpus",
    "random_eval_inputs",
    "token_overlap",
    "certify",
    "interp_taus",
    "grid_points",
    "run_sweep",
    "sweep_csv",
]

# dial search space, whose identity ends make `interp_taus(0)` the identity
TAU_ALPHA_RANGE = (-15.0, identity_taus().tau_alpha_enc)
TAU_SIGMA_RANGE = (identity_taus().tau_sigma_enc, 0.5)

FIRST_TOKEN = 3  # ids 0..2 are reserved (padding unused, BOS, EOS)

DECODE_STEPS = 16  # greedy decode length of every certify / sweep trial


def make_random_corpus(
    config: ModelConfig, n: int, seed: int, min_len: int = 4, max_len: int | None = None
) -> list[list[int]]:
    """Random token sequences over the non-reserved vocabulary, min_len..max_len long."""
    hi = max_len if max_len is not None else min(config.max_len - 1, 16)
    _check_count(n, "n")
    for name, value in (("min_len", min_len), ("max_len", hi)):
        _check_integer(value, name)
    if min_len < 1:
        raise ValueError(f"min_len must be at least 1, got {min_len}")
    if config.vocab <= FIRST_TOKEN or hi < min_len:
        raise ValueError(f"random corpus needs vocab > {FIRST_TOKEN} and lengths {min_len}..{hi}")
    rng = make_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(min_len, hi + 1))
        out.append(rng.integers(FIRST_TOKEN, config.vocab, length).tolist())
    return out


def random_eval_inputs(
    config: ModelConfig, k: int, seed: int
) -> list[tuple[list[int], list[int]]]:
    """(source, teacher-forced target) pairs with random contents."""
    _check_count(k, "k")
    # a source of 4+ tokens and a target of BOS plus 3+, ids past EOS
    if config.vocab <= FIRST_TOKEN or config.max_len < 5:
        raise ValueError(f"random eval inputs need vocab > {FIRST_TOKEN} and max_len >= 5")
    rng = make_rng(seed)
    pairs = []
    for _ in range(k):
        ls = int(rng.integers(4, min(12, config.max_len)))
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


def certify(
    w: ModelWeights,
    priors: list[EmpiricalPrior],
    taus: TauConfig,
    trials: int,
    tol: float,
    seed: int = 0,
) -> CertifyResult:
    """Equivalence check of reinterpret(w, priors, taus) against w: a
    one-point `run_sweep`.  Passes iff the worst teacher-forced logit
    deviation stays within `tol` and every greedy decode matches exactly.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    (row,) = run_sweep(w, priors, [taus], trials, seed)
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
    if not _TOKEN_ID.fullmatch(arg):  # one ASCII decimal, as a token id is
        raise ValueError(f"bad grid spec {spec!r}")
    k = int(arg)
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
) -> list[SweepRow]:
    """Evaluate every dial setting on one shared set of seeded inputs.

    The standard baseline's T input pairs and the K points x T pairs run as
    one padded batch of T + K*T rows, baseline first, over the shared base
    weights (`model._Twins`, which builds the twin rows in one pass per
    site): one teacher-forced pass and one greedy decode serve both kinds
    and share one encoder pass and cross keys.  Padded source and target
    positions are masked: their keys take no weight, and the logit
    difference and each group's [P] mass (of the map hook's rows past the
    baseline's) are read over valid query rows only.  Rows are in the
    order of `points`.
    """
    _check_integer(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not points:
        return []
    pairs = random_eval_inputs(w.config, trials, seed)
    k, t = len(points), len(pairs)
    batch = _Twins(w, priors, [taus for taus in points for _ in pairs], head=t)
    src, src_valid = _pad([s for s, _ in pairs] * (k + 1))
    tgt, tgt_valid = _pad([g for _, g in pairs] * (k + 1))
    total = {g: np.zeros(k) for g in GROUPS}
    count = dict.fromkeys(GROUPS, 0)  # every group has a site: none stays 0

    def hook(group: str, layer_id: int, weights: np.ndarray) -> None:
        queries = (src_valid if group == "encoder" else tgt_valid)[t:]
        per_row = np.sum(weights[t:, :, -1], axis=-1, where=queries)
        total[group] += per_row.reshape(k, t).sum(axis=1)
        count[group] += int(np.sum(queries[:t]))

    memory = {}  # the cross sites' keys, shared by both passes
    logits = _teacher_forced(batch, src, tgt, hook, src_valid, tgt_valid, memory)
    diff = np.abs(logits[t:] - np.tile(logits[:t], (k, 1, 1)))
    worst = np.max(diff, axis=(1, 2), where=tgt_valid[t:, :, None], initial=0.0)
    worst = worst.reshape(k, t).max(axis=1)
    decodes = _greedy(batch, src, min(DECODE_STEPS, w.config.max_len), src_valid, memory)
    baseline = decodes[:t]
    rows = []
    for i, taus in enumerate(points):
        dec = decodes[(i + 1) * t : (i + 2) * t]
        rows.append(
            SweepRow(
                taus=taus,
                logit_max_diff=float(worst[i]),
                overlap_pct=100.0 * float(np.mean(
                    [token_overlap(r, d) for r, d in zip(baseline, dec)]
                )),
                prior_mass_enc=float(total["encoder"][i]) / count["encoder"],
                prior_mass_cross=float(total["cross"][i]) / count["cross"],
                prior_mass_dec=float(total["decoder"][i]) / count["decoder"],
                mean_decode_len=float(np.mean([len(d) for d in dec])),
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
