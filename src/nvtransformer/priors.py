"""Streaming estimation of per-site empirical priors from corpus forwards.

For every attention site the estimator accumulates, over all token vectors
the site consumes as keys/values:

  * per-dimension mean and (N-1) variance  -> prior component mean/std
  * mean and (N-1) std of the scaled squared norms ||z||^2 / (2 sqrt(d/h))
    -> prior pseudo-count (log) and the norm-spread unit epsilon_alpha

Accumulation is merge-based Welford: each sequence contributes a small
batch whose exact count/mean/M2 are folded in with the pairwise-merge
formula, so sharding the corpus and merging shard accumulators gives the
same result as one pass (to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorpusError
from .model import BOS_ID, ModelWeights, forward_standard, sites
from .nvib import GROUPS, EmpiricalPrior
from .numeric import make_rng

__all__ = [
    "WelfordAccumulator",
    "reservoir_subsample",
    "site_stats",
    "estimate_priors",
    "prior_report",
]

VAR_FLOOR = 1e-12   # on the prior component variance, per dimension


class WelfordAccumulator:
    """Count/mean/M2 accumulator with exact pairwise merging.

    Works for scalars (shape ()) and vectors alike; `add_batch` folds a
    whole batch in at once by computing the batch's own moments and merging.
    """

    def __init__(self, shape: tuple[int, ...] = ()):
        self.count = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add_batch(self, x: np.ndarray) -> None:
        """Fold in a batch; axis 0 indexes observations."""
        x = np.asarray(x, dtype=np.float64)
        k = x.shape[0]
        if k == 0:
            return
        b_mean = np.mean(x, axis=0)
        b_m2 = np.sum((x - b_mean) ** 2, axis=0)
        self._merge(k, b_mean, b_m2)

    def merge(self, other: "WelfordAccumulator") -> None:
        self._merge(other.count, other.mean, other.m2)

    def _merge(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
        if count == 0:
            return
        if self.count == 0:
            self.count = count
            self.mean = np.array(mean, dtype=np.float64)
            self.m2 = np.array(m2, dtype=np.float64)
            return
        total = self.count + count
        delta = mean - self.mean
        self.mean = self.mean + delta * (count / total)
        self.m2 = self.m2 + m2 + delta * delta * (self.count * count / total)
        self.count = total

    def variance(self) -> np.ndarray:
        """Sample variance with the N-1 denominator."""
        if self.count < 2:
            raise CorpusError("need at least 2 observations for a variance")
        return self.m2 / (self.count - 1)


@dataclass
class _SiteAcc:
    vec: WelfordAccumulator
    norm: WelfordAccumulator

    @classmethod
    def fresh(cls, d: int) -> "_SiteAcc":
        return cls(WelfordAccumulator((d,)), WelfordAccumulator(()))

    def add(self, z: np.ndarray, scale: float) -> None:
        self.vec.add_batch(z)
        self.norm.add_batch(np.sum(z * z, axis=1) / (2.0 * scale))

    def merge(self, other: "_SiteAcc") -> None:
        self.vec.merge(other.vec)
        self.norm.merge(other.norm)

    def finalize(self, group: str, layer_id: int) -> EmpiricalPrior:
        var = np.maximum(self.vec.variance(), VAR_FLOOR)
        return EmpiricalPrior(
            mu_p=self.vec.mean.copy(),
            sigma_p=np.sqrt(var),
            log_alpha0_p=float(self.norm.mean),
            epsilon_alpha=float(np.sqrt(self.norm.variance())),
            layer_group=group,
            layer_id=layer_id,
        )


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
    if vectors.shape[0] < 2:
        raise CorpusError("need at least 2 vectors per site")
    acc = _SiteAcc.fresh(d)
    acc.add(vectors, np.sqrt(d / h))
    return acc.finalize(group, layer_id)


def reservoir_subsample(
    n: int, fraction: float, seed: int
) -> list[int]:
    """Indices of a seeded reservoir sample of ceil-rounded size
    max(1, round(fraction * n)), returned in stream order."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    if n == 0:
        raise CorpusError("corpus is empty")
    k = max(1, int(round(fraction * n)))
    rng = make_rng(seed)
    reservoir = list(range(min(k, n)))
    for t in range(k, n):
        j = int(rng.integers(0, t + 1))
        if j < k:
            reservoir[j] = t
    return sorted(reservoir)


def estimate_priors(
    w: ModelWeights,
    corpus: list[list[int]],
    fraction: float = 1.0,
    seed: int = 0,
    shards: int = 1,
) -> list[EmpiricalPrior]:
    """Empirical priors for every attention site of `w`.

    Each subsampled sequence runs through the standard model teacher-forced
    (source = the sequence, decoder input = BOS + sequence) and every site's
    key/value vectors feed that site's accumulators.  `shards` splits the
    subsample into contiguous chunks accumulated independently and merged;
    the result does not depend on the shard count.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    idx = reservoir_subsample(len(corpus), fraction, seed)
    chosen = [corpus[i] for i in idx]

    config = w.config
    site_list = sites(config)
    scale = np.sqrt(config.dim / config.heads)

    def run_shard(seqs: list[list[int]]) -> dict[tuple[str, int], _SiteAcc]:
        accs = {s: _SiteAcc.fresh(config.dim) for s in site_list}

        def hook(group: str, layer_id: int, z: np.ndarray) -> None:
            accs[(group, layer_id)].add(z, scale)

        for seq in seqs:
            tgt = ([BOS_ID] + list(seq))[: config.max_len]
            try:
                forward_standard(w, seq, tgt, site_hook=hook)
            except ValueError as e:
                raise CorpusError(f"sequence not usable: {e}") from e
        return accs

    bounds = np.linspace(0, len(chosen), shards + 1).astype(int)
    merged: dict[tuple[str, int], _SiteAcc] | None = None
    for s in range(shards):
        part = run_shard(chosen[bounds[s] : bounds[s + 1]])
        if merged is None:
            merged = part
        else:
            for key in merged:
                merged[key].merge(part[key])

    out = []
    for group, layer_id in site_list:
        acc = merged[(group, layer_id)]
        if acc.vec.count < 2:
            raise CorpusError(
                f"site ({group}, {layer_id}) saw fewer than 2 vectors"
            )
        out.append(acc.finalize(group, layer_id))
    return out


def prior_report(priors: list[EmpiricalPrior]) -> str:
    """CSV summary, one row per site, ordered by group then layer id."""
    order = {g: i for i, g in enumerate(GROUPS)}
    rows = ["layer,group,mu_mean,var_mean,log_alpha0,epsilon_alpha"]
    for p in sorted(priors, key=lambda p: (order[p.layer_group], p.layer_id)):
        rows.append(
            f"{p.layer_id},{p.layer_group},"
            f"{np.mean(p.mu_p):.12g},{np.mean(p.sigma_p ** 2):.12g},"
            f"{p.log_alpha0_p:.12g},{p.epsilon_alpha:.12g}"
        )
    return "\n".join(rows) + "\n"
