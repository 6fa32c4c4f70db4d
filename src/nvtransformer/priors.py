"""Streaming estimation of per-site empirical priors from corpus forwards.

For every attention site the estimator accumulates, over all token vectors
the site consumes as keys/values:

  * per-dimension mean and (N-1) variance  -> prior component mean/std
  * mean and (N-1) std of the scaled squared norms ||z||^2 / (2 sqrt(d/h))
    -> prior pseudo-count (log) and the norm-spread unit epsilon_alpha

Every subsampled sequence is checked with the model's own token rule
(`model._check_tokens`) before any forward; an unusable one is reported as
"sequence {i} not usable: <the reason the model gives for it as a source>".
The corpus runs through the standard model in padded buckets: each shard
is sorted by length and cut into buckets of at most BUCKET_TOKENS padded
source tokens, and one forward per bucket hands every site its valid rows.
Every cross site reads the same final encoder states, so they share one
accumulation, made at the first cross site and merged into each cross
site's prior.  The forward stops once the last site has seen its rows,
before that site attends: at the last decoder layer's causal site (cross 0
with one decoder layer).  Nothing after it reaches a site, so that layer's
attention and FFN, the final norm and the output projection are never
computed.
Accumulation is merge-based Welford: each bucket contributes one batch per
site whose exact count/mean/M2 are folded in with the pairwise-merge
formula, so neither the bucketing nor sharding the corpus and merging shard
accumulators changes the result beyond rounding.  The brute-force oracle
that the streaming path must match, one accumulation over an explicit stack
of a site's vectors, is test-side (`tests/reference.py::site_stats`).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import CorpusError
from .model import BOS_ID, ModelWeights, _check_tokens, _pad, _teacher_forced, sites
# forward_standard is not called here; it is the per-sequence oracle of
# the bucketed pass, and bench/spans.py traces it in this namespace.
from .model import forward_standard
from .nvib import GROUPS, EmpiricalPrior
from .numeric import _check_integer, make_rng

__all__ = [
    "WelfordAccumulator",
    "reservoir_subsample",
    "estimate_priors",
    "prior_report",
]

VAR_FLOOR = 1e-12   # on the prior component variance, per dimension

# Padded source tokens per bucket forward.  Large enough that per-call
# overhead stops dominating at toy size, small enough that sorted buckets
# stay cache-resident and waste little padding at wide size.
BUCKET_TOKENS = 512


class _AllSitesSeen(Exception):
    """Raised by the estimator's site hook after the last site of a bucket
    to end that bucket's forward; nothing after it reaches a site."""


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
        # np.mean and np.sum's own reduction and division, without their wrappers
        b_mean = np.add.reduce(x, axis=0) / k
        b_m2 = np.add.reduce((x - b_mean) ** 2, axis=0)
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
        self.norm.add_batch(np.add.reduce(z * z, axis=1) / (2.0 * scale))

    def merge(self, other: "_SiteAcc") -> None:
        self.vec.merge(other.vec)
        self.norm.merge(other.norm)

    def finalize(self, group: str, layer_id: int) -> EmpiricalPrior:
        if self.vec.count < 2:
            raise CorpusError(f"site ({group}, {layer_id}) needs at least 2 vectors")
        var = np.maximum(self.vec.variance(), VAR_FLOOR)
        return EmpiricalPrior(
            mu_p=self.vec.mean.copy(),
            sigma_p=np.sqrt(var),
            log_alpha0_p=float(self.norm.mean),
            epsilon_alpha=float(np.sqrt(self.norm.variance())),
            layer_group=group,
            layer_id=layer_id,
        )


def reservoir_subsample(
    n: int, fraction: float, seed: int
) -> list[int]:
    """Indices of a seeded reservoir sample of size max(1, round(fraction *
    n)), returned in stream order; `round` takes a half to the even side, so
    n=5 at fraction 0.5 keeps 2 and n=7 keeps 4.  A bool is not a fraction."""
    if isinstance(fraction, (bool, np.bool_)):
        raise ValueError(f"fraction must be a number, got {fraction!r}")
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


def _buckets(lengths: np.ndarray) -> list[np.ndarray]:
    """Positions of a shard's sequences, stably sorted by length and cut
    into buckets that each hold as many sequences as fit BUCKET_TOKENS when
    padded to the bucket's longest (at least one)."""
    order = np.argsort(lengths, kind="stable")
    out, start = [], 0
    for end in range(1, order.size + 1):
        # sorted, so the next sequence is the longest if it joins
        if end == order.size or (end + 1 - start) * lengths[order[end]] > BUCKET_TOKENS:
            out.append(order[start:end])
            start = end
    return out


def estimate_priors(
    w: ModelWeights,
    corpus: list[list[int]],
    fraction: float = 1.0,
    seed: int = 0,
    shards: int = 1,
) -> list[EmpiricalPrior]:
    """Empirical priors for every attention site of `w`.

    Each subsampled sequence runs through the standard model teacher-forced
    (source = the sequence, decoder input = BOS + sequence, cut at
    max_len) and every site's key/value vectors feed that site's
    accumulators.  The sequences go through in padded buckets of similar
    length (see the module docstring); all of them are checked before the
    first forward, and the first unusable one in corpus order is named.
    `shards` splits the subsample into contiguous chunks accumulated
    independently and merged; the result does not depend on the shard
    count or the bucketing.
    """
    _check_integer(shards, "shards")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    idx = reservoir_subsample(len(corpus), fraction, seed)
    config = w.config
    site_list = sites(config)
    scale = np.sqrt(config.dim / config.heads)

    checked = []
    for i in idx:
        try:
            checked.append(_check_tokens(corpus[i], config, f"sequence {i}"))
        except ValueError as e:
            raise CorpusError(str(e)) from None
    lengths = np.array([seq.size for seq in checked])

    cut = config.max_len
    # shards past the subsample's size would hold nothing: the same priors, no empty loops
    bounds = np.linspace(0, len(idx), min(shards, len(idx)) + 1).astype(int)
    cross = [site for site in site_list if site[0] == "cross"]
    merged = {site: _SiteAcc.fresh(config.dim) for site in site_list}
    for a, b in zip(bounds[:-1], bounds[1:]):
        # every cross site reads the final encoder states: one accumulator
        memory = _SiteAcc.fresh(config.dim)
        accs = {site: memory if site in cross else _SiteAcc.fresh(config.dim)
                for site in site_list}
        seen = set()

        def hook(group: str, layer_id: int, z: np.ndarray, valid: np.ndarray) -> None:
            if (group, layer_id) in seen:   # a later cross site: cross 0's rows
                return
            accs[(group, layer_id)].add(z[valid], scale)
            seen.update(cross if group == "cross" else [(group, layer_id)])
            if len(seen) == len(site_list):
                raise _AllSitesSeen

        for bucket in _buckets(lengths[a:b]):
            pos = a + bucket
            ids, valid = _pad([checked[p] for p in pos])
            # each row's decoder input is ([BOS] + seq)[:max_len]
            first = np.ones((len(pos), 1), dtype=bool)
            tgt = np.concatenate((first * BOS_ID, ids), axis=1)[:, :cut]
            tgt_valid = np.concatenate((first, valid), axis=1)[:, :cut]
            seen.clear()
            with suppress(_AllSitesSeen):
                _teacher_forced(w, ids, tgt, hook, valid, tgt_valid)
        for key in merged:
            merged[key].merge(accs[key])
    return [merged[site].finalize(*site) for site in site_list]


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
