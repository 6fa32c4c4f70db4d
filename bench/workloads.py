"""The benchmark's workloads: set-up, per-op inputs, the op and its check.

Every workload draws its inputs from the run seed alone.  The op is the
call a researcher makes and waits for; the check decides whether the op's
output is correct and runs outside the op's timing.  See README.md in this
directory for why each workload was chosen.
"""

from __future__ import annotations

import math
import os
import pickle

import numpy as np

from nvtransformer import evaluate, model, priors, serialize
from nvtransformer.evaluate import make_random_corpus
from nvtransformer.model import BOS_ID, ModelConfig
from nvtransformer.nvib import TauConfig

TOY = ModelConfig()
WIDE = ModelConfig(
    vocab=512, dim=128, heads=8, layers_enc=6, layers_dec=6, ffn_dim=512,
    max_len=128,
)

IDENTITY_TOL = 1e-5  # the tolerance `certify` uses by default

# `init-model`'s default seed.  The model is the system under test and stays
# fixed; the run seed draws the corpora and the op inputs.
MODEL_SEED = 0


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def _identity_diff(twin, w, src, tgt) -> float:
    return float(np.max(np.abs(model.forward_nv(twin, src, tgt)
                               - model.forward_standard(w, src, tgt))))


class Workload:
    """One benchmark workload.  `setup` is timed and repeated; `prepare` and
    `make_input` are untimed; `op` is the timed unit of work.

    `reference` is (width, iterations) of the computation run.ScaledClock
    times between calls; the iterations make it take about run.REF_MS on an
    uncontended 2-core x86_64 VM with one OpenBLAS thread.
    """

    reference = (TOY.dim, 1300)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after set-up, such as computing expected outputs."""

    def make_input(self, i: int):
        return op_seed(self.seed, i)

    def op(self, inp):
        raise NotImplementedError

    def tokens(self, inp, out) -> float:
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def fingerprint(self, inp, out) -> bytes:
        """Bytes that change whenever any bit of the output changes."""
        return pickle.dumps(out, protocol=4)

    def identity_diff(self, inp, out) -> float:
        """Max logit difference between the twin at the identity dials and
        the standard model, for the accuracy-next-to-time record."""
        raise NotImplementedError

    def _init_model(self, config: ModelConfig):
        """What `init-model` does, then loading the file back."""
        serialize.save_weights(self.path("base.nvtx"), model.init_weights(config, MODEL_SEED))
        return serialize.load_weights(self.path("base.nvtx"))

    def _estimate_prior(self, w, corpus):
        """What `estimate-prior` does, then loading the twin back."""
        est = priors.estimate_priors(w, corpus)
        serialize.save_weights(self.path("twin.nvtx"), model.reinterpret(w, est, TauConfig()))
        return serialize.load_weights(self.path("twin.nvtx"))


class ToySweep(Workload):
    """`sweep --grid interp:3 --trials 1` on the default toy config."""

    corpus_size = 300
    trials = 1

    def setup(self) -> None:
        corpus = make_random_corpus(TOY, self.corpus_size, self.seed + 1)
        self.w = self._init_model(TOY)
        self.twin = self._estimate_prior(self.w, corpus)

    def op(self, inp):
        points = evaluate.grid_points("interp:3")
        return evaluate.run_sweep(self.w, self.twin.priors, points, trials=self.trials, seed=inp)

    def tokens(self, inp, out) -> float:
        return sum(r.mean_decode_len * self.trials for r in out)

    def check(self, inp, out) -> bool:
        if len(out) != 3:
            return False
        first = out[0]
        if not (first.logit_max_diff <= IDENTITY_TOL and first.overlap_pct == 100.0):
            return False
        for r in out:
            masses = (r.prior_mass_enc, r.prior_mass_cross, r.prior_mass_dec)
            values = (r.logit_max_diff, r.overlap_pct, r.mean_decode_len, *masses)
            if not all(math.isfinite(v) for v in values):
                return False
            if not all(0.0 <= v <= 1.0 for v in masses):
                return False
        return True

    def identity_diff(self, inp, out) -> float:
        return out[0].logit_max_diff


class ToyEstimate(Workload):
    """`estimate-prior` on a fresh 50-sequence corpus per op, toy config."""

    corpus_size = 50

    def setup(self) -> None:
        self.w = self._init_model(TOY)

    def make_input(self, i: int):
        return make_random_corpus(TOY, self.corpus_size, op_seed(self.seed, i), 4, 30)

    def op(self, inp):
        est = priors.estimate_priors(self.w, inp)
        serialize.save_weights(self.path("op.nvtx"), model.reinterpret(self.w, est, TauConfig()))
        return est, serialize.load_weights(self.path("op.nvtx"))

    def tokens(self, inp, out) -> float:
        return sum(len(s) for s in inp)

    def check(self, inp, out) -> bool:
        est, loaded = out
        if not isinstance(loaded, model.NvModel) or len(loaded.priors) != len(est):
            return False
        return all(_same_prior(a, b) for a, b in zip(est, loaded.priors))

    def fingerprint(self, inp, out) -> bytes:
        with open(self.path("op.nvtx"), "rb") as fh:
            return pickle.dumps(out[0], protocol=4) + fh.read()

    def identity_diff(self, inp, out) -> float:
        seq = inp[0]
        return _identity_diff(out[1], self.w, seq, [BOS_ID] + seq)


def _same_prior(a, b) -> bool:
    return (
        a.layer_group == b.layer_group
        and a.layer_id == b.layer_id
        and a.mu_p.tobytes() == b.mu_p.tobytes()
        and a.sigma_p.tobytes() == b.sigma_p.tobytes()
        and float(a.log_alpha0_p).hex() == float(b.log_alpha0_p).hex()
        and float(a.epsilon_alpha).hex() == float(b.epsilon_alpha).hex()
    )


class WideDecode(Workload):
    """Greedy decoding through the twin at the identity dials, wide config."""

    reference = (WIDE.dim, 23)
    corpus_size = 16
    pool_size = 16
    steps = 8
    src_lengths = (64, 96)

    def setup(self) -> None:
        corpus = make_random_corpus(WIDE, self.corpus_size, self.seed + 1, *self.src_lengths)
        self.w = self._init_model(WIDE)
        self.twin = self._estimate_prior(self.w, corpus)

    def prepare(self) -> None:
        # Source lengths are spread evenly over the range and only their
        # order and contents depend on the seed, so the op-time
        # distribution is the same for every seed.
        rng = np.random.default_rng(self.seed)
        lo, hi = self.src_lengths
        lengths = np.linspace(lo, hi, self.pool_size).round().astype(int)
        rng.shuffle(lengths)
        self.pool = [rng.integers(evaluate.FIRST_TOKEN, WIDE.vocab, n).tolist()
                     for n in lengths]
        self.expected = [model.greedy_decode(self.w, src, self.steps) for src in self.pool]

    def make_input(self, i: int):
        return i % self.pool_size

    def op(self, inp):
        return model.greedy_decode(self.twin, self.pool[inp], self.steps)

    def tokens(self, inp, out) -> float:
        return len(out)

    def check(self, inp, out) -> bool:
        return out == self.expected[inp]

    def identity_diff(self, inp, out) -> float:
        tgt = [BOS_ID] + self.expected[inp][:-1]
        return _identity_diff(self.twin, self.w, self.pool[inp], tgt)


WORKLOADS = {
    "toy-sweep": ToySweep,
    "toy-estimate": ToyEstimate,
    "wide-decode": WideDecode,
}
