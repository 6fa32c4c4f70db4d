"""The kernels' buffer rule (see the `attention` module docstring): each
result is allocated once and transformed in place, and no kernel writes its
arguments."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from nvtransformer.attention import attention
from nvtransformer.denoising import (
    KeyedPosterior,
    eval_dattn_multihead,
    head_keys,
    standard_keys,
)
from nvtransformer.evaluate import make_random_corpus
from nvtransformer.model import (
    ModelConfig,
    _ffn,
    _Twins,
    init_weights,
    layer_norm,
    reinterpret,
)
from nvtransformer.numeric import softmax_rows
from nvtransformer.nvib import TauConfig, identity_taus, project
from nvtransformer.priors import estimate_priors

# a padded bucket of the estimator's toy-config pass: 28 sequences of up to
# 19 tokens, d 16, 2 heads
B, M, D, H = 28, 19, 16, 2


@pytest.fixture
def toy():
    """A fresh toy model and its priors, owned by one test: the tests below
    make their arrays read-only."""
    w = init_weights(ModelConfig(), seed=3)
    return w, estimate_priors(w, make_random_corpus(w.config, 40, seed=4))


def _site(w, priors, *taus, site=("decoder", 0)):
    """(params, projection, forms) of one site of the batch whose row b runs
    at taus[b % len(taus)]: the twin itself for one dial point, else
    a stacked `_Twins` batch."""
    if len(taus) == 1:
        nv = reinterpret(w, priors, *taus)
    else:
        nv = _Twins(w, priors, [taus[b % len(taus)] for b in range(B)])
    return w.dec[0].causal_attn, nv.projs[site], nv.forms[site]


def _inputs(seed, lengths=None):
    """(B, M, D) rows and their (B, M) validity, all valid when lengths is
    None."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.5, size=(B, M, D))
    lengths = np.full(B, M) if lengths is None else lengths
    return z, np.arange(M) < np.asarray(lengths)[:, None]


def _arrays(x):
    """Every ndarray reachable from x through dataclass fields and sequences."""
    if isinstance(x, np.ndarray):
        yield x
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _arrays(getattr(x, f.name))
    elif isinstance(x, (tuple, list)):
        for item in x:
            yield from _arrays(item)


def run_read_only(kernel, *args):
    """kernel(*args) with every array it is given read-only; checks that no
    input's bytes changed and that the result shares no memory with any."""
    arrays = list(_arrays(args))
    before = [a.tobytes() for a in arrays]
    for a in arrays:
        a.setflags(write=False)
    out = kernel(*args)
    assert [a.tobytes() for a in arrays] == before
    assert not any(np.shares_memory(out, a) for a in arrays)
    return out


class TestNoKernelWritesItsArguments:
    @pytest.mark.parametrize("mask", ["unmasked", "causal", "padded"])
    def test_attention(self, toy, mask):
        w, _ = toy
        lengths = np.random.default_rng(1).integers(4, M + 1, B)
        z, valid = _inputs(2, lengths if mask == "padded" else None)
        args = (z, z.copy(), w.dec[0].causal_attn, mask != "unmasked", valid)
        run_read_only(attention, *args)

    @pytest.mark.parametrize("layout", ["pass", "decode-view", "stacked-forms"])
    def test_eval_on_a_keyed_posterior(self, toy, layout):
        w, priors = toy
        lengths = np.random.default_rng(5).integers(4, M + 1, B)
        z, valid = _inputs(6, lengths)
        taus = [identity_taus()]
        if layout == "stacked-forms":
            taus = [TauConfig.uniform(a, 0.5) for a in (10.0, -3.0, -15.0, 0.0)]
        params, proj, forms = _site(w, priors, *taus)
        assert forms.f.ndim == (4 if layout == "stacked-forms" else 3)
        rows = head_keys(z, proj, params, forms, valid).rows
        queries, causal = z, True
        if layout == "decode-view":
            # a decoder layer's cache buffer, read up to the current step
            buf = np.zeros((B, M + 5, rows.shape[-1]))
            buf[:, : M + 1] = rows
            rows, queries, causal = buf[:, : M + 1], z[:, -1:], False
        run_read_only(eval_dattn_multihead, queries, KeyedPosterior(rows, forms), params, causal)

    def test_eval_on_a_dp_posterior(self, toy):
        w, priors = toy
        z, valid = _inputs(7, np.random.default_rng(8).integers(4, M + 1, B))
        params, proj, _ = _site(w, priors, TauConfig.uniform(-3.0, 0.5))
        run_read_only(eval_dattn_multihead, z, project(z, proj, valid), params, True)

    def test_head_keys(self, toy):
        w, priors = toy
        z, valid = _inputs(9, np.random.default_rng(10).integers(4, M + 1, B))
        params, proj, forms = _site(w, priors, TauConfig.uniform(-3.0, 0.5))
        run_read_only(lambda *a: head_keys(*a).rows, z, proj, params, forms, valid)

    def test_standard_keys_and_their_eval(self, toy):
        w, _ = toy
        z, valid = _inputs(18, np.random.default_rng(19).integers(4, M + 1, B))
        params = w.dec[0].causal_attn
        rows = run_read_only(lambda *a: standard_keys(*a).rows, z, params, valid)
        run_read_only(eval_dattn_multihead, z, KeyedPosterior(rows, None), params, True)

    def test_layer_norm_ffn_and_softmax(self, toy):
        w, _ = toy
        z, _ = _inputs(11)
        run_read_only(layer_norm, z, w.enc[0].ln1)
        run_read_only(_ffn, z.copy(), w.enc[0].ffn)
        scores = np.random.default_rng(12).normal(size=(B, H, M, M))
        scores[..., 1:][np.random.default_rng(13).random((B, H, M, M - 1)) < 0.3] = -np.inf
        run_read_only(softmax_rows, scores)


def _peak(call) -> int:
    """tracemalloc's peak over one call(), in bytes, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuffersPerCall:
    """The peak memory of one kernel call in units of its (B, h, m, n)
    score array.  Each result takes one buffer: the scores, which the
    softmax normalises in place into the weights, are the one score-sized
    buffer beside the projections (0.42 each here) and NumPy's fixed ufunc
    buffers.  Adding a bias, mask or softmax step out of place adds a
    score-sized one."""

    def test_padded_causal_attention(self, toy):
        w, _ = toy
        z, valid = _inputs(14, np.random.default_rng(15).integers(4, M + 1, B))
        params = w.dec[0].causal_attn
        score = B * H * M * M * 8
        # 2.85 in place; an out-of-place softmax peaks at 3.85, and an
        # out-of-place scale, mask and softmax at 5.35
        assert _peak(lambda: attention(z, z, params, True, valid)) / score < 3.3

    def test_head_space_eval(self, toy):
        w, priors = toy
        z, valid = _inputs(16, np.random.default_rng(17).integers(4, M + 1, B))
        params, proj, forms = _site(w, priors, TauConfig.uniform(-3.0, 0.5))
        dp = KeyedPosterior(head_keys(z, proj, params, forms, valid).rows, forms)
        score = B * H * M * (M + 1) * 8
        # 4.19, set by the mix's broadcast scratch, not the softmax;
        # out-of-place bias, softmax and mix terms, with the scores kept
        # through the mix, peak at 5.20
        assert _peak(lambda: eval_dattn_multihead(z, dp, params, True)) / score < 4.6

    def test_standard_keys_and_their_eval(self, toy):
        w, _ = toy
        z, valid = _inputs(16, np.random.default_rng(17).integers(4, M + 1, B))
        params = w.dec[0].causal_attn
        dp = standard_keys(z, params, valid)
        score = B * H * M * (M + 1) * 8
        # 2.21 in place; an out-of-place bias peaks at 2.77 and an
        # out-of-place softmax at 3.21
        assert _peak(lambda: eval_dattn_multihead(z, dp, params, True)) / score < 2.5
        # in units of the rows, the key map's one buffer: 1.03; a product
        # taken out of place and copied in peaks at 1.62
        assert _peak(lambda: standard_keys(z, params, valid)) / dp.rows.nbytes < 1.2
