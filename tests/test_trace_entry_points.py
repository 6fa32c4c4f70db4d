"""The benchmark's tracer against the package: every function it patches
exists, fires as often as the decode and estimator walk it, and changes no
output.  Run in tier-1 so that a refactor which moves a traced call shows
here, not only in the benchmark's own self-tests."""

import importlib.util
import pathlib

import numpy as np
import pytest

from nvtransformer import evaluate, identity_taus, model, priors, reinterpret, serialize
from nvtransformer.evaluate import grid_points, make_random_corpus, sweep_csv

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists(spans):
    for owner, attr, name in spans.TRACED:
        assert callable(owner.__dict__.get(attr)), f"{name}: no {owner.__name__}.{attr}"


def test_traced_calls_and_outputs(spans, toy_model, toy_priors):
    cfg = toy_model.config
    twin = reinterpret(toy_model, toy_priors, identity_taus())
    src = [5, 9, 13, 40, 41]
    corpus = make_random_corpus(cfg, 30, seed=19)
    want_tokens = model.greedy_decode(twin, src, 8)
    want_priors = priors.estimate_priors(toy_model, corpus)

    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in spans.TRACED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        tokens = tracer.run_op(0, model.greedy_decode, twin, src, 8)
        decode_calls = tracer.calls()
        got_priors = tracer.run_op(1, priors.estimate_priors, toy_model, corpus)
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn

    # encoder sites once per decode; a causal and a cross site per decoder
    # layer and step
    steps = len(tokens)
    assert decode_calls["denoising.eval_dattn_multihead"] == (
        cfg.layers_enc + 2 * cfg.layers_dec * steps
    )
    # the twin's key map writes its rows without `project`
    assert "nvib.project" not in decode_calls
    assert tracer.calls()["priors.estimate_priors"] == 1

    assert tokens == want_tokens
    assert len(got_priors) == len(want_priors)
    for a, b in zip(got_priors, want_priors):
        assert (a.layer_group, a.layer_id) == (b.layer_group, b.layer_id)
        for name in ("mu_p", "sigma_p", "log_alpha0_p", "epsilon_alpha"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_traced_estimate_builds_each_twin_through_reinterpret(spans, toy_model, tmp_path):
    # what `estimate-prior` does, then loading its file back: one twin built
    # to save and one on load, each through `reinterpret`, so that a caller
    # that built its NvModel directly would show as a missing span
    corpus = make_random_corpus(toy_model.config, 30, seed=21)
    path = tmp_path / "twin.nvtx"

    def op():
        est = priors.estimate_priors(toy_model, corpus)
        serialize.save_weights(str(path), model.reinterpret(toy_model, est, identity_taus()))
        return est, serialize.load_weights(str(path))

    src, tgt = [5, 9, 13, 40, 41], [1, 8, 9, 10]
    want_priors, want_twin = op()
    want_bytes, want_logits = path.read_bytes(), model.forward_nv(want_twin, src, tgt)

    tracer = spans.Tracer()
    tracer.install()
    try:
        got_priors, got_twin = tracer.run_op(0, op)
    finally:
        tracer.uninstall()

    calls = tracer.calls()
    assert calls["model.reinterpret"] == 2
    assert calls["serialize.save_weights"] == calls["serialize.load_weights"] == 1
    assert path.read_bytes() == want_bytes
    np.testing.assert_array_equal(model.forward_nv(got_twin, src, tgt), want_logits)
    for a, b in zip(got_priors, want_priors, strict=True):
        for name in ("mu_p", "sigma_p", "log_alpha0_p", "epsilon_alpha"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_traced_standard_decode(spans, toy_model):
    # the standard model's sites all enter the twin's kernel, keyed as a
    # posterior without forms: encoder sites once per decode, a causal and
    # a cross site per decoder layer and step
    cfg = toy_model.config
    src = [5, 9, 13, 40, 41]
    want = model.greedy_decode(toy_model, src, 8)

    tracer = spans.Tracer()
    tracer.install()
    try:
        tokens = tracer.run_op(0, model.greedy_decode, toy_model, src, 8)
    finally:
        tracer.uninstall()

    assert tokens == want
    calls = tracer.calls()
    assert calls["denoising.eval_dattn_multihead"] == (
        cfg.layers_enc + 2 * cfg.layers_dec * len(tokens)
    )
    assert "attention.attention" not in calls


def test_traced_sweep_is_one_batch(spans, toy_model, toy_priors):
    # every point and pair in one batch: each site is entered once per
    # teacher-forced pass and decode step, by one kernel call over the
    # baseline's rows and the twins', which share layer norms and FFNs too;
    # the decode reads the pass's encoder states, so the encoder runs once
    cfg = toy_model.config
    args = (toy_model, toy_priors, grid_points("interp:3"), 2, 4)
    want = sweep_csv(evaluate.run_sweep(*args))

    tracer = spans.Tracer()
    tracer.install()
    try:
        rows = tracer.run_op(0, evaluate.run_sweep, *args)
    finally:
        tracer.uninstall()

    assert sweep_csv(rows) == want
    steps = evaluate.DECODE_STEPS
    assert all(r.mean_decode_len == steps for r in rows)  # no row stops early
    sites = cfg.layers_enc + 2 * cfg.layers_dec
    per_decode = 2 * cfg.layers_dec * steps
    calls = tracer.calls()
    assert calls["evaluate.run_sweep"] == 1
    assert calls["denoising.eval_dattn_multihead"] == sites + per_decode
    assert "attention.attention" not in calls
    assert "nvib.project" not in calls
    # one teacher-forced pass and one decode, the encoder once per sweep
    enc_norms, dec_norms = 2 * cfg.layers_enc + 1, 3 * cfg.layers_dec + 1
    assert calls["model.layer_norm"] == enc_norms + dec_norms * (1 + steps)
    assert calls["model.ffn"] == cfg.layers_enc + cfg.layers_dec * (1 + steps)
    assert "model.reinterpret" not in calls
