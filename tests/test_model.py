"""Tests for the toy encoder-decoder model and its reinterpreted twin."""

import dataclasses
import hashlib
import pathlib
import tracemalloc
from functools import partial

import numpy as np
import pytest

from nvtransformer import (
    BOS_ID,
    EOS_ID,
    ModelConfig,
    ModelWeights,
    NvModel,
    eval_dattn_multihead,
    forward_nv,
    forward_standard,
    greedy_decode,
    identity_taus,
    init_weights,
    load_weights,
    reinterpret,
    save_weights,
)
from nvtransformer import model as model_mod
from nvtransformer import serialize
from nvtransformer.attention import attention
from nvtransformer.denoising import KeyedPosterior, key_rows
from nvtransformer.evaluate import grid_points, make_random_corpus, random_eval_inputs, run_sweep
from nvtransformer.model import (
    LN_EPS,
    LayerNormParams,
    _greedy,
    _pad,
    _site_ops,
    _site_params,
    _step_logits,
    _teacher_forced,
    _Twins,
    layer_norm,
    sinusoidal_positions,
)
from nvtransformer.nvib import DpPosterior, TauConfig
from nvtransformer.priors import estimate_priors

DATA = pathlib.Path(__file__).parent / "data"


def group_projs(m, group):
    """The twin's projections of one group's sites, by layer."""
    return [proj for (g, _), proj in m.projs.items() if g == group]


def general_site_ops(model, hook=None):
    """`_site_ops` with every twin site on the general path, the reference
    the head-space path is checked against: a site keeps its posterior's
    own rows [mu | sigma | log alpha] in the first 2d+1 columns of the
    package's key rows (`key_rows`, which the decode's causal cache keys a
    step at a time), and attends over the `DpPosterior` they hold.  Patched
    over `model._site_ops`; the standard model's ops are unchanged."""
    if isinstance(model, ModelWeights):
        return _site_ops(model, hook)
    params, d = _site_params(model.base), model.base.config.dim

    def keys(site, rows, valid, out=None):
        dp = model_mod.project(rows, model.projs[site], valid)
        out = key_rows(rows) if out is None else out
        parts = [dp.mu, dp.sigma, dp.log_alpha[..., None]]
        np.concatenate(parts, axis=-1, out=out[..., : 2 * d + 1])
        return KeyedPosterior(out, None)

    def attend(site, q, kv, causal=False):
        kv = kv.rows
        dp = DpPosterior(kv[..., :d], kv[..., d : 2 * d], kv[..., 2 * d])
        sink = None if hook is None else partial(hook, *site)
        return eval_dattn_multihead(q, dp, params[site], causal, sink)

    return model.base, keys, attend


def attention_site_ops(model, hook=None):
    """`_site_ops` with every standard site on `attention.attention`, the
    independent reference for the standard model on the twin's kernel: a
    site keeps its rows as keys, each with its validity in the next column,
    in the first d+1 columns of the package's key rows (`key_rows`, which
    the decode's causal cache keys a step at a time), whose last row, the
    [P] slot, has validity 0; it attends over the rows but that last with
    the standard kernel, which hides padded keys by their validity.
    Patched over `model._site_ops`; a twin's ops are unchanged."""
    if not isinstance(model, ModelWeights):
        return _site_ops(model, hook)
    params, d = _site_params(model), model.config.dim

    def keys(site, rows, valid, out=None):
        if hook is not None:
            hook(*site, rows, valid)
        out = key_rows(rows) if out is None else out
        valid = np.broadcast_to(True if valid is None else valid, rows.shape[:-1])
        np.concatenate((rows, valid[..., None]), axis=-1, out=out[..., :-1, : d + 1])
        out[..., -1, d] = 0.0
        return KeyedPosterior(out, None)

    def attend(site, q, kv, causal=False):
        kv = kv.rows[..., :-1, :]
        return attention(q, kv[..., :d], params[site], causal, key_valid=kv[..., d] == 1.0)

    return model, keys, attend


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.vocab == 64 and cfg.dim == 16

    def test_vocab_floor(self):
        with pytest.raises(ValueError, match="vocab"):
            ModelConfig(vocab=2)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError, match="divide"):
            ModelConfig(dim=16, heads=3)

    def test_positive_fields(self):
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(layers_dec=0)

    @pytest.mark.parametrize(
        "field, value",
        [("heads", True), ("dim", 16.0), ("max_len", 32.0), ("vocab", np.float64(64))],
        ids=["bool-heads", "float-dim", "float-max_len", "numpy-float-vocab"],
    )
    def test_fields_must_be_integers(self, field, value):
        # heads=True once built a 1-head config; dim=16.0 failed in init_weights
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ModelConfig(**{field: value})
        default = getattr(ModelConfig(), field)
        assert ModelConfig(**{field: np.int64(default)}) == ModelConfig()


CONFIG_SIZES = {
    "toy": {},
    "wide": dict(vocab=512, dim=128, heads=8, layers_enc=6, layers_dec=6, ffn_dim=512,
                 max_len=128),
    "uneven": dict(vocab=7, dim=6, heads=3, layers_enc=1, layers_dec=3, ffn_dim=5, max_len=9),
}


class TestConfigBound:
    @pytest.mark.parametrize("fields", CONFIG_SIZES.values(), ids=CONFIG_SIZES)
    def test_bound_is_the_weight_count_init_weights_draws(self, monkeypatch, fields):
        w = init_weights(ModelConfig(**fields), seed=0)
        size = sum(a.size for a in serialize._leaves(w))
        monkeypatch.setattr(model_mod, "MAX_WEIGHTS", size)
        assert ModelConfig(**fields) == w.config
        monkeypatch.setattr(model_mod, "MAX_WEIGHTS", size - 1)
        with pytest.raises(ValueError, match=f"config has {size} weights, more than MAX_WEIGHTS"):
            ModelConfig(**fields)

    @pytest.mark.parametrize(
        "fields",
        [dict(max_len=10**9), dict(vocab=10**12), dict(ffn_dim=2**40), dict(layers_dec=10**7),
         dict(dim=2**20, heads=1)],
        ids=["max_len", "vocab", "ffn_dim", "layers_dec", "dim"],
    )
    def test_config_too_large_to_build_is_refused_unallocated(self, fields):
        # once accepted, init_weights then allocated until the process died
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than MAX_WEIGHTS 134217728"):
                ModelConfig(**fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestPositions:
    def test_shape_and_first_row(self):
        pe = sinusoidal_positions(8, 6)
        assert pe.shape == (8, 6)
        np.testing.assert_array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_frozen_entries(self):
        pe = sinusoidal_positions(4, 4)
        np.testing.assert_allclose(pe[1, 0], np.sin(1.0), rtol=1e-15)
        np.testing.assert_allclose(pe[1, 1], np.cos(1.0), rtol=1e-15)
        # pair index 1 uses wavelength 10000^(2/4): angle = 3/100
        np.testing.assert_allclose(pe[3, 2], np.sin(0.03), rtol=1e-15)
        np.testing.assert_allclose(pe[3, 3], np.cos(0.03), rtol=1e-15)


class TestLayerNorm:
    def test_unit_gain_normalises(self):
        rng = np.random.default_rng(20)
        x = rng.normal(2.0, 3.0, size=(5, 16))
        out = layer_norm(x, LayerNormParams(g=np.ones(16), b=np.zeros(16)))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-4)

    def test_gain_offset_applied(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 4))
        g = rng.uniform(0.5, 2.0, 4)
        b = rng.normal(size=4)
        base = layer_norm(x, LayerNormParams(g=np.ones(4), b=np.zeros(4)))
        out = layer_norm(x, LayerNormParams(g=g, b=b))
        np.testing.assert_allclose(out, base * g + b, rtol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(7, 16), (3, 7, 16), (1, 1, 16), (90, 128), (2, 45, 128)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_bits_match_the_np_var_form(self, shape):
        # np.var takes the same centred squares and mean, so reusing them
        # must not move a bit
        rng = np.random.default_rng(sum(shape))
        d = shape[-1]
        p = LayerNormParams(g=rng.uniform(0.2, 3.0, d), b=rng.normal(0.0, 0.75, d))
        for scale in (1e-3, 1.0, 30.0):
            x = rng.normal(0.5, scale, size=shape)
            mu = np.mean(x, axis=-1, keepdims=True)
            var = np.var(x, axis=-1, keepdims=True)
            want = (x - mu) / np.sqrt(var + LN_EPS) * p.g + p.b
            np.testing.assert_array_equal(layer_norm(x, p), want)


class TestInitWeights:
    def test_deterministic(self):
        cfg = ModelConfig()
        a = init_weights(cfg, seed=3)
        b = init_weights(cfg, seed=3)
        np.testing.assert_array_equal(a.tok_emb, b.tok_emb)
        np.testing.assert_array_equal(a.dec[1].cross_attn.wq, b.dec[1].cross_attn.wq)

    def test_seeds_differ(self):
        cfg = ModelConfig()
        a = init_weights(cfg, seed=3)
        b = init_weights(cfg, seed=4)
        assert not np.array_equal(a.tok_emb, b.tok_emb)

    def test_structure(self):
        cfg = ModelConfig(layers_enc=3, layers_dec=1)
        w = init_weights(cfg, seed=0)
        assert len(w.enc) == 3 and len(w.dec) == 1
        assert w.tok_emb.shape == (cfg.vocab, cfg.dim)
        assert w.pos_enc.shape == (cfg.max_len, cfg.dim)
        assert w.w_out.shape == (cfg.dim, cfg.vocab)


class TestForwardStandard:
    def test_shape_and_finite(self, toy_model):
        logits = forward_standard(toy_model, [3, 4, 5], [BOS_ID, 6, 7])
        assert logits.shape == (3, toy_model.config.vocab)
        assert np.all(np.isfinite(logits))

    def test_golden_logits(self):
        # frozen reference output; guards against silent semantic drift
        cfg = ModelConfig(
            vocab=32, dim=16, heads=2, layers_enc=2, layers_dec=2,
            ffn_dim=32, max_len=32,
        )
        w = init_weights(cfg, seed=1234)
        logits = forward_standard(w, [3, 9, 17, 4, 30, 5], [BOS_ID, 12, 7, 26])
        expected = np.loadtxt(DATA / "toy_logits.txt")
        np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)

    def test_decoder_causality_bitwise(self, toy_model):
        src = [3, 4, 5, 6]
        a = forward_standard(toy_model, src, [BOS_ID, 8, 9, 10])
        b = forward_standard(toy_model, src, [BOS_ID, 8, 9, 11])
        np.testing.assert_array_equal(a[:3], b[:3])
        assert not np.array_equal(a[3], b[3])

    def test_site_hook_coverage(self, toy_model):
        seen = []
        forward_standard(
            toy_model, [3, 4, 5], [BOS_ID, 6],
            site_hook=lambda g, l, z: seen.append((g, l, z.shape)),
        )
        assert seen == [
            ("encoder", 0, (3, 16)),
            ("encoder", 1, (3, 16)),
            ("decoder", 0, (2, 16)),
            ("cross", 0, (3, 16)),
            ("decoder", 1, (2, 16)),
            ("cross", 1, (3, 16)),
        ]

    def test_cross_sites_share_final_encoder_state(self, toy_model):
        mats = {}
        forward_standard(
            toy_model, [3, 4, 5], [BOS_ID, 6],
            site_hook=lambda g, l, z: mats.setdefault((g, l), z),
        )
        np.testing.assert_array_equal(mats[("cross", 0)], mats[("cross", 1)])

    @pytest.mark.parametrize("kind", ["other", "dict"])
    @pytest.mark.parametrize("forward", [forward_standard, forward_nv], ids=["standard", "nv"])
    def test_forward_passes_refuse_the_wrong_model_kind(
        self, toy_model, toy_priors, forward, kind
    ):
        # each once failed with an AttributeError on the model's fields
        other = toy_model if forward is forward_nv else reinterpret(
            toy_model, toy_priors, identity_taus()
        )
        model = other if kind == "other" else {}
        with pytest.raises(TypeError, match=f"got {type(model).__name__}$"):
            forward(model, [3, 4], [BOS_ID, 5])

    def test_input_validation(self, toy_model):
        with pytest.raises(ValueError, match="nonempty"):
            forward_standard(toy_model, [], [BOS_ID])
        with pytest.raises(ValueError, match="max_len"):
            forward_standard(toy_model, list(range(3, 40)), [BOS_ID])
        with pytest.raises(ValueError, match="outside"):
            forward_standard(toy_model, [3, 64], [BOS_ID])
        with pytest.raises(ValueError, match="outside"):
            forward_standard(toy_model, [3], [-1])
        with pytest.raises(ValueError, match="source not usable: contains a bool"):
            greedy_decode(toy_model, [4, True], 3)
        # all bools, as a list or an array, are held as bools: the old message
        for ids in ([True, False], np.array([True, False])):
            with pytest.raises(ValueError, match="not int64-sized integers"):
                forward_standard(toy_model, ids, [BOS_ID])

    @pytest.mark.parametrize(
        "src, tgt, what",
        [([True, 6], [BOS_ID], "source"), ([3, 6], [BOS_ID, np.False_], "target"),
         ((5, np.True_), [BOS_ID], "source")],
        ids=["bool-in-source", "numpy-bool-in-target", "numpy-bool-in-tuple"],
    )
    def test_bool_ids_in_a_list_are_refused(self, toy_model, src, tgt, what):
        # NumPy reads [True, 6] as [1, 6], which ran as BOS then token 6
        with pytest.raises(ValueError, match=f"{what} not usable: contains a bool, not a token id"):
            forward_standard(toy_model, src, tgt)


class TestReinterpret:
    def test_canonical_ordering(self, toy_model, toy_priors):
        shuffled = list(reversed(toy_priors))
        m = reinterpret(toy_model, shuffled, identity_taus())
        sites = [(p.layer_group, p.layer_id) for p in m.priors]
        assert sites == [
            ("encoder", 0), ("encoder", 1),
            ("cross", 0), ("cross", 1),
            ("decoder", 0), ("decoder", 1),
        ]
        assert len(group_projs(m, "encoder")) == 2
        assert len(group_projs(m, "cross")) == 2
        assert len(group_projs(m, "decoder")) == 2

    def test_missing_site_rejected(self, toy_model, toy_priors):
        with pytest.raises(ValueError, match="missing"):
            reinterpret(toy_model, toy_priors[:-1], identity_taus())

    def test_duplicate_site_rejected(self, toy_model, toy_priors):
        with pytest.raises(ValueError, match="duplicate"):
            reinterpret(
                toy_model, toy_priors + [toy_priors[0]], identity_taus()
            )

    def test_dim_mismatch_rejected(self, toy_model, toy_priors):
        bad = dataclasses.replace(
            toy_priors[0],
            mu_p=np.zeros(8),
            sigma_p=np.ones(8),
        )
        with pytest.raises(ValueError, match="dimension"):
            reinterpret(toy_model, [bad] + toy_priors[1:], identity_taus())

    def test_group_dials_reach_only_their_group(self, toy_model, toy_priors):
        taus = TauConfig(tau_alpha_enc=-5.0, tau_sigma_cross=0.3)
        m = reinterpret(toy_model, toy_priors, taus)
        for proj in group_projs(m, "encoder"):
            assert proj.b_alpha == -5.0 * proj.prior.epsilon_alpha
        for proj in group_projs(m, "cross"):
            np.testing.assert_allclose(
                proj.b_sigma, 2.0 * np.log(proj.prior.sigma_p * 0.3), rtol=1e-15
            )
        for proj in group_projs(m, "decoder"):
            assert proj.b_alpha == 10.0 * proj.prior.epsilon_alpha

    @pytest.mark.parametrize("spec", ["interp:3", "random:2"])
    def test_replaced_dials_are_the_twin_at_those_dials(
        self, toy_model, toy_priors, tmp_path, spec
    ):
        # replace once kept the identity twin's projections and forms under
        # the new dials, and saved a file that loaded as another model
        twin = reinterpret(toy_model, toy_priors, identity_taus())
        src, tgt = [5, 9, 13, 40, 41, 7], [BOS_ID, 8, 9, 10, 33]
        path = str(tmp_path / "moved.nvtx")
        for taus in grid_points(spec)[1:]:
            want = reinterpret(toy_model, toy_priors, taus)
            logits, tokens = forward_nv(want, src, tgt), greedy_decode(want, src, 16)
            assert not np.array_equal(logits, forward_nv(twin, src, tgt))
            moved = dataclasses.replace(twin, taus=taus)
            save_weights(path, moved)
            for got in (moved, load_weights(path)):
                assert got.taus == taus
                np.testing.assert_array_equal(forward_nv(got, src, tgt), logits)
                assert greedy_decode(got, src, 16) == tokens

    def test_projections_and_forms_cannot_be_passed_in(self, toy_model, toy_priors):
        twin = reinterpret(toy_model, toy_priors, identity_taus())
        for name in ("head", "projs", "forms"):
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                dataclasses.replace(twin, **{name: getattr(twin, name)})
        with pytest.raises(TypeError, match="one TauConfig"):
            NvModel(toy_model, toy_priors, [identity_taus()])
        with pytest.raises(TypeError, match="one TauConfig"):
            _Twins(toy_model, toy_priors, identity_taus(), head=2)

    @pytest.mark.parametrize("head", [0, 2])
    def test_a_twin_batch_is_refused_where_a_twin_is_taken(
        self, toy_model, toy_priors, tmp_path, head
    ):
        batch = _Twins(toy_model, toy_priors, grid_points("interp:2"), head=head)
        path = tmp_path / "batch.nvtx"
        with pytest.raises(TypeError, match="got _Twins$"):
            forward_nv(batch, [3, 4], [BOS_ID, 5])
        with pytest.raises(TypeError, match="cannot decode with _Twins$"):
            greedy_decode(batch, [3, 4], 4)
        with pytest.raises(TypeError, match="cannot serialise _Twins$"):
            save_weights(str(path), batch)
        assert not path.exists()


class TestForwardNv:
    def test_identity_matches_standard(self, toy_model, toy_priors):
        m = reinterpret(toy_model, toy_priors, identity_taus())
        rng = np.random.default_rng(22)
        for _ in range(3):
            src = rng.integers(3, 64, size=rng.integers(2, 12)).tolist()
            tgt = [BOS_ID] + rng.integers(3, 64, size=5).tolist()
            nv = forward_nv(m, src, tgt)
            std = forward_standard(toy_model, src, tgt)
            np.testing.assert_allclose(nv, std, rtol=0, atol=1e-5)

    def test_identity_decodes_match(self, toy_model, toy_priors):
        m = reinterpret(toy_model, toy_priors, identity_taus())
        for src in ([5, 9, 13], [40, 41, 42, 43, 44]):
            assert greedy_decode(m, src, 12) == greedy_decode(toy_model, src, 12)

    def test_map_hook_sites_and_shapes(self, toy_model, toy_priors):
        m = reinterpret(toy_model, toy_priors, identity_taus())
        seen = {}
        forward_nv(
            m, [3, 4, 5], [BOS_ID, 6],
            map_hook=lambda g, l, mat: seen.setdefault((g, l), mat),
        )
        assert set(seen) == {
            ("encoder", 0), ("encoder", 1),
            ("cross", 0), ("cross", 1),
            ("decoder", 0), ("decoder", 1),
        }
        assert seen[("encoder", 0)].shape == (3, 4)   # n_src queries, n_src+1
        assert seen[("decoder", 1)].shape == (2, 3)   # n_tgt queries, n_tgt+1
        assert seen[("cross", 0)].shape == (2, 4)     # n_tgt queries, n_src+1
        for mat in seen.values():
            np.testing.assert_allclose(np.sum(mat, axis=1), 1.0, rtol=1e-12)

    def test_map_hook_order_matches_site_hook(self, toy_model, toy_priors):
        # the order test_site_hook_coverage pins for forward_standard
        m = reinterpret(toy_model, toy_priors, identity_taus())
        nv_order, std_order = [], []
        forward_nv(
            m, [3, 4, 5], [BOS_ID, 6],
            map_hook=lambda g, l, mat: nv_order.append((g, l)),
        )
        forward_standard(
            toy_model, [3, 4, 5], [BOS_ID, 6],
            site_hook=lambda g, l, z: std_order.append((g, l)),
        )
        assert nv_order == std_order == [
            ("encoder", 0), ("encoder", 1),
            ("decoder", 0), ("cross", 0),
            ("decoder", 1), ("cross", 1),
        ]

    def test_causality_bitwise(self, toy_model, toy_priors):
        m = reinterpret(toy_model, toy_priors, identity_taus())
        src = [3, 4, 5, 6]
        a = forward_nv(m, src, [BOS_ID, 8, 9, 10])
        b = forward_nv(m, src, [BOS_ID, 8, 9, 11])
        np.testing.assert_array_equal(a[:3], b[:3])

    def test_collapse_routes_to_prior(self, toy_model, toy_priors):
        taus = TauConfig(
            tau_alpha_enc=-30.0, tau_alpha_cross=-30.0, tau_alpha_dec=-30.0,
            tau_sigma_enc=0.25, tau_sigma_cross=0.25, tau_sigma_dec=0.25,
        )
        m = reinterpret(toy_model, toy_priors, taus)
        mins = []
        forward_nv(
            m, [3, 4, 5, 6, 7], [BOS_ID, 8, 9],
            map_hook=lambda g, l, mat: mins.append(np.min(mat[:, -1])),
        )
        assert len(mins) == 6
        assert min(mins) > 0.99


class TestGreedyDecode:
    def test_deterministic_and_bounded(self, toy_model):
        out = greedy_decode(toy_model, [3, 4, 5], 8)
        assert out == greedy_decode(toy_model, [3, 4, 5], 8)
        assert 1 <= len(out) <= 8
        assert all(isinstance(t, int) for t in out)

    def test_zero_steps(self, toy_model):
        assert greedy_decode(toy_model, [3, 4, 5], 0) == []

    def test_zero_steps_still_checks_vocabulary(self, toy_model):
        with pytest.raises(ValueError, match="outside"):
            greedy_decode(toy_model, [999], 0)

    def test_zero_steps_still_rejects_empty_source(self, toy_model):
        with pytest.raises(ValueError, match="nonempty"):
            greedy_decode(toy_model, [], 0)

    @pytest.mark.parametrize("src", [[3.7, 5], [3, 2**70]], ids=["float", "past-int64"])
    def test_rejects_ids_that_are_not_int64_integers(self, toy_model, src):
        # [3.7, 5] once decoded as [3, 5]
        with pytest.raises(ValueError, match="not int64-sized integers"):
            greedy_decode(toy_model, src, 3)

    def test_negative_steps_rejected(self, toy_model):
        with pytest.raises(ValueError, match="nonnegative"):
            greedy_decode(toy_model, [3, 4, 5], -1)

    @pytest.mark.parametrize("steps", [2.5, True], ids=["float", "bool"])
    def test_non_integer_steps_rejected_first(self, toy_model, steps):
        # 2.5 once raised NumPy's TypeError from inside the step loop and
        # True decoded one token; the empty source shows no work came first
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            greedy_decode(toy_model, [], steps)

    def test_numpy_integer_steps_accepted(self, toy_model):
        src = [3, 4, 5]
        assert greedy_decode(toy_model, src, np.int64(3)) == greedy_decode(toy_model, src, 3)

    def test_ties_resolve_to_lowest_id(self, toy_model):
        # equal logits everywhere: argmax must pick token 0 each step
        flat = dataclasses.replace(
            toy_model,
            w_out=np.zeros_like(toy_model.w_out),
            b_out=np.zeros_like(toy_model.b_out),
        )
        assert greedy_decode(flat, [3, 4, 5], 4) == [0, 0, 0, 0]

    def test_stops_at_eos(self, toy_model):
        eos_bias = np.zeros_like(toy_model.b_out)
        eos_bias[EOS_ID] = 10.0
        eager = dataclasses.replace(
            toy_model, w_out=np.zeros_like(toy_model.w_out), b_out=eos_bias
        )
        assert greedy_decode(eager, [3, 4, 5], 10) == [EOS_ID]

    def test_prefix_never_exceeds_max_len(self):
        cfg = ModelConfig(max_len=4)
        w = init_weights(cfg, seed=9)
        flat = dataclasses.replace(
            w, w_out=np.zeros_like(w.w_out), b_out=np.zeros_like(w.b_out)
        )
        # would decode 0 forever; the prefix cap must stop it
        out = greedy_decode(flat, [3, 4], 10)
        assert out == [0, 0, 0, 0]

    def test_rejects_unknown_model_type(self):
        with pytest.raises(TypeError, match="decode"):
            greedy_decode(object(), [3], 2)


# d 128, 8 heads, 2+2 layers: wide enough that one-row and many-row products
# take different BLAS paths, small enough to keep the oracle loop quick
WIDE = ModelConfig(
    vocab=128, dim=128, heads=8, layers_enc=2, layers_dec=2, ffn_dim=256,
    max_len=32,
)


def _models(w, priors):
    """(model, its teacher-forced forward) for the standard model and the
    twin at the identity dials, along interp:3 and at random:2."""
    points = [identity_taus()] + grid_points("interp:3") + grid_points("random:2")
    return [(w, forward_standard)] + [
        (reinterpret(w, priors, taus), forward_nv) for taus in points
    ]


def _full_recompute(model, fwd, src, max_steps, max_len):
    """Reference greedy decode: one whole forward pass per token.  Returns
    the tokens and the last logits row of every pass."""
    prefix, out, rows = [BOS_ID], [], []
    for _ in range(max_steps):
        rows.append(fwd(model, src, prefix)[-1])
        out.append(int(np.argmax(rows[-1])))
        if out[-1] == EOS_ID or len(prefix) >= max_len:
            break
        prefix.append(out[-1])
    return out, rows


class TestIncrementalDecode:
    @pytest.fixture(scope="class")
    def wide(self):
        w = init_weights(WIDE, seed=1)
        return w, estimate_priors(w, make_random_corpus(WIDE, 20, seed=6))

    def _check_against_oracle(self, w, priors, sources, steps):
        for model, fwd in _models(w, priors):
            for src in sources:
                want, ref_rows = _full_recompute(
                    model, fwd, src, steps, w.config.max_len
                )
                assert greedy_decode(model, src, steps) == want
                stepper = _step_logits(model, np.asarray([src]), len(want))
                next(stepper)
                for tok, ref in zip([BOS_ID] + want[:-1], ref_rows):
                    np.testing.assert_allclose(
                        stepper.send(np.array([tok]))[0], ref, rtol=0, atol=1e-12
                    )

    def test_toy_matches_full_recompute(self, toy_model, toy_priors):
        sources = ([5, 9, 13], [40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50])
        self._check_against_oracle(toy_model, toy_priors, sources, 16)

    def test_wide_matches_full_recompute(self, wide):
        w, priors = wide
        rng = np.random.default_rng(23)
        sources = [rng.integers(3, WIDE.vocab, 20).tolist()]
        self._check_against_oracle(w, priors, sources, 10)

    def test_head_space_matches_general_path(
        self, toy_model, toy_priors, wide, monkeypatch
    ):
        # the same twin on the general path, the reference, at every decode
        # step and teacher-forced
        def run(model, fwd, src):
            tokens = greedy_decode(model, src, 10)
            steps = _step_logits(model, np.asarray([src]), len(tokens))
            next(steps)
            logits = [steps.send(np.array([tok])) for tok in [BOS_ID] + tokens[:-1]]
            return tokens, logits, fwd(model, src, [BOS_ID] + tokens)

        rng = np.random.default_rng(24)
        for w, priors in [(toy_model, toy_priors), wide]:
            src = rng.integers(3, w.config.vocab, 12).tolist()
            for model, fwd in _models(w, priors)[1:]:
                tokens, fast, fast_tf = run(model, fwd, src)
                with monkeypatch.context() as patch:
                    patch.setattr(model_mod, "_site_ops", general_site_ops)
                    general, slow, slow_tf = run(model, fwd, src)
                assert general == tokens
                for got, want in zip(fast, slow):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(fast_tf, slow_tf, rtol=0, atol=1e-12)

    def test_encodes_once_and_projects_each_row_once(
        self, toy_model, toy_priors, monkeypatch
    ):
        m = reinterpret(toy_model, toy_priors, identity_taus())
        encodes, projected = [], []
        encode, head_keys = model_mod._encode, model_mod.head_keys

        def counting_encode(*args):
            encodes.append(1)
            return encode(*args)

        def counting_head_keys(z, proj, *args):
            projected.append((proj, z.shape[-2]))
            return head_keys(z, proj, *args)

        monkeypatch.setattr(model_mod, "_encode", counting_encode)
        monkeypatch.setattr(model_mod, "head_keys", counting_head_keys)
        src = [3, 4, 5, 6, 7]
        out = greedy_decode(m, src, 12)
        assert encodes == [1]
        # every encoder site keys its rows of the source once, every cross
        # site the whole source once; every causal site keys one new row per
        # step
        for proj in group_projs(m, "encoder") + group_projs(m, "cross"):
            assert [n for p, n in projected if p is proj] == [len(src)]
        for proj in group_projs(m, "decoder"):
            assert [n for p, n in projected if p is proj] == [1] * len(out)

    def test_validates_each_posterior_once(self, toy_model, toy_priors, monkeypatch):
        # the key map writes each row's keys straight from the site's
        # vectors and the causal cache holds rows: a decode builds, and so
        # validates, no DpPosterior at all
        m = reinterpret(toy_model, toy_priors, identity_taus())
        built, keyed = [], []
        post_init, head_keys = DpPosterior.__post_init__, model_mod.head_keys

        def counting_post_init(dp):
            built.append(1)
            post_init(dp)

        def counting_head_keys(*args):
            keyed.append(1)
            return head_keys(*args)

        monkeypatch.setattr(DpPosterior, "__post_init__", counting_post_init)
        monkeypatch.setattr(model_mod, "head_keys", counting_head_keys)
        out = greedy_decode(m, [3, 4, 5, 6, 7], 16)
        assert len(out) > 1
        cfg = toy_model.config
        assert len(keyed) == cfg.layers_enc + cfg.layers_dec * (1 + len(out))
        assert built == []


class TestTwinBatch:
    """A padded batch of twins at mixed dials against single-sequence calls,
    modelled on test_attention.TestPaddedBatch."""

    SRC_LENS = [2, 9, 5, 12, 1, 7]
    TGT_LENS = [6, 1, 11, 3, 8, 2]

    def _batch(self, toy_model, toy_priors, general, monkeypatch):
        """(the batch, the twin of each row, sources, targets); five dial
        points, row 5 reuses row 0's.  A general batch runs every twin,
        batched or single, on the general path."""
        points = grid_points("interp:3") + grid_points("random:2", seed=4)
        twins = [reinterpret(toy_model, toy_priors, taus) for taus in points]
        if general:
            monkeypatch.setattr(model_mod, "_site_ops", general_site_ops)
        rng = np.random.default_rng(31)
        srcs = [rng.integers(3, 64, n).tolist() for n in self.SRC_LENS]
        tgts = [[BOS_ID] + rng.integers(3, 64, n - 1).tolist() for n in self.TGT_LENS]
        rows = [i % len(twins) for i in range(len(srcs))]
        batch = _Twins(toy_model, toy_priors, [points[i] for i in rows])
        return batch, [twins[i] for i in rows], srcs, tgts

    @pytest.mark.parametrize("general", [False, True], ids=["head-space", "general"])
    def test_rows_match_single_sequence_forward(
        self, toy_model, toy_priors, general, monkeypatch
    ):
        batch, rows, srcs, tgts = self._batch(toy_model, toy_priors, general, monkeypatch)
        (src, src_valid), (tgt, tgt_valid) = _pad(srcs), _pad(tgts)
        maps = {}
        got = _teacher_forced(
            batch, src, tgt,
            lambda g, l, mat: maps.setdefault((g, l), mat), src_valid, tgt_valid,
        )
        for b, (twin, s, t) in enumerate(zip(rows, srcs, tgts)):
            single = {}
            want = forward_nv(
                twin, s, t, map_hook=lambda g, l, mat: single.setdefault((g, l), mat)
            )
            np.testing.assert_allclose(got[b, : len(t)], want, rtol=0, atol=1e-12)
            for (g, l), mat in single.items():
                n_keys = len(s) if g != "decoder" else len(t)
                batched = maps[g, l][b, : mat.shape[0]]
                np.testing.assert_allclose(batched[:, :n_keys], mat[:, :-1], rtol=0, atol=1e-12)
                np.testing.assert_allclose(batched[:, -1], mat[:, -1], rtol=0, atol=1e-12)
                # a padded token component takes no weight, [P] always some
                np.testing.assert_array_equal(maps[g, l][b, :, n_keys:-1], 0.0)
                assert np.all(maps[g, l][b, :, -1] > 0.0)

    @pytest.mark.parametrize("general", [False, True], ids=["head-space", "general"])
    @pytest.mark.parametrize("eos_bias", [0.0, 1.2], ids=["no-eos", "early-eos"])
    def test_decodes_match_single_sequence_decodes(
        self, toy_model, toy_priors, general, eos_bias, monkeypatch
    ):
        # an EOS logit bias that stops some rows after 2 or 3 tokens while
        # others run all 16 steps, in both models
        b_out = toy_model.b_out.copy()
        b_out[EOS_ID] += eos_bias
        w = dataclasses.replace(toy_model, b_out=b_out)
        batch, rows, srcs, _ = self._batch(w, toy_priors, general, monkeypatch)
        src, src_valid = _pad(srcs)
        want = [greedy_decode(twin, s, 16) for twin, s in zip(rows, srcs)]
        std = [greedy_decode(w, s, 16) for s in srcs]
        if eos_bias:
            assert {len(d) for d in want} == {16, 2}
            assert {len(d) for d in std} == {16, 3, 2}
        assert _greedy(batch, src, 16, src_valid) == want
        assert _greedy(w, src, 16, src_valid) == std

    def test_map_hook_gets_every_row_of_a_mixed_batch(self, toy_model, toy_priors):
        # a sweep's batch: the standard rows lead, their [P] column exactly
        # 0 and their token weights a distribution; the twins' rows follow,
        # as the same twins batched on their own give them
        pairs = random_eval_inputs(toy_model.config, 4, seed=5)
        taus = [p for p in grid_points("interp:2") for _ in pairs]
        head = len(pairs)
        (src, src_valid), (tgt, tgt_valid) = (_pad([p[i] for p in pairs] * 3) for i in (0, 1))
        mixed, twins = {}, {}
        _teacher_forced(
            _Twins(toy_model, toy_priors, taus, head=head), src, tgt,
            lambda g, l, mat: mixed.setdefault((g, l), mat), src_valid, tgt_valid,
        )
        _teacher_forced(
            _Twins(toy_model, toy_priors, taus), src[head:], tgt[head:],
            lambda g, l, mat: twins.setdefault((g, l), mat), src_valid[head:], tgt_valid[head:],
        )
        assert list(mixed) == list(twins) and set(mixed) == set(model_mod.sites(toy_model.config))
        for site, mat in mixed.items():
            assert mat.shape[0] == len(src)
            assert np.all(mat[:head, :, -1] == 0.0)
            queries = (src_valid if site[0] == "encoder" else tgt_valid)[:head]
            np.testing.assert_allclose(mat[:head].sum(axis=-1)[queries], 1.0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(mat[head:], twins[site], rtol=0, atol=1e-12)

    def test_one_pass_build_is_each_points_reinterpret(self, toy_model, toy_priors):
        # per-group dials, each batch row's projection and forms bit for
        # bit those of its point's own twin ([P]'s row is every row's)
        points = grid_points("random:3", seed=2)
        rows = [2, 0, 1, 2, 1]
        batch = _Twins(toy_model, toy_priors, [points[i] for i in rows])
        for b, i in enumerate(rows):
            twin = reinterpret(toy_model, toy_priors, points[i])
            assert batch.projs.keys() == twin.projs.keys() == batch.forms.keys()
            for site, proj in twin.projs.items():
                got = batch.projs[site]
                assert got.prior is proj.prior
                np.testing.assert_array_equal(got.w_alpha, proj.w_alpha)
                assert got.b_alpha[b] == proj.b_alpha
                for name in ("b_sigma", "token_sigma"):
                    assert np.array_equal(getattr(got, name)[b], getattr(proj, name))
                for f in dataclasses.fields(twin.forms[site]):
                    want = getattr(twin.forms[site], f.name)
                    got = np.broadcast_to(getattr(batch.forms[site], f.name), (len(rows),) + want.shape)
                    assert np.array_equal(got[b], want), (site, f.name)


class TestStandardReference:
    """The standard model on the head-space kernel against a walk through
    `attention.attention` (`attention_site_ops`), so that criterion 2 does
    not compare two settings of one kernel alone.  The two differ only in
    rounding: the kernel scales W^K where attention scales the scores, and
    adds b^V after the mix.  Measured gaps are under 3e-15 on logits of
    every config here; TOL leaves room for other BLAS builds."""

    TOL = 1e-13
    SRC_LENS = [2, 9, 5, 12, 1, 7]
    TGT_LENS = [6, 1, 11, 3, 8, 2]

    @pytest.fixture(params=["toy", "4-head", "wide"])
    def case(self, request, toy_model):
        """(weights, an EOS logit bias that ends some of `_pairs`' decodes
        early and not others)."""
        if request.param == "toy":
            return toy_model, 1.5
        if request.param == "4-head":
            return init_weights(ModelConfig(heads=4), seed=3), 2.0
        return init_weights(WIDE, seed=3), 1.5

    def _pairs(self, w):
        rng = np.random.default_rng(33)
        v = w.config.vocab
        srcs = [rng.integers(3, v, n).tolist() for n in self.SRC_LENS]
        tgts = [[BOS_ID] + rng.integers(3, v, n - 1).tolist() for n in self.TGT_LENS]
        return srcs, tgts

    def _reference(self, monkeypatch, fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(model_mod, "_site_ops", attention_site_ops)
            return fn(*args)

    def test_forward_standard_and_site_rows(self, case, monkeypatch):
        w, _ = case
        for src, tgt in zip(*self._pairs(w)):
            got, want = {}, {}
            logits = forward_standard(w, src, tgt, lambda g, l, z: got.setdefault((g, l), z))
            ref = self._reference(
                monkeypatch, forward_standard, w, src, tgt,
                lambda g, l, z: want.setdefault((g, l), z),
            )
            np.testing.assert_allclose(logits, ref, rtol=0, atol=self.TOL)
            assert got.keys() == want.keys()
            for site, rows in got.items():
                np.testing.assert_allclose(rows, want[site], rtol=0, atol=self.TOL)

    def test_padded_batch(self, case, monkeypatch):
        w, _ = case
        srcs, tgts = self._pairs(w)
        (src, src_valid), (tgt, tgt_valid) = _pad(srcs), _pad(tgts)
        got = _teacher_forced(w, src, tgt, None, src_valid, tgt_valid)
        want = self._reference(
            monkeypatch, _teacher_forced, w, src, tgt, None, src_valid, tgt_valid
        )
        np.testing.assert_allclose(got[tgt_valid], want[tgt_valid], rtol=0, atol=self.TOL)

    @pytest.mark.parametrize("eos", [False, True], ids=["no-eos", "early-eos"])
    def test_greedy_and_its_steps(self, case, eos, monkeypatch):
        w, eos_bias = case
        b_out = w.b_out.copy()
        b_out[EOS_ID] += eos * eos_bias
        w = dataclasses.replace(w, b_out=b_out)
        src, src_valid = _pad(self._pairs(w)[0])
        got = _greedy(w, src, 16, src_valid)
        assert self._reference(monkeypatch, _greedy, w, src, 16, src_valid) == got
        if eos:
            assert len({len(d) for d in got}) > 1
        # the step logits of the decoded tokens, rows past EOS included
        toks = np.array([d + [EOS_ID] * (16 - len(d)) for d in got])
        feeds = np.column_stack([np.full(len(got), BOS_ID), toks[:, :-1]])
        steps, ref = (_step_logits(w, src, 16, src_valid) for _ in range(2))
        next(steps)
        # a stepper takes its ops when primed
        self._reference(monkeypatch, next, ref)
        for t in range(16):
            np.testing.assert_allclose(
                steps.send(feeds[:, t]), ref.send(feeds[:, t]), rtol=0, atol=self.TOL
            )


class TestOneLayout:
    def test_every_caller_runs_the_walk_batched(self, toy_model, toy_priors, monkeypatch):
        # the single-pair entry points are batches of one, like the sweep
        # and the estimator: the kernels only ever see (B, m, d) queries
        ndims = []

        def spy(kernel):
            def wrapped(queries, *args, **kwargs):
                ndims.append(np.ndim(queries))
                return kernel(queries, *args, **kwargs)
            return wrapped

        for name in ("attention", "eval_dattn_multihead"):
            monkeypatch.setattr(model_mod, name, spy(getattr(model_mod, name)))
        twin = reinterpret(toy_model, toy_priors, identity_taus())
        src, tgt = [3, 14, 25, 36], [BOS_ID, 5, 6]
        callers = {
            "forward_standard": lambda: forward_standard(toy_model, src, tgt),
            "forward_nv": lambda: forward_nv(twin, src, tgt),
            "greedy_decode standard": lambda: greedy_decode(toy_model, src, 4),
            "greedy_decode twin": lambda: greedy_decode(twin, src, 4),
            "estimate_priors": lambda: estimate_priors(
                toy_model, make_random_corpus(toy_model.config, 8, seed=3)
            ),
            "run_sweep": lambda: run_sweep(
                toy_model, toy_priors, grid_points("interp:2"), trials=2, seed=1
            ),
        }
        for caller, call in callers.items():
            ndims.clear()
            call()
            assert ndims and set(ndims) == {3}, caller


class TestConfigPositivity:
    def test_zero_heads_rejected_before_dividing(self):
        with pytest.raises(ValueError, match="heads must be positive"):
            ModelConfig(heads=0)


class TestDrawOrder:
    """init_weights draws encoder layers, decoder layers, tok_emb, the final
    norms and the output layer, in that order.  Configs whose encoder and
    decoder depths differ pin it: swapping the two stacks, or moving
    tok_emb, changes the file.  pos_enc is zeroed before saving because it
    takes no draws and its sin/cos may differ in the last bit between NumPy
    builds."""

    # sha256 of each saved file, frozen
    FROZEN = {
        (1, 3, 0): "ce1a904992c456b6bf69feb9515a3c52a85faaa5fa15f8e2b63f9ffb39cdb57e",
        (1, 3, 14): "7d2143faab65b669c8503487b127262ce2fea54958cc9518ae781d19d0807f24",
        (3, 1, 0): "b8a867ded58b90c1b1c5908f38b9aaa01f85d6a5d7fdcf8aaed17e516bf254c8",
        (3, 1, 14): "f18b0da8448d61c3ab0211024ba2c61b30cb42b98d829f899dfe883fa5042021",
    }

    @pytest.mark.parametrize(
        "key", sorted(FROZEN), ids=lambda k: "enc{}-dec{}-seed{}".format(*k)
    )
    def test_uneven_config_file_digest(self, tmp_path, key):
        enc, dec, seed = key
        cfg = ModelConfig(dim=6, heads=3, layers_enc=enc, layers_dec=dec)
        w = init_weights(cfg, seed)
        path = tmp_path / "w.nvtx"
        w = dataclasses.replace(w, pos_enc=np.zeros_like(w.pos_enc))
        save_weights(str(path), w)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.FROZEN[key]
