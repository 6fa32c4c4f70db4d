"""Tests for the toy encoder-decoder model and its reinterpreted twin."""

import dataclasses
import pathlib

import numpy as np
import pytest

from nvtransformer import (
    BOS_ID,
    EOS_ID,
    ModelConfig,
    NvModel,
    forward_nv,
    forward_standard,
    greedy_decode,
    identity_taus,
    init_weights,
    reinterpret,
)
from nvtransformer import model as model_mod
from nvtransformer.evaluate import grid_points, make_random_corpus
from nvtransformer.model import (
    LayerNormParams,
    _step_logits,
    layer_norm,
    sinusoidal_positions,
)
from nvtransformer.nvib import TauConfig
from nvtransformer.priors import estimate_priors

DATA = pathlib.Path(__file__).parent / "data"


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

    def test_input_validation(self, toy_model):
        with pytest.raises(ValueError, match="nonempty"):
            forward_standard(toy_model, [], [BOS_ID])
        with pytest.raises(ValueError, match="max_len"):
            forward_standard(toy_model, list(range(3, 40)), [BOS_ID])
        with pytest.raises(ValueError, match="outside"):
            forward_standard(toy_model, [3, 64], [BOS_ID])
        with pytest.raises(ValueError, match="outside"):
            forward_standard(toy_model, [3], [-1])


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
        assert len(m.enc_projs) == 2
        assert len(m.cross_projs) == 2
        assert len(m.dec_projs) == 2

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
        for proj in m.enc_projs:
            assert proj.b_alpha == -5.0 * proj.prior.epsilon_alpha
        for proj in m.cross_projs:
            np.testing.assert_allclose(
                proj.b_sigma, 2.0 * np.log(proj.prior.sigma_p * 0.3), rtol=1e-15
            )
        for proj in m.dec_projs:
            assert proj.b_alpha == 10.0 * proj.prior.epsilon_alpha


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

    def test_negative_steps_rejected(self, toy_model):
        with pytest.raises(ValueError, match="nonnegative"):
            greedy_decode(toy_model, [3, 4, 5], -1)

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
                stepper = _step_logits(model, np.asarray(src), len(want))
                next(stepper)
                for tok, ref in zip([BOS_ID] + want[:-1], ref_rows):
                    np.testing.assert_allclose(
                        stepper.send(tok), ref, rtol=0, atol=1e-12
                    )

    def test_toy_matches_full_recompute(self, toy_model, toy_priors):
        sources = ([5, 9, 13], [40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50])
        self._check_against_oracle(toy_model, toy_priors, sources, 16)

    def test_wide_matches_full_recompute(self, wide):
        w, priors = wide
        rng = np.random.default_rng(23)
        sources = [rng.integers(3, WIDE.vocab, 20).tolist()]
        self._check_against_oracle(w, priors, sources, 10)

    def test_encodes_once_and_projects_each_row_once(
        self, toy_model, toy_priors, monkeypatch
    ):
        m = reinterpret(toy_model, toy_priors, identity_taus())
        encodes, projected = [], []
        encode, project = model_mod._encode, model_mod.project

        def counting_encode(*args):
            encodes.append(1)
            return encode(*args)

        def counting_project(z, proj):
            projected.append((proj, z.shape[0]))
            return project(z, proj)

        monkeypatch.setattr(model_mod, "_encode", counting_encode)
        monkeypatch.setattr(model_mod, "project", counting_project)
        src = [3, 4, 5, 6, 7]
        out = greedy_decode(m, src, 12)
        assert encodes == [1]
        # every cross site projects the whole source once; every causal site
        # projects one new row per step
        for proj in m.cross_projs:
            assert [n for p, n in projected if p is proj] == [len(src)]
        for proj in m.dec_projs:
            assert [n for p, n in projected if p is proj] == [1] * len(out)
