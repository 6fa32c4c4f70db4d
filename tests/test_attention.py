"""Multi-head attention against slow per-head references and mask contracts."""

import importlib

import numpy as np
import pytest

from nvtransformer import (
    DpPosterior,
    eval_dattn_multihead,
    forward_nv,
    forward_standard,
    greedy_decode,
    identity_taus,
    reinterpret,
)
from nvtransformer.attention import (
    AttentionParams,
    attention,
)
from nvtransformer import model as model_mod
from nvtransformer.model import BOS_ID, _greedy, _pad
from nvtransformer.numeric import make_rng
from reference import attn_core, train_dattn_multihead

# the package re-exports the function `attention` under the module's name
attention_mod = importlib.import_module("nvtransformer.attention")


def random_params(rng, d, h, zero_bias=False):
    def mat():
        return rng.normal(0.0, 0.5 / np.sqrt(d), (d, d))

    def vec():
        return np.zeros(d) if zero_bias else rng.normal(0.0, 0.2, d)

    return AttentionParams(
        wq=mat(), wk=mat(), wv=mat(), bq=vec(), bk=vec(), bv=vec(), heads=h
    )


def slow_attention(u_prime, z, p, visible=None):
    """Per-head reference written directly from the definition."""
    m, n = u_prime.shape[0], z.shape[0]
    if visible is None:
        visible = np.ones((m, n), dtype=bool)
    dh = p.head_dim
    out = np.zeros((m, p.model_dim))
    for i in range(p.heads):
        sl = slice(i * dh, (i + 1) * dh)
        q = u_prime @ p.wq[:, sl] + p.bq[sl]
        k = z @ p.wk[:, sl] + p.bk[sl]
        v = z @ p.wv[:, sl] + p.bv[sl]
        for a in range(m):
            scores = np.array(
                [
                    q[a] @ k[b] / np.sqrt(dh) if visible[a, b] else -np.inf
                    for b in range(n)
                ]
            )
            scores -= scores.max()
            w = np.exp(scores)
            w /= w.sum()
            out[a, sl] = w @ v
    return out


class TestAttention:
    def test_single_key_passes_value_through(self):
        rng = make_rng(0)
        for h in (1, 2):
            p = random_params(rng, 8, h)
            z = rng.normal(size=(1, 8))
            u = rng.normal(size=(3, 8))
            out = attention(u, z, p)
            expect = np.tile(z @ p.wv + p.bv, (3, 1))
            np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_orthogonal_query_uniform_weights(self):
        # identity projections, no biases, query orthogonal to every key:
        # scores are all zero so the output is the mean of the values
        d = 4
        p = AttentionParams(
            wq=np.eye(d), wk=np.eye(d), wv=np.eye(d),
            bq=np.zeros(d), bk=np.zeros(d), bv=np.zeros(d), heads=1,
        )
        z = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]])
        u = np.array([[0.0, 0, 0, 2.0]])
        np.testing.assert_allclose(attention(u, z, p), z.mean(axis=0)[None, :],
                                   atol=1e-12)

    @pytest.mark.parametrize("h", [1, 2, 4, 8])
    def test_matches_slow_reference(self, h):
        rng = make_rng(20 + h)
        for _ in range(10):
            d = int(rng.choice([8, 16, 128]))
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            p = random_params(rng, d, h)
            u = rng.normal(size=(m, d))
            z = rng.normal(size=(n, d))
            np.testing.assert_allclose(
                attention(u, z, p), slow_attention(u, z, p), atol=1e-12
            )

    def test_key_bias_never_changes_output(self):
        # the key bias adds a per-query constant to every score
        rng = make_rng(30)
        d = 8
        p = random_params(rng, d, 2)
        p2 = AttentionParams(
            wq=p.wq, wk=p.wk, wv=p.wv, bq=p.bq,
            bk=rng.normal(0.0, 3.0, d), bv=p.bv, heads=2,
        )
        u = rng.normal(size=(4, d))
        z = rng.normal(size=(5, d))
        np.testing.assert_allclose(
            attention(u, z, p), attention(u, z, p2), atol=1e-12
        )

    def test_causal_mask_blocks_future(self):
        rng = make_rng(31)
        d = 8
        p = random_params(rng, d, 2)
        z = rng.normal(size=(5, d))
        out = attention(z, z, p, causal=True)
        z2 = z.copy()
        z2[4] += 10.0
        out2 = attention(z2, z2, p, causal=True)
        np.testing.assert_array_equal(out[:4], out2[:4])

    def test_custom_mask_matches_slow(self):
        # the causal flag against the reference given the lower triangle
        rng = make_rng(32)
        d = 8
        p = random_params(rng, d, 2)
        z = rng.normal(size=(4, d))
        out = attention(z, z, p, causal=True)
        np.testing.assert_allclose(out, slow_attention(z, z, p, np.tri(4) > 0),
                                   atol=1e-12)

    def test_fully_masked_row_rejected(self):
        # a padded batch whose one sequence has no valid key
        rng = make_rng(33)
        p = random_params(rng, 4, 1)
        key_valid = np.array([[True, True], [False, False]])
        with pytest.raises(ValueError, match="masked"):
            attention(rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4)), p,
                      key_valid=key_valid)

    def test_causal_needs_square(self):
        rng = make_rng(34)
        p = random_params(rng, 4, 1)
        with pytest.raises(ValueError, match="square"):
            attention(rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), p,
                      causal=True)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="heads"):
            AttentionParams(
                wq=np.eye(6), wk=np.eye(6), wv=np.eye(6),
                bq=np.zeros(6), bk=np.zeros(6), bv=np.zeros(6), heads=4,
            )
        with pytest.raises(ValueError, match="wk"):
            AttentionParams(
                wq=np.eye(4), wk=np.eye(5), wv=np.eye(4),
                bq=np.zeros(4), bk=np.zeros(4), bv=np.zeros(4), heads=1,
            )
        with pytest.raises(ValueError, match=r"bv must be \(4,\)"):
            AttentionParams(
                wq=np.eye(4), wk=np.eye(4), wv=np.eye(4),
                bq=np.zeros(4), bk=np.zeros(4), bv=np.zeros((1, 4)), heads=1,
            )


def padded_batch(rng, d, q_lens, k_lens):
    """Random queries (B, m, d) and keys (B, n, d) padded to the longest,
    with each sequence's key validity (B, n)."""
    b, m, n = len(q_lens), max(q_lens), max(k_lens)
    key_valid = np.arange(n) < np.array(k_lens)[:, None]
    return rng.normal(size=(b, m, d)), rng.normal(size=(b, n, d)), key_valid


class TestPaddedBatch:
    """A (B, m, d) batch with key validity against per-sequence calls."""

    @pytest.mark.parametrize("h", [1, 2, 8])
    def test_matches_per_sequence_calls(self, h):
        rng = make_rng(50 + h)
        d = 16
        p = random_params(rng, d, h)
        q_lens, k_lens = [1, 5, 3, 7], [4, 1, 6, 7]
        u, z, key_valid = padded_batch(rng, d, q_lens, k_lens)
        out = attention(u, z, p, key_valid=key_valid)
        assert out.shape == u.shape
        for b, (m, n) in enumerate(zip(q_lens, k_lens)):
            np.testing.assert_allclose(
                out[b, :m], attention(u[b, :m], z[b, :n], p), atol=1e-12
            )

    @pytest.mark.parametrize("h", [1, 2, 8])
    def test_causal_matches_per_sequence_calls(self, h):
        rng = make_rng(60 + h)
        d = 16
        p = random_params(rng, d, h)
        lens = [1, 6, 3]
        _, z, valid = padded_batch(rng, d, lens, lens)
        out = attention(z, z, p, causal=True, key_valid=valid)
        for b, n in enumerate(lens):
            np.testing.assert_allclose(
                out[b, :n], attention(z[b, :n], z[b, :n], p, causal=True),
                atol=1e-12,
            )

    @pytest.mark.parametrize("h", [1, 2, 8])
    def test_padded_keys_never_reach_valid_rows(self, h):
        rng = make_rng(70 + h)
        d = 16
        p = random_params(rng, d, h)
        q_lens, k_lens = [2, 5, 4], [3, 1, 6]
        u, z, key_valid = padded_batch(rng, d, q_lens, k_lens)
        other = z.copy()
        other[~key_valid] = rng.normal(0.0, 50.0, size=(int(np.sum(~key_valid)), d))
        a = attention(u, z, p, key_valid=key_valid)
        b = attention(u, other, p, key_valid=key_valid)
        for i, m in enumerate(q_lens):
            np.testing.assert_array_equal(a[i, :m], b[i, :m])

    def test_shape_validation(self):
        rng = make_rng(80)
        p = random_params(rng, 8, 2)
        u, z, key_valid = padded_batch(rng, 8, [2, 3], [3, 1])
        with pytest.raises(ValueError, match="padded batch"):
            attention(u, z, p, key_valid=key_valid[:, :2])
        with pytest.raises(ValueError, match="padded batch"):
            attention(u[0], z[0], p, key_valid=key_valid)
        with pytest.raises(ValueError, match="masked"):
            attention(u, z, p, key_valid=np.zeros_like(key_valid))


class TestMaskOnlyWhereHidden:
    """A mask is built only when a key is hidden: a causal call, or a False
    in key_valid."""

    @pytest.fixture
    def masks(self, monkeypatch):
        built = []
        real = attention_mod._hidden

        def counting(visible):
            built.append(visible.shape)
            return real(visible)

        monkeypatch.setattr(attention_mod, "_hidden", counting)
        return built

    def test_all_valid_decode_builds_no_mask(self, toy_model, masks):
        out = greedy_decode(toy_model, [3, 14, 25, 36, 7], 8)
        assert out
        assert masks == []

    def test_padded_decode_still_masks(self, toy_model, masks, monkeypatch):
        # the standard model's key rows hide a padded key with c = -inf, as
        # the twin's do, so the kernel builds no mask for it
        hidden = []
        kernel = model_mod.eval_dattn_multihead

        def spy(q, dp, *args):
            hidden.append((q.shape[-2], int(np.isneginf(dp.rows[..., :-1, -1]).sum())))
            return kernel(q, dp, *args)

        monkeypatch.setattr(model_mod, "eval_dattn_multihead", spy)
        src, valid = _pad([np.array([3, 14, 25, 36, 7]), np.array([9, 10, 11])])
        steps = len(_greedy(toy_model, src, 8, valid)[0])
        cfg = toy_model.config
        # each encoder layer, and each cross site at every step, hides the
        # shorter source's two padded keys
        assert hidden.count((5, 2)) == cfg.layers_enc
        assert hidden.count((1, 2)) >= steps * cfg.layers_dec
        assert masks == []

    def test_causal_forward_masks_each_decoder_site(self, toy_model, masks):
        forward_standard(toy_model, [3, 14, 25], [BOS_ID, 5, 6, 7])
        # the unpadded encoder and cross sites hide nothing; the standard
        # model's keys end in a [P] row, visible to the rule and given no
        # weight by its c = -inf
        assert masks == [(4, 5)] * toy_model.config.layers_dec

    def test_twin_masks_its_causal_sites_with_p_visible(self, toy_model, toy_priors, masks):
        # the twin's sites go through the same rule: [P] is a key of every
        # site and hidden from none, so only the causal sites build a mask
        twin = reinterpret(toy_model, toy_priors, identity_taus())
        forward_nv(twin, [3, 14, 25], [BOS_ID, 5, 6, 7])
        assert greedy_decode(twin, [3, 14, 25, 36, 7], 8)
        assert masks == [(4, 5)] * toy_model.config.layers_dec

    @pytest.mark.parametrize("h", [1, 2, 8])
    def test_all_valid_batch_matches_per_sequence_calls_bitwise(self, h):
        rng = make_rng(90 + h)
        d = 16
        p = random_params(rng, d, h)
        for m, n in ((1, 1), (1, 6), (4, 3), (7, 7)):
            u, z = rng.normal(size=(3, m, d)), rng.normal(size=(3, n, d))
            out = attention(u, z, p, key_valid=np.ones((3, n), dtype=bool))
            for b in range(3):
                np.testing.assert_array_equal(out[b], attention(u[b], z[b], p))

    def test_no_keys_rejected(self):
        rng = make_rng(95)
        p = random_params(rng, 8, 2)
        with pytest.raises(ValueError, match="masked"):
            attention(rng.normal(size=(2, 8)), np.zeros((0, 8)), p)


class TestOneInputRule:
    """Queries (..., m, d) over keys (..., n, d) with the same leading axes,
    and key_valid optional in every layout."""

    def test_batch_without_key_valid_matches_per_sequence_calls_bitwise(self):
        rng = make_rng(96)
        p = random_params(rng, 16, 2)
        u, z = rng.normal(size=(3, 4, 16)), rng.normal(size=(3, 6, 16))
        out = attention(u, z, p)
        for b in range(3):
            np.testing.assert_array_equal(out[b], attention(u[b], z[b], p))

    def test_unbatched_key_valid_hides_keys(self):
        rng = make_rng(97)
        p = random_params(rng, 8, 2)
        u, z = rng.normal(size=(3, 8)), rng.normal(size=(5, 8))
        valid = np.array([True, False, True, True, False])
        np.testing.assert_allclose(
            attention(u, z, p, key_valid=valid), attention(u, z[valid], p), atol=1e-12
        )

    def test_three_kernels_refuse_mismatched_leading_axes(self):
        rng = make_rng(98)
        p = random_params(rng, 4, 2)
        queries = rng.normal(size=(2, 3, 4))
        batch = DpPosterior(mu=np.zeros((3, 4, 4)), sigma=np.ones((3, 4, 4)),
                            log_alpha=np.zeros((3, 4)))
        one = DpPosterior(mu=np.zeros((4, 4)), sigma=np.ones((4, 4)), log_alpha=np.zeros(4))
        for call in (
            lambda: attention(queries, rng.normal(size=(3, 4, 4)), p),
            lambda: attention(queries[0], rng.normal(size=(3, 4, 4)), p),
            lambda: eval_dattn_multihead(queries, batch, p),
            lambda: train_dattn_multihead(queries, one, p, rng),
        ):
            with pytest.raises(ValueError, match="same leading axes"):
                call()


class TestAttnCore:
    def test_single_row(self):
        z = np.array([[1.0, 2.0, 3.0]])
        u = np.array([[0.5, 0.5, 0.5], [9.0, -9.0, 0.0]])
        np.testing.assert_allclose(attn_core(u, z, 2.0), np.tile(z, (2, 1)),
                                   atol=1e-15)

    def test_saturation_picks_nearest(self):
        rng = make_rng(40)
        z = rng.normal(size=(4, 6))
        u = 1e3 * z[2:3]
        np.testing.assert_allclose(attn_core(u, z, np.sqrt(6.0)), z[2:3],
                                   atol=1e-9)

    def test_regrouping_identity(self):
        # full attention with h=1 and no biases equals projection-free
        # attention on u' wq wk^T followed by the value projection
        rng = make_rng(41)
        d = 8
        p = random_params(rng, d, 1, zero_bias=True)
        u = rng.normal(size=(3, d))
        z = rng.normal(size=(5, d))
        expect = attn_core(u @ p.wq @ p.wk.T, z, np.sqrt(d)) @ p.wv
        np.testing.assert_allclose(attention(u, z, p), expect, atol=1e-12)

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            attn_core(np.ones((1, 2)), np.ones((1, 2)), 0.0)
