"""Tests for multi-head denoising attention (eval and train paths)."""

from dataclasses import replace

import numpy as np
import pytest

from nvtransformer import (
    ALPHA_CLAMP_EVENTS,
    LOG_ALPHA_CLAMP,
    SIGMA_SQ_FLOOR,
    TAU_SIGMA_MIN,
    AttentionParams,
    DpPosterior,
    EmpiricalPrior,
    ModelConfig,
    attention,
    eval_dattn_multihead,
    identity_init,
    init_weights,
    project,
)
from nvtransformer.denoising import (
    KeyedPosterior,
    SiteForms,
    head_keys,
    site_forms,
    standard_keys,
)
from nvtransformer.model import _Twins, sites
from nvtransformer.nvib import TauConfig
from reference import (
    dattn_gaussians_oracle,
    sample_dirichlet,
    sample_gaussian,
    to_gaussian_mixture,
    train_dattn_multihead,
)


def nv_self_attention(z, proj, params, causal=False, map_sink=None):
    """A twin self-attention site on the general path: queries z over the
    posterior projected from z."""
    return eval_dattn_multihead(z, project(z, proj), params, causal, map_sink)


def nv_causal_attention(z, proj, params, map_sink=None):
    """A twin causal site: nv_self_attention under the causal mask."""
    return nv_self_attention(z, proj, params, True, map_sink)


def posterior_keys(dp, params):
    """The keyed rows [mu | k | v | c] of a posterior whose components each
    keep their own variance row: the reference for `head_keys`."""
    scale = np.sqrt(params.head_dim)
    var_r = scale + dp.sigma * dp.sigma
    x = dp.mu / var_r
    c = dp.log_alpha - 0.5 * np.sum(dp.mu * x, axis=-1) - 0.5 * np.sum(np.log(var_r), axis=-1)
    return np.concatenate([dp.mu, x @ params.wk, scale * x @ params.wv, c[..., None]], axis=-1)


def random_params(rng, d, h):
    return AttentionParams(
        wq=rng.normal(size=(d, d)),
        wk=rng.normal(size=(d, d)),
        wv=rng.normal(size=(d, d)),
        bq=rng.normal(size=d),
        bk=rng.normal(size=d),
        bv=rng.normal(size=d),
        heads=h,
    )


def random_posterior(rng, n, d, sigma_lo=0.1, sigma_hi=1.5):
    # mixed per-component stds so no softmax shortcut can hide an error
    return DpPosterior(
        mu=rng.normal(size=(n + 1, d)),
        sigma=rng.uniform(sigma_lo, sigma_hi, size=(n + 1, d)),
        log_alpha=rng.normal(size=n + 1),
    )


def synthetic_prior(rng, d, group="encoder", eps=4.0):
    return EmpiricalPrior(
        mu_p=rng.normal(size=d),
        sigma_p=rng.uniform(0.5, 2.0, size=d),
        log_alpha0_p=float(rng.normal()),
        epsilon_alpha=eps,
        layer_group=group,
        layer_id=0,
    )


class TestEvalMatchesMixtureOracle:
    def test_single_head_agrees_with_oracle(self):
        # with one head the site is: denoise (q wq + bq) wk^T against the
        # normalised mixture, then apply the value projection
        rng = np.random.default_rng(100)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            params = random_params(rng, d, 1)
            dp = random_posterior(rng, n, d)
            queries = rng.normal(size=(m, d))

            got = eval_dattn_multihead(queries, dp, params)

            u = (queries @ params.wq + params.bq) @ params.wk.T
            g = to_gaussian_mixture(dp)
            denoised = dattn_gaussians_oracle(u, g, np.sqrt(d))
            expected = denoised @ params.wv + params.bv
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_multihead_is_per_head_single_head(self):
        # h heads must equal h independent single-head sites on the slices,
        # at the toy shape and at the wide benchmark shape.  With these
        # unit-scale weights the wide outputs reach ~330 and the scores
        # ~1e3, so the two float64 evaluation orders differ by up to ~1e-10
        # there (about 1e-12 relative); the wide case is held to 1e-9
        rng = np.random.default_rng(101)
        for d, h, atol in [(8, 4, 1e-12), (128, 8, 1e-9)]:
            m, n = 3, 5
            params = random_params(rng, d, h)
            dp = random_posterior(rng, n, d)
            queries = rng.normal(size=(m, d))

            got = eval_dattn_multihead(queries, dp, params)

            hd = d // h
            q = queries @ params.wq + params.bq
            g = to_gaussian_mixture(dp)
            for i in range(h):
                sl = slice(i * hd, (i + 1) * hd)
                u = q[:, sl] @ params.wk[:, sl].T
                denoised = dattn_gaussians_oracle(u, g, np.sqrt(hd))
                expected = denoised @ params.wv[:, sl] + params.bv[sl]
                np.testing.assert_allclose(
                    got[:, sl], expected, rtol=0, atol=atol
                )


class TestHeadSpace:
    """The head-space path against the general path it replaces, which
    stays the reference (and the mixture oracle behind it)."""

    @pytest.mark.parametrize("h", [1, 2, 8])
    @pytest.mark.parametrize("mask", ["none", "causal"])
    @pytest.mark.parametrize("tau_sigma", [TAU_SIGMA_MIN, 0.5])
    @pytest.mark.parametrize("tau_alpha", [10.0, -3.0])
    def test_matches_general_path(self, h, mask, tau_sigma, tau_alpha):
        # init_weights-scale attention weights, post-norm-scale vectors; a
        # negative alpha dial puts real mass on the prior, so its forms count
        rng = np.random.default_rng(120)
        d, n = 32, 7
        params = init_weights(ModelConfig(dim=d, heads=h), seed=h).enc[0].self_attn
        proj = identity_init(synthetic_prior(rng, d, eps=2.0), tau_alpha, tau_sigma, d=d, h=h)
        z = rng.normal(0.0, 1.5, size=(n, d))
        dp = project(z, proj)
        keyed = head_keys(z, proj, params, site_forms(proj, params))
        assert isinstance(keyed, KeyedPosterior)

        maps = []
        causal = mask == "causal"
        got = eval_dattn_multihead(z, keyed, params, causal, map_sink=maps.append)
        want = eval_dattn_multihead(z, dp, params, causal, map_sink=maps.append)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert maps[0].shape == (n, n + 1)
        np.testing.assert_allclose(maps[0], maps[1], rtol=0, atol=1e-12)

    @staticmethod
    def _stacked_site(h, taus, rows):
        """A (1+1)-layer d=32 twin per dial point in `taus`, stacked by
        `_Twins` so that batch row b runs at taus[rows[b]]; returns
        the encoder site's (params, stacked projection, stacked forms)."""
        rng = np.random.default_rng(125)
        d = 32
        w = init_weights(ModelConfig(dim=d, heads=h, layers_enc=1, layers_dec=1), seed=h)
        priors = [
            replace(synthetic_prior(rng, d, group=g, eps=2.0), layer_id=l)
            for g, l in sites(w.config)
        ]
        batch = _Twins(w, priors, [taus[i] for i in rows])
        site = ("encoder", 0)
        return w.enc[0].self_attn, batch.projs[site], batch.forms[site]

    def test_key_map_clamp_edges(self):
        # head_keys against project plus the keys of the posterior it
        # returns, each component with its own variance: rows past
        # +LOG_ALPHA_CLAMP, a b_alpha past -LOG_ALPHA_CLAMP, -0.0 entries,
        # and a padded batch at mixed dials.  Both count the same clamps.
        rng = np.random.default_rng(124)
        d, h, n = 32, 2, 6
        taus = [
            TauConfig.uniform(10.0, TAU_SIGMA_MIN),
            TauConfig.uniform(-3.0, 0.5),
            TauConfig.uniform(-1e4, 0.25),       # b_alpha = -2e4: every row clamps
        ]
        params, proj, forms = self._stacked_site(h, taus, [0, 1, 2, 1])
        z = rng.normal(0.0, 1.5, size=(4, n, d))
        z[0, 1] = 1e150                          # log alpha about 1e299
        z[1, 2] = 40.0                           # log alpha about 1.1e4
        z[2, 0, :5] = -0.0
        z[3, 3] = 60.0                           # past the clamp, but padded
        valid = np.arange(n) < np.array([6, 4, 5, 3])[:, None]

        ALPHA_CLAMP_EVENTS.reset()
        dp = project(z, proj, valid)
        want_clamps = ALPHA_CLAMP_EVENTS.count
        want = posterior_keys(dp, params)
        ALPHA_CLAMP_EVENTS.reset()
        got = head_keys(z, proj, params, forms, valid).rows
        assert ALPHA_CLAMP_EVENTS.count == want_clamps == 2 + 5
        ALPHA_CLAMP_EVENTS.reset()

        assert got[..., :-1, :d].tobytes() == z.tobytes()  # -0.0 kept
        np.testing.assert_array_equal(got[..., :-1, -1][~valid], -np.inf)
        np.testing.assert_array_equal(want[..., :-1, -1][~valid], -np.inf)
        live = np.concatenate([valid, np.ones((4, 1), dtype=bool)], axis=1)
        np.testing.assert_allclose(got[live], want[live], rtol=1e-12, atol=0)
        # the clamped rows' bias is the clamp less their own norm term
        assert got[0, 1, -1] < -1e298 and got[2, :5, -1].max() < -LOG_ALPHA_CLAMP

    @pytest.mark.parametrize("h", [1, 2, 8])
    @pytest.mark.parametrize("mask", ["none", "causal"])
    @pytest.mark.parametrize("tau_sigma", [TAU_SIGMA_MIN, 0.5])
    def test_one_form_kernel_on_stacked_twins(self, h, mask, tau_sigma):
        # a padded batch of twins at three alpha dials, the last putting
        # most mass on [P] so its form counts: weights and outputs
        # of the head-space kernel against the general path's
        rng = np.random.default_rng(126)
        n = 7
        taus = [TauConfig.uniform(a, tau_sigma) for a in (10.0, -3.0, -15.0)]
        params, proj, forms = self._stacked_site(h, taus, [0, 1, 2, 0, 1])
        z = rng.normal(0.0, 1.5, size=(5, n, 32))
        valid = np.arange(n) < np.array([7, 3, 5, 1, 6])[:, None]
        causal = mask == "causal"

        maps = []
        got = eval_dattn_multihead(
            z, head_keys(z, proj, params, forms, valid), params, causal, maps.append
        )
        want = eval_dattn_multihead(z, project(z, proj, valid), params, causal, maps.append)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert maps[0].shape == (5, n, n + 1)
        np.testing.assert_allclose(maps[0], maps[1], rtol=0, atol=1e-12)
        # padded tokens take no weight; the prior takes real mass somewhere
        np.testing.assert_array_equal(maps[0][..., :-1][~valid[:, None, :].repeat(n, 1)], 0.0)
        assert maps[0][..., -1].max() > 0.5

    def test_project_skips_are_exact(self):
        # the identity map head space relies on: means are z itself (a -0.0
        # stays -0.0), every token gets the one std row, floor included, and
        # log pseudo-counts are the scaled squared norm plus the dial
        # offset, clamped: a 1e150 vector hits the clamp, and a b_alpha past
        # it clamps every row
        rng = np.random.default_rng(123)
        d, h = 6, 2
        prior = synthetic_prior(rng, d)
        z = rng.normal(size=(9, d))
        z[0, :3] = -0.0
        z[1] = 1e150
        w_alpha = np.full(d, 1.0 / (2.0 * np.sqrt(d / h)))
        for tau_sigma, b_alpha, clamps in [(0.5, 0.0, 1), (TAU_SIGMA_MIN, 1e4, 9)]:
            proj = replace(identity_init(prior, 1.0, tau_sigma, d=d, h=h), b_alpha=b_alpha)
            ALPHA_CLAMP_EVENTS.reset()
            dp = project(z, proj)
            assert dp.mu[:-1].tobytes() == z.tobytes()
            log_sig2 = np.minimum(proj.b_sigma, LOG_ALPHA_CLAMP)
            std = np.sqrt(np.maximum(np.exp(log_sig2), SIGMA_SQ_FLOOR))
            np.testing.assert_array_equal(dp.sigma[:-1], np.broadcast_to(std, z.shape))
            np.testing.assert_array_equal(
                dp.log_alpha[:-1],
                np.clip((z * z) @ w_alpha + b_alpha, -LOG_ALPHA_CLAMP, LOG_ALPHA_CLAMP),
            )
            assert ALPHA_CLAMP_EVENTS.count == clamps
        # at the floor dial the smallest prior std puts its tokens on the floor
        assert dp.sigma[0, np.argmin(prior.sigma_p)] == np.sqrt(SIGMA_SQ_FLOOR)
        ALPHA_CLAMP_EVENTS.reset()


class TestIdentityEquivalence:
    def test_matches_standard_attention(self):
        # identity dials: means pass through, stds pinned near zero, counts
        # carry the norm weighting; the prior is e^{-10 eps} down-weighted.
        # eps must exceed the score spread of these unit-scale projections
        # or the prior leaks above the tolerance
        rng = np.random.default_rng(102)
        for d, h in [(4, 1), (4, 2), (6, 3)]:
            params = random_params(rng, d, h)
            prior = synthetic_prior(rng, d, eps=12.0)
            proj = identity_init(prior, 10.0, 1e-38, d=d, h=h)
            z = rng.normal(size=(5, d))

            nv = nv_self_attention(z, proj, params)
            std = attention(z, z, params)
            np.testing.assert_allclose(nv, std, rtol=0, atol=1e-9)

    def test_causal_matches_standard_causal(self):
        rng = np.random.default_rng(103)
        d, h = 4, 2
        params = random_params(rng, d, h)
        prior = synthetic_prior(rng, d, group="decoder", eps=12.0)
        proj = identity_init(prior, 10.0, 1e-38, d=d, h=h)
        z = rng.normal(size=(6, d))

        nv = nv_causal_attention(z, proj, params)
        std = attention(z, z, params, causal=True)
        np.testing.assert_allclose(nv, std, rtol=0, atol=1e-9)


class TestStandardKeys:
    """A posterior without forms is standard attention, and the mixed
    batch's all-zero forms change none of its bits."""

    B, N, D = 3, 6, 16
    VALID = np.array([[True] * 6, [True] * 4 + [False] * 2, [True] + [False] * 5])

    def _keys(self, h, seed):
        rng = np.random.default_rng(seed)
        params = random_params(rng, self.D, h)
        z = rng.normal(size=(self.B, self.N, self.D))
        return params, z, rng.normal(size=(self.B, self.N, self.D))

    @pytest.mark.parametrize("h", [1, 2, 8])
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_matches_standard_attention(self, h, causal):
        params, z, q = self._keys(h, 140 + h)
        got = eval_dattn_multihead(q, standard_keys(z, params, self.VALID), params, causal)
        want = attention(q, z, params, causal, key_valid=self.VALID)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h", [1, 2, 8])
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_zero_forms_are_no_forms_bitwise(self, h, causal):
        params, z, q = self._keys(h, 150 + h)
        dh = self.D // h
        keyed = standard_keys(z, params, self.VALID)
        zero = SiteForms(
            np.zeros((self.B, self.D)), np.zeros(self.B),
            np.zeros((self.B, h, dh, 3 * dh)), np.zeros(3 * self.D + 1),
        )
        maps = []
        got = eval_dattn_multihead(q, keyed, params, causal, maps.append)
        want = eval_dattn_multihead(q, KeyedPosterior(keyed.rows, zero), params, causal, maps.append)
        assert np.array_equal(got, want)
        assert np.array_equal(maps[0], maps[1])
        assert np.all(maps[0][..., -1] == 0.0)  # [P] takes no weight

    def test_mixed_rows_are_each_kinds_own_bitwise(self):
        # head_keys' leading standard rows are standard_keys' and the rows
        # after them the twins' alone
        rng = np.random.default_rng(160)
        params = init_weights(ModelConfig(), seed=2).enc[0].self_attn
        prior = synthetic_prior(rng, 16)
        z = rng.normal(size=(self.B, self.N, self.D))
        proj = identity_init(prior, np.array([10.0, -3.0]), np.array([TAU_SIGMA_MIN, 0.5]), 16, 2)
        forms = site_forms(proj, params)
        lead = SiteForms(forms.inv_var, forms.half_log_var,
                         np.concatenate((np.zeros((1,) + forms.f.shape[1:]), forms.f)), forms.prior_row)
        mixed = head_keys(z, proj, params, lead, self.VALID, 1).rows
        assert np.array_equal(mixed[:1], standard_keys(z[:1], params, self.VALID[:1]).rows)
        assert np.array_equal(mixed[1:], head_keys(z[1:], proj, params, forms, self.VALID[1:]).rows)


class TestCausalCache:
    """What a decode's causal cache relies on: a key map writing into the
    cache's buffer writes the bits of fresh keys, and a prefix attended
    through its whole's head views gives the bits of a posterior over the
    same rows split on its own."""

    @pytest.mark.parametrize("twin", [False, True], ids=["standard", "twin"])
    def test_buffer_prefix_is_fresh_keys_bitwise(self, twin):
        rng = np.random.default_rng(170)
        params = init_weights(ModelConfig(), seed=2).dec[0].causal_attn
        b, steps, d = 3, 5, 16
        dials = (np.array([10.0, -3.0, 1.0]), np.array([TAU_SIGMA_MIN, 0.5, 0.1]))
        proj = identity_init(synthetic_prior(rng, d), *dials, d, 2)
        forms = site_forms(proj, params) if twin else None

        def keys(z, valid, out=None):
            if twin:
                return head_keys(z, proj, params, forms, valid, 0, out)
            return standard_keys(z, params, valid, out)

        valid = np.ones((b, steps), dtype=bool)
        valid[1, 3:] = False
        whole = KeyedPosterior(np.full((b, steps + 1, 3 * d + 1), np.nan), forms)
        copied = np.full_like(whole.rows, np.nan)
        for t in range(steps):
            z, q = rng.normal(size=(2, b, 1, d))
            keys(z, valid[:, t : t + 1], whole.rows[:, t : t + 2])
            copied[:, t : t + 2] = keys(z, valid[:, t : t + 1]).rows
            assert np.array_equal(whole.rows, copied, equal_nan=True)
            maps = []
            got = eval_dattn_multihead(q, whole.upto(t + 2), params, False, maps.append)
            fresh = KeyedPosterior(copied[:, : t + 2], forms)
            assert np.array_equal(got, eval_dattn_multihead(q, fresh, params, False, maps.append))
            assert np.array_equal(maps[0], maps[1])
        # the whole's views are split once; a prefix's are slices of them
        assert all(a is b for a, b in zip(whole.heads(2), whole.heads(2)))
        assert all(np.shares_memory(v, whole.rows) for v in whole.upto(3).heads(2))


class TestCollapse:
    def test_negative_alpha_dial_routes_everything_to_prior(self):
        rng = np.random.default_rng(104)
        d, h = 4, 2
        params = random_params(rng, d, h)
        prior = synthetic_prior(rng, d, eps=2.0)
        proj = identity_init(prior, -30.0, 0.25, d=d, h=h)
        z = rng.normal(size=(5, d))

        maps = []
        nv_self_attention(z, proj, params, map_sink=maps.append)
        (avg_map,) = maps
        assert avg_map.shape == (5, 6)
        assert np.all(avg_map[:, -1] > 0.99)
        np.testing.assert_allclose(np.sum(avg_map, axis=1), 1.0, rtol=1e-12)


class TestMasks:
    def test_causal_zero_weight_on_future_tokens(self):
        rng = np.random.default_rng(105)
        d, h, n = 4, 2, 5
        params = random_params(rng, d, h)
        prior = synthetic_prior(rng, d, group="decoder")
        proj = identity_init(prior, 2.0, 0.5, d=d, h=h)
        z = rng.normal(size=(n, d))

        maps = []
        nv_causal_attention(z, proj, params, map_sink=maps.append)
        (avg_map,) = maps
        for t in range(n):
            np.testing.assert_array_equal(avg_map[t, t + 1 : n], 0.0)
        assert np.all(avg_map[:, -1] > 0.0)  # prior visible everywhere

    def test_causal_output_ignores_future_edits(self):
        rng = np.random.default_rng(106)
        d, h, n = 4, 2, 5
        params = random_params(rng, d, h)
        prior = synthetic_prior(rng, d, group="decoder")
        proj = identity_init(prior, 2.0, 0.5, d=d, h=h)
        z = rng.normal(size=(n, d))
        z_edit = z.copy()
        z_edit[n - 1] += 10.0

        a = nv_causal_attention(z, proj, params)
        b = nv_causal_attention(z_edit, proj, params)
        np.testing.assert_array_equal(a[: n - 1], b[: n - 1])

    def test_causal_gives_future_tokens_zero_weight(self):
        # the general path, over components with variances of their own
        rng = np.random.default_rng(109)
        d, h, n = 4, 2, 4
        params = random_params(rng, d, h)
        dp = random_posterior(rng, n, d)

        maps = []
        eval_dattn_multihead(
            rng.normal(size=(n, d)),
            dp,
            params,
            causal=True,
            map_sink=maps.append,
        )
        np.testing.assert_array_equal(maps[0][:, :n][np.tri(n) == 0], 0.0)


class TestTrainPath:
    def test_deterministic_under_seed(self):
        rng_a = np.random.default_rng(110)
        rng_b = np.random.default_rng(110)
        setup = np.random.default_rng(111)
        d, h, m, n = 4, 2, 3, 4
        params = random_params(setup, d, h)
        dp = random_posterior(setup, n, d)
        queries = setup.normal(size=(m, d))

        a = train_dattn_multihead(queries, dp, params, rng_a)
        b = train_dattn_multihead(queries, dp, params, rng_b)
        np.testing.assert_array_equal(a, b)

    def test_mc_mean_approaches_eval_path(self):
        # large pseudo-counts and tiny stds make the single-draw estimator
        # concentrate on the closed form; check against the Monte-Carlo
        # standard error per coordinate
        rng = np.random.default_rng(112)
        d, h, m, n = 4, 2, 3, 4
        params = random_params(rng, d, h)
        dp = DpPosterior(
            mu=rng.normal(size=(n + 1, d)),
            sigma=np.full((n + 1, d), 1e-6),
            log_alpha=rng.uniform(9.5, 10.5, size=n + 1),
        )
        queries = rng.normal(size=(m, d))

        reference = eval_dattn_multihead(queries, dp, params)
        draws = np.stack(
            [
                train_dattn_multihead(queries, dp, params, rng)
                for _ in range(500)
            ]
        )
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - reference) <= 4.0 * se + 1e-12)

    def test_matches_per_head_reference_on_same_draw(self):
        # a twin generator seeded the same way re-draws pi and Z~; every
        # head is then plain softmax attention over the sampled impulses
        # with key bias log pi - ||Z~||^2 / (2 sqrt(d/h))
        setup = np.random.default_rng(116)
        d, h, m, n = 8, 4, 3, 5
        params = random_params(setup, d, h)
        dp = random_posterior(setup, n, d)
        queries = setup.normal(size=(m, d))

        got = train_dattn_multihead(
            queries, dp, params, np.random.default_rng(117)
        )

        twin = np.random.default_rng(117)
        pi = sample_dirichlet(twin, np.exp(dp.log_alpha))
        z_tilde = sample_gaussian(twin, dp.mu, dp.sigma)
        hd = d // h
        key_bias = np.log(pi) - np.sum(z_tilde**2, axis=1) / (2 * np.sqrt(hd))
        for i in range(h):
            sl = slice(i * hd, (i + 1) * hd)
            q = queries @ params.wq[:, sl] + params.bq[sl]
            k = z_tilde @ params.wk[:, sl] + params.bk[sl]
            v = z_tilde @ params.wv[:, sl] + params.bv[sl]
            scores = q @ k.T / np.sqrt(hd) + key_bias
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(got[:, sl], w @ v, rtol=0, atol=1e-12)

    def test_map_rows_are_distributions(self):
        rng = np.random.default_rng(113)
        d, h, m, n = 4, 2, 3, 4
        params = random_params(rng, d, h)
        dp = random_posterior(rng, n, d)

        maps = []
        train_dattn_multihead(
            rng.normal(size=(m, d)), dp, params, rng, map_sink=maps.append
        )
        assert maps[0].shape == (m, n + 1)
        np.testing.assert_allclose(np.sum(maps[0], axis=1), 1.0, rtol=1e-12)
        assert np.all(maps[0] >= 0.0)


class TestValidation:
    def test_eval_rejects_width_mismatch(self):
        rng = np.random.default_rng(114)
        params = random_params(rng, 4, 2)
        dp = random_posterior(rng, 3, 4)
        with pytest.raises(ValueError, match="width"):
            eval_dattn_multihead(np.zeros((2, 5)), dp, params)

    def test_train_rejects_width_mismatch(self):
        rng = np.random.default_rng(115)
        params = random_params(rng, 4, 2)
        dp = random_posterior(rng, 3, 5)
        with pytest.raises(ValueError, match="width"):
            train_dattn_multihead(np.zeros((2, 4)), dp, params, rng)

    def test_train_refuses_a_padded_batch(self):
        rng = np.random.default_rng(116)
        params = random_params(rng, 4, 2)
        one = random_posterior(rng, 3, 4)
        dp = DpPosterior(*(np.stack([a, a]) for a in (one.mu, one.sigma, one.log_alpha)))
        with pytest.raises(ValueError, match="takes one posterior"):
            train_dattn_multihead(np.zeros((2, 2, 4)), dp, params, rng)
