"""Tests for the Dirichlet-process projection layer."""

from dataclasses import fields, replace

import numpy as np
import pytest

from nvtransformer import (
    ALPHA_CLAMP_EVENTS,
    LOG_ALPHA_CLAMP,
    SIGMA_SQ_FLOOR,
    TAU_SIGMA_MIN,
    DpPosterior,
    EmpiricalPrior,
    NvibProjection,
    TauConfig,
    identity_init,
    identity_taus,
    project,
)
from nvtransformer.nvib import token_log_alpha
from reference import clamp_every_call, log_alpha_total, to_gaussian_mixture


def small_prior(d=2, group="encoder"):
    return EmpiricalPrior(
        mu_p=np.linspace(0.5, -0.5, d),
        sigma_p=np.linspace(1.0, 2.0, d),
        log_alpha0_p=0.3,
        epsilon_alpha=0.7,
        layer_group=group,
        layer_id=0,
    )


class TestTauConfig:
    def test_defaults_are_identity(self):
        cfg = identity_taus()
        for g in ("encoder", "cross", "decoder"):
            assert cfg.tau_alpha(g) == 10.0
            assert cfg.tau_sigma(g) == TAU_SIGMA_MIN

    def test_per_group_lookup(self):
        cfg = TauConfig(
            tau_alpha_enc=1.0,
            tau_alpha_cross=2.0,
            tau_alpha_dec=3.0,
            tau_sigma_enc=0.1,
            tau_sigma_cross=0.2,
            tau_sigma_dec=0.3,
        )
        assert cfg.tau_alpha("cross") == 2.0
        assert cfg.tau_sigma("decoder") == 0.3

    def test_sigma_dial_floor_enforced(self):
        with pytest.raises(ValueError, match="floor"):
            TauConfig(tau_sigma_cross=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(TauConfig)])
    def test_rejects_non_finite_dial(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TauConfig(**{name: bad})

    def test_uniform_sets_every_group(self):
        cfg = TauConfig.uniform(-2.5, 0.125)
        for g in ("encoder", "cross", "decoder"):
            assert cfg.tau_alpha(g) == -2.5
            assert cfg.tau_sigma(g) == 0.125


class TestEmpiricalPriorValidation:
    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError, match="group"):
            small_prior(group="bridge")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            EmpiricalPrior(
                mu_p=np.zeros(3),
                sigma_p=np.ones(2),
                log_alpha0_p=0.0,
                epsilon_alpha=0.1,
                layer_group="encoder",
                layer_id=0,
            )

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="positive"):
            EmpiricalPrior(
                mu_p=np.zeros(2),
                sigma_p=np.array([1.0, 0.0]),
                log_alpha0_p=0.0,
                epsilon_alpha=0.1,
                layer_group="encoder",
                layer_id=0,
            )

    @pytest.mark.parametrize("value", [1e40, 1e-300], ids=["1e40", "1e-300"])
    def test_rejects_sigma_p_outside_the_identity_band(self, value):
        # 1e40 loaded and broke the identity corner; 1e-300 times the
        # floor dial underflowed to 0, and identity_init took log(0)
        with pytest.raises(ValueError, match=r"within \[2.23e-270, 1.49e\+30\]"):
            replace(small_prior(d=2), sigma_p=np.array([1.0, value]))

    @pytest.mark.parametrize("value", [1e30, 1e-260], ids=["1e30", "1e-260"])
    def test_sigma_p_inside_the_identity_band_loads(self, value):
        p = replace(small_prior(d=2), sigma_p=np.array([1.0, value]))
        proj = identity_init(p, 10.0, TAU_SIGMA_MIN, 2, 1)
        assert np.all(np.isfinite(proj.b_sigma))

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            EmpiricalPrior(
                mu_p=np.zeros(2),
                sigma_p=np.ones(2),
                log_alpha0_p=0.0,
                epsilon_alpha=-0.1,
                layer_group="encoder",
                layer_id=0,
            )


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "name", ["mu_p", "sigma_p", "log_alpha0_p", "epsilon_alpha"]
    )
    def test_rejects_non_finite(self, name, bad):
        p = small_prior(d=2)
        value = getattr(p, name)
        if isinstance(value, np.ndarray):
            value = value.copy()
            value[1] = bad
        else:
            value = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(p, **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("log_alpha0_p", "1.5"), ("epsilon_alpha", True),
         ("mu_p", np.array(["1", "2"])), ("sigma_p", np.array([True, True]))],
    )
    def test_rejects_values_that_are_not_real_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite real numbers"):
            replace(small_prior(d=2), **{name: value})

    def test_stores_float64(self):
        p = EmpiricalPrior(np.array([1, 2]), np.array([1, 3]), 1, 0, "encoder", 0)
        assert p.mu_p.dtype == p.sigma_p.dtype == np.float64
        assert type(p.log_alpha0_p) is type(p.epsilon_alpha) is float


class TestIdentityInit:
    def test_parameter_structure(self):
        # the dials live in the offsets; the alpha row is the norm weighting
        p = small_prior(d=4)
        proj = identity_init(p, tau_alpha=10.0, tau_sigma=1e-3, d=4, h=2)
        assert [f.name for f in fields(proj)] == [
            "b_sigma", "w_alpha", "b_alpha", "prior", "token_sigma"
        ]
        assert proj.prior is p
        np.testing.assert_array_equal(proj.b_sigma, 2.0 * np.log(p.sigma_p * 1e-3))
        np.testing.assert_array_equal(proj.w_alpha, np.full(4, 1.0 / (2.0 * np.sqrt(2.0))))
        assert proj.b_alpha == 0.7 * 10.0
        np.testing.assert_array_equal(
            proj.token_sigma, np.sqrt(np.maximum(np.exp(proj.b_sigma), SIGMA_SQ_FLOOR))
        )

    def test_rejects_bad_head_count(self):
        with pytest.raises(ValueError, match="divide"):
            identity_init(small_prior(d=4), 10.0, 1e-3, d=4, h=3)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            identity_init(small_prior(d=3), 10.0, 1e-3, d=4, h=2)

    def test_rejects_sigma_dial_below_floor(self):
        with pytest.raises(ValueError, match="floor"):
            identity_init(small_prior(d=2), 10.0, 1e-39, d=2, h=1)

    @pytest.mark.parametrize(
        "name, tau_alpha, tau_sigma",
        [
            ("tau_alpha", np.nan, 1e-3),
            ("tau_alpha", np.inf, 1e-3),
            ("tau_sigma", 10.0, np.nan),
            ("tau_sigma", 10.0, np.inf),
            ("tau_alpha", np.array([10.0, -np.inf]), np.array([1e-3, 1e-3])),
            ("tau_sigma", np.array([10.0, 10.0]), np.array([1e-3, np.nan])),
        ],
        ids=["nan-alpha", "inf-alpha", "nan-sigma", "inf-sigma", "row-alpha", "row-sigma"],
    )
    def test_rejects_non_finite_dial(self, name, tau_alpha, tau_sigma):
        # these once gave a NaN or infinite b_alpha or b_sigma; a NaN
        # tau_sigma passed the floor check
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            identity_init(small_prior(d=2), tau_alpha, tau_sigma, d=2, h=1)

    def test_std_past_float64_is_the_clamped_std(self):
        # sigma_p * tau_sigma overflows in the second entry only: its
        # log-variance is +inf, which `_sigma` clamps like any past 700,
        # without a warning (warnings are errors under pytest here)
        p = small_prior(d=2)
        huge = identity_init(p, 10.0, 1e308, d=2, h=1)
        assert np.isfinite(huge.b_sigma[0]) and huge.b_sigma[1] == np.inf
        big = identity_init(p, 10.0, 1e300, d=2, h=1)
        np.testing.assert_array_equal(huge.token_sigma, big.token_sigma)
        np.testing.assert_array_equal(
            huge.token_sigma, np.full(2, np.sqrt(np.exp(LOG_ALPHA_CLAMP)))
        )

    def test_rejects_zero_heads(self):
        with pytest.raises(ValueError, match="heads=0"):
            identity_init(small_prior(d=4), 10.0, 1e-3, d=4, h=0)


class TestProject:
    def test_identity_init_frozen_example(self):
        # d=2, h=1: log alpha_i = ||z_i||^2 / (2 sqrt 2) + eps*tau, means
        # pass straight through, stds pin at sigma_p * tau_sigma
        p = small_prior(d=2)
        proj = identity_init(p, tau_alpha=10.0, tau_sigma=1e-3, d=2, h=1)
        z = np.array([[1.0, 2.0], [0.0, 1.0]])
        dp = project(z, proj)

        assert dp.mu.shape == (3, 2)
        assert dp.sigma.shape == (3, 2) and dp.log_alpha.shape == (3,)
        np.testing.assert_array_equal(dp.mu[:2], z)
        np.testing.assert_array_equal(dp.mu[2], p.mu_p)
        np.testing.assert_allclose(
            dp.sigma[:2], np.broadcast_to(p.sigma_p * 1e-3, (2, 2)), rtol=1e-15
        )
        np.testing.assert_array_equal(dp.sigma[2], p.sigma_p)
        np.testing.assert_allclose(
            dp.log_alpha[:2],
            [8.767766952966369, 7.353553390593274],
            rtol=0,
            atol=1e-14,
        )
        assert dp.log_alpha[2] == p.log_alpha0_p

    def test_generic_projection_matches_formula(self):
        # any offsets and alpha row, not only identity_init's: means are z,
        # every token gets the one floored std row, and log pseudo-counts
        # are (z*z) @ w_alpha + b_alpha, clamped, bit for bit
        rng = np.random.default_rng(41)
        d = 5
        p = EmpiricalPrior(
            mu_p=rng.normal(size=d),
            sigma_p=rng.uniform(0.5, 1.5, size=d),
            log_alpha0_p=0.2,
            epsilon_alpha=1.1,
            layer_group="decoder",
            layer_id=1,
        )
        b_sigma = rng.normal(size=d)
        b_sigma[0] = -200.0  # below the variance floor
        b_sigma[1] = 1e4  # past the clamp
        proj = NvibProjection(b_sigma=b_sigma, w_alpha=rng.normal(size=d), b_alpha=0.4, prior=p)
        z = rng.normal(size=(7, d))
        z[2] = 1e150
        ALPHA_CLAMP_EVENTS.reset()
        dp = project(z, proj)

        assert dp.mu[:7].tobytes() == z.tobytes()
        std = np.sqrt(np.maximum(np.exp(np.minimum(b_sigma, LOG_ALPHA_CLAMP)), SIGMA_SQ_FLOOR))
        assert std[0] == np.sqrt(SIGMA_SQ_FLOOR)
        np.testing.assert_array_equal(dp.sigma[:7], np.broadcast_to(std, z.shape))
        log_alpha = (z * z) @ proj.w_alpha + 0.4
        np.testing.assert_array_equal(
            dp.log_alpha[:7], np.clip(log_alpha, -LOG_ALPHA_CLAMP, LOG_ALPHA_CLAMP)
        )
        assert ALPHA_CLAMP_EVENTS.count == 1
        np.testing.assert_array_equal(dp.mu[7], p.mu_p)
        np.testing.assert_array_equal(dp.sigma[7], p.sigma_p)
        assert dp.log_alpha[7] == p.log_alpha0_p
        ALPHA_CLAMP_EVENTS.reset()

    def test_rejects_width_mismatch(self):
        p = small_prior(d=2)
        proj = identity_init(p, 10.0, 1e-3, d=2, h=1)
        with pytest.raises(ValueError, match="width"):
            project(np.zeros((3, 4)), proj)

    def test_rejects_vectors_that_do_not_fit(self):
        p = small_prior(d=2)
        proj = identity_init(p, 10.0, 1e-3, d=2, h=1)
        rows = replace(proj, b_sigma=np.zeros((3, 2)), b_alpha=np.zeros(3))
        for z, fit in ((np.zeros(2), proj), (np.zeros((1, 3, 2, 2)), proj),
                       (np.zeros((3, 2)), rows), (np.zeros((2, 3, 2)), rows)):
            with pytest.raises(ValueError, match="do not fit a projection"):
                project(z, fit)
        for z, valid in ((np.zeros((3, 2)), np.ones(3, dtype=bool)),
                         (np.zeros((2, 3, 2)), np.ones((2, 2), dtype=bool))):
            with pytest.raises(ValueError, match="padded batch needs"):
                project(z, proj, valid)

    def test_projection_shapes(self):
        p = small_prior(d=2)
        with pytest.raises(ValueError, match="w_alpha"):
            NvibProjection(b_sigma=np.zeros(2), w_alpha=np.zeros(3), b_alpha=0.0, prior=p)
        for b_sigma, b_alpha in ((np.zeros(3), 0.0), (np.zeros((2, 2)), 0.0),
                                 (np.zeros((3, 2)), np.zeros(2)),
                                 (np.zeros((1, 3, 2)), np.zeros((1, 3)))):
            with pytest.raises(ValueError, match="b_sigma must be"):
                NvibProjection(b_sigma=b_sigma, w_alpha=np.zeros(2), b_alpha=b_alpha, prior=p)


C = LOG_ALPHA_CLAMP
UP, DOWN = np.nextafter(C, np.inf), np.nextafter(-C, -np.inf)
PAD = np.array([[True, True, False], [True, False, False]])
# (each token's log alpha before b_alpha, b_alpha, valid), with the clamp
# events each case must count
CLAMP_CASES = {
    "exactly-at-the-clamp": ([C, -C, 3.0], 0.0, None),
    "one-ulp-past": ([UP, -C, 1.0, DOWN], 0.0, None),
    "b_alpha-at-the-clamp": ([0.0, 0.0], C, None),
    "past-only-on-padded-rows": ([[C, 1.0, UP], [-C, DOWN, np.inf]], np.zeros(2), PAD),
    "past-on-real-and-padded-rows": ([[UP, 1.0, UP], [-C, DOWN, 2.0]], np.zeros(2), PAD),
    "nan-row": ([[1.0, np.nan, 2.0], [0.0, 0.0, 0.0]], np.zeros(2), None),
    "nan-on-a-padded-row": ([[1.0, 2.0, np.nan], [0.0, 0.0, 0.0]], np.zeros(2), PAD),
    "nan-b_alpha-row": ([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], np.array([0.0, np.nan]), PAD),
}
CLAMP_EVENTS = {
    "exactly-at-the-clamp": 0, "one-ulp-past": 2, "b_alpha-at-the-clamp": 0,
    "past-only-on-padded-rows": 0, "past-on-real-and-padded-rows": 1, "nan-row": 1,
    "nan-on-a-padded-row": 0, "nan-b_alpha-row": 1,
}


class TestGuards:
    def setup_method(self):
        ALPHA_CLAMP_EVENTS.reset()

    def test_log_alpha_clamp_counts_events(self):
        p = small_prior(d=2)
        proj = identity_init(p, 10.0, 1e-3, d=2, h=1)
        # b_alpha past the clamp pushes every token row to the ceiling
        hot = replace(proj, b_alpha=1e4)
        dp = project(np.zeros((3, 2)), hot)
        np.testing.assert_array_equal(dp.log_alpha[:3], LOG_ALPHA_CLAMP)
        assert dp.log_alpha[3] == p.log_alpha0_p  # prior row never clamped
        assert ALPHA_CLAMP_EVENTS.count == 3

    def test_clamp_floor_side(self):
        p = small_prior(d=2)
        proj = identity_init(p, 10.0, 1e-3, d=2, h=1)
        cold = replace(proj, b_alpha=-1e4)
        dp = project(np.zeros((2, 2)), cold)
        np.testing.assert_array_equal(dp.log_alpha[:2], -LOG_ALPHA_CLAMP)
        assert ALPHA_CLAMP_EVENTS.count == 2

    @pytest.mark.parametrize("case", list(CLAMP_CASES))
    def test_clamp_taken_only_past_it_matches_clamping_always(self, case):
        # log alpha is each token's first entry plus b_alpha; the rule that
        # skips the clamp when nothing lies past it gives the same bits and
        # the same event count as the rule that always clamps
        first, b_alpha, valid = CLAMP_CASES[case]
        first = np.asarray(first, dtype=np.float64)
        zz = np.stack([first, np.full(first.shape, 0.25)], axis=-1)
        proj = NvibProjection(b_sigma=np.zeros(np.shape(b_alpha) + (2,)),
                              w_alpha=np.array([1.0, 0.0]), b_alpha=b_alpha, prior=small_prior())
        want, events = clamp_every_call(zz, proj, valid)
        got = token_log_alpha(zz, proj, valid)
        assert got.tobytes() == want.tobytes()
        assert ALPHA_CLAMP_EVENTS.count == events == CLAMP_EVENTS[case]

    def test_counter_reset(self):
        ALPHA_CLAMP_EVENTS.count += 5
        assert ALPHA_CLAMP_EVENTS.count == 5
        ALPHA_CLAMP_EVENTS.reset()
        assert ALPHA_CLAMP_EVENTS.count == 0

    def test_variance_floor(self):
        p = small_prior(d=2)
        base = identity_init(p, 10.0, 1e-3, d=2, h=1)
        frozen = replace(base, b_sigma=np.full(2, -1e6))
        dp = project(np.ones((1, 2)), frozen)
        np.testing.assert_array_equal(dp.sigma[0] ** 2, SIGMA_SQ_FLOOR)

    def test_variance_overflow_guard(self):
        p = small_prior(d=2)
        base = identity_init(p, 10.0, 1e-3, d=2, h=1)
        hot = replace(base, b_sigma=np.full(2, 1e6))
        dp = project(np.ones((1, 2)), hot)
        assert np.all(np.isfinite(dp.sigma))


class TestDpPosterior:
    def test_log_alpha_total_moderate(self):
        dp = DpPosterior(
            mu=np.zeros((3, 2)),
            sigma=np.ones((3, 2)),
            log_alpha=np.array([0.0, 1.0, 2.0]),
        )
        expected = np.log(np.exp(0.0) + np.exp(1.0) + np.exp(2.0))
        np.testing.assert_allclose(log_alpha_total(dp), expected, rtol=1e-15)

    def test_log_alpha_total_extreme(self):
        # totals must come out of log space, never through exp directly
        dp = DpPosterior(
            mu=np.zeros((2, 1)),
            sigma=np.ones((2, 1)),
            log_alpha=np.array([700.0, 700.0]),
        )
        np.testing.assert_allclose(
            log_alpha_total(dp), 700.0 + np.log(2.0), rtol=1e-15
        )

    def test_log_alpha_total_per_posterior_of_a_batch(self):
        rng = np.random.default_rng(6)
        la = rng.normal(size=(2, 4))
        dp = DpPosterior(mu=np.zeros((2, 4, 3)), sigma=np.ones((2, 4, 3)), log_alpha=la)
        totals = log_alpha_total(dp)
        assert totals.shape == (2,)
        for b in range(2):
            one = DpPosterior(mu=np.zeros((4, 3)), sigma=np.ones((4, 3)), log_alpha=la[b])
            assert isinstance(log_alpha_total(one), float)
            assert totals[b] == log_alpha_total(one)

    def test_validation(self):
        with pytest.raises(ValueError, match="n\\+1"):
            DpPosterior(
                mu=np.zeros((2, 2)),
                sigma=np.ones((3, 2)),
                log_alpha=np.zeros(2),
            )
        with pytest.raises(ValueError, match="per component"):
            DpPosterior(
                mu=np.zeros((2, 2)),
                sigma=np.ones((2, 2)),
                log_alpha=np.zeros(3),
            )
        with pytest.raises(ValueError, match="nonnegative"):
            DpPosterior(
                mu=np.zeros((2, 2)),
                sigma=-np.ones((2, 2)),
                log_alpha=np.zeros(2),
            )
        with pytest.raises(ValueError, match="at least the prior"):
            DpPosterior(mu=np.zeros((0, 2)), sigma=np.zeros((0, 2)), log_alpha=np.zeros(0))


class TestToGaussianMixture:
    def test_weights_are_softmax_of_log_alpha(self):
        rng = np.random.default_rng(5)
        la = rng.normal(size=4)
        dp = DpPosterior(
            mu=rng.normal(size=(4, 3)),
            sigma=rng.uniform(0.1, 1.0, size=(4, 3)),
            log_alpha=la,
        )
        g = to_gaussian_mixture(dp)
        expected = np.exp(la) / np.sum(np.exp(la))
        np.testing.assert_allclose(g.weights, expected, rtol=1e-12)
        np.testing.assert_array_equal(g.mu, dp.mu)
        np.testing.assert_array_equal(g.sigma, dp.sigma)

    def test_extreme_log_alpha_stays_finite(self):
        dp = DpPosterior(
            mu=np.zeros((3, 1)),
            sigma=np.ones((3, 1)),
            log_alpha=np.array([700.0, 700.0, 690.0]),
        )
        g = to_gaussian_mixture(dp)
        assert np.all(np.isfinite(g.weights))
        np.testing.assert_allclose(np.sum(g.weights), 1.0, rtol=1e-12)

    def test_batch_refused(self):
        dp = DpPosterior(
            mu=np.zeros((2, 3, 1)), sigma=np.ones((2, 3, 1)), log_alpha=np.zeros((2, 3))
        )
        with pytest.raises(ValueError, match="takes one posterior"):
            to_gaussian_mixture(dp)
