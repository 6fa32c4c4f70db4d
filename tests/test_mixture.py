"""Mixture reference semantics: impulse weighting, denoising, oracle."""

import math

import numpy as np
import pytest

from nvtransformer.numeric import make_rng
from reference import (
    GaussianMixtureRepr,
    MixtureOfImpulses,
    attn_core,
    build_f_z,
    dattn_gaussians_oracle,
    dattn_impulses,
)


class TestBuildFZ:
    def test_equal_norms_uniform(self):
        z = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]])
        f = build_f_z(z, np.sqrt(2.0))
        np.testing.assert_allclose(f.weights, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_hand_example(self):
        # rows [0,0] and [2,0] at scale sqrt(2): log-weights [0, sqrt(2)]
        f = build_f_z(np.array([[0.0, 0.0], [2.0, 0.0]]), np.sqrt(2.0))
        np.testing.assert_allclose(
            f.weights,
            [0.1955703174930431, 0.8044296825069569],
            atol=1e-12,
        )

    def test_single_row(self):
        f = build_f_z(np.array([[3.0, 4.0]]), 1.0)
        np.testing.assert_array_equal(f.weights, [1.0])

    def test_huge_norms_no_overflow(self):
        z = np.array([[60.0, 0.0], [0.0, 59.0]])
        f = build_f_z(z, 1.0)  # raw weights would be exp(1800), exp(1740.5)
        assert np.all(np.isfinite(f.weights))
        assert abs(f.weights.sum() - 1.0) < 1e-12

    def test_errors(self):
        with pytest.raises(ValueError, match="scale"):
            build_f_z(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError, match="at least one"):
            build_f_z(np.empty((0, 3)), 1.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureOfImpulses(np.ones((2, 2)), np.array([0.6, 0.6]))


class TestDattnImpulses:
    def test_matches_attn_core(self):
        # the impulse weighting cancels the Gaussian norm penalty exactly
        rng = make_rng(0)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            d = int(rng.choice([2, 4, 16]))
            m = int(rng.integers(1, 5))
            z = rng.normal(0.0, 1.5, (n, d))
            u = rng.normal(0.0, 1.5, (m, d))
            s = np.sqrt(d)
            got = dattn_impulses(u, build_f_z(z, s), s)
            worst = max(worst, np.max(np.abs(got - attn_core(u, z, s))))
        assert worst < 1e-9

    def test_single_component(self):
        z = np.array([[2.0, -1.0, 0.5]])
        f = MixtureOfImpulses(z, np.array([1.0]))
        out = dattn_impulses(np.array([[9.0, 9.0, 9.0]]), f, 1.0)
        np.testing.assert_allclose(out, z, atol=1e-15)

    def test_far_separated_query_snaps(self):
        z = np.array([[100.0, 0.0], [-100.0, 0.0]])
        f = MixtureOfImpulses(z, np.array([0.5, 0.5]))
        out = dattn_impulses(np.array([[100.0, 0.0]]), f, 1.0)
        np.testing.assert_allclose(out, z[0:1], atol=1e-6)

    def test_component_permutation_invariant(self):
        rng = make_rng(1)
        z = rng.normal(size=(5, 3))
        u = rng.normal(size=(2, 3))
        f = build_f_z(z, 2.0)
        perm = np.array([3, 0, 4, 1, 2])
        fp = MixtureOfImpulses(f.locations[perm], f.weights[perm])
        np.testing.assert_allclose(
            dattn_impulses(u, f, 2.0), dattn_impulses(u, fp, 2.0), atol=1e-12
        )


def brute_force_oracle(u, mu, sigma, weights, scale):
    """Scalar-loop version of the mixture denoising, for cross-checking."""
    m, d = u.shape
    n = mu.shape[0]
    out = np.zeros((m, d))
    for q in range(m):
        logs = np.empty(n)
        for k in range(n):
            acc = math.log(weights[k]) if weights[k] > 0 else -math.inf
            for j in range(d):
                var = scale + sigma[k, j] ** 2
                acc += -0.5 * (
                    math.log(2.0 * math.pi * var)
                    + (u[q, j] - mu[k, j]) ** 2 / var
                )
            logs[k] = acc
        logs -= logs.max()
        resp = np.exp(logs)
        resp /= resp.sum()
        for k in range(n):
            for j in range(d):
                var = scale + sigma[k, j] ** 2
                post = (sigma[k, j] ** 2 * u[q, j] + scale * mu[k, j]) / var
                out[q, j] += resp[k] * post
    return out


class TestDattnGaussiansOracle:
    def test_zero_sigma_reduces_to_impulses_exactly(self):
        rng = make_rng(2)
        mu = rng.normal(size=(4, 3))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        g = GaussianMixtureRepr(mu, np.zeros_like(mu), w)
        f = MixtureOfImpulses(mu, w)
        u = rng.normal(size=(2, 3))
        got = dattn_gaussians_oracle(u, g, 1.7)
        np.testing.assert_array_equal(got, dattn_impulses(u, f, 1.7))

    def test_huge_sigma_returns_query(self):
        rng = make_rng(3)
        mu = rng.normal(size=(3, 4))
        g = GaussianMixtureRepr(mu, np.full((3, 4), 1e6), np.full(3, 1.0 / 3.0))
        u = rng.normal(size=(2, 4))
        np.testing.assert_allclose(dattn_gaussians_oracle(u, g, 2.0), u,
                                   rtol=1e-6, atol=1e-6)

    def test_matches_brute_force(self):
        rng = make_rng(4)
        for _ in range(20):
            n, d, m = int(rng.integers(1, 6)), int(rng.integers(2, 5)), 3
            mu = rng.normal(0.0, 1.5, (n, d))
            sigma = rng.uniform(0.0, 2.0, (n, d))
            w = rng.uniform(0.2, 1.0, n)
            w /= w.sum()
            u = rng.normal(0.0, 1.5, (m, d))
            g = GaussianMixtureRepr(mu, sigma, w)
            np.testing.assert_allclose(
                dattn_gaussians_oracle(u, g, 1.3),
                brute_force_oracle(u, mu, sigma, w, 1.3),
                atol=1e-12,
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            GaussianMixtureRepr(
                np.zeros((2, 2)), -np.ones((2, 2)), np.array([0.5, 0.5])
            )
        g = GaussianMixtureRepr(
            np.zeros((1, 2)), np.ones((1, 2)), np.array([1.0])
        )
        with pytest.raises(ValueError, match="scale"):
            dattn_gaussians_oracle(np.ones((1, 2)), g, -1.0)
