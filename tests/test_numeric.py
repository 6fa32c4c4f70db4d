"""Numeric kernel contracts: stabilised softmax, seeded sampling."""

from decimal import Decimal, getcontext

import numpy as np
import pytest

from nvtransformer.numeric import make_rng, softmax_rows
from reference import logsumexp_rows, sample_dirichlet, sample_gaussian


def _softmax_decimal(row):
    """Independent softmax oracle at 50 significant digits."""
    getcontext().prec = 50
    exps = [Decimal(str(v)).exp() for v in row]
    total = sum(exps)
    return np.array([float(e / total) for e in exps])


# (..., n) stacks, and the (B, h, m, n) scores of toy (d 16, 2 heads) and
# wide (d 128, 8 heads) decode steps and passes
SHAPES = [(9,), (7, 5), (3, 4, 9), (3, 2, 1, 6), (3, 2, 12, 13), (1, 8, 1, 97), (2, 8, 40, 41)]


def _scores(shape):
    """Scores of `shape` at three scales, about 30% -inf, one finite entry
    per row."""
    rng = make_rng(sum(shape))
    for scale in (1e-3, 1.0, 300.0):
        a = rng.normal(0.0, scale, size=shape)
        a[rng.random(shape) < 0.3] = -np.inf
        a[..., 0] = rng.normal(0.0, scale, size=shape[:-1])  # one finite per row
        yield a


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(np.zeros((1, 3)))
        np.testing.assert_allclose(out, np.full((1, 3), 1.0 / 3.0), atol=1e-15)

    def test_huge_spread_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-12)

    def test_against_decimal_oracle(self):
        row = [1.0, 2.0, 3.0]
        out = softmax_rows(np.array([row]))
        np.testing.assert_allclose(out[0], _softmax_decimal(row), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = make_rng(3)
        a = rng.uniform(-400.0, 400.0, size=(30, 9))
        out = softmax_rows(a)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(30), atol=1e-9)

    def test_shift_invariance(self):
        rng = make_rng(4)
        a = rng.normal(size=(5, 7))
        shifted = softmax_rows(a + 123.0)
        np.testing.assert_allclose(shifted, softmax_rows(a), atol=1e-12)

    def test_minus_inf_entries_get_zero(self):
        out = softmax_rows(np.array([[0.0, -np.inf, 0.0]]))
        np.testing.assert_array_equal(out[0, 1], 0.0)
        np.testing.assert_allclose(out[0, [0, 2]], [0.5, 0.5], atol=1e-15)

    def test_all_masked_row_rejected(self):
        with pytest.raises(ValueError, match="no finite"):
            softmax_rows(np.array([[-np.inf, -np.inf]]))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bits_match_the_np_max_exp_sum_form(self, shape):
        # the result is a new buffer, transformed in place: the input keeps
        # its bytes and the bits are the out-of-place form's
        for a in _scores(shape):
            m = np.max(a, axis=-1, keepdims=True)
            e = np.exp(a - m)
            want = e / np.sum(e, axis=-1, keepdims=True)
            before = a.tobytes()
            got = softmax_rows(a)
            np.testing.assert_array_equal(got, want)
            assert not np.shares_memory(got, a)
            assert a.tobytes() == before

    @pytest.mark.parametrize("shape", SHAPES)
    def test_in_place_bits_match_the_new_buffer(self, shape):
        for a in _scores(shape):
            want = softmax_rows(a)
            got = softmax_rows(a, out=a)
            assert got is a
            assert got.tobytes() == want.tobytes()

    def test_in_place_row_without_finite_entries_writes_nothing(self):
        a = np.array([[1.0, 2.0], [-np.inf, -np.inf]])
        before = a.tobytes()
        with pytest.raises(ValueError, match="no finite"):
            softmax_rows(a, out=a)
        assert a.tobytes() == before


class TestStacksOfRows:
    def test_any_stack_reduces_over_the_last_axis_like_its_2d_rows(self):
        a = make_rng(6).normal(size=(3, 4, 5)) * 30.0
        a[1, 2, :3] = -np.inf
        rows = a.reshape(-1, 5)
        assert np.array_equal(softmax_rows(a), softmax_rows(rows).reshape(a.shape))
        assert np.array_equal(logsumexp_rows(a), logsumexp_rows(rows).reshape(3, 4))
        assert np.array_equal(softmax_rows(a[0, 0]), softmax_rows(rows[:1])[0])
        assert logsumexp_rows(a[0, 0]) == logsumexp_rows(rows[:1])[0]


class TestLogsumexpRows:
    def test_against_decimal(self):
        getcontext().prec = 50
        row = [1.0, 2.0, 3.0]
        expect = float(sum(Decimal(str(v)).exp() for v in row).ln())
        out = logsumexp_rows(np.array([row]))
        np.testing.assert_allclose(out[0], expect, atol=1e-12)

    def test_shift(self):
        rng = make_rng(5)
        a = rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            logsumexp_rows(a + 50.0), logsumexp_rows(a) + 50.0, atol=1e-10
        )

    def test_row_without_finite_entries_refused(self):
        a = np.zeros((2, 3))
        a[1] = -np.inf
        with pytest.raises(ValueError, match="no finite entries"):
            logsumexp_rows(a)


class TestSampleGaussian:
    def test_zero_sigma_exact(self):
        rng = make_rng(6)
        mu = np.array([[1.5, -2.5], [0.0, 3.0]])
        out = sample_gaussian(rng, mu, np.zeros_like(mu))
        np.testing.assert_array_equal(out, mu)

    def test_variance(self):
        rng = make_rng(7)
        draws = sample_gaussian(rng, np.zeros((100000, 1)), np.full((100000, 1), 2.0))
        assert abs(np.var(draws) - 4.0) / 4.0 < 0.02

    def test_seed_determinism(self):
        a = sample_gaussian(make_rng(8), np.zeros((3, 3)), np.ones((3, 3)))
        b = sample_gaussian(make_rng(8), np.zeros((3, 3)), np.ones((3, 3)))
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sample_gaussian(make_rng(9), np.zeros(2), np.array([1.0, -1.0]))


class TestSampleDirichlet:
    def test_huge_equal_concentrations(self):
        out = sample_dirichlet(make_rng(10), np.array([1e9, 1e9]))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-3)

    def test_single_component(self):
        out = sample_dirichlet(make_rng(11), np.array([0.7]))
        np.testing.assert_array_equal(out, [1.0])

    def test_mean_converges(self):
        # 1e5 draws; analytic 3-sigma band around alpha / alpha_0
        alpha = np.array([2.0, 3.0, 5.0])
        n = 100000
        rng = make_rng(12)
        total = np.zeros(3)
        for _ in range(n):
            total += sample_dirichlet(rng, alpha)
        mean = total / n
        a0 = alpha.sum()
        expect = alpha / a0
        se = np.sqrt(expect * (1 - expect) / (a0 + 1.0) / n)
        assert np.all(np.abs(mean - expect) < 3.0 * se)

    def test_simplex(self):
        rng = make_rng(13)
        for _ in range(50):
            out = sample_dirichlet(rng, rng.uniform(0.1, 5.0, 4))
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_underflow_limit(self):
        # every concentration so tiny the gamma draws vanish: mass goes to
        # the largest concentration
        out = sample_dirichlet(make_rng(14), np.array([1e-310, 1e-300]))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_invalid_alpha(self):
        with pytest.raises(ValueError, match="positive"):
            sample_dirichlet(make_rng(15), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="nonempty"):
            sample_dirichlet(make_rng(15), np.array([]))

    def test_seed_determinism(self):
        a = sample_dirichlet(make_rng(16), np.array([1.0, 2.0, 3.0]))
        b = sample_dirichlet(make_rng(16), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(a, b)


class TestMakeRng:
    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            make_rng(-1)

    @pytest.mark.parametrize(
        "seed", [1.5, True, np.float64(2.0)], ids=["float", "bool", "numpy-float"]
    )
    def test_non_integer_seed_is_named(self, seed):
        # 1.5 once raised the SeedSequence TypeError, and True ran as seed 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_rng(seed)
        assert make_rng(np.int64(3)).random() == make_rng(3).random()
