"""Kernel long-run covariance estimator."""

import math

import numpy as np
import pytest

from currsub.errors import DataError, ParameterError
from currsub.lrcov import (
    bartlett_long_run_variance,
    long_run_cov,
    newey_west_bandwidth,
)


def ar1(rng, n, rho, sd=1.0):
    e = rng.standard_normal(n) * sd
    u = np.empty(n)
    u[0] = e[0] / math.sqrt(1.0 - rho * rho)
    for k in range(1, n):
        u[k] = rho * u[k - 1] + e[k]
    return u


class TestNeweyWestBandwidth:
    @pytest.mark.parametrize("n, expected", [(25, 2), (100, 4), (170, 4), (500, 5)])
    def test_rule_values(self, n, expected):
        assert newey_west_bandwidth(n) == expected

    def test_formula(self):
        for n in (10, 37, 171, 999, 20000):
            assert newey_west_bandwidth(n) == math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            newey_west_bandwidth(0)


class TestLongRunCov:
    def test_bandwidth_zero_is_sample_covariance(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(200)
        v = rng.standard_normal(200)
        lrc = long_run_cov(u, v, bandwidth=0)
        du = u - u.mean()
        dv = v - v.mean()
        expected = np.array(
            [
                [du @ du, du @ dv],
                [dv @ du, dv @ dv],
            ]
        ) / len(u)
        assert np.abs(lrc.omega - expected).max() < 1e-12
        # No kernel terms: the one-sided sum is the lag-0 covariance itself.
        assert np.abs(lrc.lam - expected).max() < 1e-12

    def test_equal_inputs_are_rank_one(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(500)
        lrc = long_run_cov(u, u)
        assert lrc.omega[0, 0] == pytest.approx(lrc.omega[0, 1], abs=1e-12)
        assert lrc.omega[0, 0] == pytest.approx(lrc.omega[1, 1], abs=1e-12)
        assert abs(np.linalg.eigvalsh(lrc.omega).min()) < 1e-10 * lrc.omega[0, 0]

    def test_one_sided_identity(self):
        rng = np.random.default_rng(2)
        u = ar1(rng, 400, 0.6)
        v = rng.standard_normal(400)
        lrc = long_run_cov(u, v)
        recomposed = lrc.lam + lrc.lam.T - lrc.gamma0
        assert np.abs(lrc.omega - recomposed).max() < 1e-10

    def test_omega_positive_semidefinite(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            u = ar1(rng, 150, 0.8)
            v = ar1(rng, 150, -0.4)
            lrc = long_run_cov(u, v)
            scale = max(1.0, float(np.abs(lrc.gamma0).max()))
            assert np.linalg.eigvalsh(lrc.omega).min() >= -1e-12 * scale

    def test_ar1_long_run_variance_oracle(self):
        # AR(1) with rho = 0.5 and unit innovation variance has long-run
        # variance 1/(1 - 0.5)^2 = 4; the automatic bandwidth at n = 20000
        # is 12 and the Bartlett estimate lands within +-10%.
        rng = np.random.default_rng(12)
        u = ar1(rng, 20000, 0.5)
        v = rng.standard_normal(20000)
        lrc = long_run_cov(u, v)
        assert lrc.bandwidth == 12
        assert lrc.omega[0, 0] == pytest.approx(4.0, rel=0.10)

    def test_automatic_bandwidth_recorded(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(171)
        lrc = long_run_cov(u, u + rng.standard_normal(171))
        assert lrc.bandwidth == newey_west_bandwidth(171)

    def test_more_than_two_axes_rejected(self):
        # A (2, 3, 50) pair is six series, not one 300-value series.
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal((2, 2, 3, 50))
        with pytest.raises(DataError, match=r"1-D or 2-D, got shape \(2, 3, 50\)"):
            long_run_cov(u, v)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length mismatch"):
            long_run_cov(np.zeros(20), np.zeros(21))

    def test_short_sample_rejected(self):
        with pytest.raises(DataError, match="at least 10"):
            long_run_cov(np.zeros(9), np.zeros(9))

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ParameterError):
            long_run_cov(np.ones(20), np.ones(20), bandwidth=-1)

    def test_non_finite_rejected(self):
        u = np.ones(20)
        bad = u.copy()
        bad[3] = np.nan
        with pytest.raises(DataError, match="finite"):
            long_run_cov(u, bad)


class TestLongRunCovarianceType:
    def test_matrices_frozen(self):
        rng = np.random.default_rng(5)
        lrc = long_run_cov(rng.standard_normal(50), rng.standard_normal(50))
        with pytest.raises(ValueError):
            lrc.omega[0, 0] = 99.0


class TestBartlettLongRunVariance:
    def test_constant_series(self):
        # Without demeaning, the lag-j term of a constant c is c^2 (n-j)/n
        # under the fixed divide-by-n convention; the weighted sum is exact.
        c = 1.5
        n = 100
        e = np.full(n, c)
        for bw in (0, 1, 4, 12):
            expected = c * c * (
                1.0
                + 2.0
                * sum(
                    (1.0 - j / (bw + 1.0)) * (n - j) / n for j in range(1, bw + 1)
                )
            )
            assert bartlett_long_run_variance(e, bw) == pytest.approx(
                expected, rel=1e-12
            )

    def test_bandwidth_zero_is_mean_square(self):
        rng = np.random.default_rng(6)
        e = rng.standard_normal(80)
        assert bartlett_long_run_variance(e, 0) == pytest.approx(
            float(e @ e) / len(e), abs=1e-14
        )

    def test_matches_stacked_estimator_on_centered_input(self):
        rng = np.random.default_rng(7)
        e = rng.standard_normal(300)
        e -= e.mean()
        lrc = long_run_cov(e, rng.standard_normal(300), bandwidth=5)
        assert bartlett_long_run_variance(e, 5) == pytest.approx(
            float(lrc.omega[0, 0]), rel=1e-10
        )

    def test_short_input_rejected(self):
        with pytest.raises(DataError):
            bartlett_long_run_variance(np.ones(1), 0)

    @pytest.mark.parametrize("shape", [(4, 50), (50, 1)])
    def test_stack_rejected(self, shape):
        # One variance of one series: a stack is not read as one sequence.
        with pytest.raises(DataError, match="must be 1-D"):
            bartlett_long_run_variance(np.ones(shape), 2)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ParameterError):
            bartlett_long_run_variance(np.ones(30), -2)
