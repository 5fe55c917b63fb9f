"""Fully modified regression and the Lc stability statistic."""

import math
import warnings

import numpy as np
import pytest

from currsub import coint
from currsub.errors import DataError, DegeneracyError, ParameterError
from currsub.lrcov import newey_west_bandwidth
from currsub.model import DgpNoise, TrendCoefficients, simulate_dgp
from currsub.series import MonthStamp, MonthlySeries

START = MonthStamp(2001, 9)
TABLE_COEFFS = TrendCoefficients(
    v0=-0.037619, v1=-0.012215, v2=0.000042, sigma=0.201694
)
NOISE = DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=0.05)


def series(values):
    return MonthlySeries(START, np.asarray(values, dtype=float))


def random_walk(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return series(np.cumsum(rng.standard_normal(n)) * scale)


class TestCriticalValueTable:
    def test_configs_and_ordering(self):
        for config in coint.DETERMINISTIC_CONFIGS:
            cvs = [
                coint.lc_critical_value(config, p) for p in coint.LC_TAIL_PROBS
            ]
            assert all(a < b for a, b in zip(cvs, cvs[1:]))

    def test_richer_deterministics_shift_the_distribution_up(self):
        for p in coint.LC_TAIL_PROBS:
            assert (
                coint.lc_critical_value(coint.CONST, p)
                < coint.lc_critical_value(coint.LINEAR_TREND, p)
                < coint.lc_critical_value(coint.QUADRATIC_TREND, p)
            )

    def test_unknown_tail_prob_rejected(self):
        with pytest.raises(ParameterError):
            coint.lc_critical_value(coint.CONST, 0.12)

    def test_unknown_config_rejected(self):
        with pytest.raises(ParameterError):
            coint.lc_critical_value("cubic", 0.05)


class TestLcPValueRange:
    def test_interior_bracket(self):
        cv10 = coint.lc_critical_value(coint.CONST, 0.10)
        cv15 = coint.lc_critical_value(coint.CONST, 0.15)
        stat = 0.5 * (cv10 + cv15)
        assert coint.lc_p_value_range(stat, coint.CONST) == (0.10, 0.15)

    def test_below_table(self):
        assert coint.lc_p_value_range(0.01, coint.QUADRATIC_TREND) == (0.20, 1.0)

    def test_above_table(self):
        assert coint.lc_p_value_range(5.0, coint.QUADRATIC_TREND) == (0.0, 0.01)

    def test_negative_statistic_rejected(self):
        with pytest.raises(ParameterError):
            coint.lc_p_value_range(-0.1, coint.CONST)


class TestHansenLc:
    def test_mean_case_reduces_to_partial_sum_statistic(self):
        # With a constant-only "regressor" the trace form collapses to the
        # classic normalized partial-sum (KPSS level) statistic; the two
        # must agree identically, not just in distribution.
        rng = np.random.default_rng(0)
        u = rng.standard_normal(200)
        d = u - u.mean()
        n = d.size
        sig2 = float(d @ d) / n
        partial = np.cumsum(d)
        kpss = float(partial @ partial) / (n * n * sig2)
        res = coint.hansen_lc(
            d.reshape(-1, 1), np.array([[float(n)]]), sig2, coint.CONST
        )
        assert res.statistic == pytest.approx(kpss, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_its_definition(self, k):
        # Random (n, k) scores against a loop of S_t' M^-1 S_t / (n w).
        rng = np.random.default_rng(k)
        n, omega = 120, 0.7
        scores = rng.standard_normal((n, k))
        a = rng.standard_normal((k, k))
        moment = a @ a.T + k * np.eye(k)
        minv = np.linalg.inv(moment)
        partial = np.zeros(k)
        quad = 0.0
        for t in range(n):
            partial = partial + scores[t]
            quad += float(partial @ minv @ partial)
        kept = scores.copy()
        res = coint.hansen_lc(scores, moment, omega, coint.CONST)
        assert res.statistic == pytest.approx(quad / (n * omega), rel=1e-12)
        assert np.array_equal(scores, kept)  # the caller's scores are not overwritten

    def test_decision_flag_matches_table(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(100)
        d = (u - u.mean()).reshape(-1, 1)
        sig2 = float(d[:, 0] @ d[:, 0]) / 100.0
        res = coint.hansen_lc(d, np.array([[100.0]]), sig2, coint.CONST)
        cv10 = coint.lc_critical_value(coint.CONST, 0.10)
        assert res.stable_at_10pct == (res.statistic < cv10)
        lo, hi = res.p_value_range
        assert 0.0 <= lo < hi <= 1.0

    def test_short_score_sample_rejected(self):
        with pytest.raises(DataError, match="at least 30"):
            coint.hansen_lc(np.zeros((20, 1)), np.eye(1), 1.0, coint.CONST)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DegeneracyError):
            coint.hansen_lc(np.zeros((50, 1)), np.eye(1), 0.0, coint.CONST)

    def test_singular_moment_rejected(self):
        with pytest.raises(DataError, match="positive definite"):
            coint.hansen_lc(np.ones((50, 2)), np.ones((2, 2)), 1.0, coint.CONST)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="shapes"):
            coint.hansen_lc(np.zeros((50, 2)), np.eye(3), 1.0, coint.CONST)


class TestFmolsExactFit:
    def test_noiseless_relation_recovered(self):
        x = random_walk(42, 120)
        y = series(3.0 + 2.0 * x.values)
        rep = coint.fmols(y, x, deterministics=coint.CONST)
        assert rep.params["v0"] == pytest.approx(3.0, abs=1e-8)
        assert rep.params["sigma"] == pytest.approx(2.0, abs=1e-8)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
        assert rep.degenerate_inference
        assert rep.standard_errors["sigma"] == 0.0
        assert math.isnan(rep.t_statistics["sigma"])
        assert rep.lc_statistic is None
        assert rep.lc_p_value_range is None
        assert rep.lc_stable_at_10pct is None

    def test_quadratic_trend_plus_spread_exact(self):
        x = random_walk(43, 171, scale=0.05)
        t = np.arange(171.0)
        y = series(-0.03 - 0.01 * t + 4e-5 * t * t + 0.2 * x.values)
        rep = coint.fmols(y, x)
        assert rep.deterministics == coint.QUADRATIC_TREND
        assert rep.params["v1"] == pytest.approx(-0.01, abs=1e-8)
        assert rep.params["v2"] == pytest.approx(4e-5, abs=1e-10)
        assert rep.degenerate_inference

    @pytest.mark.parametrize("level", [2.5, 0.1])
    def test_constant_y_is_degenerate(self, level):
        # var(y) is 0, so the omega112 gate alone would compare rounding
        # noise with its floor; 0.1's mean also rounds away from 0.1.
        rep = coint.fmols(series(np.full(60, level)), random_walk(27, 60))
        assert rep.degenerate_inference
        assert all(se == 0.0 for se in rep.standard_errors.values())
        assert all(math.isnan(t) for t in rep.t_statistics.values())
        assert rep.lc_statistic is None
        assert rep.lc_p_value_range is None
        assert rep.lc_stable_at_10pct is None

    def test_constant_y_row_is_degenerate_in_a_stack(self):
        sims = [simulate_dgp(TABLE_COEFFS, 60, NOISE, seed) for seed in range(4)]
        y = np.array([sim.log_money_ratio.values for sim in sims])
        x = np.array([sim.oc_spread_log.values for sim in sims])
        y[2] = 2.5
        fit = coint.fmols_stack(y, x)
        assert fit.degenerate_inference.tolist() == [False, False, True, False]
        assert np.isnan(fit.lc).tolist() == [False, False, True, False]
        assert (fit.standard_errors[2] == 0.0).all()
        assert (fit.standard_errors[[0, 1, 3]] > 0.0).all()
        for i in (0, 1, 3):
            lone = coint.fmols(series(y[i]), series(x[i]))
            assert fit.lc[i].item().hex() == lone.lc_statistic.hex()


class TestFmolsAgainstFirstStage:
    def test_no_correction_needed_equals_ols(self):
        # Disturbance orthogonalized against the regressors, the first
        # row indicator, and the embedded dx column: every correction
        # term is then exactly zero at bandwidth 0 and the fully modified
        # solve must reproduce the first-stage coefficients.
        rng = np.random.default_rng(7)
        n = 171
        x = np.cumsum(rng.standard_normal(n))
        t = np.arange(float(n))
        z = np.column_stack([np.ones(n), t, t * t, x])
        d = np.zeros(n)
        d[1:] = np.diff(x)
        basis = np.column_stack([z, np.eye(n)[:, 0], d])
        q, _ = np.linalg.qr(basis)
        u = rng.standard_normal(n)
        u -= q @ (q.T @ u)
        y = 1.0 - 0.5 * t + 2e-4 * t * t + 0.3 * x + u
        rep = coint.fmols(series(y), series(x), bandwidth=0)
        beta = np.linalg.lstsq(z, y, rcond=None)[0]
        for k, name in enumerate(("v0", "v1", "v2", "sigma")):
            assert rep.params[name] == pytest.approx(beta[k], abs=1e-10)
        assert not rep.degenerate_inference

    def test_exogenous_iid_corrections_vanish_asymptotically(self):
        # Strictly exogenous iid errors: the fully modified and the
        # first-stage estimates converge; at n = 2000 the gap averages
        # well under 0.02 across 100 seeds.
        gaps = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = np.cumsum(rng.standard_normal(2000))
            y = 1.0 + 2.0 * x + rng.standard_normal(2000)
            rep = coint.fmols(series(y), series(x), deterministics=coint.CONST)
            beta = np.linalg.lstsq(np.column_stack([np.ones(2000), x]), y, rcond=None)[0]
            gaps.append(
                max(
                    abs(rep.params["v0"] - beta[0]),
                    abs(rep.params["sigma"] - beta[1]),
                )
            )
        assert float(np.mean(gaps)) < 0.02


class TestFmolsEquivariance:
    def test_scale_equivariance(self):
        # (seed, n, factor, configurations). At 1e154, y * y nears the
        # largest double: Lc's cumulated scores overflow unless they are
        # scaled first, and the sums of squares behind R^2 (seed 11 at 60
        # months) unless they are taken at a power-of-two scale.
        cases = [
            (11, 171, 2.5, [coint.QUADRATIC_TREND]),
            (0, 60, 1e154, coint.DETERMINISTIC_CONFIGS),
            (2, 60, 1e154, coint.DETERMINISTIC_CONFIGS),
        ]
        for seed, n, c, configs in cases:
            sim = simulate_dgp(TABLE_COEFFS, n, NOISE, seed)
            y, x = sim.log_money_ratio, sim.oc_spread_log
            for config in configs:
                base = coint.fmols(y, x, config)
                scaled = coint.fmols(MonthlySeries(y.start, c * y.values), x, config)
                for name in base.params:
                    assert scaled.params[name] == pytest.approx(
                        c * base.params[name], rel=1e-8, abs=1e-12
                    )
                    assert scaled.standard_errors[name] == pytest.approx(
                        c * base.standard_errors[name], rel=1e-8, abs=1e-12
                    )
                    assert scaled.t_statistics[name] == pytest.approx(
                        base.t_statistics[name], rel=1e-8
                    )
                assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-8)
                assert scaled.lc_statistic == pytest.approx(base.lc_statistic, rel=1e-8)

    @pytest.mark.parametrize("c", [1e80, 1e100])
    def test_joint_scale_keeps_sigma_and_lc(self, c):
        # Every value near c: w12 * w12 would overflow, w12 * (w12 / w22) does not.
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 0)
        y, x = sim.log_money_ratio, sim.oc_spread_log
        base = coint.fmols(y, x)
        scaled = coint.fmols(MonthlySeries(y.start, c * y.values),
                             MonthlySeries(x.start, c * x.values))
        assert scaled.params["sigma"] == pytest.approx(base.params["sigma"], rel=1e-9)
        assert scaled.lc_statistic == pytest.approx(base.lc_statistic, rel=1e-9)

    def test_exact_fit_with_overflowing_squares_is_degenerate(self):
        # y = 1e150 t^2 lies in the trend's span, and its squares overflow:
        # R^2 and the gate read sums of squares taken at a power-of-two scale.
        x = simulate_dgp(TABLE_COEFFS, 171, NOISE, 0).oc_spread_log.values
        t = np.arange(171.0)
        fit = coint.fmols_stack(1e150 * t**2, 1e150 * x, coint.QUADRATIC_TREND)
        assert fit.r_squared == 1.0
        assert fit.degenerate_inference
        assert np.isnan(fit.lc)

    def test_overflowing_squares_keep_r_squared_sigma_and_lc(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 0)
        y, x = np.arange(171.0) ** 2 + 100 * sim.log_money_ratio.values, sim.oc_spread_log.values
        base = coint.fmols_stack(y, x, coint.QUADRATIC_TREND)
        scaled = coint.fmols_stack(1e150 * y, x, coint.QUADRATIC_TREND)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-9)
        assert scaled.theta[-1] == pytest.approx(1e150 * base.theta[-1], rel=1e-9)
        assert scaled.standard_errors[-1] == pytest.approx(
            1e150 * base.standard_errors[-1], rel=1e-9
        )
        assert scaled.lc == pytest.approx(base.lc, rel=1e-9)

    @pytest.mark.parametrize("origin", [1200, 24000, 96000])
    def test_far_origin_scaled_standard_errors_stay_finite(self, origin):
        # At a far trend origin the constant's variance factor is large, and
        # with y and x scaled by 1e150 omega112 times it overflows although
        # the standard error (about 3e154 at 24,000 months) does not.
        sim = simulate_dgp(TABLE_COEFFS, 60, NOISE, 0)
        y, x = sim.log_money_ratio.values, sim.oc_spread_log.values
        base = coint.fmols_stack(y, x, coint.QUADRATIC_TREND, None, origin)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = coint.fmols_stack(1e150 * y, 1e150 * x, coint.QUADRATIC_TREND, None, origin)
        assert np.isfinite(scaled.standard_errors).all()
        # The trend terms scale with y; sigma, a ratio of y to x, does not.
        expected = base.standard_errors * np.array([1e150, 1e150, 1e150, 1.0])
        np.testing.assert_allclose(scaled.standard_errors, expected, rtol=1e-9)

    @pytest.mark.parametrize("months, rel", [(1200, 1e-8), (24000, 1e-6)])
    def test_far_trend_origin_keeps_lc(self, months, rel):
        # Lc does not depend on the trend origin; a far one only makes the
        # raw trend columns nearly collinear.
        for seed in range(20):
            sim = simulate_dgp(TABLE_COEFFS, 60, NOISE, seed)
            y, x = sim.log_money_ratio, sim.oc_spread_log
            base = coint.fmols(y, x)
            far = coint.fmols(y, x, trend_origin=y.start.shift(-months))
            assert far.lc_statistic == pytest.approx(base.lc_statistic, rel=rel)

    def test_origin_shift_re_expands_polynomial(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 12)
        y, x = sim.log_money_ratio, sim.oc_spread_log
        base = coint.fmols(y, x)
        k = 24
        shifted = coint.fmols(y, x, trend_origin=START.shift(-k))
        v0, v1, v2 = base.params["v0"], base.params["v1"], base.params["v2"]
        assert shifted.params["v2"] == pytest.approx(v2, rel=1e-8)
        assert shifted.params["v1"] == pytest.approx(v1 - 2.0 * v2 * k, rel=1e-8)
        assert shifted.params["v0"] == pytest.approx(
            v0 - v1 * k + v2 * k * k, rel=1e-8
        )
        assert shifted.params["sigma"] == pytest.approx(
            base.params["sigma"], rel=1e-8
        )
        assert shifted.r_squared == pytest.approx(base.r_squared, abs=1e-8)
        assert shifted.lc_statistic == pytest.approx(base.lc_statistic, rel=1e-8)

    def test_recorded_bandwidth_is_the_automatic_lag(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 13)
        rep = coint.fmols(sim.log_money_ratio, sim.oc_spread_log)
        assert rep.lrc.bandwidth == newey_west_bandwidth(170)
        assert rep.n_obs == 171


class TestFmolsRecovery:
    def test_monte_carlo_medians(self):
        sigmas = []
        v1s = []
        for seed in range(200):
            sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, seed)
            rep = coint.fmols(sim.log_money_ratio, sim.oc_spread_log)
            sigmas.append(rep.params["sigma"])
            v1s.append(rep.params["v1"])
        assert float(np.median(sigmas)) == pytest.approx(0.201694, abs=0.08)
        assert float(np.median(v1s)) == pytest.approx(-0.012215, abs=0.004)


class TestFmolsErrors:
    def test_misaligned_series_rejected(self):
        y = random_walk(20, 60)
        x = MonthlySeries(START.shift(1), y.values[:60].copy())
        with pytest.raises(DataError, match="aligned"):
            coint.fmols(y, x)

    def test_short_sample_rejected(self):
        y = random_walk(21, 29)
        with pytest.raises(DataError, match="at least 30"):
            coint.fmols(y, random_walk(22, 29))

    def test_constant_regressor_rejected(self):
        # Collinear with the intercept column, caught at the first stage.
        y = random_walk(23, 100)
        with pytest.raises(DegeneracyError):
            coint.fmols(y, series(np.full(100, 2.0)))

    def test_collinear_regressor_rejected(self):
        # x exactly linear in t duplicates the trend column.
        t = np.arange(100.0)
        y = random_walk(24, 100)
        with pytest.raises(DegeneracyError):
            coint.fmols(y, series(0.5 * t), deterministics=coint.LINEAR_TREND)

    def test_unknown_configuration_rejected(self):
        y = random_walk(25, 60)
        with pytest.raises(ParameterError):
            coint.fmols(y, random_walk(26, 60), deterministics="cubic")

    def test_alignment_is_checked_before_the_configuration(self):
        y = random_walk(20, 60)
        x = MonthlySeries(START.shift(1), y.values.copy())
        with pytest.raises(DataError, match="aligned"):
            coint.fmols(y, x, deterministics="cubic")

    def test_ramp_regressor_has_zero_innovation_variance(self):
        # A ramp's differences are constant: the regressor never innovates.
        with pytest.raises(DegeneracyError, match="zero innovation variance"):
            coint.fmols(random_walk(27, 60), series(np.arange(60.0)),
                        deterministics=coint.CONST)

    def test_ramp_row_refuses_the_stack(self):
        sims = [simulate_dgp(TABLE_COEFFS, 60, NOISE, seed) for seed in range(4)]
        y = np.array([sim.log_money_ratio.values for sim in sims])
        x = np.array([sim.oc_spread_log.values for sim in sims])
        x[2] = np.arange(60.0)
        with pytest.raises(DegeneracyError, match="zero innovation variance"):
            coint.fmols_stack(y, x, deterministics=coint.CONST)


class TestFmolsReportType:
    def _report(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 30)
        return coint.fmols(sim.log_money_ratio, sim.oc_spread_log)

    def test_t_ratio_consistency(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 30)
        for config in coint.DETERMINISTIC_CONFIGS:
            rep = coint.fmols(sim.log_money_ratio, sim.oc_spread_log, config)
            names = coint._param_names(config)
            for mapping in (rep.params, rep.standard_errors, rep.t_statistics):
                assert tuple(mapping) == names
            for name in names:
                se = rep.standard_errors[name]
                assert se > 0.0
                assert rep.t_statistics[name] == rep.params[name] / se

    def test_trend_coefficients_round_trip(self):
        rep = self._report()
        coeffs = rep.trend_coefficients()
        assert coeffs.v0 == rep.params["v0"]
        assert coeffs.sigma == rep.params["sigma"]

    def test_plain_python_scalars(self):
        rep = self._report()
        assert type(rep.lc_statistic) is float
        assert type(rep.lc_stable_at_10pct) is bool
        assert all(type(v) is float for v in rep.params.values())


def _oracle_fmols(y, x, degree, bandwidth, offset):
    """Phillips-Hansen FM-OLS and Hansen's Lc of one series, written from
    the formulas: lstsq and inv for every solve, loops for every sum.

    Returns theta, the standard errors, (Omega, Lambda, Gamma_0) and Lc.
    Each column is divided by its largest magnitude before any solve; theta
    and the standard errors undo that, and Lc does not see it (Hansen 1992).
    """
    n = y.size
    t = np.arange(n, dtype=float) + offset
    z = np.column_stack([t**p for p in range(degree + 1)] + [x])
    s = np.abs(z).max(axis=0)
    zs = z / s
    resid = y - zs @ np.linalg.lstsq(zs, y, rcond=None)[0]

    # The long-run covariance is taken over the n - 1 rows of (u, dx),
    # demeaned, and every lag's sum is divided by n - 1.
    m = n - 1
    e = np.column_stack([resid[1:], np.diff(x)])
    e -= e.mean(axis=0)
    b = math.floor(4.0 * (m / 100.0) ** (2.0 / 9.0)) if bandwidth is None else bandwidth
    gammas = []
    for j in range(b + 1):
        g = np.zeros((2, 2))
        for i in range(j, m):
            g += np.outer(e[i], e[i - j])
        gammas.append(g / m)
    # Lambda includes lag 0: Gamma_0 + sum_j (1 - j/(b+1)) Gamma_j.
    lam = gammas[0] + sum((1.0 - j / (b + 1.0)) * gammas[j] for j in range(1, b + 1))
    omega = lam + lam.T - gammas[0]

    w11, w12, w22 = omega[0, 0], omega[0, 1], omega[1, 1]
    y_plus = y[1:] - w12 / w22 * np.diff(x)
    lam12_plus = lam[0, 1] - w12 / w22 * lam[1, 1]
    omega112 = w11 - w12**2 / w22

    # The second stage runs on rows 1..n-1, the rows with an innovation.
    zt = zs[1:]
    minv = np.linalg.inv(zt.T @ zt)
    bias = np.zeros(degree + 2)
    bias[-1] = lam12_plus / s[-1]
    # The bias is scaled by n - 1, the second stage's row count.
    theta_s = np.linalg.lstsq(zt, y_plus, rcond=None)[0] - m * minv @ bias
    se = np.sqrt(omega112 * np.diag(minv)) / s
    u_plus = y_plus - zt @ theta_s

    # Lc = sum_t S_t' (Z'Z)^-1 S_t / ((n - 1) omega112), S_t the running
    # sums of the scores z_t u_t - bias.
    partial = np.zeros(degree + 2)
    quad = 0.0
    for i in range(m):
        partial += zt[i] * u_plus[i] - bias
        quad += partial @ minv @ partial
    return theta_s / s, se, (omega, lam, gammas[0]), quad / (m * omega112)


class TestFmolsOracle:
    """fmols_stack against Phillips & Hansen (1990, RES 57:99), Newey & West
    (1987, Econometrica 55:703; 1994, RES 61:631) and Hansen (1992, JBES
    10:321), as written out in _oracle_fmols."""

    @pytest.mark.parametrize("n", [60, 171, 360])
    @pytest.mark.parametrize("offset", [0, 120])
    @pytest.mark.parametrize("bandwidth", [0, 1, 4, None])
    @pytest.mark.parametrize("config", coint.DETERMINISTIC_CONFIGS)
    def test_stack_matches_oracle(self, config, bandwidth, offset, n):
        sims = [simulate_dgp(TABLE_COEFFS, n, NOISE, seed) for seed in range(50, 56)]
        y = np.array([sim.log_money_ratio.values for sim in sims])
        x = np.array([sim.oc_spread_log.values for sim in sims])
        fit = coint.fmols_stack(y, x, config, bandwidth, offset)
        assert not any(fit.degenerate_inference)
        for i in range(len(sims)):
            theta, se, lrc, lc = _oracle_fmols(
                y[i], x[i], coint._TREND_DEGREE[config], bandwidth, offset
            )
            np.testing.assert_allclose(fit.theta[i], theta, rtol=1e-9)
            np.testing.assert_allclose(fit.standard_errors[i], se, rtol=1e-9)
            for ours, want in zip((fit.lrc.omega, fit.lrc.lam, fit.lrc.gamma0), lrc):
                np.testing.assert_allclose(ours[i], want, rtol=1e-9)
            assert fit.lc[i] == pytest.approx(lc, rel=1e-9)
