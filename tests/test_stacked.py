"""The stacked kernels against their one-row calls, bit for bit.

``model.simulate_paths``, ``coint.fmols_stack`` and ``unitroot.adf_stack``
compute every row of a stack as the one-row functions compute it alone
(``simulate_dgp``, ``fmols``, ``adf_test``); the Monte Carlo relies on
that, so these tests compare ``float.hex`` strings, not tolerances. A
refusal of any row refuses the stack with that row's own error, and
``run_montecarlo`` raises the refusal that a seed-by-seed run raises
first.
"""

import numpy as np
import pytest

from currsub import coint, model, pipeline, unitroot
from currsub.errors import CurrsubError, DataError, DegeneracyError
from currsub.series import MonthStamp, MonthlySeries

START = MonthStamp(2001, 9)
TRUTH = model.TrendCoefficients(v0=-0.037619, v1=-0.012215, v2=0.000042, sigma=0.201694)
NOISE = model.DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=0.05)
LENGTHS = (60, 171, 240)


def hexes(values):
    return [float(v).hex() for v in values]


def series(values):
    return MonthlySeries(START, values)


def fmols_rows(n):
    """Six simulated (y, x) rows and, third, an exact fit, whose inference is degenerate."""
    y, x, _ = model.simulate_paths(TRUTH, n, NOISE, range(40, 46))
    y[2] = TRUTH.v0 + TRUTH.sigma * x[2]
    return y, x


def adf_rows(n):
    """Random walks, AR(1) levels at several rho, and a trending walk."""
    rng = np.random.default_rng(n)
    shocks = rng.standard_normal((7, n))
    rows = np.cumsum(shocks, axis=1)
    for i, rho in zip(range(3, 6), (0.2, 0.6, 0.9)):
        for k in range(1, n):
            rows[i, k] = rho * rows[i, k - 1] + shocks[i, k]
    rows[6] += 0.05 * np.arange(n)
    return rows


def lag_aic(y, spec):
    """The AIC of every order 0..12 on the common sample, by the calls ``adf_stack`` makes."""
    search = unitroot._lag_search(y, spec, 12)
    return unitroot._aic(search, unitroot._order_ssr(search))


class TestStackedEqualsOneRow:
    def test_simulate_paths(self):
        seeds = [3, 0, 17, 7919]
        paths = model.simulate_paths(TRUTH, 171, NOISE, seeds)
        for i, seed in enumerate(seeds):
            sim = model.simulate_dgp(TRUTH, 171, NOISE, seed)
            one = (sim.log_money_ratio, sim.oc_spread_log, sim.eps)
            for path, lone in zip(paths, one):
                assert hexes(path[i]) == hexes(lone.values)

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("bandwidth", [None, 0, 5])
    @pytest.mark.parametrize("config", coint.DETERMINISTIC_CONFIGS)
    def test_fmols(self, config, bandwidth, n):
        y, x = fmols_rows(n)
        # Fortran-ordered stacks: a row of one is not unit-stride.
        y_f, x_f = np.asfortranarray(y), np.asfortranarray(x)
        stack = coint.fmols_stack(y_f, x_f, config, bandwidth)
        degenerate = []
        for i in range(len(y)):
            one = coint.fmols(series(y[i]), series(x[i]), config, bandwidth)
            lc = stack.lc[i]
            assert hexes(stack.theta[i]) == hexes(one.params.values())
            assert hexes(stack.standard_errors[i]) == hexes(one.standard_errors.values())
            assert float(stack.r_squared[i]).hex() == one.r_squared.hex()
            assert (lc is None) is (one.lc_statistic is None)
            if lc is not None:
                assert lc.statistic.hex() == one.lc_statistic.hex()
                assert lc.stable_at_10pct is one.lc_stable_at_10pct
            for name in ("omega", "lam", "gamma0"):
                stacked = getattr(stack.lrc, name)[i]
                assert hexes(stacked.ravel()) == hexes(getattr(one.lrc, name).ravel())
            assert stack.degenerate_inference[i] is one.degenerate_inference
            degenerate.append(one.degenerate_inference)
        assert degenerate == [False, False, True, False, False, False]

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("spec", unitroot.DETERMINISTIC_KINDS)
    def test_adf(self, spec, n):
        rows = adf_rows(n)
        # The lag search's AIC of every order, which decides near-ties.
        aic = lag_aic(np.asfortranarray(rows), spec)
        for i, row in enumerate(rows):
            assert hexes(aic[i]) == hexes(lag_aic(row, spec))
        for lags in (None, 2):
            stack = unitroot.adf_stack(np.asfortranarray(rows), spec, lags=lags)
            for i, row in enumerate(rows):
                one = unitroot.adf_test(series(row), spec, lags=lags)
                assert stack[i].lags_or_bandwidth == one.lags_or_bandwidth
                assert stack[i].statistic.hex() == one.statistic.hex()
                assert stack[i].n_obs == one.n_obs
        # The search meets more than one order, and one refit stack serves them all.
        assert len({report.lags_or_bandwidth for report in stack}) == 1
        chosen = {report.lags_or_bandwidth for report in unitroot.adf_stack(rows, spec)}
        assert len(chosen) > 1


def refusal(call):
    with pytest.raises(CurrsubError) as info:
        call()
    return type(info.value), str(info.value)


class TestStackRefusals:
    def test_fmols_row_refusal_is_its_own(self):
        y, x = fmols_rows(171)
        x[4] = 0.0  # a zero regressor column in one row
        expected = refusal(lambda: coint.fmols(series(y[4]), series(x[4])))
        assert expected == (DegeneracyError, "a regressor column is identically zero")
        assert refusal(lambda: coint.fmols_stack(y, x)) == expected
        # Noise scaled to 1e154 overflows the long-run variances, which
        # leaves omega112 NaN: the row refuses at the Lc stage.
        y, x = fmols_rows(60)
        y[3] = 1e154 * np.random.default_rng(3).standard_normal(60)
        for config in coint.DETERMINISTIC_CONFIGS:
            expected = refusal(lambda: coint.fmols(series(y[3]), series(x[3]), config))
            assert expected == (
                DegeneracyError, "conditional long-run variance must be > 0, got nan"
            )
            assert refusal(lambda: coint.fmols_stack(y, x, config)) == expected

    def test_adf_row_refusal_is_its_own(self):
        rows = adf_rows(171)
        rows[5] = 2.0  # a constant row
        expected = refusal(lambda: unitroot.adf_test(series(rows[5])))
        assert expected == (DegeneracyError, "collinear regressors")
        assert refusal(lambda: unitroot.adf_stack(rows)) == expected

    def test_adf_exact_fit_row_refused(self):
        rows = adf_rows(60)
        rows[1] = 0.9 ** np.arange(60.0)
        expected = refusal(lambda: unitroot.adf_test(series(rows[1]), lags=0))
        assert expected[0] is DegeneracyError
        assert refusal(lambda: unitroot.adf_stack(rows, lags=0)) == expected


def seed_by_seed_refusal(mc):
    """The first refusal of the per-seed loop through the one-row functions."""
    for seed in range(mc.seed_base, mc.seed_base + mc.n_seeds):
        try:
            sim = model.simulate_dgp(mc.coeffs, mc.n_obs, mc.noise, seed)
            coint.fmols(sim.log_money_ratio, sim.oc_spread_log)
            for s in (sim.oc_spread_log, sim.eps):
                unitroot.adf_test(s, unitroot.INTERCEPT)
        except CurrsubError as exc:
            return type(exc), str(exc)
    return None


class TestMonteCarloRefusalPrecedence:
    def test_short_sample_refused_by_the_adf(self):
        mc = pipeline.MonteCarloConfig(n_seeds=10, n_obs=30, coeffs=TRUTH, noise=NOISE)
        with pytest.raises(DataError, match="^need at least 32 observations, got 30$"):
            pipeline.run_montecarlo(mc)

    def test_non_finite_draw_refused_as_a_series(self):
        huge = model.TrendCoefficients(v0=0.0, v1=0.0, v2=1e305, sigma=1.0)
        mc = pipeline.MonteCarloConfig(n_seeds=10, n_obs=60, coeffs=huge, noise=NOISE)
        with np.errstate(over="ignore"):
            expected = seed_by_seed_refusal(mc)
            assert expected == (DataError, "non-finite value at 2005-04 (position 43)")
            assert refusal(lambda: pipeline.run_montecarlo(mc)) == expected

    # (seed, path, value): seed 4's disturbance is constant, so only its eps
    # ADF refuses; seed 9's spread is zero, so FM-OLS refuses it first. At
    # 171 months both fall in the first block, whose FM-OLS stage meets
    # seed 9 before its ADF stage meets seed 4; at 1000 months (5 seeds a
    # block) they fall in different blocks.
    @pytest.mark.parametrize("n_obs", [171, 1000])
    @pytest.mark.parametrize("bad", [
        [(9, 1, 0.0), (4, 2, 1.0)],
        [(9, 1, 0.0)],
        [(4, 2, 1.0), (2, 1, 0.0)],
    ])
    def test_lowest_seed_first_stage_first(self, monkeypatch, n_obs, bad):
        simulate_paths = model.simulate_paths

        def corrupted(coeffs, n, noise, seeds, **kwargs):
            paths = simulate_paths(coeffs, n, noise, seeds, **kwargs)
            for seed, path, value in bad:
                if seed in seeds:
                    paths[path][list(seeds).index(seed)] = value
            return paths

        monkeypatch.setattr(model, "simulate_paths", corrupted)
        mc = pipeline.MonteCarloConfig(n_seeds=12, n_obs=n_obs, coeffs=TRUTH, noise=NOISE)
        expected = seed_by_seed_refusal(mc)
        assert expected is not None
        assert refusal(lambda: pipeline.run_montecarlo(mc)) == expected
