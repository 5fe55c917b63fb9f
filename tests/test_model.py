"""Tests for the money-demand model primitives and the data generator."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from currsub.errors import DataError, ParameterError
from currsub.model import (
    AgentState,
    DgpNoise,
    ModelParams,
    TrendCoefficients,
    annual_to_monthly_cost,
    budget_gap,
    ces_liquidity,
    delta_at,
    delta_ratio_at,
    foc_euro_gap,
    foc_money_gap,
    opportunity_cost,
    relative_demand_log,
    simulate_dgp,
    utility,
)
from currsub.series import MonthStamp

# Point estimates of the quadratic-trend regression used as the standard
# simulation truth throughout the suite.
TABLE_COEFFS = TrendCoefficients(
    v0=-0.037619, v1=-0.012215, v2=0.000042, sigma=0.201694
)


def params(sigma=0.5, theta=0.5, phi=0.0008295381, beta=0.97):
    return ModelParams(sigma=sigma, theta=theta, phi_monthly=phi, beta=beta)


class TestModelParams:
    def test_gamma(self):
        assert params(sigma=0.5).gamma == pytest.approx(-1.0)
        assert params(sigma=2.0).gamma == pytest.approx(0.5)

    def test_gamma_needs_positive_sigma(self):
        with pytest.raises(ParameterError):
            _ = params(sigma=0.0).gamma

    @given(st.floats(1e-6, 1e6))
    def test_gamma_below_one(self, sigma):
        assert params(sigma=sigma).gamma < 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"theta": 0.0},
            {"theta": 1.0},
            {"sigma": -0.1},
            {"beta": 1.0},
            {"phi": -0.001},
            {"phi": 1.0},
        ],
    )
    def test_domain_violations(self, kw):
        with pytest.raises(ParameterError):
            params(**kw)


class TestRates:
    def test_monthly_cost_benchmark(self):
        assert annual_to_monthly_cost(0.01) == pytest.approx(0.00082953, abs=1e-8)

    def test_monthly_cost_zero(self):
        assert annual_to_monthly_cost(0.0) == 0.0

    def test_monthly_cost_inverts_compounding(self):
        # 1.01^12 - 1 = 0.126825...
        assert annual_to_monthly_cost(0.126825) == pytest.approx(0.01, abs=1e-6)

    def test_monthly_cost_domain(self):
        with pytest.raises(ParameterError):
            annual_to_monthly_cost(-1.0)

    @given(st.floats(-0.9, 10.0))
    def test_monthly_cost_round_trip(self, phi):
        monthly = annual_to_monthly_cost(phi)
        assert (1.0 + monthly) ** 12 == pytest.approx(1.0 + phi, rel=1e-12)

    def test_opportunity_cost_zero_rate(self):
        assert opportunity_cost(0.0, 0.00082953) == pytest.approx(0.00082953)

    def test_opportunity_cost_zero_phi(self):
        assert opportunity_cost(0.01, 0.0) == pytest.approx(0.00990099, abs=1e-8)

    def test_opportunity_cost_nonpositive(self):
        with pytest.raises(ParameterError):
            opportunity_cost(-0.0009, 0.00082953)
        with pytest.raises(ParameterError):
            opportunity_cost(-1.0, 0.5)


class TestCesLiquidity:
    @given(
        st.floats(0.1, 10.0),
        st.floats(0.05, 0.95),
        st.floats(0.1, 5.0),
    )
    def test_equal_inputs_collapse(self, c, delta, sigma):
        assert ces_liquidity(c, c, delta, sigma) == pytest.approx(c, rel=1e-12)

    def test_harmonic_case(self):
        # gamma = -1 turns the aggregator into a weighted harmonic mean.
        assert ces_liquidity(1.0, 3.0, 0.5, 0.5) == pytest.approx(1.5, rel=1e-12)

    def test_cobb_douglas_limit(self):
        assert ces_liquidity(4.0, 9.0, 0.5, 1.0) == pytest.approx(6.0, rel=1e-12)

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(0.05, 0.95),
        st.floats(0.1, 5.0),
        st.floats(0.01, 100.0),
    )
    def test_homogeneous_degree_one(self, m, ms, delta, sigma, lam):
        scaled = ces_liquidity(lam * m, lam * ms, delta, sigma)
        assert scaled == pytest.approx(lam * ces_liquidity(m, ms, delta, sigma), rel=1e-12)

    def test_continuous_at_sigma_one(self):
        grid = [0.1, 0.5, 1.0, 2.0, 10.0]
        for m in grid:
            for ms in grid:
                limit = ces_liquidity(m, ms, 0.4, 1.0)
                for sigma in (1.0 - 1e-6, 1.0 + 1e-6):
                    near = ces_liquidity(m, ms, 0.4, sigma)
                    assert abs(near - limit) / limit < 1e-4

    def test_domain(self):
        with pytest.raises(ParameterError):
            ces_liquidity(0.0, 1.0, 0.5, 0.5)
        with pytest.raises(ParameterError):
            ces_liquidity(1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            ces_liquidity(1.0, 1.0, 0.5, 0.0)


class TestUtility:
    def test_unit_inputs(self):
        assert utility(1.0, 1.0, 1.0, 0.3, params(sigma=2.0, theta=0.7)) == pytest.approx(1.0)

    def test_square_roots(self):
        assert utility(4.0, 9.0, 9.0, 0.5, params(theta=0.5)) == pytest.approx(6.0)

    def test_equal_inputs_power(self):
        got = utility(2.0, 1.0, 1.0, 0.6, params(sigma=2.0, theta=0.3))
        assert got == pytest.approx(2.0**0.7, abs=1e-5)

    def test_consumption_domain(self):
        with pytest.raises(ParameterError):
            utility(0.0, 1.0, 1.0, 0.5, params())


class TestFirstOrderConditions:
    def test_hand_evaluated_money_gap(self):
        # theta/(1-theta) = 1, aggregator power = 1, cost = (1/0.5)*1 = 2.
        got = foc_money_gap(1.0, 1.0, 1.0, 0.5, 1.0, params(sigma=0.5))
        assert got == pytest.approx(-1.0, rel=1e-12)

    def test_hand_evaluated_euro_gap(self):
        got = foc_euro_gap(1.0, 1.0, 1.0, 0.5, 1.0, params(sigma=0.5))
        assert got == pytest.approx(-1.0, rel=1e-12)

    def test_symmetric_case_gaps_coincide(self):
        p = params(sigma=0.7, theta=0.4)
        a = foc_money_gap(2.0, 3.0, 3.0, 0.5, 0.02, p)
        b = foc_euro_gap(2.0, 3.0, 3.0, 0.5, 0.02, p)
        assert a == b

    def test_linear_in_consumption(self):
        # gap(x) = b*x - cost, so gap(2x) - 2*gap(x) recovers the cost
        # term and must not depend on x.
        p = params(sigma=1.5, theta=0.3)
        args = (2.0, 0.7, 0.5, 0.01)

        def probe(x):
            return foc_money_gap(x, *args[:2], args[2], args[3], p)

        c1 = probe(2.0) - 2.0 * probe(1.0)
        c2 = probe(6.0) - 2.0 * probe(3.0)
        assert c1 == pytest.approx(c2, rel=1e-10)

    def test_solving_for_x_zeroes_the_gap(self):
        p = params(sigma=0.8, theta=0.35)
        m, ms, delta, oc = 1.7, 0.4, 0.3, 0.015
        g = p.gamma
        power = delta * m**g + (1.0 - delta) * ms**g
        x = (oc / delta) * m ** (1.0 - g) * power * (1.0 - p.theta) / p.theta
        assert foc_money_gap(x, m, ms, delta, oc, p) == pytest.approx(0.0, abs=1e-12)


def _invert_focs(theta, delta, sigma, m, ms, x):
    """Back out the opportunity costs that make both conditions hold."""
    g = (sigma - 1.0) / sigma
    power = delta * m**g + (1.0 - delta) * ms**g
    benefit = (theta / (1.0 - theta)) * x / power
    oc_dom = benefit * delta * m ** (g - 1.0)
    oc_for = benefit * (1.0 - delta) * ms ** (g - 1.0)
    return oc_dom, oc_for


class TestFocDemandIdentity:
    def test_identity_on_random_draws(self):
        # Invert both conditions for the opportunity costs, then check the
        # implied relative demand equation reproduces ln(ms/m).
        rng = np.random.default_rng(20)
        for _ in range(200):
            theta, delta = rng.uniform(0.05, 0.95, 2)
            sigma = rng.uniform(0.1, 5.0)
            m, ms, x = rng.uniform(0.1, 10.0, 3)
            oc_dom, oc_for = _invert_focs(theta, delta, sigma, m, ms, x)
            p = params(sigma=sigma, theta=theta)
            assert abs(foc_money_gap(x, m, ms, delta, oc_dom, p)) < 1e-10
            assert abs(foc_euro_gap(x, m, ms, delta, oc_for, p)) < 1e-10
            implied = relative_demand_log(delta, sigma, oc_dom, oc_for)
            assert implied == pytest.approx(math.log(ms / m), abs=1e-10)


class TestRelativeDemand:
    def test_symmetric_zero(self):
        assert relative_demand_log(0.5, 1.3, 0.02, 0.02) == 0.0

    def test_zero_elasticity(self):
        assert relative_demand_log(0.2, 0.0, 0.5, 0.001) == 0.0

    def test_hand_value(self):
        got = relative_demand_log(0.2, 2.0, 0.03, 0.03)
        assert got == pytest.approx(2.0 * math.log(4.0), abs=1e-5)

    def test_monotone_in_delta_and_oc(self):
        deltas = np.linspace(0.1, 0.9, 9)
        vals = [relative_demand_log(d, 1.5, 0.02, 0.01) for d in deltas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        ocs = np.linspace(0.005, 0.05, 9)
        vals = [relative_demand_log(0.3, 1.5, oc, 0.01) for oc in ocs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ParameterError):
            relative_demand_log(0.0, 1.0, 0.01, 0.01)
        with pytest.raises(ParameterError):
            relative_demand_log(0.5, -1.0, 0.01, 0.01)
        with pytest.raises(ParameterError):
            relative_demand_log(0.5, 1.0, 0.0, 0.01)


class TestDeltaPath:
    def test_flat_trend_gives_even_split(self):
        coeffs = TrendCoefficients(v0=0.0, v1=0.0, v2=0.0, sigma=1.0)
        assert delta_ratio_at(0, coeffs) == 1.0
        assert delta_at(0, coeffs) == pytest.approx(0.5)

    def test_fitted_start_value(self):
        assert delta_ratio_at(0, TABLE_COEFFS) == pytest.approx(0.82986, abs=1e-4)

    def test_fitted_minimum_value(self):
        t_star = -TABLE_COEFFS.v1 / (2.0 * TABLE_COEFFS.v2)
        assert t_star == pytest.approx(145.42, abs=0.01)
        assert delta_ratio_at(145, TABLE_COEFFS) == pytest.approx(0.01015, abs=1e-4)

    @given(st.floats(-1e4, 1e4))
    def test_delta_stays_in_unit_interval(self, t):
        d = delta_at(t, TABLE_COEFFS)
        assert 0.0 < d < 1.0

    @given(st.floats(-200.0, 200.0))
    def test_delta_consistent_with_ratio(self, t):
        ratio = delta_ratio_at(t, TABLE_COEFFS)
        assert delta_at(t, TABLE_COEFFS) == pytest.approx(1.0 / (1.0 + ratio), rel=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ParameterError):
            TrendCoefficients(v0=0.0, v1=0.0, v2=0.0, sigma=0.0)


class TestBudgetGap:
    def test_hand_to_mouth(self):
        prev = AgentState(x=0.0, m=0.0, ms_lei=0.0, b=0.0, bs_lei=0.0, p=1.0, z=0.0)
        cur = AgentState(x=50.0, m=0.0, ms_lei=0.0, b=0.0, bs_lei=0.0, p=1.0, z=50.0)
        assert budget_gap(prev, cur, 0.01, 0.005, 1.0, 0.001) == 0.0

    def test_holding_cost_eats_one_percent(self):
        prev = AgentState(x=0.0, m=100.0, ms_lei=0.0, b=0.0, bs_lei=0.0, p=1.0, z=0.0)
        cur = AgentState(x=99.0, m=0.0, ms_lei=0.0, b=0.0, bs_lei=0.0, p=1.0, z=0.0)
        assert budget_gap(prev, cur, 0.0, 0.0, 1.0, 0.01) == pytest.approx(0.0)

    def test_extra_consumption_shows_up_signed(self):
        prev = AgentState(x=0.0, m=100.0, ms_lei=50.0, b=10.0, bs_lei=5.0, p=1.0, z=0.0)
        cur = AgentState(x=20.0, m=80.0, ms_lei=40.0, b=20.0, bs_lei=5.0, p=1.0, z=0.0)
        base = budget_gap(prev, cur, 0.01, 0.004, 1.02, 0.001)
        bumped = AgentState(
            x=21.0, m=80.0, ms_lei=40.0, b=20.0, bs_lei=5.0, p=1.0, z=0.0
        )
        assert budget_gap(prev, bumped, 0.01, 0.004, 1.02, 0.001) == pytest.approx(base - 1.0)

    def test_fx_revalues_euro_positions(self):
        prev = AgentState(x=0.0, m=0.0, ms_lei=100.0, b=0.0, bs_lei=0.0, p=1.0, z=0.0)
        cur = AgentState(x=0.0, m=0.0, ms_lei=0.0, b=0.0, bs_lei=0.0, p=1.0, z=0.0)
        flat = budget_gap(prev, cur, 0.0, 0.0, 1.0, 0.0)
        depreciated = budget_gap(prev, cur, 0.0, 0.0, 1.1, 0.0)
        assert depreciated == pytest.approx(1.1 * flat)

    def test_fx_growth_domain(self):
        prev = AgentState(x=0.0, m=1.0, ms_lei=1.0, b=0.0, bs_lei=0.0, p=1.0, z=0.0)
        with pytest.raises(ParameterError):
            budget_gap(prev, prev, 0.0, 0.0, 0.0, 0.0)


class TestSimulateDgp:
    NOISE = DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=0.05)

    def test_deterministic_given_seed(self):
        a = simulate_dgp(TABLE_COEFFS, 60, self.NOISE, seed=11)
        b = simulate_dgp(TABLE_COEFFS, 60, self.NOISE, seed=11)
        assert np.array_equal(a.log_money_ratio.values, b.log_money_ratio.values)
        assert np.array_equal(a.oc_spread_log.values, b.oc_spread_log.values)
        assert np.array_equal(a.eps.values, b.eps.values)
        c = simulate_dgp(TABLE_COEFFS, 60, self.NOISE, seed=12)
        assert not np.array_equal(a.log_money_ratio.values, c.log_money_ratio.values)

    def test_equation_holds_exactly(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, self.NOISE, seed=5)
        t = np.arange(171.0)
        trend = TABLE_COEFFS.v0 + TABLE_COEFFS.v1 * t + TABLE_COEFFS.v2 * t**2
        recon = trend + TABLE_COEFFS.sigma * sim.oc_spread_log.values + sim.eps.values
        assert_allclose(sim.log_money_ratio.values, recon, atol=1e-12)

    def test_vanishing_noise_leaves_the_trend(self):
        tiny = DgpNoise(spread_sd=1e-12, rho=0.5, eps_sd=1e-12)
        sim = simulate_dgp(TABLE_COEFFS, 60, tiny, seed=3, spread_start=0.25)
        t = np.arange(60.0)
        trend = TABLE_COEFFS.v0 + TABLE_COEFFS.v1 * t + TABLE_COEFFS.v2 * t**2
        flat = trend + TABLE_COEFFS.sigma * 0.25
        assert_allclose(sim.log_money_ratio.values, flat, atol=1e-9)

    def test_spread_starts_where_told(self):
        sim = simulate_dgp(TABLE_COEFFS, 40, self.NOISE, seed=1, spread_start=1.5)
        assert sim.oc_spread_log.values[0] == 1.5

    def test_calendar_propagates(self):
        sim = simulate_dgp(
            TABLE_COEFFS, 40, self.NOISE, seed=1, start=MonthStamp(2010, 2)
        )
        assert sim.log_money_ratio.start == MonthStamp(2010, 2)
        assert sim.eps.dates()[-1] == MonthStamp(2010, 2).shift(39)

    def test_sample_size_floor(self):
        with pytest.raises(DataError):
            simulate_dgp(TABLE_COEFFS, 29, self.NOISE, seed=0)

    def test_noise_domain(self):
        with pytest.raises(ParameterError):
            DgpNoise(spread_sd=0.0, rho=0.5, eps_sd=0.05)
        with pytest.raises(ParameterError):
            DgpNoise(spread_sd=0.05, rho=1.0, eps_sd=0.05)
        with pytest.raises(ParameterError):
            DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=-1.0)

    def test_ar1_disturbance_has_the_right_persistence(self):
        sim = simulate_dgp(TABLE_COEFFS, 5000, self.NOISE, seed=9)
        e = sim.eps.values
        rho_hat = np.dot(e[1:], e[:-1]) / np.dot(e[:-1], e[:-1])
        assert rho_hat == pytest.approx(0.5, abs=0.05)
