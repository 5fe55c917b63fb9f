"""ADF and PP unit-root tests against published surfaces and each other."""

import math

import numpy as np
import pytest

from currsub.errors import DataError, DegeneracyError, ParameterError
from currsub.series import MonthStamp, MonthlySeries
from currsub.unitroot import (
    DETERMINISTIC_KINDS,
    INTERCEPT,
    TREND_AND_INTERCEPT,
    UnitRootReport,
    adf_stack,
    adf_test,
    mackinnon_critical_values,
    mackinnon_p_value,
    pp_test,
)

START = MonthStamp(2001, 9)


def series(values):
    return MonthlySeries(START, np.asarray(values, dtype=float))


def random_walk(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return series(np.cumsum(rng.standard_normal(n)) * scale)


def ar1_series(seed, n, rho=0.5):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    u = np.empty(n)
    u[0] = e[0] / math.sqrt(1.0 - rho * rho)
    for k in range(1, n):
        u[k] = rho * u[k - 1] + e[k]
    return series(u)


class TestMacKinnonCriticalValues:
    def test_response_surface_at_100(self):
        cvs = mackinnon_critical_values(INTERCEPT, 100)
        assert cvs["1%"] == pytest.approx(-3.4975, abs=1e-4)
        assert cvs["5%"] == pytest.approx(-2.8909, abs=1e-4)
        assert cvs["10%"] == pytest.approx(-2.5824, abs=1e-4)

    def test_asymptote_is_the_leading_coefficient(self):
        cvs = mackinnon_critical_values(TREND_AND_INTERCEPT, 10**9)
        assert cvs["1%"] == pytest.approx(-3.95877, abs=1e-5)
        assert cvs["5%"] == pytest.approx(-3.41049, abs=1e-5)
        assert cvs["10%"] == pytest.approx(-3.12705, abs=1e-5)

    def test_ordering(self):
        for kind in DETERMINISTIC_KINDS:
            cvs = mackinnon_critical_values(kind, 171)
            assert cvs["1%"] < cvs["5%"] < cvs["10%"] < 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            mackinnon_critical_values("none", 100)
        with pytest.raises(DataError):
            mackinnon_critical_values(INTERCEPT, 0)


class TestMacKinnonPValue:
    def test_interior_value(self):
        assert mackinnon_p_value(-2.0, INTERCEPT) == pytest.approx(
            0.2865731, abs=1e-6
        )

    def test_clamps(self):
        assert mackinnon_p_value(3.0, INTERCEPT) == 1.0
        assert mackinnon_p_value(-20.0, INTERCEPT) == 0.0
        assert mackinnon_p_value(1.0, TREND_AND_INTERCEPT) == 1.0

    def test_monotone_in_statistic(self):
        grid = np.linspace(-6.0, 0.5, 40)
        for kind in DETERMINISTIC_KINDS:
            ps = [mackinnon_p_value(t, kind) for t in grid]
            assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))

    def test_branch_continuity_at_tau_star(self):
        # The quadratic and cubic surfaces meet near tau*; the published
        # fits agree there to about a tenth of a percentage point.
        for kind, tau_star in ((INTERCEPT, -1.61), (TREND_AND_INTERCEPT, -2.89)):
            left = mackinnon_p_value(tau_star, kind)
            right = mackinnon_p_value(tau_star + 1e-9, kind)
            assert left == pytest.approx(right, abs=2e-3)


class TestAdf:
    def test_fixed_lag_matches_statsmodels(self):
        sm = pytest.importorskip("statsmodels.tsa.stattools")
        y = random_walk(0, 200)
        for kind, reg in ((INTERCEPT, "c"), (TREND_AND_INTERCEPT, "ct")):
            for lag in (0, 3):
                ours = adf_test(y, kind, lags=lag)
                ref = sm.adfuller(y.values, maxlag=lag, regression=reg, autolag=None)
                assert ours.statistic == pytest.approx(ref[0], abs=1e-8)
                assert ours.n_obs == ref[3]

    def test_aic_selection_matches_statsmodels(self):
        sm = pytest.importorskip("statsmodels.tsa.stattools")
        for seed in range(5):
            y = ar1_series(seed, 240)
            ours = adf_test(y, INTERCEPT, max_lags=8)
            ref = sm.adfuller(y.values, maxlag=8, regression="c", autolag="AIC")
            assert ours.lags_or_bandwidth == ref[2]
            assert ours.statistic == pytest.approx(ref[0], abs=1e-8)

    def test_report_fields(self):
        rep = adf_test(random_walk(1, 171), TREND_AND_INTERCEPT)
        assert rep.test == "ADF"
        assert rep.spec == TREND_AND_INTERCEPT
        assert 0 <= rep.lags_or_bandwidth <= 12
        assert rep.n_obs == 170 - rep.lags_or_bandwidth
        for level in ("1%", "5%", "10%"):
            assert rep.reject_at[level] == (
                rep.statistic < rep.critical_values[level]
            )

    def test_affine_invariance(self):
        y = random_walk(2, 150)
        base = adf_test(y, INTERCEPT, lags=2)
        moved = adf_test(series(3.5 * y.values - 11.0), INTERCEPT, lags=2)
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-8)

    def test_stationary_series_rejects(self):
        rep = adf_test(ar1_series(3, 400), INTERCEPT)
        assert rep.reject_at["5%"]
        assert rep.approx_p_value < 0.01

    def test_random_walk_fails_to_reject(self):
        rep = adf_test(random_walk(4, 400), INTERCEPT)
        assert not rep.reject_at["5%"]

    def test_constant_series_degenerate(self):
        with pytest.raises(DegeneracyError):
            adf_test(series(np.ones(100)), INTERCEPT, lags=0)

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="at least"):
            adf_test(series(np.arange(25.0)), INTERCEPT)  # needs 20 + 12

    def test_constant_series_refused_as_collinear(self):
        # The lag-0 candidate's level and intercept coincide; that refusal
        # comes before the all-zero lag columns of the wider candidates.
        for kind in DETERMINISTIC_KINDS:
            with pytest.raises(DegeneracyError, match="^collinear regressors$"):
                adf_test(series(np.full(60, 3.0)), kind)
        # In an exact quadratic, lag 2 is a combination of lag 1 and the
        # intercept. A fixed lag 2 and a search up to 2 factor the same
        # design on the same sample, so they give the same verdict.
        quadratic = series(np.polyval([0.06, -1.32, 0.13], np.arange(43) / 43))
        for kind in DETERMINISTIC_KINDS:
            messages = []
            for options in ({"lags": 2}, {"max_lags": 2}):
                with pytest.raises(DegeneracyError, match="^collinear regressors$") as exc:
                    adf_test(quadratic, kind, **options)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]

    def test_exact_fit_refused(self):
        # dy = -0.1 * y exactly, so the lag-0 regression leaves an SSR of
        # rounding noise (about 1e-32) and its t-ratio was about -1.2e16.
        y = series(0.9 ** np.arange(60.0))
        for kind in DETERMINISTIC_KINDS:
            with pytest.raises(DegeneracyError, match="fits the differenced series exactly"):
                adf_test(y, kind, lags=0)
            with pytest.raises(DegeneracyError, match="fits the differenced series exactly"):
                pp_test(y, kind)

    @pytest.mark.parametrize("n, max_lags", [(38, 18), (36, 16)])
    def test_candidate_as_wide_as_sample_refused(self, n, max_lags):
        # 19 common rows; candidate 16 is the first with 19 regressors.
        with pytest.raises(
            DataError, match=r"^need more observations \(19\) than regressors \(19\)$"
        ):
            adf_test(random_walk(0, n), TREND_AND_INTERCEPT, max_lags=max_lags)

    def test_widest_candidate_can_win(self):
        # 18 regressors on 19 rows: one residual degree of freedom.
        rep = adf_test(random_walk(1, 36), INTERCEPT, max_lags=16)
        assert (rep.lags_or_bandwidth, rep.n_obs) == (16, 19)
        assert rep.statistic == pytest.approx(float.fromhex("0x1.7448b3eeec99dp-1"), abs=1e-12)

    def test_constant_tail_picks_largest_lag(self):
        # Lag columns that are zero over the tail still enter the search.
        y = random_walk(34, 40).values.copy()
        y[30:] = y[29]
        rep = adf_test(series(y), INTERCEPT)
        assert (rep.lags_or_bandwidth, rep.n_obs) == (12, 27)
        assert rep.statistic == pytest.approx(float.fromhex("0x1.4c3822c342773p+0"), abs=1e-12)

    def test_bad_lags_rejected(self):
        y = random_walk(5, 100)
        with pytest.raises(ParameterError):
            adf_test(y, INTERCEPT, lags=-1)
        with pytest.raises(ParameterError):
            adf_test(y, INTERCEPT, max_lags=-1)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ParameterError, match="deterministic"):
            adf_test(random_walk(6, 100), "none")


class TestDegenerateVerdicts:
    """Degenerate inputs keep their verdicts and their messages."""

    WALK = np.cumsum(np.random.default_rng(5).standard_normal(60))

    @staticmethod
    def verdict(y, kind, test=adf_test, **options):
        try:
            rep = test(series(y), kind, **options)
        except DegeneracyError as exc:
            return str(exc)
        except (DataError, ParameterError) as exc:
            return type(exc).__name__, str(exc)
        return rep.lags_or_bandwidth, rep.n_obs, rep.reject_at["5%"]

    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_refusals(self, kind):
        constant = np.full(60, 3.0)
        geometric = 0.9 ** np.arange(60.0)
        # Constant on the common sample of max_lags 12, not before it.
        flat_common = self.WALK.copy()
        flat_common[12:] = flat_common[12]
        for y, options, expected in (
            (constant, {}, "collinear regressors"),
            (constant, {"lags": 0}, "collinear regressors"),
            (constant, {"lags": 2}, "a regressor column is identically zero"),
            (geometric, {}, "collinear regressors"),
            (geometric, {"lags": 0}, "the regression fits the differenced series exactly"),
            (geometric, {"lags": 2}, "collinear regressors"),
            (flat_common, {}, "collinear regressors"),
            (flat_common, {"lags": 0}, (0, 59, True)),
        ):
            assert self.verdict(y, kind, **options) == expected

    @pytest.mark.parametrize(
        "kind, statistic",
        [(INTERCEPT, "-0x1.84e2d0d8a0a39p+1"), (TREND_AND_INTERCEPT, "-0x1.d5d4020e1d797p+1")],
    )
    def test_exact_fit_on_the_common_sample_only(self, kind, statistic):
        # On the common sample the lhs is one nonzero difference, which
        # every order fits exactly; order 0 wins the tie, and its refit
        # on 12 more rows is no exact fit.
        y = self.WALK.copy()
        y[13:] = y[13]
        assert self.verdict(y, kind) == (0, 59, True)
        assert adf_test(series(y), kind).statistic == pytest.approx(
            float.fromhex(statistic), rel=1e-12
        )

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_scaled_rows_alone_and_stacked(self, kind, scale):
        other = np.cumsum(np.random.default_rng(6).standard_normal(60))
        stack = np.vstack([self.WALK, scale * self.WALK, scale * other])
        for options, expected in (({}, (0, 59)), ({"lags": 2}, (2, 57))):
            unscaled = [adf_test(series(y), kind, **options) for y in (self.WALK, self.WALK, other)]
            assert (unscaled[0].lags_or_bandwidth, unscaled[0].n_obs) == expected
            lone = adf_test(series(scale * self.WALK), kind, **options)
            scaled = [lone, *adf_stack(stack, kind, **options)]
            for ours, ref in zip(scaled, [unscaled[0], *unscaled]):
                assert (ours.lags_or_bandwidth, ours.n_obs) == (ref.lags_or_bandwidth, ref.n_obs)
                assert ours.reject_at == ref.reject_at
                assert ours.statistic == pytest.approx(ref.statistic, rel=1e-12)

    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_pp_refusals_in_order(self, kind):
        # The pivot gate refuses before the bandwidth checks (too large
        # before negative), and those before the exact-fit check.
        t = np.arange(60.0)
        too_large = ("DataError", "bandwidth 59 too large for 59 residuals")
        negative = ("ParameterError", "bandwidth must be >= 0, got -1")
        exact = "the regression fits the differenced series exactly"
        collinear = "collinear regressors"
        expected = {
            INTERCEPT: {
                "constant": [collinear] * 4,
                "line": [exact, exact, too_large, negative],
                "geometric": [exact, exact, too_large, negative],
                "square": [(3, 59, False), (0, 59, False), too_large, negative],
                "alternating": [exact, exact, too_large, negative],
                "walk": [(3, 59, False), (0, 59, False), too_large, negative],
            },
            TREND_AND_INTERCEPT: {
                "constant": [collinear] * 4,
                "line": [collinear] * 4,
                "geometric": [exact, exact, too_large, negative],
                "square": [exact, exact, too_large, negative],
                "alternating": [exact, exact, too_large, negative],
                "walk": [(3, 59, False), (0, 59, False), too_large, negative],
            },
        }[kind]
        inputs = {
            "constant": np.full(60, 3.0),
            "line": t,
            "geometric": 0.9**t,
            "square": t**2,
            "alternating": (-1.0) ** t,
            "walk": self.WALK,
        }
        for name, y in inputs.items():
            got = [self.verdict(y, kind, pp_test, bandwidth=bw) for bw in (None, 0, 59, -1)]
            assert got == expected[name], name

    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_pp_scaled_walk(self, kind):
        unscaled = pp_test(series(self.WALK), kind)
        for scale in (1e150, 1e-150):
            scaled = pp_test(series(scale * self.WALK), kind)
            assert (scaled.lags_or_bandwidth, scaled.n_obs) == (3, 59)
            assert (scaled.lags_or_bandwidth, scaled.n_obs) == (
                unscaled.lags_or_bandwidth,
                unscaled.n_obs,
            )
            assert scaled.reject_at == unscaled.reject_at
            assert scaled.statistic == pytest.approx(unscaled.statistic, rel=1e-12)
        for scale, message in (
            (1e200, "collinear regressors"),
            (1e-300, "a regressor column is identically zero"),
        ):
            for bandwidth in (None, -1):
                assert self.verdict(scale * self.WALK, kind, pp_test, bandwidth=bandwidth) == message


class TestPp:
    def test_bandwidth_zero_equals_unaugmented_adf(self):
        # With no kernel terms the correction factor is exactly one, so
        # Z_tau collapses to the plain Dickey-Fuller t-ratio.
        for seed in range(3):
            y = random_walk(seed, 171)
            for kind in DETERMINISTIC_KINDS:
                z = pp_test(y, kind, bandwidth=0)
                t = adf_test(y, kind, lags=0)
                assert z.statistic == pytest.approx(t.statistic, abs=1e-10)
                assert z.n_obs == t.n_obs

    def test_automatic_bandwidth(self):
        rep = pp_test(random_walk(7, 171), INTERCEPT)
        # 170 residual rows -> floor(4 * 1.7^(2/9)) = 4.
        assert rep.lags_or_bandwidth == 4
        assert rep.test == "PP"

    def test_affine_invariance(self):
        y = random_walk(8, 150)
        base = pp_test(y, TREND_AND_INTERCEPT)
        moved = pp_test(series(-2.0 * y.values + 5.0), TREND_AND_INTERCEPT)
        # Sign flips do not matter for either spec: the level regressor
        # rescales and the t-ratio is scale-free.
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-8)

    def test_stationary_series_rejects(self):
        rep = pp_test(ar1_series(9, 400), INTERCEPT)
        assert rep.reject_at["5%"]

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="at least 25"):
            pp_test(series(np.arange(24.0)))

    def test_oversized_bandwidth_rejected(self):
        with pytest.raises(DataError, match="too large"):
            pp_test(random_walk(10, 30), INTERCEPT, bandwidth=29)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ParameterError):
            pp_test(random_walk(11, 100), INTERCEPT, bandwidth=-1)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegeneracyError):
            pp_test(series(np.ones(100)))

    def test_negative_bandwidth_refused_before_degeneracy(self):
        y = series(2.0 ** np.arange(40))
        with pytest.raises(ParameterError, match="bandwidth must be >= 0, got -1"):
            pp_test(y, INTERCEPT, bandwidth=-1)
        with pytest.raises(DegeneracyError):
            pp_test(y, INTERCEPT, bandwidth=2)


def ma2_series(seed, n, theta=(0.6, 0.3)):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n + 2)
    return series(e[2:] + theta[0] * e[1:-1] + theta[1] * e[:-2])


ORACLE_SERIES = {
    "random_walk": lambda seed: random_walk(seed, 200),
    "ar1": lambda seed: ar1_series(seed, 200, rho=0.8),
    "ma2": lambda seed: ma2_series(seed, 200),
}


def _oracle_design(y, kind, lag, trim):
    """Unscaled Dickey-Fuller regression on difference rows trim.. (level first)."""
    dy = np.diff(y)
    rows = np.arange(trim, dy.size)
    cols = [y[rows]] + [dy[rows - j] for j in range(1, lag + 1)]
    cols.append(np.ones(rows.size))
    if kind == TREND_AND_INTERCEPT:
        cols.append(rows.astype(float))
    return np.column_stack(cols), dy[rows]


def _oracle_ols(x, lhs):
    """(beta, resid) by lstsq, no QR of our own."""
    beta = np.linalg.lstsq(x, lhs, rcond=None)[0]
    return beta, lhs - x @ beta


def _oracle_fit(x, lhs):
    """(beta, resid, standard error of beta[0])."""
    beta, resid = _oracle_ols(x, lhs)
    s2 = float(resid @ resid) / (x.shape[0] - x.shape[1])
    # Frisch-Waugh: (X'X)^-1[0, 0] is 1 / SSR of the level on the rest.
    rest = x[:, 1:]
    partial = x[:, 0] - rest @ np.linalg.lstsq(rest, x[:, 0], rcond=None)[0]
    return beta, resid, math.sqrt(s2 / float(partial @ partial))


def _oracle_adf(y, kind, max_lags):
    best, best_aic = None, math.inf
    for k in range(max_lags + 1):
        x, lhs = _oracle_design(y, kind, k, max_lags)
        _, resid = _oracle_ols(x, lhs)
        nobs = x.shape[0]
        aic = nobs * math.log(float(resid @ resid) / nobs) + 2.0 * x.shape[1]
        if aic < best_aic:
            best, best_aic = k, aic
    return best, _oracle_fixed_lag(y, kind, best)[0]


def _oracle_fixed_lag(y, kind, lag):
    """(t-ratio on the level, rows) of the lag-``lag`` regression on its own sample."""
    x, lhs = _oracle_design(y, kind, lag, lag)
    beta, _, se = _oracle_fit(x, lhs)
    return beta[0] / se, x.shape[0]


def _oracle_pp(y, kind, bandwidth):
    x, lhs = _oracle_design(y, kind, 0, 0)
    beta, e, se = _oracle_fit(x, lhs)
    nobs, k = x.shape
    gamma0 = float(e @ e) / nobs
    lam2 = gamma0
    for j in range(1, bandwidth + 1):
        acc = 0.0
        for t in range(j, nobs):
            acc += e[t] * e[t - j]
        lam2 += 2.0 * (1.0 - j / (bandwidth + 1.0)) * acc / nobs
    s = math.sqrt(float(e @ e) / (nobs - k))
    t_stat = beta[0] / se
    return math.sqrt(gamma0 / lam2) * t_stat - 0.5 * (lam2 - gamma0) / math.sqrt(
        lam2
    ) * (nobs * se / s)


def oracle_stack(seed, n, max_lags):
    """Four series that choose different orders: white-noise differences
    (order 0), differences with an AR term at lag ``max_lags`` (that
    order), AR(2) differences (an order in between) and a stationary
    AR(1) level; each after a burn-in of 50 draws."""
    e = np.random.default_rng(seed).standard_normal((4, n + 50))
    dy = e.copy()
    for t in range(max_lags, n + 50):
        dy[1, t] += 0.7 * dy[1, t - max_lags]
    for t in range(2, n + 50):
        dy[2, t] += 0.5 * dy[2, t - 1] - 0.6 * dy[2, t - 2]
    rows = np.cumsum(dy, axis=1)
    rows[3, 0] = 0.0
    for t in range(1, n + 50):
        rows[3, t] = 0.6 * rows[3, t - 1] + e[3, t]
    return rows[:, 50:]


class TestLstsqOracle:
    """adf_test, adf_stack and pp_test against an independent, unscaled
    lstsq oracle."""

    def test_adf_aic_lag_sweep(self):
        """AR(1) levels and cumulative sums, n 40..400, max_lags 0..14."""
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, max_lags = int(rng.integers(40, 401)), int(rng.integers(0, 15))
            u = ar1_series(seed, n, rho=rng.uniform(-0.9, 0.9)).values
            y = np.cumsum(u) if seed % 2 else u
            for kind in DETERMINISTIC_KINDS:
                ours = adf_test(series(y), kind, max_lags=max_lags)
                lag, t_stat = _oracle_adf(y, kind, max_lags)
                assert (seed, kind, ours.lags_or_bandwidth) == (seed, kind, lag)
                assert ours.statistic == pytest.approx(t_stat, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(ORACLE_SERIES))
    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_adf_aic_lag_and_t_ratio(self, name, kind):
        for seed in range(3):
            y = ORACLE_SERIES[name](seed)
            for max_lags in (4, 12):
                ours = adf_test(y, kind, max_lags=max_lags)
                lag, t_stat = _oracle_adf(y.values, kind, max_lags)
                assert ours.lags_or_bandwidth == lag
                assert ours.statistic == pytest.approx(t_stat, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(ORACLE_SERIES))
    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_adf_fixed_lags(self, name, kind):
        for seed in range(3):
            y = ORACLE_SERIES[name](seed)
            for lags in (0, 3):
                ours = adf_test(y, kind, lags=lags)
                t_stat, nobs = _oracle_fixed_lag(y.values, kind, lags)
                assert ours.lags_or_bandwidth == lags
                assert ours.n_obs == nobs
                assert ours.statistic == pytest.approx(t_stat, abs=1e-8)

    @pytest.mark.parametrize("max_lags", [0, 1, 4, 12])
    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_adf_stack_aic(self, kind, max_lags):
        """Each row of a stack refits its own order on its own sample: order
        0 appends every row before the common sample, max_lags none."""
        chosen = set()
        for n in (200, 20 + max_lags):
            for seed in range(3):
                rows = oracle_stack(seed, n, max_lags)
                for row, ours in zip(rows, adf_stack(rows, kind, max_lags=max_lags)):
                    lag, t_stat = _oracle_adf(row, kind, max_lags)
                    assert (seed, n, ours.lags_or_bandwidth) == (seed, n, lag)
                    assert ours.n_obs == n - 1 - lag
                    assert ours.statistic == pytest.approx(t_stat, abs=1e-8)
                    chosen.add(lag)
        assert {0, max_lags} <= chosen
        if max_lags > 1:
            assert chosen - {0, max_lags}

    @pytest.mark.parametrize("lags", [0, 3])
    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_adf_stack_fixed_lags(self, kind, lags):
        for n in (200, 20 + lags):
            for seed in range(3):
                rows = oracle_stack(seed, n, 4)
                for row, ours in zip(rows, adf_stack(rows, kind, lags=lags)):
                    t_stat, nobs = _oracle_fixed_lag(row, kind, lags)
                    assert (ours.lags_or_bandwidth, ours.n_obs) == (lags, nobs)
                    assert ours.statistic == pytest.approx(t_stat, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(ORACLE_SERIES))
    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_pp_z_tau(self, name, kind):
        for seed in range(3):
            y = ORACLE_SERIES[name](seed)
            for bandwidth in (0, 3, 14):
                ours = pp_test(y, kind, bandwidth=bandwidth)
                assert ours.statistic == pytest.approx(
                    _oracle_pp(y.values, kind, bandwidth), abs=1e-8
                )


class TestUnitRootReport:
    def _kwargs(self):
        return dict(
            test="ADF",
            spec=INTERCEPT,
            statistic=-3.0,
            lags_or_bandwidth=1,
            critical_values={"1%": -3.46, "5%": -2.88, "10%": -2.57},
            approx_p_value=0.03,
            reject_at={"1%": False, "5%": True, "10%": True},
            n_obs=150,
        )

    def test_valid_report(self):
        rep = UnitRootReport(**self._kwargs())
        assert rep.reject_at["5%"]
