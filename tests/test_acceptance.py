"""Acceptance suite: one test per release criterion.

Each criterion prints exactly one verdict line to the terminal (bypassing
pytest capture) so a run shows the full scorecard at a glance:

    [criterion 1] PASS — ...

The criteria are property-based: calibration pins, algebraic identities,
Monte Carlo size/power bands, equivariance, and round-trip fidelity.
Criterion 8 compares against published point estimates and needs the
original (non-redistributable) dataset; it is skipped unless the
``CURRSUB_GOLDEN_CSV`` environment variable names a dataset file.
"""

import math
import os

import numpy as np
import pytest

from currsub import pipeline
from currsub.coint import QUADRATIC_TREND, fmols, lc_critical_value
from currsub.model import (
    DgpNoise,
    ModelParams,
    TrendCoefficients,
    annual_to_monthly_cost,
    delta_ratio_at,
    foc_euro_gap,
    foc_money_gap,
    relative_demand_log,
    simulate_dgp,
)
from currsub.series import MonthStamp, MonthlySeries
from currsub.unitroot import adf_test, pp_test

# Quadratic-trend point estimates used as simulation truth everywhere.
TABLE_COEFFS = TrendCoefficients(
    v0=-0.037619, v1=-0.012215, v2=0.000042, sigma=0.201694
)
NOISE = DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=0.05)
START = MonthStamp(2001, 9)


def _verdict(capfd, num, ok, detail):
    """Print one visible scorecard line, then assert."""
    with capfd.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_calibration_constant(capfd):
    # Monthly equivalent of a 1% annual holding cost.
    got = annual_to_monthly_cost(0.01)
    ok = abs(got - 0.00082953) <= 1e-8
    _verdict(capfd, 1, ok, f"annual_to_monthly_cost(0.01) = {got:.10f} "
                           f"(target 0.00082953 ± 1e-8)")


def test_criterion_2_foc_identity(capfd):
    # Invert the two first-order conditions for the opportunity costs,
    # then check the relative-demand equation reproduces ln(ms/m).
    rng = np.random.default_rng(2)
    worst_identity = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        theta, delta = rng.uniform(0.05, 0.95, 2)
        sigma = rng.uniform(0.1, 5.0)
        m, ms, x = rng.uniform(0.1, 10.0, 3)
        g = (sigma - 1.0) / sigma
        power = delta * m**g + (1.0 - delta) * ms**g
        benefit = (theta / (1.0 - theta)) * x / power
        oc_dom = benefit * delta * m ** (g - 1.0)
        oc_for = benefit * (1.0 - delta) * ms ** (g - 1.0)
        p = ModelParams(sigma=sigma, theta=theta)
        scale = max(1.0, oc_dom, oc_for)
        worst_gap = max(
            worst_gap,
            abs(foc_money_gap(x, m, ms, delta, oc_dom, p)) / scale,
            abs(foc_euro_gap(x, m, ms, delta, oc_for, p)) / scale,
        )
        implied = relative_demand_log(delta, sigma, oc_dom, oc_for)
        worst_identity = max(worst_identity, abs(implied - math.log(ms / m)))
    ok = worst_identity <= 1e-10 and worst_gap <= 1e-8
    _verdict(capfd, 2, ok,
             f"demand identity max |dev| = {worst_identity:.2e} over 1000 "
             f"draws (≤ 1e-10); construction satisfies both conditions "
             f"to {worst_gap:.2e}")


def test_criterion_3_share_path_shape(capfd):
    ratios = [delta_ratio_at(t, TABLE_COEFFS) for t in range(171)]
    t_min = int(np.argmin(ratios))
    decreasing = all(
        ratios[t + 1] < ratios[t] for t in range(t_min)
    )
    ok = (
        abs(ratios[0] - 0.830) <= 0.001
        and decreasing
        and abs(t_min - 145) <= 2
        and abs(ratios[t_min] - 0.0102) <= 0.0005
    )
    _verdict(capfd, 3, ok,
             f"ratio(0) = {ratios[0]:.5f} (0.830 ± 0.001), monotone decline "
             f"to {ratios[t_min]:.5f} (0.0102 ± 0.0005) at t = {t_min} (≈145)")


def test_criterion_4_fmols_recovery(capfd):
    summaries = {}
    for n in (171, 400, 1000):
        mc = pipeline.MonteCarloConfig(
            n_seeds=200, n_obs=n, coeffs=TABLE_COEFFS, noise=NOISE
        )
        summaries[n] = pipeline.run_montecarlo(mc)["estimates"]
    med_sigma = summaries[171]["sigma"]["median"]
    med_v2 = summaries[171]["v2"]["median"]
    sigma_iqrs = [summaries[n]["sigma"]["iqr"] for n in (171, 400, 1000)]
    v2_iqrs = [summaries[n]["v2"]["iqr"] for n in (171, 400, 1000)]
    tightens = (
        sigma_iqrs[0] > sigma_iqrs[1] > sigma_iqrs[2]
        and v2_iqrs[0] > v2_iqrs[1] > v2_iqrs[2]
    )
    ok = (
        abs(med_sigma - 0.201694) <= 0.08
        and abs(med_v2 - 0.000042) <= 0.00002
        and tightens
    )
    _verdict(capfd, 4, ok,
             f"median σ̂ = {med_sigma:.4f} (0.2017 ± 0.08), median v̂2 = "
             f"{med_v2:.2e} (4.2e-05 ± 2e-05); IQRs tighten "
             f"{sigma_iqrs[0]:.3f} > {sigma_iqrs[1]:.3f} > {sigma_iqrs[2]:.3f} (σ̂), "
             f"{v2_iqrs[0]:.1e} > {v2_iqrs[1]:.1e} > {v2_iqrs[2]:.1e} (v̂2)")


def _random_walk(seed, n):
    rng = np.random.default_rng(seed)
    return MonthlySeries(START, np.cumsum(rng.standard_normal(n)))


def _ar1(seed, n, rho=0.5):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    u = np.empty(n)
    u[0] = e[0] / math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        u[t] = rho * u[t - 1] + e[t]
    return MonthlySeries(START, u)


def test_criterion_5_unit_root_size_and_power(capfd):
    seeds = 500
    adf_rw = sum(
        adf_test(_random_walk(s, 200)).reject_at["5%"] for s in range(seeds)
    ) / seeds
    adf_ar = sum(
        adf_test(_ar1(s, 200)).reject_at["5%"] for s in range(seeds)
    ) / seeds
    pp_rw = sum(
        pp_test(_random_walk(s, 300)).reject_at["5%"] for s in range(seeds)
    ) / seeds
    pp_ar = sum(
        pp_test(_ar1(s, 300)).reject_at["5%"] for s in range(seeds)
    ) / seeds
    ok = (
        0.02 <= adf_rw <= 0.09 and adf_ar > 0.90
        and 0.02 <= pp_rw <= 0.09 and pp_ar > 0.90
    )
    _verdict(capfd, 5, ok,
             f"5% rejection rates over {seeds} seeds — ADF(n=200): "
             f"random walk {adf_rw:.1%} (in [2%, 9%]), AR(1) {adf_ar:.1%} "
             f"(> 90%); PP(n=300): {pp_rw:.1%}, {pp_ar:.1%}")


def test_criterion_6_stability_test_behavior(capfd):
    # Serially uncorrelated disturbances keep the null rejection honest;
    # the break adds 5 residual standard deviations to the slope mid-sample.
    noise_iid = DgpNoise(spread_sd=0.05, rho=0.0, eps_sd=0.05)
    seeds = 500
    n = 171
    cv10 = lc_critical_value(QUADRATIC_TREND, 0.10)
    cv05 = lc_critical_value(QUADRATIC_TREND, 0.05)
    stable = 0
    detected = 0
    for seed in range(seeds):
        sim = simulate_dgp(TABLE_COEFFS, n, noise_iid, seed=seed)
        fit = fmols(sim.log_money_ratio, sim.oc_spread_log)
        stable += fit.lc_statistic < cv10
        broken = sim.log_money_ratio.values.copy()
        broken[n // 2:] += 0.25 * sim.oc_spread_log.values[n // 2:]
        fit_b = fmols(MonthlySeries(sim.log_money_ratio.start, broken),
                      sim.oc_spread_log)
        detected += fit_b.lc_statistic > cv05
    stable_rate = stable / seeds
    power = detected / seeds
    ok = stable_rate >= 0.85 and power >= 0.80
    _verdict(capfd, 6, ok,
             f"stable DGP below 10% critical value in {stable_rate:.1%} "
             f"(≥ 85%); mid-sample slope break above 5% critical value in "
             f"{power:.1%} (≥ 80%)")


def test_criterion_7_equivariance(capfd):
    rng = np.random.default_rng(7)
    worst = 0.0

    def gap(a, b):
        return abs(a - b) / max(1.0, abs(b))

    for seed in range(50):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, seed=seed)
        y, x = sim.log_money_ratio, sim.oc_spread_log
        base = fmols(y, x)

        c = float(rng.uniform(0.5, 3.0))
        scaled = fmols(MonthlySeries(y.start, c * y.values), x)
        for name in base.params:
            worst = max(worst, gap(scaled.params[name], c * base.params[name]))
            worst = max(worst, gap(scaled.standard_errors[name],
                                   c * base.standard_errors[name]))
        worst = max(worst, gap(scaled.r_squared, base.r_squared))
        worst = max(worst, gap(scaled.lc_statistic, base.lc_statistic))

        k = int(rng.integers(1, 61))
        shifted = fmols(y, x, trend_origin=y.start.shift(-k))
        worst = max(worst, gap(shifted.params["sigma"], base.params["sigma"]))
        worst = max(worst, gap(shifted.r_squared, base.r_squared))
        worst = max(worst, gap(shifted.lc_statistic, base.lc_statistic))

    ok = worst <= 1e-8
    _verdict(capfd, 7, ok,
             f"scale equivariance and trend-origin invariance on 50 "
             f"randomized datasets: max normalized deviation {worst:.2e} "
             f"(≤ 1e-8)")


def test_criterion_8_golden_dataset(capfd):
    path = os.environ.get("CURRSUB_GOLDEN_CSV")
    if not path:
        with capfd.disabled():
            print("[criterion 8] SKIP — conditional golden target; set "
                  "CURRSUB_GOLDEN_CSV=<dataset.csv> to run it")
        pytest.skip("golden dataset not supplied")
    config = pipeline.PipelineConfig()
    ingested = pipeline.ingest(path)
    rows = ingested.rows
    months = len(rows)  # ingest refuses gaps: the rows are consecutive months
    derived = pipeline.derive_series(rows, config)
    est = pipeline.run_estimation(derived, config)
    params = est.fmols.params
    targets = {
        "v0": -0.037619,
        "v1": -0.012215,
        "v2": 0.000042,
        "sigma": 0.201694,
    }
    checks = {
        name: abs(params[name] / target - 1.0) <= 0.10
        for name, target in targets.items()
    }
    checks["r_squared"] = abs(est.fmols.r_squared / 0.91 - 1.0) <= 0.10
    checks["lc"] = abs(est.fmols.lc_statistic / 0.561928 - 1.0) <= 0.10
    checks["correlation"] = abs(est.correlation / 0.341 - 1.0) <= 0.10
    ok = months == 171 and all(checks.values())
    failed = sorted(name for name, good in checks.items() if not good)
    _verdict(capfd, 8, ok,
             f"supplied dataset spans {months} months (need 171); "
             f"σ̂ = {params['sigma']:.4f}, R² = {est.fmols.r_squared:.3f} "
             f"vs published values at ±10%"
             + (f"; outside tolerance: {failed}" if failed else ""))


def test_criterion_9_round_trip_fidelity(capfd, tmp_path):
    config = pipeline.PipelineConfig()
    sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, seed=7)
    rows = pipeline.dataset_rows_from_simulation(sim)
    direct = pipeline.run_estimation(
        pipeline.derive_series(rows, config), config
    ).fmols.params

    path = tmp_path / "round_trip.csv"
    path.write_text(pipeline.dataset_csv_text(rows))
    ingested = pipeline.ingest(str(path))
    reread = pipeline.run_estimation(
        pipeline.derive_series(ingested.rows, config), config
    ).fmols.params

    worst = max(abs(reread[name] - direct[name]) for name in direct)
    ok = worst <= 1e-9
    _verdict(capfd, 9, ok,
             f"simulate → CSV → ingest → estimate matches the in-memory "
             f"fit to {worst:.2e} per coefficient (≤ 1e-9)")
