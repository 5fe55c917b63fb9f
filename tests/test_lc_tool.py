"""The Lc critical-value tool's batched arithmetic against the package's fmols."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from currsub import coint
from currsub.series import MonthStamp, MonthlySeries

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "simulate_lc_critical_values.py"
CONFIGS = {
    "const": coint.CONST,
    "linear_trend": coint.LINEAR_TREND,
    "quadratic_trend": coint.QUADRATIC_TREND,
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("simulate_lc_critical_values", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_check_passes(tool):
    assert tool.run_package_check(20260815) is True


def test_package_check_fails_without_package(tool, monkeypatch):
    monkeypatch.setitem(sys.modules, "currsub", None)
    assert tool.run_package_check(20260815) is False


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_chunk_equals_fmols_lc(tool, config):
    reps, t_len, seed = 6, 60, 11
    batch = tool.simulate_lc_chunk(
        np.random.default_rng(seed), reps, t_len, tool.CONFIG_TREND_POWERS[config]
    )
    assert batch.shape == (reps,)

    # Redraw the same inputs in the order simulate_lc_chunk documents.
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal((reps, t_len)), axis=1)
    y = rng.standard_normal((reps, t_len))
    x = x / np.sqrt((x * x).mean(axis=1, keepdims=True))
    start = MonthStamp(2001, 9)
    for r in range(reps):
        rep = coint.fmols(
            MonthlySeries(start, y[r]),
            MonthlySeries(start, x[r]),
            deterministics=CONFIGS[config],
            bandwidth=0,
        )
        assert abs(rep.lc_statistic - batch[r]) < 1e-8


def einsum_lc(tool, rng, reps, t_len, powers):
    """simulate_lc_chunk's statistic as its definition reads: moments as
    means of products, scores time-major, and sum_t S_t' M^-1 S_t as one
    three-operand einsum."""
    d = tool._deterministics(t_len, powers)
    p = d.shape[1]
    x, y = tool._draws(rng, reps, t_len)
    resid, _ = tool._fit(d, x, y)
    r1 = resid[:, 1:]
    dx = np.diff(x, axis=1)
    r1c = r1 - r1.mean(axis=1, keepdims=True)
    dxc = dx - dx.mean(axis=1, keepdims=True)
    g11 = (r1c * r1c).mean(axis=1)
    g12 = (r1c * dxc).mean(axis=1)
    g22 = (dxc * dxc).mean(axis=1)
    y_plus = y[:, 1:] - (g12 / g22)[:, None] * dx
    u_plus, mom1 = tool._fit(d[1:], x[:, 1:], y_plus)
    scores = np.empty((reps, t_len - 1, p + 1))
    scores[:, :, :p] = d[None, 1:, :] * u_plus[:, :, None]
    scores[:, :, p] = x[:, 1:] * u_plus
    cum = np.cumsum(scores, axis=1)
    quad = np.einsum("rti,rij,rtj->r", cum, np.linalg.inv(mom1), cum)
    return quad / ((t_len - 1) * (g11 - g12 * g12 / g22))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_chunk_equals_einsum_definition(tool, config):
    reps, t_len, seed = 8, 120, 5
    powers = tool.CONFIG_TREND_POWERS[config]
    batch = tool.simulate_lc_chunk(np.random.default_rng(seed), reps, t_len, powers)
    expect = einsum_lc(tool, np.random.default_rng(seed), reps, t_len, powers)
    np.testing.assert_allclose(batch, expect, rtol=1e-12, atol=0.0)


def test_chunk_of_one_rep(tool):
    lc = tool.simulate_lc_chunk(np.random.default_rng(3), 1, 60, (0, 1))
    assert lc.shape == (1,)
    assert lc[0] == pytest.approx(
        einsum_lc(tool, np.random.default_rng(3), 1, 60, (0, 1))[0], rel=1e-12
    )


def test_mean_case_vector_equals_scalar_with_a_constant(tool):
    # With a constant only, the vector Lc and the scalar partial-sum
    # statistic are the same number; anything else is an indexing bug.
    lc, scalar = tool.simulate_mean_case_chunk(np.random.default_rng(9), 8, 120, (0,))
    assert lc.shape == scalar.shape == (8,)
    assert np.abs(lc - scalar).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2, 7, 50, 2000, 100_000])
def test_quantile_interval_brackets_the_sample_quantile(tool, n):
    sample = np.sort(np.random.default_rng(n).standard_normal(n))
    for prob in tool.TAIL_PROBS:
        lo, hi = tool.quantile_ci_ranks(n, 1.0 - prob)
        assert 1 <= lo <= hi <= n
        assert sample[lo - 1] <= np.quantile(sample, 1.0 - prob) <= sample[hi - 1]


@pytest.mark.parametrize("n", [2000, 100_000])  # --quick and the default reps
def test_quantile_interval_covers_at_least_95_percent(tool, n):
    # X_(lo) <= xi_q < X_(hi) exactly when Binomial(n, q) lies in [lo, hi - 1].
    for prob in tool.TAIL_PROBS:
        q = 1.0 - prob
        lo, hi = tool.quantile_ci_ranks(n, q)
        log_pmf = (
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(q) + (n - j) * math.log1p(-q)
            for j in range(lo, hi)
        )
        assert sum(map(math.exp, log_pmf)) >= 0.95


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--reps", "0"], "--reps must be >= 1, got 0"),
        (["--reps", "-5"], "--reps must be >= 1, got -5"),
        (["--chunk", "0"], "--chunk must be >= 1, got 0"),
        (["--t", "3"], "--t must be >= 30, got 3"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
    ],
)
def test_argument_floors_exit_2(tool, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before the package check prints anything
    assert err.rstrip().endswith(f"error: {message}")
