"""The Lc critical-value tool's batched arithmetic against the package's fmols."""

import importlib.util
import math
import sys
import tracemalloc
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


def load_tool():
    spec = importlib.util.spec_from_file_location("simulate_lc_critical_values", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load_tool()


def test_package_check_passes(tool):
    assert tool.run_package_check(20260815) is True


def test_package_check_fails_without_package(monkeypatch):
    # The tool sums Lc with the package's kernel: without currsub it
    # cannot even load, so no check can pass.
    for name in [m for m in sys.modules if m.split(".")[0] == "currsub"]:
        monkeypatch.setitem(sys.modules, name, None)
    with pytest.raises(ImportError):
        load_tool()


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


BLOCK_T = 1000


def block_reps(tool):
    """Rows per block at BLOCK_T, and a rep count of two full blocks and a
    short third one."""
    rows = tool._BLOCK_VALUES // BLOCK_T
    return rows, 2 * rows + 5


def test_row_blocks_cover_the_chunk_in_order(tool):
    rows, reps = block_reps(tool)
    blocks = tool._row_blocks(reps, BLOCK_T)
    assert [(b.start, b.stop) for b in blocks] == [
        (0, rows), (rows, 2 * rows), (2 * rows, reps)
    ]
    assert len(tool._row_blocks(rows - 1, BLOCK_T)) == 1
    # A series longer than a block still gets one row per block.
    long_t = tool._BLOCK_VALUES + 1
    assert [(b.start, b.stop) for b in tool._row_blocks(3, long_t)] == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("span", ["three_blocks", "under_one_block"])
def test_chunk_across_row_blocks(tool, config, span):
    rows, reps = block_reps(tool)
    if span == "under_one_block":
        reps = rows - 1
    powers = tool.CONFIG_TREND_POWERS[config]
    seed = 17
    batch = tool.simulate_lc_chunk(np.random.default_rng(seed), reps, BLOCK_T, powers)
    expect = einsum_lc(tool, np.random.default_rng(seed), reps, BLOCK_T, powers)
    np.testing.assert_allclose(batch, expect, rtol=1e-12, atol=0.0)

    x, y = tool._draws(np.random.default_rng(seed), reps, BLOCK_T)
    start = MonthStamp(2001, 9)
    for block in tool._row_blocks(reps, BLOCK_T):
        for r in sorted({block.start, block.stop - 1}):
            rep = coint.fmols(
                MonthlySeries(start, y[r]),
                MonthlySeries(start, x[r]),
                deterministics=CONFIGS[config],
                bandwidth=0,
            )
            assert abs(rep.lc_statistic - batch[r]) < 1e-8


def test_mean_case_vector_equals_scalar_across_row_blocks(tool):
    _, reps = block_reps(tool)
    lc, scalar = tool.simulate_mean_case_chunk(np.random.default_rng(4), reps, BLOCK_T, (0,))
    assert lc.shape == scalar.shape == (reps,)
    assert np.abs(lc - scalar).max() < 1e-10


def test_default_chunk_memory_peak(tool):
    # Blocking keeps a 250 x 2000 quadratic-trend chunk near its two draws
    # (7.6 MiB); fitted as one block it peaks at 46 MiB.
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        tool.simulate_lc_chunk(rng, 250, 2000, (0, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


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
        (["--quick", "--reps", "5", "--t", "40"], "--quick sets its own sizes; drop --reps, --t"),
        (["--chunk", "7", "--quick"], "--quick sets its own sizes; drop --chunk"),
    ],
)
def test_argument_floors_exit_2(tool, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before the package check prints anything
    assert err.rstrip().endswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--reps", "30", "--t", "40", "--chunk", "7"], "simulating Lc null: reps=30 T=40"),
        (["--quick"], "simulating Lc null: reps=2000 T=300"),
    ],
)
def test_run_sizes_reach_the_simulation(tool, capsys, argv, line):
    tool.main(argv)
    assert line in capsys.readouterr().out.splitlines()
