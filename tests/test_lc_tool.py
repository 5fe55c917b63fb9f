"""The Lc critical-value tool's batched arithmetic against the package's fmols."""

import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path
from statistics import NormalDist

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
    """simulate_lc_chunk's statistic as its definition reads, written apart
    from the tool, which lends only its draws: both FM-OLS stages fitted
    rep by rep by np.linalg.lstsq on [unit-RMS trend, x], moments as means
    of products, scores time-major, and sum_t S_t' M^-1 S_t as one
    three-operand einsum."""
    d = np.vander(np.arange(t_len, dtype=float), max(powers) + 1, increasing=True)
    d /= np.sqrt((d * d).mean(axis=0))
    x, y = tool._draws(rng, reps, t_len)
    lc = np.empty(reps)
    for r in range(reps):
        z = np.column_stack([d, x[r]])
        resid = y[r] - z @ np.linalg.lstsq(z, y[r], rcond=None)[0]
        r1c = resid[1:] - resid[1:].mean()
        dx = np.diff(x[r])
        dxc = dx - dx.mean()
        g11 = (r1c * r1c).mean()
        g12 = (r1c * dxc).mean()
        g22 = (dxc * dxc).mean()
        z1 = z[1:]
        y_plus = y[r, 1:] - g12 / g22 * dx
        u_plus = y_plus - z1 @ np.linalg.lstsq(z1, y_plus, rcond=None)[0]
        cum = np.cumsum(z1 * u_plus[:, None], axis=0)
        quad = np.einsum("ti,ij,tj->", cum, np.linalg.inv(z1.T @ z1), cum)
        lc[r] = quad / ((t_len - 1) * (g11 - g12 * g12 / g22))
    return lc


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
    blocks = tool._row_blocks(reps, BLOCK_T, tool._BLOCK_VALUES)
    assert [(b.start, b.stop) for b in blocks] == [
        (0, rows), (rows, 2 * rows), (2 * rows, reps)
    ]
    assert len(tool._row_blocks(rows - 1, BLOCK_T, tool._BLOCK_VALUES)) == 1
    # A series longer than a block still gets one row per block.
    long_t = tool._BLOCK_VALUES + 1
    assert [(b.start, b.stop) for b in tool._row_blocks(3, long_t, tool._BLOCK_VALUES)] == [
        (0, 1), (1, 2), (2, 3)
    ]


def test_default_run_draws_chunks_of_250_reps(tool):
    # The chunk size cuts the generator's stream, so it fixes the table:
    # at the default T a run draws 250 reps at a time, the last chunk short.
    chunks = tool._row_blocks(1010, 2000, tool._CHUNK_VALUES)
    assert [(c.start, c.stop) for c in chunks] == [
        (0, 250), (250, 500), (500, 750), (750, 1000), (1000, 1010)
    ]


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
    for block in tool._row_blocks(reps, BLOCK_T, tool._BLOCK_VALUES):
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
    # (7.6 MiB; 10.2 MiB in all): fitted as one block it peaks at 45.9 MiB,
    # and with a temporary for every step of the draws at 11.6 MiB.
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        tool.simulate_lc_chunk(rng, 250, 2000, (0, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20


@pytest.mark.parametrize("n", [1, 2, 7, 50, 2000, 100_000])
def test_quantile_interval_brackets_the_sample_quantile(tool, n):
    sample = np.sort(np.random.default_rng(n).standard_normal(n))
    for prob in coint.LC_TAIL_PROBS:
        lo, hi = tool.quantile_ci_ranks(n, 1.0 - prob)
        assert 1 <= lo <= hi <= n
        assert sample[lo - 1] <= np.quantile(sample, 1.0 - prob) <= sample[hi - 1]


@pytest.mark.parametrize("n", [2000, 100_000])  # a small and the default --reps
def test_quantile_interval_covers_at_least_95_percent(tool, n):
    # X_(lo) <= xi_q < X_(hi) exactly when Binomial(n, q) lies in [lo, hi - 1].
    for prob in coint.LC_TAIL_PROBS:
        q = 1.0 - prob
        lo, hi = tool.quantile_ci_ranks(n, q)
        log_pmf = (
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(q) + (n - j) * math.log1p(-q)
            for j in range(lo, hi)
        )
        assert sum(map(math.exp, log_pmf)) >= 0.95


def test_committed_table_inside_simulated_quantile_intervals(tool, monkeypatch):
    """Each of the 21 LC_CRITICAL_VALUES entries lies in the distribution-free
    interval X_(lo) <= value < X_(hi) of its quantile. The draws are 4,000
    reps at T = 2000 per configuration from one seeded stream, cut into the
    tool's chunks; the ranks are quantile_ci_ranks', at z for 95%
    simultaneous cover of the 21 entries (Bonferroni), as
    TestMacKinnonCriticalValues does for its six."""
    reps, t_len = 4000, 2000
    entries = sum(map(len, coint.LC_CRITICAL_VALUES.values()))
    monkeypatch.setattr(tool, "Z_95", NormalDist().inv_cdf(1.0 - 0.05 / (2 * entries)))
    sizes = [rows.stop - rows.start for rows in tool._row_blocks(reps, t_len, tool._CHUNK_VALUES)]
    rng = np.random.default_rng(1)
    for config, powers in tool.CONFIG_TREND_POWERS.items():
        chunks = [tool.simulate_lc_chunk(rng, size, t_len, powers) for size in sizes]
        draws = np.sort(np.concatenate(chunks))
        for prob, value in coint.LC_CRITICAL_VALUES[config].items():
            lo, hi = tool.quantile_ci_ranks(reps, 1.0 - prob)
            assert draws[lo - 1] <= value < draws[hi - 1], (config, prob)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--reps", "0"], "--reps must be >= 1, got 0"),
        (["--reps", "-5"], "--reps must be >= 1, got -5"),
        (["--chunk", "0"], "unrecognized arguments: --chunk 0"),
        (["--t", "3"], "--t must be >= 30, got 3"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--quick"], "unrecognized arguments: --quick"),
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
        (["--reps", "30", "--t", "40"], "simulating Lc null: reps=30 T=40"),
        (["--reps", "2000", "--t", "300"], "simulating Lc null: reps=2000 T=300"),
    ],
)
def test_run_sizes_reach_the_simulation(tool, capsys, argv, line):
    tool.main(argv)
    assert line in capsys.readouterr().out.splitlines()
