"""The Lc critical-value tool's batched arithmetic against the package's fmols."""

import importlib.util
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
