"""Fully modified least squares and the Lc stability test.

The cointegrating regression has one stochastic regressor (the log
opportunity-cost spread) and a deterministic part that is a constant, a
linear trend, or a quadratic trend. Estimation follows Phillips-Hansen:
a first-stage least squares fit, a long-run covariance of (residual,
regressor innovation), then the endogeneity-corrected dependent variable
and the serial-correlation bias term. Hansen's (1992) Lc statistic is
computed from the fully modified scores; its null is stable
cointegration, so small values are good news for the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._ols import scaled_qr, solve_ols
from .errors import DataError, DegeneracyError, ParameterError
from .lrcov import LongRunCovariance, long_run_cov
from .model import TrendCoefficients
from .series import MonthStamp, MonthlySeries

__all__ = [
    "CONST",
    "LINEAR_TREND",
    "QUADRATIC_TREND",
    "DETERMINISTIC_CONFIGS",
    "LC_TAIL_PROBS",
    "LC_CRITICAL_VALUES",
    "FmolsReport",
    "HansenLcResult",
    "fmols",
    "hansen_lc",
    "lc_critical_value",
    "lc_p_value_range",
]

CONST = "const"
LINEAR_TREND = "linear_trend"
QUADRATIC_TREND = "quadratic_trend"
DETERMINISTIC_CONFIGS = (CONST, LINEAR_TREND, QUADRATIC_TREND)

_PARAM_NAMES = {
    CONST: ("v0", "sigma"),
    LINEAR_TREND: ("v0", "v1", "sigma"),
    QUADRATIC_TREND: ("v0", "v1", "v2", "sigma"),
}

LC_TAIL_PROBS = (0.20, 0.15, 0.10, 0.075, 0.05, 0.025, 0.01)

# Asymptotic null quantiles of Lc for one stochastic regressor, by
# deterministic configuration and upper tail probability. Simulated at
# T = 2000 with tools/simulate_lc_critical_values.py, which also checks
# the machinery against the known Cramer-von Mises quantiles of the
# no-regressor special cases.
LC_CRITICAL_VALUES: dict[str, dict[float, float]] = {
    CONST: {
        0.20: 0.3274,
        0.15: 0.3755,
        0.10: 0.4456,
        0.075: 0.4960,
        0.05: 0.5732,
        0.025: 0.7086,
        0.01: 0.9010,
    },
    LINEAR_TREND: {
        0.20: 0.3691,
        0.15: 0.4199,
        0.10: 0.4912,
        0.075: 0.5434,
        0.05: 0.6225,
        0.025: 0.7601,
        0.01: 0.9507,
    },
    QUADRATIC_TREND: {
        0.20: 0.4000,
        0.15: 0.4521,
        0.10: 0.5259,
        0.075: 0.5800,
        0.05: 0.6555,
        0.025: 0.7902,
        0.01: 0.9854,
    },
}


def _check_config(deterministics: str) -> str:
    if deterministics not in DETERMINISTIC_CONFIGS:
        raise ParameterError(
            f"deterministics must be one of {DETERMINISTIC_CONFIGS}, "
            f"got {deterministics!r}"
        )
    return deterministics


def lc_critical_value(deterministics: str, tail_prob: float) -> float:
    """Tabulated Lc critical value at the given upper tail probability."""
    _check_config(deterministics)
    table = LC_CRITICAL_VALUES[deterministics]
    if tail_prob not in table:
        raise ParameterError(
            f"tail probability must be one of {LC_TAIL_PROBS}, got {tail_prob}"
        )
    return table[tail_prob]


def lc_p_value_range(statistic: float, deterministics: str) -> tuple[float, float]:
    """Bracket the Lc p-value between adjacent tabulated tail probabilities."""
    _check_config(deterministics)
    if not statistic >= 0.0:
        raise ParameterError(f"Lc statistic must be >= 0, got {statistic}")
    table = LC_CRITICAL_VALUES[deterministics]
    # Tail probabilities descend while critical values ascend.
    below = 1.0
    for prob in LC_TAIL_PROBS:
        if statistic < table[prob]:
            return (prob, below)
        below = prob
    return (0.0, LC_TAIL_PROBS[-1])


@dataclass(frozen=True)
class HansenLcResult:
    """Lc statistic with its bracketed p-value and the 10% stability call."""

    statistic: float
    p_value_range: tuple[float, float]
    stable_at_10pct: bool

    def __post_init__(self) -> None:
        if not self.statistic >= 0.0:
            raise ParameterError(f"Lc must be >= 0, got {self.statistic}")
        lo, hi = self.p_value_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise ParameterError(f"invalid p-value range {self.p_value_range}")


def hansen_lc(
    scores: np.ndarray,
    moment: np.ndarray,
    omega112: float,
    deterministics: str,
) -> HansenLcResult:
    """Lc parameter-instability statistic from fully modified scores.

    ``scores`` are the per-observation estimating-equation terms of the
    fully modified fit (they sum to zero by construction), ``moment`` is
    the regressor moment matrix Z'Z over the same rows, and ``omega112``
    the conditional long-run error variance. The statistic is the
    normalized trace of cumulated scores,
    sum_t S_t' (Z'Z)^(-1) S_t / (n * omega112).
    """
    _check_config(deterministics)
    scores = np.asarray(scores, dtype=float)
    moment = np.asarray(moment, dtype=float)
    if scores.ndim != 2 or moment.shape != (scores.shape[1], scores.shape[1]):
        raise DataError(
            f"incompatible shapes {scores.shape} and {moment.shape}"
        )
    nobs = scores.shape[0]
    if nobs < 29:
        raise DataError(
            f"need a fit on at least 30 observations to accumulate scores, "
            f"got {nobs} score rows"
        )
    if not omega112 > 0.0:
        raise DegeneracyError(
            f"conditional long-run variance must be > 0, got {omega112}"
        )
    cumulated = np.cumsum(scores, axis=0)
    minv = np.linalg.inv(moment)
    stat = float(np.einsum("ti,ij,tj->", cumulated, minv, cumulated))
    stat = float(stat / (nobs * omega112))
    return HansenLcResult(
        statistic=stat,
        p_value_range=lc_p_value_range(stat, deterministics),
        stable_at_10pct=bool(stat < lc_critical_value(deterministics, 0.10)),
    )


@dataclass(frozen=True)
class FmolsReport:
    """Fully modified estimates for the cointegrating regression.

    ``params`` maps coefficient names (v0, v1, v2 for the deterministic
    terms, sigma for the stochastic regressor) to point estimates; the
    companion dicts carry standard errors and t-ratios. When the
    conditional long-run variance is numerically zero (an exact fit) the
    report is flagged degenerate: standard errors are zero, t-ratios NaN
    and the Lc fields None.
    """

    deterministics: str
    params: dict[str, float]
    standard_errors: dict[str, float]
    t_statistics: dict[str, float]
    r_squared: float
    lrc: LongRunCovariance = field(repr=False)
    n_obs: int
    degenerate_inference: bool
    lc_statistic: float | None
    lc_p_value_range: tuple[float, float] | None
    lc_stable_at_10pct: bool | None

    def __post_init__(self) -> None:
        _check_config(self.deterministics)
        names = _PARAM_NAMES[self.deterministics]
        for mapping in (self.params, self.standard_errors, self.t_statistics):
            if tuple(mapping) != names:
                raise ParameterError(
                    f"coefficient names must be {names}, got {tuple(mapping)}"
                )
        if not 0.0 <= self.r_squared <= 1.0:
            raise ParameterError(f"r_squared outside [0, 1]: {self.r_squared}")
        if self.n_obs < 30:
            raise ParameterError(f"n_obs must be >= 30, got {self.n_obs}")
        for name in names:
            se = self.standard_errors[name]
            if se > 0.0:
                implied = self.params[name] / se
                if not math.isclose(
                    self.t_statistics[name], implied, rel_tol=1e-10, abs_tol=1e-12
                ):
                    raise ParameterError(f"t-statistic inconsistent for {name}")

    @property
    def v0(self) -> float:
        return self.params["v0"]

    @property
    def v1(self) -> float:
        return self.params.get("v1", 0.0)

    @property
    def v2(self) -> float:
        return self.params.get("v2", 0.0)

    @property
    def sigma(self) -> float:
        return self.params["sigma"]

    def trend_coefficients(self) -> TrendCoefficients:
        """The estimates as validated trend coefficients (needs sigma > 0)."""
        return TrendCoefficients(v0=self.v0, v1=self.v1, v2=self.v2, sigma=self.sigma)


def _trend_columns(deterministics: str, t: np.ndarray) -> np.ndarray:
    cols = [np.ones_like(t)]
    if deterministics in (LINEAR_TREND, QUADRATIC_TREND):
        cols.append(t)
    if deterministics == QUADRATIC_TREND:
        cols.append(t * t)
    return np.column_stack(cols)


def fmols(
    y: MonthlySeries,
    x: MonthlySeries,
    deterministics: str = QUADRATIC_TREND,
    bandwidth: int | None = None,
    trend_origin: MonthStamp | None = None,
) -> FmolsReport:
    """Phillips-Hansen fully modified regression of y on trend terms and x.

    The series must already be aligned. ``trend_origin`` anchors the
    month index t (default: the first observation is t = 0); shifting it
    re-expands the trend polynomial without changing the fit. The
    long-run covariance bandwidth defaults to the automatic Newey-West
    lag on the n - 1 innovation rows.
    """
    _check_config(deterministics)
    if y.start != x.start or len(y) != len(x):
        raise DataError("series must be aligned (same start and length)")
    n = len(y)
    if n < 30:
        raise DataError(f"need at least 30 observations, got {n}")

    offset = 0 if trend_origin is None else y.start.index - trend_origin.index
    t = np.arange(n, dtype=float) + float(offset)
    z = np.column_stack([_trend_columns(deterministics, t), x.values])
    k = z.shape[1]

    first = solve_ols(z, y.values)
    eta2 = np.diff(x.values)
    lrc = long_run_cov(first.resid[1:], eta2, bandwidth=bandwidth)
    w11 = float(lrc.omega[0, 0])
    w12 = float(lrc.omega[0, 1])
    w22 = float(lrc.omega[1, 1])
    if not w22 > 0.0:
        raise DegeneracyError(
            "the stochastic regressor has zero innovation variance"
        )

    y_plus = y.values[1:] - (w12 / w22) * eta2
    lam12_plus = lrc.lam[0, 1] - (w12 / w22) * lrc.lam[1, 1]
    bias = np.zeros(k)
    bias[-1] = lam12_plus

    # Solve in column-scaled coordinates: the quadratic trend makes the
    # raw moment matrix too ill-conditioned for a direct solve.
    zt, scale, _, r = scaled_qr(z[1:])
    bias_t = bias / scale
    rhs = zt.T @ y_plus - (n - 1) * bias_t
    theta_t = np.linalg.solve(r, np.linalg.solve(r.T, rhs))
    theta = theta_t / scale

    omega112 = float(max(w11 - w12 * w12 / w22, 0.0))
    names = _PARAM_NAMES[deterministics]
    params = dict(zip(names, (float(b) for b in theta)))

    # Exact or near-exact fits leave no long-run error variance to divide
    # by; report the coefficients and flag inference as degenerate.
    degenerate = omega112 <= 1e-12 * max(float(np.var(y.values)), 1e-300)
    if degenerate:
        ses = dict.fromkeys(names, 0.0)
        tstats = dict.fromkeys(names, math.nan)
        lc = None
    else:
        r_inv = np.linalg.solve(r, np.eye(k))
        xtx_inv_t = r_inv @ r_inv.T
        se = np.sqrt(omega112 * np.diag(xtx_inv_t)) / scale
        ses = dict(zip(names, (float(v) for v in se)))
        tstats = {name: params[name] / ses[name] for name in names}
        u_plus = y_plus - zt @ theta_t
        scores = zt * u_plus[:, None] - bias_t[None, :]
        lc = hansen_lc(scores, zt.T @ zt, omega112, deterministics)

    fitted = z @ theta
    resid_full = y.values - fitted
    ssr = float(resid_full @ resid_full)
    centered = y.values - y.values.mean()
    tss = float(centered @ centered)
    if tss > 0.0:
        r_squared = min(max(1.0 - ssr / tss, 0.0), 1.0)
    else:
        r_squared = 1.0 if ssr <= 1e-300 else 0.0

    return FmolsReport(
        deterministics=deterministics,
        params=params,
        standard_errors=ses,
        t_statistics=tstats,
        r_squared=r_squared,
        lrc=lrc,
        n_obs=n,
        degenerate_inference=degenerate,
        lc_statistic=None if lc is None else lc.statistic,
        lc_p_value_range=None if lc is None else lc.p_value_range,
        lc_stable_at_10pct=None if lc is None else lc.stable_at_10pct,
    )
