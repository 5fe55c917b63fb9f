"""Augmented Dickey-Fuller and Phillips-Perron unit-root tests.

Both tests share the Dickey-Fuller regression of the first difference on
the lagged level and deterministics, the MacKinnon response-surface
critical values, and the MacKinnon (1994) approximate p-values. The ADF
variant augments the regression with lagged differences (AIC-selected by
default); the PP variant instead corrects the unaugmented t-ratio with a
Bartlett long-run variance of the residuals.

The AIC lag search compares the orders 0..max_lags on one common
sample, so their designs are nested: with the columns ordered [level,
deterministics, lags 1..max_lags], candidate k is the first p + k
columns. One QR of the widest design, X = QR, serves every candidate.
The first p + k columns of Q span candidate k's design, so its residual
is the widest residual plus y's components along the dropped columns of
Q: SSR_k = SSR_widest + sum_{i >= p+k} (Q'y)_i^2, the SSR that fitting
candidate k alone gives, up to rounding. Only the winning order is fit
as a regression, on the longer sample it allows. Ng and Perron (2001,
Econometrica 69:1519) discuss choosing the lag on a common sample.

:func:`adf_stack` runs the ADF test on every row of a stack of series
at once: one QR of the stacked widest designs for the lag search, then
one stacked refit per group of rows that chose the same order. Each row
gets the bits :func:`adf_test` gives it alone, which is its one-series
case, under the contiguity rule of :mod:`currsub._ols`: the regressions'
left-hand sides are made C-contiguous, and the design columns are
slices, not indexed copies, of the series. A row that refuses refuses
the stack with its own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ols import (
    OlsFit,
    check_rows,
    design_defect,
    dot,
    matvec,
    polynomial_trend,
    scaled_factor,
    solve_ols,
)
from .errors import DataError, DegeneracyError, ParameterError
from .lrcov import bartlett_long_run_variance, newey_west_bandwidth
from .series import MonthlySeries

__all__ = [
    "INTERCEPT",
    "TREND_AND_INTERCEPT",
    "DETERMINISTIC_KINDS",
    "UnitRootReport",
    "adf_stack",
    "adf_test",
    "pp_test",
    "mackinnon_critical_values",
    "mackinnon_p_value",
]

INTERCEPT = "intercept"
TREND_AND_INTERCEPT = "trend_and_intercept"
# Degree of the trend polynomial in t = 1..n that each spec adds.
_TREND_DEGREE = {INTERCEPT: 0, TREND_AND_INTERCEPT: 1}
DETERMINISTIC_KINDS = tuple(_TREND_DEGREE)

SIGNIFICANCE_LEVELS = ("1%", "5%", "10%")

# MacKinnon (2010) response-surface coefficients for the t-ratio with one
# unit-root process: critical value = b0 + b1/T + b2/T^2 + b3/T^3.
_CRIT_SURFACE = {
    INTERCEPT: {
        "1%": (-3.43035, -6.5393, -16.786, -79.433),
        "5%": (-2.86154, -2.8903, -4.234, -40.04),
        "10%": (-2.56677, -1.5384, -2.809, 0.0),
    },
    TREND_AND_INTERCEPT: {
        "1%": (-3.95877, -9.0531, -28.428, -134.155),
        "5%": (-3.41049, -4.3904, -9.036, -45.374),
        "10%": (-3.12705, -2.5856, -3.925, -22.38),
    },
}

# MacKinnon (1994) approximate asymptotic p-values: p = Phi(poly(tau)),
# with the quadratic fit left of tau_star and the cubic fit right of it;
# statistics beyond (tau_min, tau_max) clamp to p = 0 or 1.
_P_SURFACE = {
    INTERCEPT: {
        "tau_star": -1.61,
        "tau_max": 2.74,
        "tau_min": -18.83,
        "small": (2.1659, 1.4412, 0.038269),
        "large": (1.7339, 0.93202, -0.12745, -0.010368),
    },
    TREND_AND_INTERCEPT: {
        "tau_star": -2.89,
        "tau_max": 0.7,
        "tau_min": -16.18,
        "small": (3.2512, 1.6047, 0.049588),
        "large": (2.5261, 0.61654, -0.37956, -0.060285),
    },
}


def _check_kind(kind: str) -> str:
    if kind not in DETERMINISTIC_KINDS:
        raise ParameterError(
            f"deterministic spec must be one of {DETERMINISTIC_KINDS}, got {kind!r}"
        )
    return kind


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mackinnon_critical_values(kind: str, nobs: int) -> dict[str, float]:
    """Finite-sample critical values for the given regression sample size."""
    _check_kind(kind)
    if nobs < 1:
        raise DataError(f"need a positive sample size, got {nobs}")
    out = {}
    for level in SIGNIFICANCE_LEVELS:
        b0, b1, b2, b3 = _CRIT_SURFACE[kind][level]
        out[level] = b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
    return out


def mackinnon_p_value(statistic: float, kind: str) -> float:
    """Approximate asymptotic p-value of a Dickey-Fuller t-ratio."""
    _check_kind(kind)
    surf = _P_SURFACE[kind]
    if statistic > surf["tau_max"]:
        return 1.0
    if statistic < surf["tau_min"]:
        return 0.0
    coef = surf["small"] if statistic <= surf["tau_star"] else surf["large"]
    poly = 0.0
    for c in reversed(coef):
        poly = poly * statistic + c
    return _norm_cdf(poly)


@dataclass(frozen=True)
class UnitRootReport:
    """Outcome of one unit-root test.

    ``lags_or_bandwidth`` is the augmentation lag count for ADF and the
    kernel bandwidth for PP. ``reject_at`` is statistic < critical value
    at every level. Plain data: :func:`_report` builds it.
    """

    test: str
    spec: str
    statistic: float
    lags_or_bandwidth: int
    critical_values: dict[str, float]
    approx_p_value: float
    reject_at: dict[str, bool]
    n_obs: int


def _report(test: str, kind: str, statistic: float, lags_or_bw: int, nobs: int) -> UnitRootReport:
    cvs = mackinnon_critical_values(kind, nobs)
    p_value = mackinnon_p_value(float(statistic), kind)
    # Only a NaN statistic gives a p-value outside [0, 1].
    if not 0.0 <= p_value <= 1.0:
        raise ParameterError(f"p-value outside [0, 1]: {p_value}")
    return UnitRootReport(
        test=test,
        spec=kind,
        statistic=float(statistic),
        lags_or_bandwidth=int(lags_or_bw),
        critical_values=cvs,
        approx_p_value=p_value,
        reject_at={level: float(statistic) < cvs[level] for level in SIGNIFICANCE_LEVELS},
        n_obs=int(nobs),
    )


def _df_design(
    y: np.ndarray, kind: str, lag: int, trend_first: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, design) of the Dickey-Fuller regression with ``lag``
    augmentation terms, on every difference row that ``lag`` allows, for
    a series or for each row of a stack. The design's columns are
    [level, trend, lags 1..lag] if ``trend_first``, else [level, lags
    1..lag, trend]."""
    dy = np.diff(y)
    m = dy.shape[-1]
    trend = polynomial_trend(np.arange(1.0, m - lag + 1.0), _TREND_DEGREE[kind])
    p = trend.shape[1]
    x = np.empty((*y.shape[:-1], m - lag, 1 + p + lag))
    x[..., 0] = y[..., lag:m]
    first_trend, first_lag = (1, 1 + p) if trend_first else (1 + lag, 1)
    x[..., first_trend : first_trend + p] = trend
    for j in range(1, lag + 1):
        x[..., first_lag + j - 1] = dy[..., lag - j : m - j]
    return np.ascontiguousarray(dy[..., lag:]), x


def _df_regression(y: np.ndarray, kind: str, lag: int) -> tuple[np.ndarray, OlsFit]:
    """Dickey-Fuller regression with ``lag`` augmentation terms: (lhs, fit)."""
    lhs, x = _df_design(y, kind, lag, trend_first=False)
    return lhs, solve_ols(x, lhs)


def _lag_aic(y: np.ndarray, kind: str, max_lags: int) -> np.ndarray:
    """The AIC of every order 0..``max_lags`` on the common sample that
    ``max_lags`` allows, from one QR of the widest design, for a series
    or each row of a stack (the last axis indexes the order).

    Refuses as the first failing candidate's own fit would, with the same
    checks in the same order. Only the pivot ratio is read in this column
    order, so a design whose rounding puts it next to the 1e-12 gate can
    be decided differently from a fit of that candidate alone.
    """
    lhs, x = _df_design(y, kind, max_lags, trend_first=True)
    nobs, width = x.shape[-2:]
    base = width - max_lags
    _, scale, q, r = scaled_factor(x)
    # A candidate's checks only fail more as columns are added, so if the
    # widest candidate passes, every one does; otherwise the first
    # candidate to fail gives the refusal, its checks in solve_ols's order.
    if nobs <= width or design_defect(scale, r) is not None:
        for cols in range(base, width + 1):
            check_rows(nobs, cols)
            defect = design_defect(scale[..., :cols], r[..., :cols, :cols])
            if defect is not None:
                raise DegeneracyError(defect)
    qty = matvec(q.swapaxes(-1, -2), lhs)
    resid = lhs - matvec(q, qty)
    # Candidate k leaves the Q'y components of lag columns k+1.. unexplained.
    lag_parts = (qty * qty)[..., base:]
    unexplained = np.zeros((*lhs.shape[:-1], max_lags + 1))
    unexplained[..., :-1] = np.cumsum(lag_parts[..., ::-1], axis=-1)[..., ::-1]
    ssr = dot(resid, resid)[..., None] + unexplained
    return nobs * np.log(ssr / nobs) + 2.0 * np.arange(base, width + 1)


def _t_on_level(fit: OlsFit, lhs: np.ndarray):
    """(t-ratio, standard error) on the lagged level, of one fit or of
    each fit of a stack.

    Refuses a fit whose residual sum of squares is rounding noise next
    to lhs'lhs, on the 1e-12 relative scale of the pivot gate: the
    statistic of an exact fit is a ratio of rounding errors.
    """
    se = fit.standard_errors()[..., 0]
    if not (se > 0.0).all():
        raise DegeneracyError("zero standard error on the lagged level")
    if (fit.ssr <= 1e-24 * dot(lhs, lhs)).any():
        raise DegeneracyError("the regression fits the differenced series exactly")
    return fit.beta[..., 0] / se, se


def adf_stack(
    y: np.ndarray,
    spec: str = INTERCEPT,
    lags: int | None = None,
    max_lags: int = 12,
) -> list[UnitRootReport] | UnitRootReport:
    """Augmented Dickey-Fuller test of each row of (S, n) finite y, one
    report per row; :func:`adf_test` is its case of one series, y of
    shape (n,), which gives one report.

    The lag search factors one stacked widest design; the rows are then
    refit in groups that chose the same order, one stacked regression per
    group. Every row is computed as it would be alone (see
    :mod:`currsub._ols`). A refusal of any row refuses the stack, with
    that row's error.
    """
    _check_kind(spec)
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if lags is not None:
        if lags < 0:
            raise ParameterError(f"lags must be >= 0, got {lags}")
        needed = 20 + lags
    else:
        if max_lags < 0:
            raise ParameterError(f"max_lags must be >= 0, got {max_lags}")
        needed = 20 + max_lags
    if n < needed:
        raise DataError(f"need at least {needed} observations, got {n}")

    if lags is None:
        # The first minimum: ties go to the smaller order.
        best = np.argmin(_lag_aic(y, spec, max_lags), axis=-1)
    else:
        best = np.full(y.shape[:-1], int(lags))
    reports = np.empty(best.shape, dtype=object)
    for lag in sorted(set(best.reshape(-1).tolist())):
        rows = best == lag
        lhs, fit = _df_regression(y if rows.all() else y[rows], spec, lag)
        stats = _t_on_level(fit, lhs)[0].reshape(-1)
        reports[rows] = [_report("ADF", spec, stat, lag, fit.nobs) for stat in stats]
    return reports.tolist()


def adf_test(
    s: MonthlySeries,
    spec: str = INTERCEPT,
    lags: int | None = None,
    max_lags: int = 12,
) -> UnitRootReport:
    """Augmented Dickey-Fuller test; the null is a unit root.

    ``lags`` fixes the augmentation order; when None, the order is
    chosen by AIC over 0..``max_lags``, evaluated on the common sample
    that the largest candidate allows, then refit on the full sample the
    winning order allows. The search factors the widest candidate design
    once and reads every candidate's SSR off that one QR: the candidates
    are nested, so dropping trailing columns moves exactly their Q'y
    components into the residual (see the module docstring). Only the
    winning order is fit as a regression. This is the one-series case of
    :func:`adf_stack`.
    """
    return adf_stack(s.values, spec, lags, max_lags)


def pp_test(
    s: MonthlySeries,
    spec: str = INTERCEPT,
    bandwidth: int | None = None,
) -> UnitRootReport:
    """Phillips-Perron Z-tau test; the null is a unit root.

    The unaugmented Dickey-Fuller t-ratio is corrected nonparametrically
    with a Bartlett long-run variance of the regression residuals;
    ``bandwidth`` None means the automatic Newey-West lag.
    """
    _check_kind(spec)
    y = s.values
    if y.size < 25:
        raise DataError(f"need at least 25 observations, got {y.size}")
    lhs, fit = _df_regression(y, spec, 0)
    nobs = fit.nobs
    if bandwidth is None:
        bandwidth = newey_west_bandwidth(nobs)
    bandwidth = int(bandwidth)
    if bandwidth >= nobs:
        raise DataError(f"bandwidth {bandwidth} too large for {nobs} residuals")
    # Its bandwidth check refuses a negative value before any degeneracy error.
    lam2 = bartlett_long_run_variance(fit.resid, bandwidth)

    tstat, se_rho = _t_on_level(fit, lhs)
    s_hat = math.sqrt(fit.sigma2)
    gamma0 = fit.ssr / nobs
    if not lam2 > 0.0:
        raise DegeneracyError("long-run residual variance is zero")
    z_tau = math.sqrt(gamma0 / lam2) * tstat - 0.5 * (lam2 - gamma0) / math.sqrt(
        lam2
    ) * (nobs * se_rho / s_hat)
    return _report("PP", spec, z_tau, bandwidth, nobs)
