"""Fully modified least squares and the Lc stability test.

The cointegrating regression has one stochastic regressor (the log
opportunity-cost spread) and a deterministic part that is a constant, a
linear trend, or a quadratic trend. Estimation follows Phillips-Hansen:
a first-stage least squares fit, a long-run covariance of (residual,
regressor innovation), then the endogeneity-corrected dependent variable
and the serial-correlation bias term. Hansen's (1992) Lc statistic is
computed from the fully modified scores; its null is stable
cointegration, so small values are good news for the model.

:func:`fmols_stack` fits every row of a stack of series at once: both
least-squares stages, the Bartlett sums, the checks and the Lc
statistic run on the whole stack. Each row gets the bits :func:`fmols`
gives it alone, which is its one-series case, under the contiguity rule
of :mod:`currsub._ols` (the stack is made C-contiguous on entry). A row
that refuses refuses the stack with its own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._ols import design_defect, dot, matvec, polynomial_trend, solve_ols, unit_rms
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
    "FmolsStack",
    "HansenLcResult",
    "fmols",
    "fmols_stack",
    "hansen_lc",
    "lc_critical_value",
    "lc_p_value_range",
]

CONST = "const"
LINEAR_TREND = "linear_trend"
QUADRATIC_TREND = "quadratic_trend"
# Degree of the trend polynomial each configuration fits; its
# coefficients are named v0..v<degree>, the spread's sigma.
_TREND_DEGREE = {CONST: 0, LINEAR_TREND: 1, QUADRATIC_TREND: 2}
DETERMINISTIC_CONFIGS = tuple(_TREND_DEGREE)

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


def _param_names(deterministics: str) -> tuple[str, ...]:
    return (*(f"v{j}" for j in range(_TREND_DEGREE[deterministics] + 1)), "sigma")


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


def _cumulated_quad(scores: np.ndarray) -> np.ndarray:
    """sum_t ||S_t||^2 of each fit, S_t the running sums of the whitened,
    time-last ``scores`` (..., k, n), which they overwrite: Hansen's
    sum_t S_t' (Z'Z)^(-1) S_t in coordinates where Z'Z is the identity."""
    np.cumsum(scores, axis=-1, out=scores)
    return (scores * scores).sum(axis=(-2, -1))


def _lc_results(
    scores: np.ndarray,
    omega112: float | np.ndarray,
    skip: bool | np.ndarray,
    deterministics: str,
) -> tuple[HansenLcResult | None, ...]:
    """Hansen's Lc of each fit of a stack, None where ``skip`` is set.

    ``scores`` are whitened and time-last, (..., k, m), and are overwritten;
    ``omega112`` and ``skip`` have the leading shape. The statistic is
    sum_t ||S_t||^2 / (m * omega112) (:func:`_cumulated_quad`), each row
    with the bits of its one-row call. The scores are divided by
    sqrt(omega112), then by sqrt(m), before they are squared: near the
    floating-point range unscaled squares overflow, and so can
    m * omega112. Rows are checked in order, and the first refusal raises.
    """
    # Skipped rows and rows refused below may divide by zero or overflow.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scores /= np.sqrt(omega112)[..., None, None]
        scores /= math.sqrt(scores.shape[-1])
        stats = _cumulated_quad(scores)
    critical = lc_critical_value(deterministics, 0.10)
    out = []
    rows = zip(
        np.reshape(skip, -1).tolist(),
        np.reshape(stats, -1).tolist(),
        np.reshape(omega112, -1).tolist(),
    )
    for row_skip, stat, w in rows:
        if row_skip:
            out.append(None)
            continue
        if not w > 0.0:
            raise DegeneracyError(f"conditional long-run variance must be > 0, got {w}")
        out.append(HansenLcResult(stat, lc_p_value_range(stat, deterministics), stat < critical))
    return tuple(out)


def hansen_lc(
    scores: np.ndarray,
    moment: np.ndarray,
    omega112: float,
    deterministics: str,
) -> HansenLcResult:
    """Lc parameter-instability statistic from fully modified scores.

    ``scores`` (n, k) are the per-observation estimating-equation terms of
    the fully modified fit (they sum to zero by construction), ``moment``
    the regressor moment matrix Z'Z over the same rows, and ``omega112``
    the conditional long-run error variance. The statistic is
    sum_t S_t' (Z'Z)^(-1) S_t / (n * omega112), S_t the cumulated scores,
    read as sum_t ||L^(-1) S_t||^2, L the Cholesky factor of the symmetric
    ``moment``'s lower triangle, which must be positive definite;
    :func:`fmols_stack` whitens with its R instead.
    """
    _check_config(deterministics)
    scores = np.asarray(scores, dtype=float)
    moment = np.asarray(moment, dtype=float)
    if scores.ndim != 2 or moment.shape != (scores.shape[1], scores.shape[1]):
        raise DataError(f"incompatible shapes {scores.shape} and {moment.shape}")
    nobs = scores.shape[0]
    if nobs < 29:
        raise DataError(
            f"need a fit on at least 30 observations to accumulate scores, "
            f"got {nobs} score rows"
        )
    try:
        chol = np.linalg.cholesky(moment)
    except np.linalg.LinAlgError:
        raise DataError("the moment matrix must be positive definite") from None
    # Time-last and a new array, as _lc_results overwrites its scores.
    return _lc_results(np.linalg.solve(chol, scores.T), omega112, False, deterministics)[0]


@dataclass(frozen=True)
class FmolsReport:
    """Fully modified estimates for the cointegrating regression.

    ``params`` maps coefficient names (v0, v1, v2 for the deterministic
    terms, sigma for the stochastic regressor) to point estimates; the
    companion dicts carry standard errors and t-ratios. When the
    conditional long-run variance is numerically zero (an exact fit) the
    report is flagged degenerate: standard errors are zero, t-ratios NaN
    and the Lc fields None. It is plain data: :func:`fmols` builds it
    from the fit that :func:`fmols_stack` checked.
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

    def trend_coefficients(self) -> TrendCoefficients:
        """The estimates as validated trend coefficients (needs sigma > 0)."""
        p = self.params
        return TrendCoefficients(
            v0=p["v0"], v1=p.get("v1", 0.0), v2=p.get("v2", 0.0), sigma=p["sigma"]
        )


@dataclass(frozen=True)
class FmolsStack:
    """Fully modified fits of a stack of S aligned series, row by row.

    ``theta`` and ``standard_errors`` are (S, k) in the coefficient order
    v0.., sigma (standard errors zero where inference is degenerate) and
    ``lrc`` holds the S long-run covariances; a fit of one series has no
    leading axis. The tuples hold one entry per series: ``lc`` the Lc
    result, None where inference is degenerate.
    """

    theta: np.ndarray = field(repr=False)
    standard_errors: np.ndarray = field(repr=False)
    r_squared: tuple[float, ...]
    lrc: LongRunCovariance = field(repr=False)
    degenerate_inference: tuple[bool, ...]
    lc: tuple[HansenLcResult | None, ...]


def _r_squared(ssr: float, tss: float) -> float:
    if tss > 0.0:
        return min(max(1.0 - ssr / tss, 0.0), 1.0)
    return 1.0 if ssr <= 1e-300 else 0.0


def fmols_stack(
    y: np.ndarray,
    x: np.ndarray,
    deterministics: str = QUADRATIC_TREND,
    bandwidth: int | None = None,
    offset: int = 0,
) -> FmolsStack:
    """Fully modified fits of each row of (S, n) y on trend terms and the
    same row of x, t = offset + 0..n-1; :func:`fmols` is its case of one
    series, y and x of shape (n,).

    Every row is computed as it would be alone: batched factorizations,
    solves and products run per row (see :mod:`currsub._ols`), the Lc
    statistic included. A refusal of any row refuses the stack, with
    that row's error.
    """
    _check_config(deterministics)
    y = np.ascontiguousarray(y, dtype=float)
    n = y.shape[-1]
    if n < 30:
        raise DataError(f"need at least 30 observations, got {n}")

    t = np.arange(n, dtype=float) + float(offset)
    trend = polynomial_trend(t, _TREND_DEGREE[deterministics])
    k = trend.shape[1] + 1
    z = np.empty((*y.shape, k))
    z[..., :-1] = trend
    z[..., -1] = x

    # Data large enough to overflow this arithmetic are refused: by
    # either stage's collinearity gate, the first-stage residual check,
    # long_run_cov's finiteness check, the Lc stage, which refuses the NaN
    # omega112 they leave, or the R^2 check of the sums of squares.
    # NumPy's warnings would only precede the refusal.
    with np.errstate(over="ignore", invalid="ignore"):
        resid = solve_ols(z, y)
        if not np.isfinite(resid).all():
            raise DegeneracyError("FM-OLS first-stage residuals are not finite")
        eta2 = np.diff(x)
        lrc = long_run_cov(resid[..., 1:], eta2, bandwidth=bandwidth)
        w11 = lrc.omega[..., 0, 0]
        w12 = lrc.omega[..., 0, 1]
        w22 = lrc.omega[..., 1, 1]
        if not (w22 > 0.0).all():
            raise DegeneracyError(
                "the stochastic regressor has zero innovation variance"
            )

        ratio = w12 / w22
        y_plus = y[..., 1:] - ratio[..., None] * eta2
        lam12_plus = lrc.lam[..., 0, 1] - ratio * lrc.lam[..., 1, 1]

        # Solve in column-scaled coordinates: the quadratic trend makes the
        # raw moment matrix too ill-conditioned for a direct solve. R is
        # all the solve needs.
        zt = z[..., 1:, :].copy()
        scale = unit_rms(zt)
        r = np.linalg.qr(zt, mode="r")
        defect = design_defect(scale, r)
        if defect is not None:
            raise DegeneracyError(defect)
        bias = lam12_plus / scale[..., -1]  # the regressor's entry; the others are 0
        rhs = matvec(zt.swapaxes(-1, -2), y_plus)
        rhs[..., -1] -= (n - 1) * bias
        theta_t = np.linalg.solve(r, np.linalg.solve(r.swapaxes(-1, -2), rhs[..., None]))[..., 0]
        theta = theta_t / scale

        omega112 = w11 - w12 * ratio
        omega112 = np.where(np.isfinite(omega112), omega112, np.nan)
        omega112 = np.where(omega112 < 0.0, 0.0, omega112)
        # The sums of squares, and omega112 where the gate compares it with
        # them, are taken times one power of two per row, 2^shift, that
        # brings the centred y below 1: exact, so no in-range bit moves, and
        # squares of data near the floating-point range do not overflow.
        centered = y - y.mean(axis=-1, keepdims=True)
        shift = -np.frexp(np.abs(centered).max(axis=-1))[1]
        resid_full = np.ldexp(y - matvec(z, theta), shift[..., None])
        centered = np.ldexp(centered, shift[..., None])
        ssr = dot(resid_full, resid_full)
        tss = dot(centered, centered)
    # Exact or near-exact fits leave no long-run error variance to divide
    # by; such rows keep their coefficients with inference flagged degenerate.
    # A constant y is one however rounding leaves omega112, as the gate's
    # scale var(y) is then 0; it is tested on the raw values, whose mean
    # can round away from them.
    constant_y = (y == y[..., :1]).all(axis=-1)
    degenerate = constant_y | (
        np.ldexp(omega112, 2 * shift)
        <= 1e-12 * np.maximum(tss / n, np.ldexp(1e-300, 2 * shift))
    )

    # One R^-1 serves the standard errors and Lc: the diagonal of
    # (Z'Z)^-1 = R^-1 R^-T is the squared row norms of R^-1.
    r_inv = np.linalg.solve(r, np.eye(k))
    se = np.sqrt(omega112[..., None] * (r_inv * r_inv).sum(axis=-1)) / scale
    se = np.where(degenerate[..., None], 0.0, se)
    u_plus = y_plus - matvec(zt, theta_t)
    # The whitened scores R^-T (z_t u_t - bias), time-last and C-ordered: q_t u_t
    # in the orthonormal q = Z R^-1, less the bias, which the lower-triangular
    # R^-T keeps on the regressor's entry alone, over R's last pivot.
    scores = np.empty((*y.shape[:-1], k, n - 1))
    np.multiply((zt @ r_inv).swapaxes(-1, -2), u_plus[..., None, :], out=scores)
    scores[..., -1, :] -= (bias / r[..., -1, -1])[..., None]
    lc = _lc_results(scores, omega112, degenerate, deterministics)

    if not (np.isfinite(ssr).all() and np.isfinite(tss).all()):
        raise DegeneracyError("R^2 undefined: a sum of squares is not finite")
    return FmolsStack(
        theta=theta,
        standard_errors=se,
        r_squared=tuple(map(_r_squared, ssr.reshape(-1).tolist(), tss.reshape(-1).tolist())),
        lrc=lrc,
        degenerate_inference=tuple(degenerate.reshape(-1).tolist()),
        lc=lc,
    )


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
    lag on the n - 1 innovation rows. The fit is the one-series case of
    :func:`fmols_stack`.
    """
    if y.start != x.start or len(y) != len(x):
        raise DataError("series must be aligned (same start and length)")
    offset = 0 if trend_origin is None else y.start.index - trend_origin.index
    fit = fmols_stack(y.values, x.values, deterministics, bandwidth, offset)
    names = _param_names(deterministics)
    params = dict(zip(names, fit.theta.tolist()))
    ses = dict(zip(names, fit.standard_errors.tolist()))
    lc = fit.lc[0]
    if fit.degenerate_inference[0]:
        tstats = dict.fromkeys(names, math.nan)
    else:
        tstats = {name: params[name] / ses[name] for name in names}
    return FmolsReport(
        deterministics=deterministics,
        params=params,
        standard_errors=ses,
        t_statistics=tstats,
        r_squared=fit.r_squared[0],
        lrc=fit.lrc,
        n_obs=len(y),
        degenerate_inference=fit.degenerate_inference[0],
        lc_statistic=None if lc is None else lc.statistic,
        lc_p_value_range=None if lc is None else lc.p_value_range,
        lc_stable_at_10pct=None if lc is None else lc.stable_at_10pct,
    )
