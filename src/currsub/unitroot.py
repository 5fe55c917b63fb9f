"""Augmented Dickey-Fuller and Phillips-Perron unit-root tests.

Both tests share the Dickey-Fuller regression of the first difference on
the lagged level and deterministics, the MacKinnon response-surface
critical values, and the MacKinnon (1994) approximate p-values. The ADF
variant augments the regression with lagged differences (AIC-selected by
default); the PP variant instead corrects the unaugmented t-ratio with a
Bartlett long-run variance of the residuals.

The AIC lag search compares the orders 0..max_lags on one common
sample, so their designs are nested: with the columns ordered [level,
deterministics, lags 1..max_lags], order k's design is the first
1 + p + k columns. One R-only QR of the widest design with the lhs as
its last column, [X | y] = Q [[R, Q'y], [0, c]], serves every order, and
Q is never formed: the leading columns of Q span order k's design, so
SSR_k = c^2 + the sum of (Q'y)_i^2 over the lag columns k drops, the SSR
that fitting order k alone gives, up to rounding. Ng and Perron (2001,
Econometrica 69:1519) discuss choosing the lag on a common sample.

The winning order is refit on the longer sample it allows, off the same
R. Its columns of R and Q'y, a unit pivot with a zero right-hand side on
each dropped column, one row holding its common-sample residual norm and
the earlier design rows its sample adds make a small least-squares
problem with the refit's solution and SSR; one more R-only QR of it
gives the t-ratio. A fixed lag is the search with max_lags = lags, whose
R is already its fit. The PP test is that fit at lag 0, its residuals
(lhs - design beta, with beta from R) and the Bartlett correction: the
package's one Dickey-Fuller fit serves both tests.

:func:`adf_stack` and :func:`pp_stack` run their test on every row of a
stack of series at once, with one R-only QR of the stacked designs (the
ADF adds one of its stacked refit problems, whatever orders the rows
chose). They return arrays, the statistic, lag or bandwidth and sample
size of every row: :func:`adf_reports` and :func:`pp_reports` build the
records, and :func:`adf_test` and :func:`pp_test` are their one-series
cases. Each row gets the bits it gets alone, under the contiguity rule
of :mod:`currsub._ols`: a row's arrays have shapes set by n, the spec
and max_lags, never by the other rows, the vectors that are reduced or
multiplied are C-contiguous, and the design columns are slices, not
indexed copies, of the series. A row that refuses refuses the stack with
its own error; the stacks own every refusal, a NaN statistic's too, so
the records (:func:`_reports`) are built with no check of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._ols import (
    check_rows,
    design_defect,
    dot,
    matvec,
    polynomial_trend,
    solve_ols,  # perfbench's ols.solve_ols layer reaches unitroot.solve_ols by name
    unit_rms,
)
from .errors import DataError, DegeneracyError, ParameterError
# perfbench's lrcov layer also reaches unitroot.bartlett_long_run_variance by name.
from .lrcov import _bartlett_sum, _two_sided, bartlett_long_run_variance, newey_west_bandwidth
from .series import MonthlySeries

__all__ = [
    "INTERCEPT",
    "TREND_AND_INTERCEPT",
    "DETERMINISTIC_KINDS",
    "UnitRootReport",
    "adf_reports",
    "adf_stack",
    "adf_test",
    "pp_reports",
    "pp_stack",
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
    at every level. Plain data: :func:`_reports` builds it.
    """

    test: str
    spec: str
    statistic: float
    lags_or_bandwidth: int
    critical_values: dict[str, float]
    approx_p_value: float
    reject_at: dict[str, bool]
    n_obs: int


def _reports(test: str, kind: str, arrays) -> list[UnitRootReport]:
    """The record of each row of a stack test's (statistic, lags or bandwidth, n_obs)."""
    reports = []
    for statistic, lags_or_bw, nobs in zip(*(np.atleast_1d(a).tolist() for a in arrays)):
        cvs = mackinnon_critical_values(kind, nobs)
        reports.append(UnitRootReport(
            test=test,
            spec=kind,
            statistic=statistic,
            lags_or_bandwidth=lags_or_bw,
            critical_values=cvs,
            approx_p_value=mackinnon_p_value(statistic, kind),
            reject_at={level: statistic < cvs[level] for level in SIGNIFICANCE_LEVELS},
            n_obs=nobs,
        ))
    return reports


def _df_rows(y: np.ndarray, kind: str, max_lags: int) -> np.ndarray:
    """[level, trend, lags 1..max_lags, lhs] of the Dickey-Fuller
    regression on every difference row, for a series or for each row of
    a stack: (..., n - 1, 2 + p + max_lags), C-contiguous.

    Rows max_lags.. are the common sample of the lag search, where the
    trend runs t = 1, 2, ...; on the earlier rows t continues backwards
    (the level's t-ratio does not depend on the trend's origin), and a
    lag column is zero where its difference precedes the series.
    The columns keep one order for the search and the refit.
    """
    dy = np.diff(y)
    m = dy.shape[-1]
    trend = polynomial_trend(np.arange(1.0 - max_lags, m - max_lags + 1.0), _TREND_DEGREE[kind])
    p = trend.shape[1]
    rows = np.zeros((*y.shape[:-1], m, 2 + p + max_lags))
    rows[..., 0] = y[..., :m]
    rows[..., 1 : 1 + p] = trend
    for j in range(1, max_lags + 1):
        rows[..., j:, p + j] = dy[..., : m - j]
    rows[..., -1] = dy
    return rows


class _Search(NamedTuple):
    """The lag search's factor, for a series or a stack."""

    rows: np.ndarray  # _df_rows, its design columns divided by ``scale``
    scale: np.ndarray  # the design columns' RMS on the common sample
    r: np.ndarray  # R of the common sample's [design / scale | lhs], upper triangle
    max_lags: int  # the widest order; the common sample starts at that row


def _lag_search(y: np.ndarray, kind: str, max_lags: int, nested: bool = True) -> _Search:
    """Factor the widest design of the common sample that ``max_lags``
    allows, with the lhs as its last column, R only.

    Refuses as the first failing order's own fit would, with the same
    checks in the same order; a fixed lag (not ``nested``) checks its
    rows here and its pivots in :func:`_level_fit`, as its fit would.
    """
    rows = _df_rows(y, kind, max_lags)
    nobs, width = rows.shape[-2] - max_lags, rows.shape[-1] - 1
    scale = unit_rms(rows[..., :width], slice(max_lags, None))
    # Mode "raw" leaves R in the upper triangle, Householder vectors below.
    r = np.linalg.qr(rows[..., max_lags:, :], mode="raw")[0].swapaxes(-1, -2)
    # An order's checks only fail more as columns are added, so if the
    # widest order passes, every one does; otherwise the first order to
    # fail gives the refusal, its checks in solve_ols's order.
    if not nested:
        check_rows(nobs, width)
    elif nobs <= width or design_defect(scale, r[..., :width, :width]) is not None:
        for cols in range(width - max_lags, width + 1):
            check_rows(nobs, cols)
            defect = design_defect(scale[..., :cols], r[..., :cols, :cols])
            if defect is not None:
                raise DegeneracyError(defect)
    return _Search(rows, scale, r, max_lags)


def _order_ssr(search: _Search) -> np.ndarray:
    """The SSR of each order 0..max_lags on the common sample (the last
    axis), read off the search's R: the widest order's SSR is the corner
    squared, and order k leaves the Q'y components of lag columns k+1..
    unexplained."""
    r, max_lags = search.r, search.max_lags
    width = r.shape[-1] - 1
    qty = r[..., width - max_lags : width, width]
    ssr = np.empty((*r.shape[:-2], max_lags + 1))
    ssr[..., -1] = 0.0
    ssr[..., :-1] = np.cumsum((qty * qty)[..., ::-1], axis=-1)[..., ::-1]
    ssr += (r[..., width, width] * r[..., width, width])[..., None]
    return ssr


def _aic(search: _Search, ssr: np.ndarray) -> np.ndarray:
    """The AIC of every order on the common sample (the last axis).

    An SSR below the exact-fit threshold of :func:`_t_ratio` is rounding
    noise, and R can make it exactly zero: such orders tie at that
    threshold, so the smallest of them wins.
    """
    rows, max_lags = search.rows, search.max_lags
    lhs = np.ascontiguousarray(rows[..., max_lags:, -1])
    nobs = lhs.shape[-1]
    ssr = np.maximum(ssr, 1e-24 * dot(lhs, lhs)[..., None])
    base = rows.shape[-1] - 1 - max_lags
    return nobs * np.log(ssr / nobs) + 2.0 * np.arange(base, base + max_lags + 1)


def _t_ratio(beta, se, ssr, lhs_ss):
    """beta / se on the lagged level, of one fit or of each fit of a stack.

    Refuses a zero standard error, and a fit whose SSR is rounding noise
    next to lhs'lhs (``lhs_ss``), on the 1e-12 relative scale of the
    pivot gate: the statistic of an exact fit is a ratio of rounding
    errors.
    """
    if not (se > 0.0).all():
        raise DegeneracyError("zero standard error on the lagged level")
    if (ssr <= 1e-24 * lhs_ss).any():
        raise DegeneracyError("the regression fits the differenced series exactly")
    return beta / se


def _refit_r(search: _Search, ssr: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """R of each row's refit of order ``lags`` on the sample that order
    allows, from the search's R and one more R-only QR of a small stack.

    The search's R holds the common-sample fit of every order. Order L
    keeps R and Q'y on its 1 + p + L columns; each dropped lag column
    gets a unit pivot and a zero right-hand side, and one row carries
    the order's common-sample residual norm. The max_lags design rows
    before the common sample follow, zeroed before row L. The unit
    pivots decouple the dropped columns, whose coefficients come out 0.
    """
    rows, _, r, max_lags = search
    width = rows.shape[-1] - 1
    # Kept columns; the right-hand side, last, sorts as -1 and always stays.
    cols = np.append(np.arange(width), -1) < (width - max_lags + lags)[..., None]
    kept = cols[..., :width]
    upper = np.arange(width)[:, None] <= np.arange(width + 1)
    early = np.arange(max_lags) >= lags[..., None]
    f = np.zeros((*lags.shape, width + 1 + max_lags, width + 1))
    keep = upper & kept[..., :, None] & cols[..., None, :]
    f[..., :width, :] = np.where(keep, r[..., :width, :], 0.0)
    diag = np.arange(width)
    f[..., diag, diag] += ~kept
    f[..., width, width] = np.sqrt(np.take_along_axis(ssr, lags[..., None], -1)[..., 0])
    keep = early[..., :, None] & cols[..., None, :]
    f[..., width + 1 :, :] = np.where(keep, rows[..., :max_lags, :], 0.0)
    return np.linalg.qr(f, mode="raw")[0].swapaxes(-1, -2)


def _level_fit(search: _Search, r: np.ndarray, lags: np.ndarray):
    """(R^-1, beta, se, SSR, lhs'lhs) of each row's fit of order ``lags``
    whose R (upper triangle) is ``r``, on the sample that order allows:
    R^-1 and the level's coefficient and standard error are in the
    scaled units of ``search.rows``.

    Runs the pivot gate; the checks of :func:`_t_ratio` are the caller's.
    """
    rows, scale, _, max_lags = search
    n, width = rows.shape[-2], rows.shape[-1] - 1
    rr = np.where(np.arange(width)[:, None] <= np.arange(width), r[..., :width, :width], 0.0)
    defect = design_defect(scale, rr)
    if defect is not None:
        raise DegeneracyError(defect)
    # Row 0 of R^-1 gives the level's coefficient and variance factor;
    # the scale cancels from the t-ratio.
    r_inv = np.linalg.solve(rr, np.eye(width))
    r_inv0 = r_inv[..., 0, :]
    beta = dot(r_inv0, np.ascontiguousarray(r[..., :width, width]))
    ssr = r[..., width, width] * r[..., width, width]
    # A fit of order L has n - L rows and width - max_lags + L regressors.
    se = np.sqrt(ssr / (n - width + max_lags - 2 * lags) * dot(r_inv0, r_inv0))
    lhs = np.where(np.arange(n) >= lags[..., None], rows[..., width], 0.0)
    return r_inv, beta, se, ssr, dot(lhs, lhs)


def adf_stack(
    y: np.ndarray,
    spec: str = INTERCEPT,
    lags: int | None = None,
    max_lags: int = 12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Augmented Dickey-Fuller test of each row of (S, n) finite y: the
    (statistic, lag, n_obs) arrays, of shape (S,), or 0-d for a series y
    of shape (n,), which is :func:`adf_test`'s case.

    The stack is factored once, R only, by the lag search, and every
    row's refit is read off that R (see the module docstring): no Q is
    formed, and rows that chose different orders are not split into
    groups. Every row is computed as it would be alone (see
    :mod:`currsub._ols`). A refusal of any row refuses the stack, with
    that row's error.

    The refit reads its pivots under the common-sample column scales,
    where a regression of its own would rescale its columns on its
    longer sample. That is the one place where rounding can move a
    verdict: a refit pivot ratio within rounding of the 1e-12
    collinearity gate.
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
        search = _lag_search(y, spec, max_lags)
        ssr = _order_ssr(search)
        # The first minimum: ties go to the smaller order.
        best = np.argmin(_aic(search, ssr), axis=-1)
        r = _refit_r(search, ssr, best)
    else:
        # Nothing to drop and no rows to append: the refit's R is the search's.
        search = _lag_search(y, spec, lags, nested=False)
        best = np.full(y.shape[:-1], lags)
        r = search.r
    _, *fit = _level_fit(search, r, best)
    stats = _t_ratio(*fit)
    if np.isnan(stats).any():
        # A NaN statistic has no p-value in [0, 1]; the stacks own this refusal.
        raise ParameterError("p-value outside [0, 1]: nan")
    return stats, best, n - 1 - best


def adf_test(
    s: MonthlySeries,
    spec: str = INTERCEPT,
    lags: int | None = None,
    max_lags: int = 12,
) -> UnitRootReport:
    """Augmented Dickey-Fuller test; the null is a unit root.

    ``lags`` fixes the augmentation order; when None, the order is
    chosen by AIC over 0..``max_lags`` on the common sample that the
    largest candidate allows, then refit on the full sample the winning
    order allows (see the module docstring). This is the one-series case
    of :func:`adf_reports`.
    """
    return adf_reports(s.values, spec, lags, max_lags)[0]


def adf_reports(y: np.ndarray, spec: str = INTERCEPT, lags: int | None = None,
                max_lags: int = 12) -> list[UnitRootReport]:
    """The report of each row of a stack (S, n) y, or of one (n,) series,
    as :func:`adf_stack` tests it."""
    return _reports("ADF", spec, adf_stack(y, spec, lags, max_lags))


def pp_stack(y: np.ndarray, spec: str = INTERCEPT,
             bandwidth: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phillips-Perron Z-tau test of each row of (S, n) finite y: the
    (statistic, bandwidth, n_obs) arrays, of shape (S,), or 0-d for a
    series y of shape (n,), which is :func:`pp_test`'s case.

    The fit is the ADF's at a fixed lag 0, its residuals take one
    Bartlett sum as (S, n - 1, 1) columns, and every row is computed as
    it would be alone. A row's refusal refuses the stack; they run in
    this order: too few observations, the rows and pivot gates, the
    bandwidth, then those of the t-ratio and a zero long-run variance.

    The exact-fit check reads the SSR as R's corner squared, not as the
    sum of the squared residuals: that is the one place where rounding
    can move a verdict, an SSR within rounding of 1e-24 lhs'lhs.
    """
    _check_kind(spec)
    y = np.asarray(y, dtype=float)
    if y.shape[-1] < 25:
        raise DataError(f"need at least 25 observations, got {y.shape[-1]}")
    search = _lag_search(y, spec, 0, nested=False)
    rows, scale, r, _ = search
    r_inv, beta, se, ssr, lhs_ss = _level_fit(search, r, np.zeros(y.shape[:-1], int))
    nobs, width = rows.shape[-2], rows.shape[-1] - 1
    if bandwidth is None:
        bandwidth = newey_west_bandwidth(nobs)
    bandwidth = int(bandwidth)
    if bandwidth >= nobs:
        raise DataError(f"bandwidth {bandwidth} too large for {nobs} residuals")
    beta_s = matvec(r_inv, np.ascontiguousarray(r[..., :width, width]))
    resid = rows[..., width] - matvec(rows[..., :width], beta_s)
    # bartlett_long_run_variance's checks, in its order: a negative
    # bandwidth is refused before any degeneracy error.
    if not np.isfinite(resid).all():
        raise DataError("inputs must be finite")
    lam2 = _two_sided(*_bartlett_sum(resid[..., None], bandwidth))[..., 0, 0]

    tstat = _t_ratio(beta, se, ssr, lhs_ss)
    # The level's standard error over s, in the units of y.
    se_over_s = np.sqrt(dot(r_inv[..., 0, :], r_inv[..., 0, :])) / scale[..., 0]
    gamma0 = ssr / nobs
    if not (lam2 > 0.0).all():
        raise DegeneracyError("long-run residual variance is zero")
    z_tau = np.sqrt(gamma0 / lam2) * tstat - 0.5 * (lam2 - gamma0) / np.sqrt(lam2) * (
        nobs * se_over_s)
    if np.isnan(z_tau).any():
        raise ParameterError("p-value outside [0, 1]: nan")
    return z_tau, np.full(y.shape[:-1], bandwidth), np.full(y.shape[:-1], nobs)


def pp_test(
    s: MonthlySeries,
    spec: str = INTERCEPT,
    bandwidth: int | None = None,
) -> UnitRootReport:
    """Phillips-Perron Z-tau test; the null is a unit root. The unaugmented
    Dickey-Fuller t-ratio is corrected with a Bartlett long-run variance of
    the residuals; ``bandwidth`` None means the automatic Newey-West lag.
    This is the one-series case of :func:`pp_reports`."""
    return pp_reports(s.values, spec, bandwidth)[0]


def pp_reports(y: np.ndarray, spec: str = INTERCEPT,
               bandwidth: int | None = None) -> list[UnitRootReport]:
    """The report of each row of a stack (S, n) y, or of one (n,) series,
    as :func:`pp_stack` tests it."""
    return _reports("PP", spec, pp_stack(y, spec, bandwidth))
