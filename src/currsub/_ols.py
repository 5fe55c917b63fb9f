"""Least squares via scaled QR, and the polynomial trend columns, shared
by the unit-root and FMOLS code.

Regressor columns are rescaled to unit root-mean-square before the QR
factorization: quadratic trend columns otherwise push the moment matrix
condition number past what double precision can invert reliably.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegeneracyError

__all__ = [
    "OlsFit",
    "check_rows",
    "design_defect",
    "polynomial_trend",
    "scaled_factor",
    "scaled_qr",
    "solve_ols",
]


@dataclass(frozen=True)
class OlsFit:
    """Coefficients, residuals and the inverse moment matrix of one fit."""

    beta: np.ndarray = field(repr=False)
    resid: np.ndarray = field(repr=False)
    xtx_inv: np.ndarray = field(repr=False)
    ssr: float
    nobs: int
    nparams: int

    @property
    def df_resid(self) -> int:
        return self.nobs - self.nparams

    @property
    def sigma2(self) -> float:
        """Residual variance with degrees-of-freedom correction."""
        if self.df_resid <= 0:
            raise DataError("no residual degrees of freedom")
        return self.ssr / self.df_resid

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(self.sigma2 * np.diag(self.xtx_inv))


def polynomial_trend(t: np.ndarray, degree: int) -> np.ndarray:
    """The columns 1, t, ..., t^degree of a deterministic trend."""
    return np.vander(t, degree + 1, increasing=True)


def check_rows(n: int, k: int) -> None:
    """Refuse a fit of ``k`` regressors on ``n`` <= ``k`` observations."""
    if n <= k:
        raise DataError(f"need more observations ({n}) than regressors ({k})")


def scaled_factor(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """QR of x with unit-RMS columns, ungated: (xs, scale, q, r), xs = q @ r.

    xs = x / scale, except that a zero column stays zero, so that
    :func:`design_defect` can name it.
    """
    scale = np.sqrt((x * x).mean(axis=0))
    xs = x / np.where(scale > 0.0, scale, 1.0)
    q, r = np.linalg.qr(xs)
    return xs, scale, q, r


def design_defect(scale: np.ndarray, r: np.ndarray) -> str | None:
    """Why a design with column scales ``scale`` and square QR factor ``r``
    cannot be fit, or None."""
    if not np.all(scale > 0.0):
        return "a regressor column is identically zero"
    rdiag = np.abs(np.diag(r))
    # Columns have unit RMS, so a tiny pivot can only mean collinearity.
    if rdiag.min() <= 1e-12 * max(rdiag.max(), 1.0):
        return "collinear regressors"
    return None


def scaled_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """QR of x with unit-RMS columns: (xs, scale, q, r), xs = x / scale = q @ r.

    Raises DegeneracyError for a zero column or collinear columns.
    """
    xs, scale, q, r = scaled_factor(x)
    defect = design_defect(scale, r)
    if defect is not None:
        raise DegeneracyError(defect)
    return xs, scale, q, r


def solve_ols(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares of y on the columns of x; rejects rank deficiency."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError(f"incompatible shapes {x.shape} and {y.shape}")
    n, k = x.shape
    check_rows(n, k)
    xs, scale, q, r = scaled_qr(x)
    beta_s = np.linalg.solve(r, q.T @ y)
    r_inv = np.linalg.solve(r, np.eye(k))
    xtx_inv = (r_inv @ r_inv.T) / np.outer(scale, scale)
    resid = y - xs @ beta_s
    return OlsFit(
        beta=beta_s / scale,
        resid=resid,
        xtx_inv=xtx_inv,
        ssr=float(resid @ resid),
        nobs=n,
        nparams=k,
    )
