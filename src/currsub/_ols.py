"""Least squares via scaled QR, shared by the unit-root and FMOLS code.

Regressor columns are rescaled to unit root-mean-square before the QR
factorization: quadratic trend columns otherwise push the moment matrix
condition number past what double precision can invert reliably.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegeneracyError

__all__ = ["OlsFit", "scaled_qr", "solve_ols"]


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


def scaled_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """QR of x with unit-RMS columns: (xs, scale, q, r), xs = x / scale = q @ r.

    Raises DegeneracyError for a zero column or collinear columns.
    """
    scale = np.sqrt((x * x).mean(axis=0))
    if not np.all(scale > 0.0):
        raise DegeneracyError("a regressor column is identically zero")
    xs = x / scale
    q, r = np.linalg.qr(xs)
    rdiag = np.abs(np.diag(r))
    # Columns have unit RMS, so a tiny pivot can only mean collinearity.
    if rdiag.min() <= 1e-12 * max(rdiag.max(), 1.0):
        raise DegeneracyError("collinear regressors")
    return xs, scale, q, r


def solve_ols(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares of y on the columns of x; rejects rank deficiency."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError(f"incompatible shapes {x.shape} and {y.shape}")
    n, k = x.shape
    if n <= k:
        raise DataError(f"need more observations ({n}) than regressors ({k})")
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
