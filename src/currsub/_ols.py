"""Least squares via scaled QR, and the polynomial trend columns, shared
by the unit-root and FMOLS code.

Regressor columns are rescaled to unit root-mean-square before the QR
factorization: quadratic trend columns otherwise push the moment matrix
condition number past what double precision can invert reliably.

Every function here also takes a stack of problems, one per leading
index, and computes each the way it computes a lone one, bit for bit:
batched QR, solve and matrix products run the same LAPACK and BLAS
calls per matrix, and reductions run along the same axis. The
contiguity rule: that holds only when each row of a stack is laid out
as a lone series is, with unit stride. NumPy picks the summation order
of a reduction and the strides it hands BLAS from the layout, so a
strided row can round differently (a Fortran-ordered stack moved the
last bit of Q'y). ``a[:, rows]`` returns such a Fortran-ordered array.
The stacked kernels therefore make the rows they reduce or multiply
C-contiguous, and slice rather than index the time axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegeneracyError

__all__ = [
    "OlsFit",
    "check_rows",
    "design_defect",
    "dot",
    "matvec",
    "polynomial_trend",
    "scaled_qr",
    "solve_ols",
    "unit_rms",
]


@dataclass(frozen=True)
class OlsFit:
    """Coefficients, residuals and the inverse moment matrix of one fit,
    or of a stack of fits along the leading axes."""

    beta: np.ndarray = field(repr=False)
    resid: np.ndarray = field(repr=False)
    xtx_inv: np.ndarray = field(repr=False)
    ssr: float | np.ndarray
    nobs: int
    nparams: int

    @property
    def df_resid(self) -> int:
        return self.nobs - self.nparams

    @property
    def sigma2(self) -> float | np.ndarray:
        """Residual variance with degrees-of-freedom correction
        (:func:`solve_ols` refuses a fit without residual degrees of freedom)."""
        return self.ssr / self.df_resid

    def standard_errors(self) -> np.ndarray:
        sigma2 = np.asarray(self.sigma2)[..., None]
        return np.sqrt(sigma2 * self.xtx_inv.diagonal(0, -2, -1))


def polynomial_trend(t: np.ndarray, degree: int) -> np.ndarray:
    """The columns 1, t, ..., t^degree of a deterministic trend."""
    return np.vander(t, degree + 1, increasing=True)


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for (..., m, k) a and (..., k) v, by the BLAS call of a 2-D a, 1-D v."""
    return (a @ v[..., None])[..., 0]


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last axis, through the BLAS call of two 1-D operands."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def check_rows(n: int, k: int) -> None:
    """Refuse a fit of ``k`` regressors on ``n`` <= ``k`` observations."""
    if n <= k:
        raise DataError(f"need more observations ({n}) than regressors ({k})")


def unit_rms(x: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Divide each column of x (..., n, k) in place by its root-mean-square
    over ``rows``, and return those scales.

    A zero column stays zero, so that :func:`design_defect` can name it;
    a column whose scale overflows becomes zero too, which it refuses as
    collinear.
    """
    part = x[..., rows, :]
    with np.errstate(over="ignore"):  # an inf scale zeroes its column
        scale = np.sqrt((part * part).sum(axis=-2) / part.shape[-2])
    np.divide(x, np.where(scale > 0.0, scale, 1.0)[..., None, :], out=x)
    return scale


def design_defect(scale: np.ndarray, r: np.ndarray) -> str | None:
    """Why a design with column scales ``scale`` and square QR factor ``r``
    cannot be fit, or None; for a stack, a defect of any one design."""
    if not (scale > 0.0).all():
        return "a regressor column is identically zero"
    rdiag = np.abs(r.diagonal(0, -2, -1))
    # Columns have unit RMS, so a tiny pivot can only mean collinearity.
    if (rdiag.min(axis=-1) <= 1e-12 * np.maximum(rdiag.max(axis=-1), 1.0)).any():
        return "collinear regressors"
    return None


def scaled_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """QR of x with unit-RMS columns: (xs, scale, q, r), xs = x / scale = q @ r.

    Raises DegeneracyError for a zero column or collinear columns. xs is
    x itself, divided in place by :func:`unit_rms`: one copy fewer of a
    stack of designs; pass a copy to keep x.
    """
    scale = unit_rms(x)
    q, r = np.linalg.qr(x)
    defect = design_defect(scale, r)
    if defect is not None:
        raise DegeneracyError(defect)
    return x, scale, q, r


def solve_ols(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares of y (n,) on the columns of x (n, k); rejects rank
    deficiency.

    A stack of C-contiguous designs (S, n, k) and responses (S, n) gives
    a stack of S fits, refused if any one of them is.
    """
    x = np.array(x, dtype=float)  # a copy: it is scaled in place
    y = np.asarray(y, dtype=float)
    if x.ndim not in (2, 3) or x.shape[:-1] != y.shape:
        raise DataError(f"incompatible shapes {x.shape} and {y.shape}")
    n, k = x.shape[-2:]
    check_rows(n, k)
    xs, scale, q, r = scaled_qr(x)
    beta_s = np.linalg.solve(r, matvec(q.swapaxes(-1, -2), y)[..., None])[..., 0]
    r_inv = np.linalg.solve(r, np.eye(k))
    xtx_inv = (r_inv @ r_inv.swapaxes(-1, -2)) / (scale[..., :, None] * scale[..., None, :])
    resid = y - matvec(xs, beta_s)
    return OlsFit(
        beta=beta_s / scale,
        resid=resid,
        xtx_inv=xtx_inv,
        ssr=dot(resid, resid),
        nobs=n,
        nparams=k,
    )
