"""The pieces of every least-squares fit in the package, and the
polynomial trend columns, shared by the unit-root and FMOLS code.

Every fit follows one pattern: :func:`unit_rms` rescales the regressor
columns to unit root-mean-square, one QR factors them, and
:func:`design_defect` gates its pivots. Quadratic trend columns would
otherwise push the moment matrix condition number past what double
precision can invert reliably. The unit-root fits and FM-OLS's second
stage factor R only; :func:`solve_ols`, FM-OLS's first stage, is the
one place Q is formed, for that fit's residuals.

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

import numpy as np

from .errors import DataError, DegeneracyError

__all__ = [
    "check_rows",
    "design_defect",
    "dot",
    "matvec",
    "polynomial_trend",
    "solve_ols",
    "unit_rms",
]


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
        scale = np.sqrt(np.einsum("...nk,...nk->...k", part, part) / part.shape[-2])
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


def solve_ols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The residuals of the least-squares fit of y (n,) on the columns of
    x (n, k); rejects rank deficiency.

    A stack of C-contiguous designs (S, n, k) and responses (S, n) gives
    a stack of S residual vectors, refused if any one fit is. This is
    the one fit in the package that forms Q: the others read all they
    need off an R-only factor.
    """
    x = np.array(x, dtype=float)  # a copy: it is scaled in place
    y = np.asarray(y, dtype=float)
    if x.ndim not in (2, 3) or x.shape[:-1] != y.shape:
        raise DataError(f"incompatible shapes {x.shape} and {y.shape}")
    n, k = x.shape[-2:]
    check_rows(n, k)
    scale = unit_rms(x)
    q, r = np.linalg.qr(x)
    defect = design_defect(scale, r)
    if defect is not None:
        raise DegeneracyError(defect)
    beta_s = np.linalg.solve(r, matvec(q.swapaxes(-1, -2), y)[..., None])[..., 0]
    return y - matvec(x, beta_s)
