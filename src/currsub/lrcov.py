"""Kernel long-run covariance estimation.

One estimator, used three ways: the Phillips-Perron correction needs the
long-run variance of regression residuals, the fully modified estimator
needs the 2x2 long-run covariance of (residual, regressor innovation),
and the stability test reuses the latter's conditional variance.

Conventions are fixed here once: autocovariances are demeaned and
normalized by the full length n, the kernel is Bartlett with weights
1 - j/(b+1), and the automatic bandwidth is the Newey-West rule
floor(4*(n/100)^(2/9)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .series import MonthlySeries

__all__ = [
    "LongRunCovariance",
    "long_run_cov",
    "newey_west_bandwidth",
    "bartlett_long_run_variance",
]


def newey_west_bandwidth(n: int) -> int:
    """Automatic Bartlett truncation lag, floor(4*(n/100)^(2/9))."""
    if n < 1:
        raise DataError(f"need a positive sample size, got {n}")
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


def _as_values(x) -> np.ndarray:
    """Finite values of a series, or of each row of a 2-D stack of series."""
    if isinstance(x, MonthlySeries):
        return x.values
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        arr = arr.reshape(-1)
    if not np.isfinite(arr).all():
        raise DataError("inputs must be finite")
    return arr


@dataclass(frozen=True)
class LongRunCovariance:
    """Long-run covariance of a stacked innovation process.

    ``omega`` is the two-sided long-run covariance, ``lam`` the one-sided
    sum including lag zero, and ``gamma0`` the contemporaneous
    autocovariance; :func:`long_run_cov` builds omega symmetric as
    lam + lam' - gamma0. The matrices are frozen, and omega's positive
    semi-definiteness, which holds only in exact arithmetic, is checked
    on construction. Leading axes, if any, index one covariance per
    series of a stack, and every one is checked.
    """

    omega: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    gamma0: np.ndarray = field(repr=False)
    bandwidth: int

    def __post_init__(self) -> None:
        omega = np.array(self.omega, dtype=float)
        lam = np.array(self.lam, dtype=float)
        gamma0 = np.array(self.gamma0, dtype=float)
        scale = np.fmax(np.abs(gamma0).max(axis=(-2, -1)), 1.0)  # NaN gives 1
        if (np.linalg.eigvalsh(omega).min(axis=-1) < -1e-12 * scale).any():
            raise ParameterError("omega must be positive semi-definite")
        for mat in (omega, lam, gamma0):
            mat.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma0", gamma0)


def _bartlett_sum(e: np.ndarray, bandwidth: int):
    """gamma0 and the one-sided sum lam = gamma0 + sum_j w_j Gamma_j, for
    an n x k matrix or a stack (..., n, k) of matrices e."""
    bandwidth = int(bandwidth)
    if bandwidth < 0:
        raise ParameterError(f"bandwidth must be >= 0, got {bandwidth}")
    n = e.shape[-2]

    def cross(j: int):  # the lag-j products sum_t e_t e_{t-j}'
        return e[..., j:, :].swapaxes(-1, -2) @ e[..., : n - j, :]

    gamma0 = cross(0) / n
    lam = gamma0
    for j in range(1, min(bandwidth, n - 1) + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        lam = lam + w * cross(j) / n
    return gamma0, lam


def _two_sided(gamma0: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The symmetric two-sided sum lam + lam' - gamma0."""
    omega = lam + lam.swapaxes(-1, -2) - gamma0
    return (omega + omega.swapaxes(-1, -2)) / 2.0


def long_run_cov(u, v, bandwidth: int | None = None) -> LongRunCovariance:
    """Bartlett long-run covariance of the stacked process (u, v).

    ``bandwidth`` None selects the automatic Newey-West lag. Lag-j
    autocovariances are demeaned and normalized by n regardless of lag,
    so at bandwidth 0 ``omega`` is the plain sample covariance matrix.
    2-D u and v are stacks of series, one per row: the result then
    holds one covariance per row, each computed as for that row alone.
    """
    u = _as_values(u)
    v = _as_values(v)
    if u.shape != v.shape:
        raise DataError(f"length mismatch: {u.size} vs {v.size}")
    n = u.shape[-1]
    if n < 10:
        raise DataError(f"need at least 10 observations, got {n}")
    if bandwidth is None:
        bandwidth = newey_west_bandwidth(n)
    bandwidth = int(bandwidth)
    e = np.stack([u, v], axis=-1)
    gamma0, lam = _bartlett_sum(e - e.mean(axis=-2, keepdims=True), bandwidth)
    omega = _two_sided(gamma0, lam)
    return LongRunCovariance(omega=omega, lam=lam, gamma0=gamma0, bandwidth=bandwidth)


def bartlett_long_run_variance(e, bandwidth: int) -> float:
    """Scalar Bartlett long-run variance of one innovation sequence.

    Same weights and normalization as :func:`long_run_cov`, without the
    demeaning: intended for regression residuals that are already
    orthogonal to an intercept: the two-sided sum of e as an n x 1 column.
    """
    e = _as_values(e).reshape(-1, 1)
    n = e.shape[0]
    if n < 2:
        raise DataError(f"need at least 2 observations, got {n}")
    return float(_two_sided(*_bartlett_sum(e, bandwidth))[0, 0])
