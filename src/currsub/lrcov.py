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


def _as_vector(x) -> np.ndarray:
    if isinstance(x, MonthlySeries):
        return x.values
    arr = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise DataError("inputs must be finite")
    return arr


@dataclass(frozen=True)
class LongRunCovariance:
    """Long-run covariance of a stacked innovation process.

    ``omega`` is the two-sided long-run covariance, ``lam`` the one-sided
    sum including lag zero, and ``gamma0`` the contemporaneous
    autocovariance; omega = lam + lam' - gamma0 by construction, and that
    identity plus symmetry and positive semi-definiteness of omega are
    re-checked on construction.
    """

    omega: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    gamma0: np.ndarray = field(repr=False)
    bandwidth: int
    kernel: str = "bartlett"

    def __post_init__(self) -> None:
        if self.kernel != "bartlett":
            raise ParameterError(f"unsupported kernel {self.kernel!r}")
        if self.bandwidth < 0:
            raise ParameterError(f"bandwidth must be >= 0, got {self.bandwidth}")
        omega = np.array(self.omega, dtype=float)
        lam = np.array(self.lam, dtype=float)
        gamma0 = np.array(self.gamma0, dtype=float)
        for name, mat in (("omega", omega), ("lam", lam), ("gamma0", gamma0)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ParameterError(f"{name} must be square, got {mat.shape}")
        scale = max(1.0, float(np.abs(gamma0).max()))
        if np.abs(omega - omega.T).max() > 1e-10 * scale:
            raise ParameterError("omega must be symmetric")
        if np.abs(omega - (lam + lam.T - gamma0)).max() > 1e-10 * scale:
            raise ParameterError("omega must equal lam + lam' - gamma0")
        if np.linalg.eigvalsh(omega).min() < -1e-12 * scale:
            raise ParameterError("omega must be positive semi-definite")
        for mat in (omega, lam, gamma0):
            mat.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma0", gamma0)


def _bartlett_sum(e: np.ndarray, bandwidth: int, lag_factor: float):
    """gamma0 and gamma0 + lag_factor * sum_j w_j Gamma_j, for a vector or n x k e.

    Factor 1 gives the one-sided sum; factor 2 the two-sided sum of a
    single vector, whose lag j and lag -j autocovariances coincide.
    """
    bandwidth = int(bandwidth)
    if bandwidth < 0:
        raise ParameterError(f"bandwidth must be >= 0, got {bandwidth}")
    n = e.shape[0]
    gamma0 = e.T @ e / n
    total = gamma0
    for j in range(1, min(bandwidth, n - 1) + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        total = total + lag_factor * w * (e[j:].T @ e[:-j]) / n
    return gamma0, total


def long_run_cov(u, v, bandwidth: int | None = None) -> LongRunCovariance:
    """Bartlett long-run covariance of the stacked process (u, v).

    ``bandwidth`` None selects the automatic Newey-West lag. Lag-j
    autocovariances are demeaned and normalized by n regardless of lag,
    so at bandwidth 0 ``omega`` is the plain sample covariance matrix.
    """
    u = _as_vector(u)
    v = _as_vector(v)
    if u.size != v.size:
        raise DataError(f"length mismatch: {u.size} vs {v.size}")
    n = u.size
    if n < 10:
        raise DataError(f"need at least 10 observations, got {n}")
    if bandwidth is None:
        bandwidth = newey_west_bandwidth(n)
    bandwidth = int(bandwidth)
    e = np.column_stack([u, v])
    gamma0, lam = _bartlett_sum(e - e.mean(axis=0), bandwidth, 1.0)
    omega = lam + lam.T - gamma0
    omega = (omega + omega.T) / 2.0
    return LongRunCovariance(omega=omega, lam=lam, gamma0=gamma0, bandwidth=bandwidth)


def bartlett_long_run_variance(e, bandwidth: int) -> float:
    """Scalar Bartlett long-run variance of one innovation sequence.

    Same weights and normalization as :func:`long_run_cov`, without the
    demeaning: intended for regression residuals that are already
    orthogonal to an intercept.
    """
    e = _as_vector(e)
    n = e.size
    if n < 2:
        raise DataError(f"need at least 2 observations, got {n}")
    return float(_bartlett_sum(e, bandwidth, 2.0)[1])
