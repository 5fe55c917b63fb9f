"""Two-currency money demand model.

A representative agent derives liquidity services from domestic and
foreign real balances through a CES aggregator with share ``delta`` and
elasticity of substitution ``sigma``, and values consumption and
liquidity through a Cobb-Douglas utility. The first-order conditions
price each currency at its opportunity cost, and their ratio yields a
log-linear relative demand equation. A slowly drifting share parameter
turns that equation into a cointegrating regression of the log money
ratio on a quadratic time trend and the opportunity-cost spread; this
module also ships the matching synthetic-data generator.

The module holds what the pipeline and its checks read: the FOC
residuals, the demand equation, the share path and the generator. The
utility they are derived from is not computed here; the tests keep it
as the reference the FOCs are checked against.

Every function is pure. All rates are monthly decimal fractions unless a
name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegeneracyError, ParameterError
from .series import MonthStamp, MonthlySeries, require_finite

__all__ = [
    "ModelParams",
    "TrendCoefficients",
    "DgpNoise",
    "SimulatedDgp",
    "annual_to_monthly_cost",
    "opportunity_cost",
    "foc_money_gap",
    "foc_euro_gap",
    "relative_demand_log",
    "delta_ratio_at",
    "delta_at",
    "simulate_dgp",
    "simulate_paths",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Structural preference parameters.

    ``sigma`` is the elasticity of substitution between the two
    currencies (0 <= sigma < inf) and ``theta`` the liquidity weight in
    utility (0 < theta < 1). The holding cost enters through the
    opportunity costs the FOCs take.
    """

    sigma: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("sigma", "theta"):
            _require_finite(name, getattr(self, name))
        if not 0.0 < self.theta < 1.0:
            raise ParameterError(f"theta must be in (0, 1), got {self.theta}")
        if self.sigma < 0.0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class TrendCoefficients:
    """Coefficients of the cointegrating regression.

    The log money ratio follows v0 + v1*t + v2*t^2 + sigma*spread + eps,
    with t a month index. ``sigma`` must be strictly positive because
    recovering the share path divides the trend polynomial by it.
    """

    v0: float
    v1: float
    v2: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("v0", "v1", "v2", "sigma"):
            _require_finite(name, getattr(self, name))
        if self.sigma <= 0.0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")

    def trend_at(self, t: float) -> float:
        """The polynomial v0 + v1*t + v2*t^2."""
        return self.v0 + (self.v1 + self.v2 * t) * t


def annual_to_monthly_cost(phi_annual: float) -> float:
    """Convert a proportional annual holding cost to its monthly equivalent.

    Geometric compounding: (1 + phi_annual)**(1/12) - 1. The benchmark
    1% per year maps to 0.082953% per month.
    """
    phi_annual = _require_finite("phi_annual", phi_annual)
    if phi_annual <= -1.0:
        raise ParameterError(
            f"annual cost must exceed -100%, got {phi_annual}"
        )
    return _monthly_cost(phi_annual)


def _monthly_cost(annual: float) -> float:
    """(1 + annual)**(1/12) - 1 of a finite rate above -1, unchecked."""
    return math.expm1(math.log1p(annual) / 12.0)


def opportunity_cost(i_next: float, phi_monthly: float) -> float:
    """Opportunity cost of holding money for one month.

    oc = (i + phi)/(1 + i): interest forgone plus the holding cost, per
    leu held, discounted to the start of the month. Must come out
    strictly positive because downstream demand equations take its log.
    """
    i_next = _require_finite("i_next", i_next)
    phi_monthly = _require_finite("phi_monthly", phi_monthly)
    if i_next <= -1.0:
        raise ParameterError(f"interest rate must exceed -100%, got {i_next}")
    if i_next + phi_monthly <= 0.0:
        raise ParameterError(
            f"nonpositive opportunity cost: i={i_next}, phi={phi_monthly}"
        )
    return (i_next + phi_monthly) / (1.0 + i_next)


def _check_ces_domain(m_real: float, ms_real: float, delta: float, sigma: float) -> None:
    if not m_real > 0.0 or not ms_real > 0.0:
        raise ParameterError(
            f"real balances must be > 0, got m={m_real}, ms={ms_real}"
        )
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")


def _ces_power(m_real: float, ms_real: float, delta: float, g: float) -> float:
    """The aggregator raised to gamma: delta*m^g + (1-delta)*ms^g."""
    return delta * m_real**g + (1.0 - delta) * ms_real**g


def _foc_gap(
    x_real: float, m_real: float, ms_real: float, delta: float, oc: float,
    params: ModelParams, own_share: float, own_balance: float,
) -> float:
    """One currency's FOC residual, given its own CES share and real balance."""
    x_real, m_real, ms_real = float(x_real), float(m_real), float(ms_real)
    delta, oc = float(delta), float(oc)
    _check_ces_domain(m_real, ms_real, delta, params.sigma)
    if x_real <= 0.0:
        raise ParameterError(f"consumption must be > 0, got {x_real}")
    if oc <= 0.0:
        raise ParameterError(f"opportunity cost must be > 0, got {oc}")
    g = (params.sigma - 1.0) / params.sigma  # the CES exponent; sigma > 0 here
    benefit = (params.theta / (1.0 - params.theta)) * x_real / _ces_power(
        m_real, ms_real, delta, g
    )
    cost = (oc / own_share) * own_balance ** (1.0 - g)
    return benefit - cost


def foc_money_gap(
    x_real: float,
    m_real: float,
    ms_real: float,
    delta: float,
    oc_domestic: float,
    params: ModelParams,
) -> float:
    """Signed residual of the domestic-money first-order condition.

    Marginal benefit minus marginal cost,
    (theta/(1-theta)) * {delta*m^g + (1-delta)*ms^g}^(-1) * x
    - (oc/delta) * m^(1-g); zero exactly when the condition holds.
    """
    return _foc_gap(
        x_real, m_real, ms_real, delta, oc_domestic, params, float(delta), float(m_real)
    )


def foc_euro_gap(
    x_real: float,
    m_real: float,
    ms_real: float,
    delta: float,
    oc_foreign: float,
    params: ModelParams,
) -> float:
    """Signed residual of the euro first-order condition.

    Mirror image of :func:`foc_money_gap` with the share (1-delta) and
    the euro balance in the cost term; the benefit term is identical,
    which is what ties the two conditions into one demand equation.
    """
    return _foc_gap(
        x_real, m_real, ms_real, delta, oc_foreign, params, 1.0 - float(delta), float(ms_real)
    )


def relative_demand_log(
    delta: float, sigma: float, oc_domestic: float, oc_foreign: float
) -> float:
    """Log euro-to-leu holding ratio implied by the two first-order conditions.

    sigma * ln((1-delta)/delta) + sigma * (ln oc_domestic - ln oc_foreign).
    sigma = 0 (no substitutability) pins the ratio at 1, so the log is 0.
    """
    delta, sigma = float(delta), float(sigma)
    oc_domestic, oc_foreign = float(oc_domestic), float(oc_foreign)
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if sigma < 0.0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    if oc_domestic <= 0.0 or oc_foreign <= 0.0:
        raise ParameterError("opportunity costs must be > 0")
    if sigma == 0.0:
        return 0.0
    return sigma * (
        math.log((1.0 - delta) / delta)
        + math.log(oc_domestic)
        - math.log(oc_foreign)
    )


def _path_exponent(t, coeffs: TrendCoefficients) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as floats give them
        return coeffs.trend_at(np.asarray(t, dtype=float)) / coeffs.sigma


def _exp_each(q: np.ndarray) -> np.ndarray:  # math.exp: np.exp can differ in the last bit
    return np.array(list(map(math.exp, q.ravel().tolist()))).reshape(q.shape)


def delta_ratio_at(t, coeffs: TrendCoefficients):
    """The share ratio (1-delta)/delta at month index ``t`` on the fitted
    deterministic path: exp((v0 + v1*t + v2*t^2)/sigma), the trend
    equation inverted with the disturbance at zero. ``t`` counts months
    from the trend origin; an array of them gives an array of ratios.
    """
    q = _path_exponent(t, coeffs)
    try:
        ratio = _exp_each(q)
    except OverflowError:
        for k, value in enumerate(q.ravel().tolist()):  # the first month to overflow
            try:
                math.exp(value)
            except OverflowError:
                raise DegeneracyError(f"share ratio overflows at t={np.ravel(t)[k]}") from None
    return ratio if np.ndim(t) else float(ratio)


def delta_at(t, coeffs: TrendCoefficients):
    """The share delta = 1/(1 + ratio) at month index ``t`` on the same
    path as :func:`delta_ratio_at`; always in (0, 1). An array of month
    indices gives an array of shares.

    For trends extreme enough to underflow the logistic, the result
    saturates at the nearest double inside the open interval.
    """
    q = _path_exponent(t, coeffs)
    # Logistic evaluated on the dominant side so neither exp overflows.
    e = _exp_each(-np.abs(q))
    value = np.where(q >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))
    value = np.minimum(np.maximum(value, math.nextafter(0.0, 1.0)), math.nextafter(1.0, 0.0))
    return value if np.ndim(t) else float(value)


@dataclass(frozen=True)
class DgpNoise:
    """Noise configuration for :func:`simulate_dgp`.

    ``spread_sd``: standard deviation of the random-walk innovations of
    the opportunity-cost spread. ``rho`` and ``eps_sd``: AR(1)
    coefficient and innovation standard deviation of the stationary
    disturbance.
    """

    spread_sd: float
    rho: float
    eps_sd: float

    def __post_init__(self) -> None:
        for name in ("spread_sd", "rho", "eps_sd"):
            _require_finite(name, getattr(self, name))
        if self.spread_sd <= 0.0 or self.eps_sd <= 0.0:
            raise ParameterError("noise standard deviations must be > 0")
        if not abs(self.rho) < 1.0:
            raise ParameterError(f"AR(1) coefficient must satisfy |rho| < 1, got {self.rho}")


@dataclass(frozen=True)
class SimulatedDgp:
    """Output of :func:`simulate_dgp`: the three series share one calendar."""

    log_money_ratio: MonthlySeries
    oc_spread_log: MonthlySeries
    eps: MonthlySeries


def simulate_paths(
    coeffs: TrendCoefficients,
    n: int,
    noise: DgpNoise,
    seeds,
    *,
    start: MonthStamp = MonthStamp(2001, 9),
    spread_start: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (log money ratio, spread, eps) paths of :func:`simulate_dgp`
    for each seed, as three (len(seeds), n) arrays.

    Each seed's draws are its own generator's, in simulate_dgp's order;
    the AR(1) recursion steps every seed at once. A non-finite path is
    refused as a MonthlySeries of it would be (``start`` dates the
    refusal).
    """
    if n < 30:
        raise DataError(f"need n >= 30 observations, got {n}")
    for seed in seeds:
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
    spread_start = _require_finite("spread_start", spread_start)
    steps = np.empty((len(seeds), n - 1))
    shocks = np.empty((len(seeds), n - 1))
    eps = np.empty((len(seeds), n))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        steps[i] = rng.normal(0.0, noise.spread_sd, size=n - 1)
        eps[i, 0] = rng.normal(0.0, noise.eps_sd / math.sqrt(1.0 - noise.rho**2))
        shocks[i] = rng.normal(0.0, noise.eps_sd, size=n - 1)

    spread = np.empty((len(seeds), n))
    spread[:, 0] = 0.0
    t = np.arange(n, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite refuses it
        np.cumsum(steps, axis=-1, out=spread[:, 1:])
        spread += spread_start
        for k in range(1, n):
            eps[:, k] = noise.rho * eps[:, k - 1] + shocks[:, k - 1]
        y = coeffs.v0 + coeffs.v1 * t + coeffs.v2 * t**2 + coeffs.sigma * spread + eps
    for path in (y, spread, eps):
        require_finite(start, path)
    return y, spread, eps


def simulate_dgp(
    coeffs: TrendCoefficients,
    n: int,
    noise: DgpNoise,
    seed: int,
    *,
    start: MonthStamp = MonthStamp(2001, 9),
    spread_start: float = 0.0,
) -> SimulatedDgp:
    """Generate data satisfying the cointegration equation exactly.

    The spread s_t is a driftless random walk started at
    ``spread_start``; eps_t is an AR(1) drawn from its stationary
    distribution; the log money ratio is
    v0 + v1*t + v2*t^2 + sigma*s_t + eps_t with t = 0..n-1.

    Deterministic given ``seed``: the generator draws the n-1 spread
    innovations first, then the n disturbance draws, so results are
    reproducible across runs and platforms. This is the one-seed case
    of :func:`simulate_paths`.
    """
    paths = simulate_paths(
        coeffs, n, noise, [seed], start=start, spread_start=spread_start
    )
    y, spread, eps = (MonthlySeries(start, path[0]) for path in paths)
    return SimulatedDgp(log_money_ratio=y, oc_spread_log=spread, eps=eps)
