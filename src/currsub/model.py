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
    "AgentState",
    "DgpNoise",
    "SimulatedDgp",
    "annual_to_monthly_cost",
    "opportunity_cost",
    "ces_liquidity",
    "utility",
    "foc_money_gap",
    "foc_euro_gap",
    "relative_demand_log",
    "delta_ratio_at",
    "delta_at",
    "budget_gap",
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
    currencies (0 <= sigma < inf), ``theta`` the liquidity weight in
    utility (0 < theta < 1), ``phi_monthly`` the proportional monthly
    money-holding cost, and ``beta`` the subjective discount factor.
    ``beta`` is carried for completeness; no operation here discounts.
    """

    sigma: float
    theta: float
    phi_monthly: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("sigma", "theta", "phi_monthly", "beta"):
            _require_finite(name, getattr(self, name))
        if not 0.0 < self.theta < 1.0:
            raise ParameterError(f"theta must be in (0, 1), got {self.theta}")
        if self.sigma < 0.0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"beta must be in (0, 1), got {self.beta}")
        if not 0.0 <= self.phi_monthly < 1.0:
            raise ParameterError(
                f"phi_monthly must be in [0, 1), got {self.phi_monthly}"
            )

    @property
    def gamma(self) -> float:
        """CES exponent (sigma - 1)/sigma; always < 1, undefined at sigma = 0."""
        return _gamma(self.sigma)


def _gamma(sigma: float) -> float:
    if sigma <= 0.0:
        raise ParameterError(f"gamma requires sigma > 0, got {sigma}")
    return (sigma - 1.0) / sigma


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


@dataclass(frozen=True)
class AgentState:
    """One month of the agent's accounts, all valued in lei.

    ``ms_lei`` and ``bs_lei`` are the euro positions converted at the
    month's own exchange rate. Money stocks may be zero here; only the
    CES and FOC operations, which take raw balances, demand strict
    positivity.
    """

    x: float
    m: float
    ms_lei: float
    b: float
    bs_lei: float
    p: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "m", "ms_lei", "b", "bs_lei", "p", "z"):
            _require_finite(name, getattr(self, name))
        if self.p <= 0.0:
            raise ParameterError(f"price index must be > 0, got {self.p}")
        if self.m < 0.0 or self.ms_lei < 0.0:
            raise ParameterError("money stocks cannot be negative")


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
    return math.expm1(math.log1p(phi_annual) / 12.0)


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


def ces_liquidity(m_real: float, ms_real: float, delta: float, sigma: float) -> float:
    """Liquidity services from the two real balances.

    CES form {delta*m^g + (1-delta)*ms^g}^(1/g) with g = (sigma-1)/sigma.
    At sigma = 1 the exponent degenerates and the Cobb-Douglas limit
    m^delta * ms^(1-delta) applies exactly.
    """
    m_real, ms_real = float(m_real), float(ms_real)
    delta, sigma = float(delta), float(sigma)
    _check_ces_domain(m_real, ms_real, delta, sigma)
    if sigma == 1.0:
        return m_real**delta * ms_real ** (1.0 - delta)
    g = _gamma(sigma)
    # Work in logs so extreme exponents (sigma near 0) cannot overflow.
    u1 = g * math.log(m_real)
    u2 = g * math.log(ms_real)
    top = max(u1, u2)
    inner = delta * math.exp(u1 - top) + (1.0 - delta) * math.exp(u2 - top)
    return math.exp((top + math.log(inner)) / g)


def utility(
    x_real: float, m_real: float, ms_real: float, delta: float, params: ModelParams
) -> float:
    """Period utility x^(1-theta) * L^theta with L the CES liquidity."""
    x_real = float(x_real)
    if x_real <= 0.0:
        raise ParameterError(f"consumption must be > 0, got {x_real}")
    liq = ces_liquidity(m_real, ms_real, delta, params.sigma)
    return x_real ** (1.0 - params.theta) * liq**params.theta


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
    g = _gamma(params.sigma)
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


def delta_ratio_at(t: float, coeffs: TrendCoefficients) -> float:
    """The share ratio (1-delta)/delta at month index ``t`` on the fitted
    deterministic path: exp((v0 + v1*t + v2*t^2)/sigma), the trend
    equation inverted with the disturbance at zero. ``t`` counts months
    from the trend origin.
    """
    try:
        return math.exp(coeffs.trend_at(float(t)) / coeffs.sigma)
    except OverflowError:
        raise DegeneracyError(f"share ratio overflows at t={t}") from None


def delta_at(t: float, coeffs: TrendCoefficients) -> float:
    """The share delta = 1/(1 + ratio) at month index ``t`` on the same
    path as :func:`delta_ratio_at`; always in (0, 1).

    For trends extreme enough to underflow the logistic, the result
    saturates at the nearest double inside the open interval.
    """
    q = coeffs.trend_at(float(t)) / coeffs.sigma
    # Logistic evaluated on the dominant side so neither exp overflows.
    if q >= 0.0:
        e = math.exp(-q)
        value = e / (1.0 + e)
    else:
        value = 1.0 / (1.0 + math.exp(q))
    return min(max(value, math.nextafter(0.0, 1.0)), math.nextafter(1.0, 0.0))


def budget_gap(
    prev: AgentState,
    cur: AgentState,
    i_dom: float,
    i_for: float,
    fx_growth: float,
    phi_monthly: float,
) -> float:
    """Signed budget-constraint residual (lei): resources minus uses.

    Resources: last month's money net of the holding cost, bonds with
    interest, and current transfers; euro positions are revalued by the
    gross exchange-rate growth ``fx_growth`` = S_t/S_{t-1} because the
    stored lei values reflect last month's rate. Uses: consumption plus
    all end-of-month positions. Zero iff the constraint binds.
    """
    i_dom = _require_finite("i_dom", i_dom)
    i_for = _require_finite("i_for", i_for)
    fx_growth = _require_finite("fx_growth", fx_growth)
    phi_monthly = _require_finite("phi_monthly", phi_monthly)
    if fx_growth <= 0.0:
        raise ParameterError(f"fx growth factor must be > 0, got {fx_growth}")
    resources = (
        prev.m * (1.0 - phi_monthly)
        + fx_growth * prev.ms_lei * (1.0 - phi_monthly)
        + prev.b * (1.0 + i_dom)
        + fx_growth * prev.bs_lei * (1.0 + i_for)
        + cur.z
    )
    uses = cur.x + cur.m + cur.ms_lei + cur.b + cur.bs_lei
    return resources - uses


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
