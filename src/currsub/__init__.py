"""Currency-substitution money demand: model, tests, estimation, pipeline.

The package splits along the analysis stages:

- :mod:`currsub.series`: monthly-calendar series container and correlation
- :mod:`currsub.model`: the CES money-demand model and its synthetic DGP
- :mod:`currsub.unitroot`: ADF and Phillips-Perron tests
- :mod:`currsub.lrcov`: kernel long-run covariance estimation
- :mod:`currsub.coint`: fully modified least squares and the Lc test
- :mod:`currsub.pipeline`: CSV ingestion, derivation, reports
- :mod:`currsub.cli`: the ``currsub`` command
"""

from .errors import (
    CurrsubError,
    DataError,
    DegeneracyError,
    IngestionError,
    ParameterError,
    SeriesDomainError,
    ValidationError,
)
from .series import (
    MonthStamp,
    MonthlySeries,
    pearson_correlation,
)
from .model import (
    AgentState,
    DgpNoise,
    ModelParams,
    SimulatedDgp,
    TrendCoefficients,
    annual_to_monthly_cost,
    budget_gap,
    ces_liquidity,
    delta_at,
    delta_ratio_at,
    foc_euro_gap,
    foc_money_gap,
    opportunity_cost,
    relative_demand_log,
    simulate_dgp,
    utility,
)
from .lrcov import LongRunCovariance, long_run_cov, newey_west_bandwidth
from .unitroot import UnitRootReport, adf_test, pp_test
from .coint import FmolsReport, HansenLcResult, fmols, hansen_lc

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "CurrsubError",
    "DataError",
    "DegeneracyError",
    "DgpNoise",
    "FmolsReport",
    "HansenLcResult",
    "IngestionError",
    "LongRunCovariance",
    "ModelParams",
    "MonthStamp",
    "MonthlySeries",
    "ParameterError",
    "SeriesDomainError",
    "SimulatedDgp",
    "TrendCoefficients",
    "UnitRootReport",
    "ValidationError",
    "adf_test",
    "annual_to_monthly_cost",
    "budget_gap",
    "ces_liquidity",
    "delta_at",
    "delta_ratio_at",
    "fmols",
    "foc_euro_gap",
    "foc_money_gap",
    "hansen_lc",
    "long_run_cov",
    "newey_west_bandwidth",
    "opportunity_cost",
    "pearson_correlation",
    "pp_test",
    "relative_demand_log",
    "simulate_dgp",
    "utility",
]
