"""Batch pipeline: CSV in, derived series, reports out.

The flow is ingest -> derive -> (unit roots | estimation | delta path),
plus a synthetic-dataset writer that inverts the derivation so simulated
draws can be pushed through the exact same path, and a Monte Carlo
driver for validating the estimators. Everything here is a pure function
of its inputs; the CLI layer owns argument parsing and process exit
codes.

Serialization rule: every float in an emitted report is rounded to 9
significant digits first, which makes repeated runs byte-identical and
report files diffable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import coint, model, unitroot
from .errors import (
    DataError,
    DegeneracyError,
    IngestionError,
    ParameterError,
    SeriesDomainError,
)
from .series import MonthStamp, MonthlySeries, pearson_correlation

__all__ = [
    "DatasetRow",
    "PipelineConfig",
    "IngestResult",
    "DerivedSeries",
    "UnitRootRun",
    "EstimationResult",
    "MonteCarloConfig",
    "ingest",
    "ingest_rows",
    "derive_series",
    "run_unit_roots",
    "run_estimation",
    "run_montecarlo",
    "dataset_rows_from_simulation",
    "dataset_csv_text",
    "write_dataset_csv",
    "build_report",
    "render_report",
    "render_delta_path_csv",
]

SCHEMA_EUR_FX = ("date", "m_dom", "m_eur", "fx", "i_dom", "i_eur")
SCHEMA_EUR_LEI = ("date", "m_dom", "m_eur_lei", "i_dom", "i_eur")


@dataclass(frozen=True)
class DatasetRow:
    """One month of raw inputs.

    Money stocks in lei and euro, the lei-per-euro exchange rate, and
    the two money-market rates in percent per annum.
    """

    date: MonthStamp
    m_dom: float
    m_eur: float
    fx: float
    i_dom: float
    i_eur: float

    def __post_init__(self) -> None:
        for name in ("m_dom", "m_eur", "fx", "i_dom", "i_eur"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise IngestionError(f"{self.date}: {name} is not finite")
        if self.m_dom <= 0.0 or self.m_eur <= 0.0:
            raise IngestionError(f"{self.date}: money stocks must be > 0")
        if self.fx <= 0.0:
            raise IngestionError(f"{self.date}: exchange rate must be > 0")
        for name in ("i_dom", "i_eur"):
            if getattr(self, name) <= -99.0:
                raise IngestionError(f"{self.date}: {name} below -99% per annum")


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved run settings, echoed verbatim into every report.

    ``lags`` None means AIC selection up to ``max_lags``; ``bandwidth``
    None means the automatic Newey-West rule; ``trend_origin`` None means
    the first observation of the dataset at hand.
    """

    phi_annual: float = 0.01
    lags: int | None = None
    max_lags: int = 12
    bandwidth: int | None = None
    trend_origin: MonthStamp | None = None
    output_format: str = "json"

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi_annual) or self.phi_annual <= -1.0:
            raise ParameterError(f"phi_annual must exceed -1, got {self.phi_annual}")
        if self.lags is not None and self.lags < 0:
            raise ParameterError(f"lags must be >= 0, got {self.lags}")
        if self.max_lags < 0:
            raise ParameterError(f"max_lags must be >= 0, got {self.max_lags}")
        if self.bandwidth is not None and self.bandwidth < 0:
            raise ParameterError(f"bandwidth must be >= 0, got {self.bandwidth}")
        if self.output_format not in ("json", "csv"):
            raise ParameterError(
                f"output_format must be json or csv, got {self.output_format!r}"
            )

    def resolved_origin(self, first: MonthStamp) -> MonthStamp:
        return self.trend_origin if self.trend_origin is not None else first

    def metadata(self, first: MonthStamp | None = None) -> dict:
        origin = None
        if self.trend_origin is not None:
            origin = str(self.trend_origin)
        elif first is not None:
            origin = str(first)
        return {
            "phi_annual": self.phi_annual,
            "lag_policy": "fixed" if self.lags is not None else "aic",
            "lags": self.lags,
            "max_lags": self.max_lags,
            "bandwidth_policy": "fixed" if self.bandwidth is not None else "newey_west",
            "bandwidth": self.bandwidth,
            "trend_origin": origin,
            "output_format": self.output_format,
        }


@dataclass(frozen=True)
class IngestResult:
    rows: tuple[DatasetRow, ...]
    schema: str
    digest: str


@dataclass(frozen=True)
class DerivedSeries:
    """Model series derived from one dataset; all share the same calendar."""

    log_money_ratio: MonthlySeries
    oc_spread_log: MonthlySeries
    oc_dom: MonthlySeries
    oc_for: MonthlySeries


@dataclass(frozen=True)
class UnitRootRun:
    series: str
    report: unitroot.UnitRootReport


@dataclass(frozen=True)
class EstimationResult:
    fmols: coint.FmolsReport
    correlation: float
    delta_ratio: MonthlySeries = field(repr=False)
    delta: MonthlySeries = field(repr=False)


def _parse_float(date: str, name: str, raw: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise IngestionError(f"{date}: cannot parse {name}={raw!r}") from None


def ingest_rows(text: str) -> tuple[tuple[DatasetRow, ...], str]:
    """Parse and validate CSV text; returns (rows, schema name).

    The header must be exactly one of the two documented schemas (any
    column order): euro stock with an exchange rate, or the euro stock
    already converted to lei (then fx is fixed at 1). Rows are sorted by
    date and must form one contiguous monthly span.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise IngestionError("empty input: no header row")
    header = tuple(name.strip() for name in reader.fieldnames)
    if set(header) == set(SCHEMA_EUR_FX):
        schema = "m_eur_fx"
    elif set(header) == set(SCHEMA_EUR_LEI):
        schema = "m_eur_lei"
    else:
        raise IngestionError(
            f"header {header} matches neither {SCHEMA_EUR_FX} nor {SCHEMA_EUR_LEI}"
        )

    rows = []
    for lineno, record in enumerate(reader, start=2):
        if None in record or any(v is None for v in record.values()):
            raise IngestionError(f"line {lineno}: wrong number of fields")
        raw_date = (record["date"] or "").strip()
        try:
            date = MonthStamp.parse(raw_date)
        except DataError as exc:
            raise IngestionError(f"line {lineno}: {exc}") from None
        if schema == "m_eur_fx":
            m_eur = _parse_float(raw_date, "m_eur", record["m_eur"])
            fx = _parse_float(raw_date, "fx", record["fx"])
        else:
            m_eur = _parse_float(raw_date, "m_eur_lei", record["m_eur_lei"])
            fx = 1.0
        rows.append(
            DatasetRow(
                date=date,
                m_dom=_parse_float(raw_date, "m_dom", record["m_dom"]),
                m_eur=m_eur,
                fx=fx,
                i_dom=_parse_float(raw_date, "i_dom", record["i_dom"]),
                i_eur=_parse_float(raw_date, "i_eur", record["i_eur"]),
            )
        )
    if not rows:
        raise IngestionError("no data rows")

    rows.sort(key=lambda r: r.date)
    for prev, cur in zip(rows, rows[1:]):
        if cur.date == prev.date:
            raise IngestionError(f"duplicate month {cur.date}")
        if cur.date != prev.date.shift(1):
            raise IngestionError(
                f"gap in months: missing {prev.date.shift(1)} "
                f"between {prev.date} and {cur.date}"
            )
    return tuple(rows), schema


def ingest(path: str) -> IngestResult:
    """Read, validate and fingerprint a dataset file."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from None
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        # utf-8-sig drops a leading byte-order mark; the digest keeps it.
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path} is not UTF-8 text: {exc}") from None
    rows, schema = ingest_rows(text)
    return IngestResult(rows=rows, schema=schema, digest=digest)


def _annual_pct_to_monthly(rate_pct: float) -> float:
    return model.annual_to_monthly_cost(rate_pct / 100.0)


def derive_series(rows: tuple[DatasetRow, ...], config: PipelineConfig) -> DerivedSeries:
    """Build the model series from validated rows.

    Log money ratio ln(fx * m_eur / m_dom); rates converted from annual
    percent to monthly decimals geometrically; opportunity costs with
    the monthly equivalent of the configured annual holding cost; the
    spread is the log opportunity-cost difference.
    """
    if not rows:
        raise DataError("no rows to derive from")
    phi_monthly = model.annual_to_monthly_cost(config.phi_annual)
    start = rows[0].date
    ratio = np.empty(len(rows))
    oc_dom = np.empty(len(rows))
    oc_for = np.empty(len(rows))
    for k, row in enumerate(rows):
        ratio[k] = math.log(row.fx * row.m_eur / row.m_dom)
        try:
            oc_dom[k] = model.opportunity_cost(
                _annual_pct_to_monthly(row.i_dom), phi_monthly
            )
            oc_for[k] = model.opportunity_cost(
                _annual_pct_to_monthly(row.i_eur), phi_monthly
            )
        except ParameterError as exc:
            raise SeriesDomainError(f"{row.date}: {exc}") from None
    spread = np.log(oc_dom) - np.log(oc_for)
    return DerivedSeries(
        log_money_ratio=MonthlySeries(start, ratio),
        oc_spread_log=MonthlySeries(start, spread),
        oc_dom=MonthlySeries(start, oc_dom),
        oc_for=MonthlySeries(start, oc_for),
    )


def run_unit_roots(
    derived: DerivedSeries, config: PipelineConfig
) -> tuple[UnitRootRun, ...]:
    """The 2 series x 2 tests x 2 deterministic specs report grid."""
    runs = []
    for name in ("log_money_ratio", "oc_spread_log"):
        series = getattr(derived, name)
        for spec in unitroot.DETERMINISTIC_KINDS:
            runs.append(
                UnitRootRun(
                    series=name,
                    report=unitroot.adf_test(
                        series, spec, lags=config.lags, max_lags=config.max_lags
                    ),
                )
            )
        for spec in unitroot.DETERMINISTIC_KINDS:
            runs.append(
                UnitRootRun(
                    series=name,
                    report=unitroot.pp_test(series, spec, bandwidth=config.bandwidth),
                )
            )
    return tuple(runs)


def run_estimation(derived: DerivedSeries, config: PipelineConfig) -> EstimationResult:
    """Quadratic-trend fully modified fit plus the share-ratio path.

    Bundles the regression report, the correlation between the log money
    ratio and the spread, and the fitted (1-delta)/delta path evaluated
    over the sample dates with the disturbance set to zero.
    """
    y = derived.log_money_ratio
    x = derived.oc_spread_log
    if len(y) < 30:
        raise DataError(f"need at least 30 observations, got {len(y)}")
    origin = config.resolved_origin(y.start)
    report = coint.fmols(
        y,
        x,
        deterministics=coint.QUADRATIC_TREND,
        bandwidth=config.bandwidth,
        trend_origin=origin,
    )
    corr = pearson_correlation(y, x)
    if not report.sigma > 0.0:
        # The share-path inversion divides by sigma; a nonpositive fit
        # means the sample carries no usable substitution signal.
        raise DegeneracyError(
            f"fitted sigma {report.sigma:.6g} is not positive; "
            "share path undefined"
        )
    coeffs = report.trend_coefficients()
    offset = y.start.index - origin.index
    ratio = np.array(
        [model.delta_ratio_at(offset + k, coeffs) for k in range(len(y))]
    )
    delta = np.array([model.delta_at(offset + k, coeffs) for k in range(len(y))])
    return EstimationResult(
        fmols=report,
        correlation=corr,
        delta_ratio=MonthlySeries(y.start, ratio),
        delta=MonthlySeries(y.start, delta),
    )


@dataclass(frozen=True)
class MonteCarloConfig:
    """Settings for the simulation-estimation validation loop."""

    n_seeds: int
    n_obs: int
    coeffs: model.TrendCoefficients
    noise: model.DgpNoise
    seed_base: int = 0

    def __post_init__(self) -> None:
        if self.n_seeds < 10:
            raise ParameterError(f"need n_seeds >= 10, got {self.n_seeds}")


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


def run_montecarlo(mc: MonteCarloConfig) -> dict:
    """Repeated simulate -> estimate, summarized.

    For every seed the simulated draw is estimated by the fully modified
    regression; the spread (an exact random walk) and the disturbance
    (stationary by construction) are each run through the ADF test to
    track false rejections and power at the 5% level. Seeds are
    seed_base + 0..n_seeds-1, so the summary is reproducible.
    """
    estimates: dict[str, list[float]] = {"v0": [], "v1": [], "v2": [], "sigma": []}
    lc_rejections = 0
    adf_spread_rejections = 0
    adf_eps_rejections = 0
    for k in range(mc.n_seeds):
        sim = model.simulate_dgp(mc.coeffs, mc.n_obs, mc.noise, mc.seed_base + k)
        report = coint.fmols(sim.log_money_ratio, sim.oc_spread_log)
        for name in estimates:
            estimates[name].append(report.params[name])
        if report.lc_stable_at_10pct is False:
            lc_rejections += 1
        spread_adf = unitroot.adf_test(sim.oc_spread_log, unitroot.INTERCEPT)
        if spread_adf.reject_at["5%"]:
            adf_spread_rejections += 1
        eps_adf = unitroot.adf_test(sim.eps, unitroot.INTERCEPT)
        if eps_adf.reject_at["5%"]:
            adf_eps_rejections += 1

    truth = {
        "v0": mc.coeffs.v0,
        "v1": mc.coeffs.v1,
        "v2": mc.coeffs.v2,
        "sigma": mc.coeffs.sigma,
    }
    return {
        "n_seeds": mc.n_seeds,
        "n_obs": mc.n_obs,
        "seed_base": mc.seed_base,
        "truth": truth,
        "noise": {
            "spread_sd": mc.noise.spread_sd,
            "rho": mc.noise.rho,
            "eps_sd": mc.noise.eps_sd,
        },
        "estimates": {name: _quartiles(vals) for name, vals in estimates.items()},
        "lc_reject_at_10pct": lc_rejections / mc.n_seeds,
        "adf_spread_reject_at_5pct": adf_spread_rejections / mc.n_seeds,
        "adf_eps_reject_at_5pct": adf_eps_rejections / mc.n_seeds,
    }


def dataset_rows_from_simulation(
    sim: model.SimulatedDgp,
    phi_annual: float = 0.01,
    i_eur_annual_pct: float = 4.0,
    m_dom_level: float = 1.0e10,
) -> tuple[DatasetRow, ...]:
    """Invert the derivation: wrap a simulated draw as a raw dataset.

    The domestic stock and the euro-area rate are held constant and the
    exchange rate is 1, so the euro stock carries the log money ratio
    and the domestic rate carries the spread. Pushing the result through
    ingest/derive reproduces the simulated series up to serialization
    rounding.
    """
    phi_monthly = model.annual_to_monthly_cost(phi_annual)
    i_for_monthly = _annual_pct_to_monthly(i_eur_annual_pct)
    oc_for = model.opportunity_cost(i_for_monthly, phi_monthly)
    rows = []
    dates = sim.log_money_ratio.dates()
    for k, date in enumerate(dates):
        oc_dom = oc_for * math.exp(sim.oc_spread_log.values[k])
        if not oc_dom < 1.0:
            raise DataError(f"{date}: spread too large to invert into a rate")
        i_dom_monthly = (oc_dom - phi_monthly) / (1.0 - oc_dom)
        i_dom_annual_pct = ((1.0 + i_dom_monthly) ** 12 - 1.0) * 100.0
        rows.append(
            DatasetRow(
                date=date,
                m_dom=m_dom_level,
                m_eur=m_dom_level * math.exp(sim.log_money_ratio.values[k]),
                fx=1.0,
                i_dom=i_dom_annual_pct,
                i_eur=i_eur_annual_pct,
            )
        )
    return tuple(rows)


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def dataset_csv_text(rows: tuple[DatasetRow, ...]) -> str:
    """Render rows in the primary input schema.

    Twelve significant digits, not the report-level nine: the derivation
    exponentiates the stored columns, so nine digits here would not keep
    the re-ingested coefficients within 1e-9 of the in-memory fit.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SCHEMA_EUR_FX)
    for row in rows:
        writer.writerow(
            [
                str(row.date),
                format(float(row.m_dom), ".12g"),
                format(float(row.m_eur), ".12g"),
                format(float(row.fx), ".12g"),
                format(float(row.i_dom), ".12g"),
                format(float(row.i_eur), ".12g"),
            ]
        )
    return out.getvalue()


def write_dataset_csv(rows: tuple[DatasetRow, ...], path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(dataset_csv_text(rows))


def _round_floats(obj):
    """Round every float to 9 significant digits, mapping non-finite to None."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(item) for item in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _unit_root_entry(run: UnitRootRun) -> dict:
    report = run.report
    return {
        "series": run.series,
        "test": report.test,
        "spec": report.spec,
        "statistic": report.statistic,
        "lags_or_bandwidth": report.lags_or_bandwidth,
        "critical_values": dict(report.critical_values),
        "approx_p_value": report.approx_p_value,
        "reject_at": dict(report.reject_at),
        "n_obs": report.n_obs,
    }


def _fmols_entry(report: coint.FmolsReport) -> dict:
    return {
        "deterministics": report.deterministics,
        "params": dict(report.params),
        "standard_errors": dict(report.standard_errors),
        "t_statistics": dict(report.t_statistics),
        "r_squared": report.r_squared,
        "n_obs": report.n_obs,
        "bandwidth": report.lrc.bandwidth,
        "degenerate_inference": report.degenerate_inference,
        "lc_statistic": report.lc_statistic,
        "lc_p_value_range": (
            None
            if report.lc_p_value_range is None
            else list(report.lc_p_value_range)
        ),
        "lc_stable_at_10pct": report.lc_stable_at_10pct,
    }


def build_report(
    config: PipelineConfig,
    ingested: IngestResult,
    unit_roots: tuple[UnitRootRun, ...] | None = None,
    estimation: EstimationResult | None = None,
) -> dict:
    """Assemble the full machine-readable report document."""
    rows = ingested.rows
    doc = {
        "config": config.metadata(rows[0].date),
        "input_digest": ingested.digest,
        "input_schema": ingested.schema,
        "rows": len(rows),
        "start": str(rows[0].date),
        "end": str(rows[-1].date),
        "unit_roots": None,
        "fmols": None,
        "delta_path": None,
        "correlation": None,
    }
    if unit_roots is not None:
        doc["unit_roots"] = [_unit_root_entry(run) for run in unit_roots]
    if estimation is not None:
        doc["fmols"] = _fmols_entry(estimation.fmols)
        doc["delta_path"] = [
            {
                "date": str(date),
                "ratio": float(estimation.delta_ratio.values[k]),
                "delta": float(estimation.delta.values[k]),
            }
            for k, date in enumerate(estimation.delta_ratio.dates())
        ]
        doc["correlation"] = estimation.correlation
    return doc


def render_report(doc: dict, output_format: str = "json") -> str:
    """Serialize a report document; floats at 9 significant digits."""
    doc = _round_floats(doc)
    if output_format == "json":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if output_format == "csv":
        return _render_report_csv(doc)
    raise ParameterError(f"unknown output format {output_format!r}")


def _render_report_csv(doc: dict) -> str:
    """Flat key,value rendering; array sections become one row per entry."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["section", "key", "value"])

    def emit(section: str, payload, prefix: str = "") -> None:
        if isinstance(payload, dict):
            for key, value in payload.items():
                emit(section, value, f"{prefix}{key}.")
        elif isinstance(payload, list):
            for idx, value in enumerate(payload):
                emit(section, value, f"{prefix}{idx}.")
        else:
            writer.writerow([section, prefix.rstrip("."), "" if payload is None else payload])

    for section, payload in doc.items():
        emit(section, payload)
    return out.getvalue()


def render_delta_path_csv(estimation: EstimationResult) -> str:
    """Two-column date,ratio rendering of the fitted share-ratio path."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date", "ratio"])
    for k, date in enumerate(estimation.delta_ratio.dates()):
        writer.writerow([str(date), _fmt(estimation.delta_ratio.values[k])])
    return out.getvalue()
