"""Batch pipeline: CSV in, derived series, reports out.

The flow is ingest -> derive -> (unit roots | estimation | delta path),
plus a synthetic-dataset writer that inverts the derivation so simulated
draws can be pushed through the exact same path, and a Monte Carlo
driver for validating the estimators, which runs its seeds in blocks
through the stacked kernels (see :func:`run_montecarlo`). Everything
here is a pure function
of its inputs; the CLI layer owns argument parsing and process exit
codes.

Serialization rule: every float in an emitted report is rounded to 9
significant digits, which makes repeated runs byte-identical and report
files diffable. :func:`render_report` walks the report document once and
rounds each float as it writes it; its JSON is the text that
``json.dumps(indent=2, allow_nan=False)`` gives the rounded document
(report keys are strings; any other key is refused with ``TypeError``),
and its CSV has one row per value.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import operator
import statistics
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import coint, model, unitroot
from .errors import (
    CurrsubError,
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
        for name in SCHEMA_EUR_FX[1:]:
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
        # Settings may come from a JSON file, so types are checked first.
        for name in ("lags", "max_lags", "bandwidth"):
            value = getattr(self, name)  # exactly int: a bool is refused too
            if type(value) is not int and (value is not None or name == "max_lags"):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        phi, origin = self.phi_annual, self.trend_origin
        if isinstance(phi, bool) or not isinstance(phi, (int, float)):
            raise ParameterError(f"phi_annual must be a number, got {phi!r}")
        if origin is not None and not isinstance(origin, MonthStamp):
            raise ParameterError(f"trend_origin must be a month, got {origin!r}")
        if not math.isfinite(self.phi_annual) or self.phi_annual <= -1.0:
            raise ParameterError(f"phi_annual must exceed -1, got {self.phi_annual}")
        for name in ("lags", "max_lags", "bandwidth"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ParameterError(f"{name} must be >= 0, got {value}")
        if self.output_format not in ("json", "csv"):
            raise ParameterError(
                f"output_format must be json or csv, got {self.output_format!r}"
            )

    def resolved_origin(self, first: MonthStamp | None) -> MonthStamp | None:
        return self.trend_origin if self.trend_origin is not None else first

    def metadata(self, first: MonthStamp | None = None) -> dict:
        origin = self.resolved_origin(first)
        return {
            "phi_annual": self.phi_annual,
            "lag_policy": "fixed" if self.lags is not None else "aic",
            "lags": self.lags,
            "max_lags": self.max_lags,
            "bandwidth_policy": "fixed" if self.bandwidth is not None else "newey_west",
            "bandwidth": self.bandwidth,
            "trend_origin": None if origin is None else str(origin),
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


# Per schema, the value columns in the order a row parses them, which is
# the order in which a row with several bad values names the first.
_PARSE_ORDER = {
    "m_eur_fx": ("m_eur", "fx", "m_dom", "i_dom", "i_eur"),
    "m_eur_lei": ("m_eur_lei", "m_dom", "i_dom", "i_eur"),
}


def _csv_records(text: str):
    """(physical line, fields) of each CSV record; a malformed one is refused."""
    # newline=None reads a lone CR as a line end, and line_num stays physical.
    reader = csv.reader(io.StringIO(text, newline=None))
    try:
        for values in reader:
            yield reader.line_num, values
    except csv.Error as exc:
        raise IngestionError(f"line {reader.line_num}: {exc}") from None


def ingest_rows(text: str) -> tuple[tuple[DatasetRow, ...], str]:
    """Parse and validate CSV text; returns (rows, schema name).

    The header must be exactly one of the two documented schemas (any
    column order): euro stock with an exchange rate, or the euro stock
    already converted to lei (then fx is fixed at 1). Blank lines are
    skipped, and a refused row is named by its physical line. Lines may
    end in LF, CRLF or CR alone. Rows are sorted by date and must form
    one contiguous monthly span.
    """
    records = _csv_records(text)
    _, names = next(records, (0, None))
    if names is None:
        raise IngestionError("empty input: no header row")
    header = tuple(name.strip() for name in names)
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise IngestionError(f"repeated columns in header: {repeated}")
    if set(header) == set(SCHEMA_EUR_FX):
        schema = "m_eur_fx"
    elif set(header) == set(SCHEMA_EUR_LEI):
        schema = "m_eur_lei"
    else:
        raise IngestionError(
            f"header {header} matches neither {SCHEMA_EUR_FX} nor {SCHEMA_EUR_LEI}"
        )
    column = {name: k for k, name in enumerate(header)}
    date_column = column["date"]
    value_columns = [(name, column[name]) for name in _PARSE_ORDER[schema]]

    months = []  # (month index, row) pairs
    for line, values in records:
        if not values:
            continue
        if len(values) != len(header):
            raise IngestionError(f"line {line}: wrong number of fields")
        raw_date = values[date_column].strip()
        try:
            date = MonthStamp.parse(raw_date)
        except DataError as exc:
            raise IngestionError(f"line {line}: {exc}") from None
        parsed = [_parse_float(raw_date, name, values[k]) for name, k in value_columns]
        if schema == "m_eur_fx":
            m_eur, fx, m_dom, i_dom, i_eur = parsed
        else:
            m_eur, m_dom, i_dom, i_eur = parsed
            fx = 1.0
        months.append((date.index, DatasetRow(date, m_dom, m_eur, fx, i_dom, i_eur)))
    if not months:
        raise IngestionError("no data rows")

    months.sort(key=operator.itemgetter(0))
    for (prev_index, prev), (index, cur) in zip(months, months[1:]):
        if index == prev_index:
            raise IngestionError(f"duplicate month {cur.date}")
        if index != prev_index + 1:
            raise IngestionError(
                f"gap in months: missing {prev.date.shift(1)} "
                f"between {prev.date} and {cur.date}"
            )
    return tuple(row for _, row in months), schema


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
        money_ratio = row.fx * row.m_eur / row.m_dom
        if not 0.0 < money_ratio < math.inf:
            raise SeriesDomainError(
                f"{row.date}: fx * m_eur / m_dom is outside the floating-point range"
            )
        ratio[k] = math.log(money_ratio)
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
    )


def run_unit_roots(
    derived: DerivedSeries, config: PipelineConfig
) -> tuple[UnitRootRun, ...]:
    """The 2 series x 2 tests x 2 deterministic specs report grid."""
    # Looked up per call, so a wrapper swapped into unitroot is honoured.
    tests = (
        (unitroot.adf_test, {"lags": config.lags, "max_lags": config.max_lags}),
        (unitroot.pp_test, {"bandwidth": config.bandwidth}),
    )
    return tuple(
        UnitRootRun(series=name, report=test(getattr(derived, name), spec, **settings))
        for name in ("log_money_ratio", "oc_spread_log")
        for test, settings in tests
        for spec in unitroot.DETERMINISTIC_KINDS
    )


def run_estimation(derived: DerivedSeries, config: PipelineConfig) -> EstimationResult:
    """Quadratic-trend fully modified fit plus the share-ratio path.

    Bundles the regression report, the correlation between the log money
    ratio and the spread, and the fitted (1-delta)/delta path evaluated
    over the sample dates with the disturbance set to zero.
    """
    y = derived.log_money_ratio
    x = derived.oc_spread_log
    origin = config.resolved_origin(y.start)
    report = coint.fmols(
        y,
        x,
        deterministics=coint.QUADRATIC_TREND,
        bandwidth=config.bandwidth,
        trend_origin=origin,
    )
    corr = pearson_correlation(y, x)
    sigma = report.params["sigma"]
    if not sigma > 0.0:
        # The share-path inversion divides by sigma; a nonpositive fit
        # means the sample carries no usable substitution signal.
        raise DegeneracyError(
            f"fitted sigma {sigma:.6g} is not positive; "
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
        if self.seed_base < 0:
            raise ParameterError(f"seed_base must be >= 0, got {self.seed_base}")


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


# Design rows (seeds x n_obs) per Monte Carlo block, 29 seeds at 171
# months. At 200 seeds x 171 months on 2 vCPUs, one seed at a time takes
# 198 ms; blocks of 10 seeds take 79 ms and peak 0.2 MB higher, blocks
# of 29 seeds 60 ms and +1.4 MB, blocks of 58 seeds 54 ms and +3.0 MB.
_MONTECARLO_BLOCK_ROWS = 5_000
_REJECTION_KEYS = (
    "lc_reject_at_10pct",
    "adf_spread_reject_at_5pct",
    "adf_eps_reject_at_5pct",
)


def _montecarlo_block(mc: MonteCarloConfig, seeds: range) -> tuple:
    """The FM-OLS coefficients of a block of seeds, one row per seed, and
    per seed its Lc rejection at 10% and its spread and eps ADF
    rejections at 5%, in the order of _REJECTION_KEYS."""
    y, spread, eps = model.simulate_paths(mc.coeffs, mc.n_obs, mc.noise, seeds)
    fit = coint.fmols_stack(y, spread)
    lc_rejects = [lc is not None and not lc.stable_at_10pct for lc in fit.lc]
    adf_rejects = [
        [rep.reject_at["5%"] for rep in unitroot.adf_stack(series, unitroot.INTERCEPT)]
        for series in (spread, eps)
    ]
    return fit.theta, (lc_rejects, *adf_rejects)


def _first_refusal(mc: MonteCarloConfig, seeds: range) -> CurrsubError | None:
    """The refusal of the lowest seed that refuses when run alone."""
    for k in range(len(seeds)):
        try:
            _montecarlo_block(mc, seeds[k : k + 1])
        except CurrsubError as exc:
            return exc
    return None


def run_montecarlo(mc: MonteCarloConfig) -> dict:
    """Repeated simulate -> estimate, summarized.

    For every seed the simulated draw is estimated by the fully modified
    regression; the spread (an exact random walk) and the disturbance
    (stationary by construction) are each run through the ADF test to
    track false rejections and power at the 5% level. Seeds are
    seed_base + 0..n_seeds-1, so the summary is reproducible.

    Seeds run in blocks of about 5,000 design rows (seeds x n_obs), each
    block through the stacked kernels (``model.simulate_paths``,
    ``coint.fmols_stack``, ``unitroot.adf_stack``). Every seed keeps its
    own generator and draws, and gets the bits a lone run of it gives.
    The block size is a constant, not a setting: it moves no result,
    only time and memory, and a fixed number of rows keeps peak memory
    flat in both n_seeds and n_obs. A refusal is the one a seed-by-seed
    run raises first: the lowest refusing seed, and within it the
    simulation, then FM-OLS, then the spread ADF, then the eps ADF. A
    block that refuses is rerun one seed at a time to find it.
    """
    block = max(1, _MONTECARLO_BLOCK_ROWS // mc.n_obs)
    seeds = range(mc.seed_base, mc.seed_base + mc.n_seeds)
    thetas = []
    rejections: dict[str, list[bool]] = {key: [] for key in _REJECTION_KEYS}
    for first in range(0, mc.n_seeds, block):
        chunk = seeds[first : first + block]
        try:
            theta, flags = _montecarlo_block(mc, chunk)
        except CurrsubError as exc:
            raise _first_refusal(mc, chunk) or exc from None
        thetas.append(theta)
        for key, block_flags in zip(_REJECTION_KEYS, flags):
            rejections[key].extend(block_flags)
    theta = np.concatenate(thetas)
    truth = dataclasses.asdict(mc.coeffs)
    return {
        "n_seeds": mc.n_seeds,
        "n_obs": mc.n_obs,
        "seed_base": mc.seed_base,
        "truth": truth,
        "noise": dataclasses.asdict(mc.noise),
        "estimates": {
            name: _quartiles(theta[:, j].tolist()) for j, name in enumerate(truth)
        },
        **{key: sum(flags) / mc.n_seeds for key, flags in rejections.items()},
    }


# The constant euro-area rate (percent per annum) and domestic money stock
# (lei) of a simulated dataset.
_SIM_I_EUR_ANNUAL_PCT = 4.0
_SIM_M_DOM_LEVEL = 1.0e10


def _exp(value: float) -> float:
    """math.exp, inf where it overflows: the caller's range check refuses it."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def dataset_rows_from_simulation(
    sim: model.SimulatedDgp, phi_annual: float = PipelineConfig.phi_annual
) -> tuple[DatasetRow, ...]:
    """Invert the derivation: wrap a simulated draw as a raw dataset.

    The domestic stock and the euro-area rate are held constant and the
    exchange rate is 1, so the euro stock carries the log money ratio
    and the domestic rate carries the spread. Pushing the result through
    ingest/derive reproduces the simulated series up to serialization
    rounding.
    """
    phi_monthly = model.annual_to_monthly_cost(phi_annual)
    i_for_monthly = _annual_pct_to_monthly(_SIM_I_EUR_ANNUAL_PCT)
    oc_for = model.opportunity_cost(i_for_monthly, phi_monthly)
    rows = []
    dates = sim.log_money_ratio.dates()
    for k, date in enumerate(dates):
        oc_dom = oc_for * _exp(sim.oc_spread_log.values[k])
        if not oc_dom < 1.0:
            raise DataError(f"{date}: spread too large to invert into a rate")
        i_dom_monthly = (oc_dom - phi_monthly) / (1.0 - oc_dom)
        i_dom_annual_pct = ((1.0 + i_dom_monthly) ** 12 - 1.0) * 100.0
        rows.append(
            DatasetRow(
                date=date,
                m_dom=_SIM_M_DOM_LEVEL,
                m_eur=_SIM_M_DOM_LEVEL * _exp(sim.log_money_ratio.values[k]),
                fx=1.0,
                i_dom=i_dom_annual_pct,
                i_eur=_SIM_I_EUR_ANNUAL_PCT,
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
            [str(row.date)]
            + [format(float(getattr(row, name)), ".12g") for name in SCHEMA_EUR_FX[1:]]
        )
    return out.getvalue()


def write_dataset_csv(rows: tuple[DatasetRow, ...], path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(dataset_csv_text(rows))


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


# A unit-root entry is the run's series name, then these fields in order.
_UNIT_ROOT_FIELDS = tuple(f.name for f in dataclasses.fields(unitroot.UnitRootReport))


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
        doc["unit_roots"] = [
            {
                "series": run.series,
                **{name: getattr(run.report, name) for name in _UNIT_ROOT_FIELDS},
            }
            for run in unit_roots
        ]
    if estimation is not None:
        doc["fmols"] = _fmols_entry(estimation.fmols)
        doc["delta_path"] = [
            {"date": label, "ratio": ratio, "delta": delta}
            for label, ratio, delta in zip(
                estimation.delta_ratio.labels(),
                estimation.delta_ratio.values.tolist(),
                estimation.delta.values.tolist(),
            )
        ]
        doc["correlation"] = estimation.correlation
    return doc


def _round(value: float) -> float | None:
    """A report float: 9 significant digits, None where it is not finite."""
    return float(_fmt(value)) if math.isfinite(value) else None


def _json_chunks(obj, indent: str, out: list) -> None:
    """Append the text json.dumps(indent=2) gives ``obj`` at nesting
    ``indent``, each float rounded by :func:`_round` as it is written."""
    if isinstance(obj, float):
        value = _round(obj)
        out.append("null" if value is None else float.__repr__(value))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _json_chunks(value, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for value in obj:
            out.append(separator)
            _json_chunks(value, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_report(doc: dict, output_format: str = "json") -> str:
    """Serialize a report document in one walk; floats at 9 significant
    digits, non-finite ones as null (json) or an empty value (csv)."""
    if output_format == "json":
        out: list[str] = []
        _json_chunks(doc, "", out)
        out.append("\n")
        return "".join(out)
    if output_format == "csv":
        return _render_report_csv(doc)
    raise ParameterError(f"unknown output format {output_format!r}")


def _render_report_csv(doc: dict) -> str:
    """Flat key,value rendering; array sections become one row per entry."""
    rows: list[list] = [["section", "key", "value"]]
    for section, payload in doc.items():
        _csv_rows(section, payload, "", rows)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _csv_rows(section, payload, prefix: str, rows: list) -> None:
    """Append one [section, dotted key, value] row per leaf of ``payload``.

    A module function, not a closure: a recursive closure is a reference
    cycle, which would keep ``rows`` alive until the cyclic collector runs
    (1.5 MB more peak memory in perfbench's ``estimate_batch``).
    """
    if isinstance(payload, dict):
        for key, value in payload.items():
            _csv_rows(section, value, f"{prefix}{key}.", rows)
    elif isinstance(payload, (list, tuple)):
        for idx, value in enumerate(payload):
            _csv_rows(section, value, f"{prefix}{idx}.", rows)
    else:
        if isinstance(payload, float):
            payload = _round(payload)
        elif not (payload is None or isinstance(payload, (int, str))):
            raise TypeError(f"cannot serialize {type(payload).__name__}")
        rows.append([section, prefix.rstrip("."), "" if payload is None else payload])


def render_delta_path_csv(estimation: EstimationResult) -> str:
    """Two-column date,ratio rendering of the fitted share-ratio path."""
    path = estimation.delta_ratio
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date", "ratio"])
    writer.writerows(zip(path.labels(), map(_fmt, path.values.tolist())))
    return out.getvalue()
