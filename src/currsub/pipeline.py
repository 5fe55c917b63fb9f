"""Batch pipeline: CSV in, derived series, reports out.

The flow is ingest -> derive -> (unit roots | estimation | delta path),
plus a synthetic-dataset writer that inverts the derivation so simulated
draws can be pushed through the exact same path, and a Monte Carlo
driver for validating the estimators, which runs its seeds in blocks
through the stacked kernels (see :func:`run_montecarlo`). A dataset is
columnar (:class:`Dataset`): ingest builds no object per row, derivation
runs a column at a time, the unit-root grid tests both series as one
ADF and one PP stack per spec, and the share path is evaluated on the
whole month column. A unit-root stack or a Monte Carlo block that refuses
reruns its cells or seeds alone only to raise the refusal a one-by-one run
meets first; results come from the batch alone. Everything here is a pure
function of its inputs; the CLI layer owns argument parsing and process
exit codes.

Serialization rule: every float in an emitted report is rounded to 9
significant digits, which makes repeated runs byte-identical and report
files diffable. :func:`render_report` walks the report document once and
writes each float as :func:`_float_text` gives it; its JSON is the text that
``json.dumps(indent=2, allow_nan=False)`` gives the rounded document
(report keys are strings; both formats refuse any other key with
``TypeError``), and its CSV has one row per value.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import statistics
from collections import namedtuple
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
    "Dataset",
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
_COLUMNS = SCHEMA_EUR_FX[1:]
# A month of a Dataset, as iteration gives it: its MonthStamp, then floats.
DatasetRow = namedtuple("DatasetRow", SCHEMA_EUR_FX)
# What each row rule requires, in the order a row's rules are checked.
_ROW_RULES = (*(f"{name} is not finite" for name in _COLUMNS), "money stocks must be > 0",
              "exchange rate must be > 0", "i_dom below -99% per annum", "i_eur below -99% per annum")


def _row_defect(columns: list[np.ndarray]) -> tuple[int, str] | None:
    """(position, rule) of the first row of the columns to break a rule, or None."""
    m_dom, m_eur, fx, i_dom, i_eur = columns
    broken = np.array([*(~np.isfinite(column) for column in columns),
                       (m_dom <= 0.0) | (m_eur <= 0.0), fx <= 0.0, i_dom <= -99.0, i_eur <= -99.0])
    k = int(broken.any(axis=0).argmax()) if broken.any() else None
    return None if k is None else (k, _ROW_RULES[int(broken[:, k].argmax())])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Raw inputs of a contiguous monthly span, row k of each read-only float64
    column in month ``start.shift(k)``: money stocks in lei and euro, the
    lei-per-euro rate and two rates in percent per annum. The first month
    that breaks a row rule (:func:`_row_defect`) is refused."""

    start: MonthStamp
    m_dom: np.ndarray = field(repr=False)
    m_eur: np.ndarray = field(repr=False)
    fx: np.ndarray = field(repr=False)
    i_dom: np.ndarray = field(repr=False)
    i_eur: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        columns = [np.array(getattr(self, name), dtype=float) for name in _COLUMNS]
        if len({column.shape for column in columns}) != 1 or columns[0].ndim != 1:
            raise DataError("a dataset's columns must be 1-D and of one length")
        if (defect := _row_defect(columns)) is not None:
            raise IngestionError(f"{self.start.shift(defect[0])}: {defect[1]}")
        for name, column in zip(_COLUMNS, columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.m_dom.size

    def __iter__(self):
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        return (DatasetRow(self.start.shift(k), *row) for k, row in enumerate(rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and self.start == other.start and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )


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
    rows: Dataset
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


def ingest_rows(text: str) -> tuple[Dataset, str]:
    """Parse and validate CSV text; returns (dataset, schema name).

    The header must be exactly one of the two documented schemas (any
    column order): euro stock with an exchange rate, or the euro stock
    already converted to lei (then fx is fixed at 1). Blank lines are
    skipped, and a refused row is named by its physical line. Lines may
    end in LF, CRLF or CR alone. Rows are sorted by date and must form
    one contiguous monthly span. A refusal is the first in file order, or
    else a duplicate or missing month.
    """
    # newline=None reads a lone CR as a line end, and line_num stays physical.
    reader = csv.reader(io.StringIO(text, newline=None))
    try:
        names = next(reader, None)
    except csv.Error as exc:
        raise IngestionError(f"line {reader.line_num}: {exc}") from None
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

    indices, parsed, failure = [], [], None  # failure: the record that ends the scan
    try:
        for values in reader:
            if not values:
                continue
            if len(values) != len(header):
                raise IngestionError(f"line {reader.line_num}: wrong number of fields")
            try:
                index = MonthStamp.parse_index(values[date_column].strip())
            except DataError as exc:
                raise IngestionError(f"line {reader.line_num}: {exc}") from None
            try:
                parsed.append([float(values[k]) for _, k in value_columns])
            except ValueError:  # parsed field by field, to word the refusal
                for name, k in value_columns:
                    _parse_float(values[date_column].strip(), name, values[k])
            indices.append(index)
    except csv.Error as exc:
        failure = IngestionError(f"line {reader.line_num}: {exc}")
    except IngestionError as exc:
        failure = exc
    if not parsed:
        raise failure or IngestionError("no data rows")
    named = dict(zip(_PARSE_ORDER[schema], map(np.array, zip(*parsed))))
    if schema == "m_eur_lei":
        named.update(m_eur=named.pop("m_eur_lei"), fx=np.ones(len(parsed)))
    columns = [named[name] for name in _COLUMNS]
    if (defect := _row_defect(columns)) is not None:
        raise IngestionError(f"{MonthStamp.from_index(indices[defect[0]])}: {defect[1]}")
    if failure is not None:
        raise failure

    order = np.argsort(indices, kind="stable")
    months = np.array(indices)[order].tolist()
    for prev, cur in zip(months, months[1:]):
        if cur != prev + 1:
            prev, cur = MonthStamp.from_index(prev), MonthStamp.from_index(cur)
            if cur == prev:
                raise IngestionError(f"duplicate month {cur}")
            raise IngestionError(f"gap in months: missing {prev.shift(1)} between {prev} and {cur}")
    return Dataset(MonthStamp.from_index(months[0]), *(column[order] for column in columns)), schema


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


def derive_series(data: Dataset, config: PipelineConfig) -> DerivedSeries:
    """Build the model series from a dataset, a column at a time.

    Log money ratio ln(fx * m_eur / m_dom); rates converted from annual
    percent to monthly decimals geometrically; opportunity costs with
    the monthly equivalent of the configured annual holding cost; the
    spread is the log opportunity-cost difference. Arithmetic runs on whole
    columns; ``math`` takes logarithms and converts rates value by value.
    """
    phi_monthly = model.annual_to_monthly_cost(config.phi_annual)
    with np.errstate(over="ignore"):  # an infinite ratio is refused below
        ratio = data.fx * data.m_eur / data.m_dom
    # A dataset's rates are finite and exceed -99% a year: none is checked again.
    rates = [np.array(list(map(model._monthly_cost, (pct / 100.0).tolist())))
             for pct in (data.i_dom, data.i_eur)]
    bad = ~((0.0 < ratio) & (ratio < math.inf) & (np.minimum(*rates) + phi_monthly > 0.0))
    if bad.any():
        k = int(bad.argmax())
        if not 0.0 < ratio[k] < math.inf:
            raise SeriesDomainError(
                f"{data.start.shift(k)}: fx * m_eur / m_dom is outside the floating-point range"
            )
        try:
            for rate in rates:
                model.opportunity_cost(rate[k].item(), phi_monthly)
        except ParameterError as exc:
            raise SeriesDomainError(f"{data.start.shift(k)}: {exc}") from None
    oc_dom, oc_for = ((rate + phi_monthly) / (1.0 + rate) for rate in rates)
    return DerivedSeries(
        log_money_ratio=MonthlySeries(data.start, list(map(math.log, ratio.tolist()))),
        oc_spread_log=MonthlySeries(data.start, np.log(oc_dom) - np.log(oc_for)),
    )


def run_unit_roots(
    derived: DerivedSeries, config: PipelineConfig
) -> tuple[UnitRootRun, ...]:
    """The 2 series x 2 tests x 2 deterministic specs report grid; each test
    runs both series as one stack per spec, each row with its lone run's bits
    (``unitroot.adf_reports``, ``pp_reports``). If a stack refuses, each
    series' cells rerun alone, in report order, only to raise the first
    refusal."""
    names, kinds = ("log_money_ratio", "oc_spread_log"), unitroot.DETERMINISTIC_KINDS
    stack = np.stack([getattr(derived, name).values for name in names])
    tests = ((unitroot.adf_reports, {"lags": config.lags, "max_lags": config.max_lags}),
             (unitroot.pp_reports, {"bandwidth": config.bandwidth}))
    try:
        stacked = [[reports(stack, spec, **settings) for spec in kinds]
                   for reports, settings in tests]
    except CurrsubError:
        for row in stack:
            for reports, settings in tests:
                for spec in kinds:
                    reports(row, spec, **settings)
        raise
    return tuple(UnitRootRun(series=name, report=spec_reports[j])
                 for j, name in enumerate(names) for test in stacked for spec_reports in test)


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
    months = y.start.index - origin.index + np.arange(len(y))
    ratio = model.delta_ratio_at(months, coeffs)
    delta = model.delta_at(months, coeffs)
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
# months. At 200 seeds x 171 months on 2 vCPUs (medians of 9 runs, peaks
# by tracemalloc), one seed at a time takes 591 ms; blocks of 10 seeds
# take 115 ms and peak 0.4 MB higher, blocks of 29 seeds 82 ms and
# +1.3 MB, blocks of 58 seeds 86 ms and +2.8 MB.
_MONTECARLO_BLOCK_ROWS = 5_000
_REJECTION_KEYS = (
    "lc_reject_at_10pct",
    "adf_spread_reject_at_5pct",
    "adf_eps_reject_at_5pct",
)


def _montecarlo_block(mc: MonteCarloConfig, seeds: range) -> tuple:
    """The FM-OLS coefficients of a block of seeds, one row per seed, and
    per seed its Lc rejection at 10% and its spread and eps ADF
    rejections at 5%, in the order of _REJECTION_KEYS, read off the
    stacked kernels' arrays: each flag is the one the seed's report
    (``coint.fmols``, ``unitroot.adf_test``) holds."""
    y, spread, eps = model.simulate_paths(mc.coeffs, mc.n_obs, mc.noise, seeds)
    fit = coint.fmols_stack(y, spread)
    lc_critical = coint.lc_critical_value(coint.QUADRATIC_TREND, 0.10)
    # A degenerate row's Lc is NaN, which compares False: it does not reject.
    lc_rejects = (fit.lc >= lc_critical).tolist()
    adf_rejects = []
    for series in (spread, eps):
        stats, _, nobs = unitroot.adf_stack(series, unitroot.INTERCEPT)
        nobs = nobs.tolist()
        critical = {
            n: unitroot.mackinnon_critical_values(unitroot.INTERCEPT, n)["5%"]
            for n in set(nobs)
        }
        adf_rejects.append([s < critical[n] for s, n in zip(stats.tolist(), nobs)])
    return fit.theta, (lc_rejects, *adf_rejects)


def run_montecarlo(mc: MonteCarloConfig) -> dict:
    """Repeated simulate -> estimate, summarized.

    For every seed the simulated draw is estimated by the fully modified
    regression; the spread (an exact random walk) and the disturbance
    (stationary by construction) are each run through the ADF test to
    track false rejections and power at the 5% level. Seeds are
    seed_base + 0..n_seeds-1, so the summary is reproducible.

    Seeds run in blocks of about 5,000 design rows (seeds x n_obs), each
    block through the stacked kernels (``model.simulate_paths``,
    ``coint.fmols_stack``, ``unitroot.adf_stack``), whose arrays give the
    rejection flags with no per-seed record: an Lc statistic against the
    10% value, a degenerate fit counting as no rejection, and an ADF
    statistic against the 5% value of its sample size. Every seed keeps its
    own generator and draws, and gets the bits a lone run of it gives.
    The block size is a constant, not a setting: it moves no result,
    only time and memory, and a fixed number of rows keeps peak memory
    flat in both n_seeds and n_obs. A refusal is the one a seed-by-seed
    run raises first: the lowest refusing seed, and within it the
    simulation, then FM-OLS, then the spread ADF, then the eps ADF. A
    block that refuses is rerun one seed at a time, only to raise it.
    """
    # n_obs < 1 gets a full block: simulate_paths refuses it as any n < 30.
    block = max(1, _MONTECARLO_BLOCK_ROWS // max(1, mc.n_obs))
    seeds = range(mc.seed_base, mc.seed_base + mc.n_seeds)
    thetas = []
    rejections: dict[str, list[bool]] = {key: [] for key in _REJECTION_KEYS}
    for first in range(0, mc.n_seeds, block):
        chunk = seeds[first : first + block]
        try:
            theta, flags = _montecarlo_block(mc, chunk)
        except CurrsubError:
            for k in range(len(chunk)):
                _montecarlo_block(mc, chunk[k : k + 1])
            raise
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
) -> Dataset:
    """Invert the derivation: wrap a simulated draw as a raw dataset.

    The domestic stock and the euro-area rate are held constant and the
    exchange rate is 1, so the euro stock carries the log money ratio
    and the domestic rate carries the spread. Pushing the result through
    ingest/derive reproduces the simulated series up to serialization
    rounding. Refuses the first month with a spread too large to invert
    or values that break a row rule of :class:`Dataset`.
    """
    phi_monthly = model.annual_to_monthly_cost(phi_annual)
    i_for_monthly = model.annual_to_monthly_cost(_SIM_I_EUR_ANNUAL_PCT / 100.0)
    oc_for = model.opportunity_cost(i_for_monthly, phi_monthly)
    rows: list[tuple] = []
    start = sim.log_money_ratio.start
    for k, (log_ratio, spread) in enumerate(
        zip(sim.log_money_ratio.values.tolist(), sim.oc_spread_log.values.tolist())
    ):
        oc_dom = oc_for * _exp(spread)
        if not oc_dom < 1.0:  # the months before come first
            Dataset(start, *np.array(rows).reshape(-1, len(_COLUMNS)).T)
            raise DataError(f"{start.shift(k)}: spread too large to invert into a rate")
        i_dom_monthly = (oc_dom - phi_monthly) / (1.0 - oc_dom)
        i_dom_annual_pct = ((1.0 + i_dom_monthly) ** 12 - 1.0) * 100.0
        m_eur = _SIM_M_DOM_LEVEL * _exp(log_ratio)
        rows.append((_SIM_M_DOM_LEVEL, m_eur, 1.0, i_dom_annual_pct, _SIM_I_EUR_ANNUAL_PCT))
    return Dataset(start, *np.array(rows).T)


def dataset_csv_text(rows: Dataset) -> str:
    """Render rows, such as a :class:`Dataset`'s, in the primary input schema.

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


def write_dataset_csv(rows: Dataset, path: str) -> None:
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
        "lc_p_value_range": report.lc_p_value_range,  # a tuple renders as a list
        "lc_stable_at_10pct": report.lc_stable_at_10pct,
    }


def build_report(
    config: PipelineConfig,
    ingested: IngestResult,
    unit_roots: tuple[UnitRootRun, ...] | None = None,
    estimation: EstimationResult | None = None,
) -> dict:
    """Assemble the full machine-readable report document."""
    data = ingested.rows
    doc = {
        "config": config.metadata(data.start),
        "input_digest": ingested.digest,
        "input_schema": ingested.schema,
        "rows": len(data),
        "start": str(data.start),
        "end": str(data.start.shift(len(data) - 1)),
        "unit_roots": None,
        "fmols": None,
        "delta_path": None,
        "correlation": None,
    }
    if unit_roots is not None:
        # An entry is the run's series name, then its record's fields in order.
        doc["unit_roots"] = [{"series": run.series, **vars(run.report)} for run in unit_roots]
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


def _float_text(value: float) -> str | None:
    """A report float's text, the repr of its value at 9 significant digits,
    or None where it is not finite. An exponent form is reparsed: repr writes
    1e9 <= |v| < 1e16 in full, and a subnormal's 9 digits can be longer
    than its shortest ones (4.94065646e-324 for 5e-324)."""
    if not math.isfinite(value):
        return None
    text = format(value, ".9g")
    if "e" in text:
        return float.__repr__(float(text))
    return text if "." in text else text + ".0"


def _key(key) -> str:
    """A report key, which must be a string: the JSON and CSV renderers
    refuse any other key, at any depth, with the same TypeError."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return key


def _json_chunks(obj, indent: str, out: list) -> None:
    """Append the text json.dumps(indent=2) gives ``obj`` at nesting
    ``indent``, each float written by :func:`_float_text`."""
    if isinstance(obj, float):
        text = _float_text(obj)
        out.append("null" if text is None else text)
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, value in obj.items():
            out.append(separator + encode_basestring_ascii(_key(key)) + ": ")
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
        _csv_rows(_key(section), payload, "", rows)
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
            _csv_rows(section, value, f"{prefix}{_key(key)}.", rows)
    elif isinstance(payload, (list, tuple)):
        for idx, value in enumerate(payload):
            _csv_rows(section, value, f"{prefix}{idx}.", rows)
    else:
        if isinstance(payload, float):
            payload = _float_text(payload)
        elif not (payload is None or isinstance(payload, (int, str))):
            raise TypeError(f"cannot serialize {type(payload).__name__}")
        rows.append([section, prefix.rstrip("."), "" if payload is None else payload])


def render_delta_path_csv(estimation: EstimationResult) -> str:
    """Two-column date,ratio rendering of the fitted share-ratio path."""
    path = estimation.delta_ratio
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date", "ratio"])
    writer.writerows(zip(path.labels(), (format(v, ".9g") for v in path.values.tolist())))
    return out.getvalue()
