"""Six-line digest of every report and number the pipeline computes on a fixed grid.

Run it once per checkout, importing the package from ``PYTHONPATH``:

    PYTHONPATH=<parent checkout>/src python tools/report_digests.py
    PYTHONPATH=src python tools/report_digests.py

A header line, ``numpy <version>, openblas core <name>``, comes first. It
names the BLAS kernel the run loaded (``unknown`` where the library does
not say), because the bits, and rarely a rendered 9th digit, depend on
it: compare two checkouts on one kernel only. Then, equal lines mean
that a change left every report byte and every computed float bit as it
was. The grid is seeds 0-19 x n in {60, 120, 171, 240, 360} draws of the
model at the README truth, each written as a CSV file and estimated
under five configurations (default, csv output, bandwidth 0, lags 2 with
bandwidth 9, trend origin 1990-01).

The first line, ``<reports> reports, <refused> refused, sha256:<hex>``,
covers what a user reads: per run, the rendered estimate report and
delta-path CSV, or the message of the error that refused the run (a
draw whose fitted sigma is not positive, for instance); then a rendered
50-seed x 171-month Monte Carlo summary.

The second line, ``numbers: sha256:<hex>``, covers the full-precision
numbers behind them, per draw: ``float.hex`` of every FM-OLS
coefficient, standard error, t-ratio, R^2, Lc statistic, Omega, Lambda
and Gamma0 entry of ``coint.fmols`` on the raw simulated series under
all three deterministic configurations at bandwidth None, 0 and 5 (or
the refusal); then, per run rendered, of every unit-root statistic,
critical value and p-value, the same FM-OLS numbers, the correlation
and every delta-path value. A change that moves last bits but no
rendered byte moves this line and not the first.

The third line, ``montecarlo raw: <runs> runs, sha256:<hex>``, hashes the
unrounded ``run_montecarlo`` dicts (every key, value type and
``float.hex``) of 50 seeds x 171 months and 61 seeds x 400 months. The
first line's rendering keeps 9 digits, so it can miss a last-bit change
that this line catches. Neither seed count is a multiple of the Monte
Carlo's block of seeds (29 at 171 months, 12 at 400), so a partial last
block is covered.

The fourth line, ``ingest: <files> files, sha256:<hex>``, covers CSV
ingestion. Each draw of the grid is written in both input schemas (the
lei schema's ``m_eur_lei`` is fx * m_eur) and each of those as LF, CRLF
and BOM+CRLF bytes. For each such file the hash takes the
``ingest-check`` report rendered as JSON and as CSV and, month by
month, ``float.hex`` of every column of the dataset. Five broken copies
of each draw's LF file in each schema (a month left out, a month
repeated, a bad date, a row with one field too many, a ``nan`` value)
add their refusal messages. No file holds a blank line. ``<files>``
counts every file ingested.

The fifth line, ``fmols stack: <stacks> stacks, sha256:<hex>``, covers
the stacked FM-OLS rows that the Monte Carlo reads, whose Lc bits the
raw line cannot see: it hashes only rejection rates. The stacks are
the ``model.simulate_paths`` (y, spread) draws of the raw line's two
runs, each fit by ``coint.fmols_stack`` under all three deterministic
configurations at bandwidth None, 0 and 5. Per stack the hash takes
``float.hex`` of theta, the standard errors, R^2, Omega, Lambda and
Gamma0, the degenerate flags, and each row's Lc statistic or None; a
refused stack adds its message instead.

The sixth line, ``adf stack: <stacks> stacks, sha256:<hex>``, covers the
stacked ADF rows that the Monte Carlo reads, whose statistics the raw
line sees only as rejection rates. The stacks are the spread and eps
draws of the raw line's two runs, each run through
``unitroot.adf_stack`` under both deterministic specs with ``lags``
None and 2. Per row the hash takes ``float.hex`` of the statistic, the
lag and the number of observations; a refused stack adds its message
instead.

Uses only the standard library and NumPy; takes 5-11 s on a shared 2-vCPU VM.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from currsub import coint, pipeline, unitroot
from currsub.errors import CurrsubError
from currsub.model import DgpNoise, TrendCoefficients, simulate_dgp, simulate_paths
from currsub.series import MonthStamp

TRUTH = TrendCoefficients(v0=-0.037619, v1=-0.012215, v2=0.000042, sigma=0.201694)
NOISE = DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=0.05)
SEEDS = range(20)
LENGTHS = (60, 120, 171, 240, 360)
CONFIGS = (
    pipeline.PipelineConfig(),
    pipeline.PipelineConfig(output_format="csv"),
    pipeline.PipelineConfig(bandwidth=0),
    pipeline.PipelineConfig(lags=2, bandwidth=9),
    pipeline.PipelineConfig(trend_origin=MonthStamp(1990, 1)),
)
FMOLS_BANDWIDTHS = (None, 0, 5)
ADF_LAGS = (None, 2)
# (n_seeds, n_obs, seed_base) of the raw Monte Carlo runs.
MONTECARLO_RUNS = ((50, 171, 0), (61, 400, 7919))


def blas_header() -> str:
    """NumPy's version and the core name of the OpenBLAS it loaded."""
    core = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename().decode()
        break
    return f"numpy {np.__version__}, openblas core {core}"


def _hex_line(values) -> bytes:
    return (",".join(float(v).hex() for v in values) + "\n").encode()


def _fmols_floats(report: coint.FmolsReport) -> list:
    values = [
        *report.params.values(),
        *report.standard_errors.values(),
        *report.t_statistics.values(),
        report.r_squared,
    ]
    if report.lc_statistic is not None:
        values.append(report.lc_statistic)
    for mat in (report.lrc.omega, report.lrc.lam, report.lrc.gamma0):
        values.extend(mat.ravel())
    return values


def _estimate_run(path: str, config: pipeline.PipelineConfig, shown, numbers) -> None:
    """Hash one estimate run: its rendered outputs into ``shown`` and its
    full-precision numbers into ``numbers``."""
    ingested = pipeline.ingest(path)
    derived = pipeline.derive_series(ingested.rows, config)
    runs = pipeline.run_unit_roots(derived, config)
    est = pipeline.run_estimation(derived, config)
    doc = pipeline.build_report(config, ingested, unit_roots=runs, estimation=est)
    shown.update(pipeline.render_report(doc, config.output_format).encode())
    shown.update(pipeline.render_delta_path_csv(est).encode())
    for rep in (run.report for run in runs):
        numbers.update(
            _hex_line([rep.statistic, *rep.critical_values.values(), rep.approx_p_value])
        )
    numbers.update(_hex_line(_fmols_floats(est.fmols)))
    numbers.update(
        _hex_line([est.correlation, *est.delta_ratio.values, *est.delta.values])
    )


def report_digest(seeds=SEEDS) -> tuple[str, str]:
    """The rendered line and the numbers line over the grid, for the
    given simulation seeds."""
    shown = hashlib.sha256()
    numbers = hashlib.sha256()
    reports = refused = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "draw.csv")
        for seed in seeds:
            for n in LENGTHS:
                sim = simulate_dgp(TRUTH, n, NOISE, seed)
                for deterministics in coint.DETERMINISTIC_CONFIGS:
                    for bandwidth in FMOLS_BANDWIDTHS:
                        try:
                            report = coint.fmols(
                                sim.log_money_ratio,
                                sim.oc_spread_log,
                                deterministics=deterministics,
                                bandwidth=bandwidth,
                            )
                        except CurrsubError as exc:
                            numbers.update(f"fmols refused: {exc}\n".encode())
                        else:
                            numbers.update(_hex_line(_fmols_floats(report)))
                pipeline.write_dataset_csv(
                    pipeline.dataset_rows_from_simulation(sim), path
                )
                for config in CONFIGS:
                    try:
                        _estimate_run(path, config, shown, numbers)
                    except CurrsubError as exc:
                        refused += 1
                        shown.update(f"refused: {type(exc).__name__}: {exc}\n".encode())
                        continue
                    reports += 1
    mc = pipeline.MonteCarloConfig(n_seeds=50, n_obs=171, coeffs=TRUTH, noise=NOISE)
    shown.update(pipeline.render_report({"montecarlo": pipeline.run_montecarlo(mc)}).encode())
    return (
        f"{reports} reports, {refused} refused, sha256:{shown.hexdigest()}",
        f"numbers: sha256:{numbers.hexdigest()}",
    )


# Leading bytes and line ending of each copy of an ingest file.
LAYOUTS = ((b"", "\n"), (b"", "\r\n"), (b"\xef\xbb\xbf", "\r\n"))


def _lei_csv_text(rows) -> str:
    """Rows in the lei schema: the euro stock converted at the row's fx."""
    lines = [",".join(pipeline.SCHEMA_EUR_LEI)]
    for row in rows:
        values = (row.m_dom, row.fx * row.m_eur, row.i_dom, row.i_eur)
        lines.append(",".join([str(row.date), *(format(v, ".12g") for v in values)]))
    return "\n".join(lines) + "\n"


def _broken_copies(text: str) -> list[str]:
    """Copies of an LF file that ingest must refuse, each broken at its
    middle data row: a gap, a duplicate month, a bad date, an extra field
    and a nan in the last column."""
    lines = text.splitlines()
    k = len(lines) // 2
    rest = lines[k].split(",", 1)[1]
    edits = (
        lines[:k] + lines[k + 1 :],
        lines + [lines[k]],
        lines[:k] + ["2001-13," + rest] + lines[k + 1 :],
        lines[:k] + [lines[k] + ",1"] + lines[k + 1 :],
        lines[:k] + [lines[k].rsplit(",", 1)[0] + ",nan"] + lines[k + 1 :],
    )
    return ["\n".join(edit) + "\n" for edit in edits]


def _ingest_file(path: str, raw: bytes) -> list[bytes]:
    """Ingest ``raw`` from ``path``: its two reports and row floats, or
    its refusal."""
    with open(path, "wb") as handle:
        handle.write(raw)
    try:
        ingested = pipeline.ingest(path)
    except CurrsubError as exc:
        return [f"refused: {type(exc).__name__}: {exc}\n".encode()]
    chunks = []
    for output_format in ("json", "csv"):
        config = pipeline.PipelineConfig(output_format=output_format)
        doc = pipeline.build_report(config, ingested)
        chunks.append(pipeline.render_report(doc, output_format).encode())
    data = ingested.rows
    columns = [getattr(data, name).tolist() for name in pipeline.SCHEMA_EUR_FX[1:]]
    for k, fields in enumerate(zip(*columns)):
        chunks.append(f"{data.start.shift(k)} ".encode() + _hex_line(fields))
    return chunks


def ingest_digest(seeds=SEEDS) -> str:
    """The ingest line over the grid's draws, for the given seeds."""
    sha = hashlib.sha256()
    files = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "draw.csv")
        for seed in seeds:
            for n in LENGTHS:
                rows = pipeline.dataset_rows_from_simulation(
                    simulate_dgp(TRUTH, n, NOISE, seed)
                )
                for text in (pipeline.dataset_csv_text(rows), _lei_csv_text(rows)):
                    copies = [
                        bom + text.replace("\n", newline).encode()
                        for bom, newline in LAYOUTS
                    ]
                    copies += [broken.encode() for broken in _broken_copies(text)]
                    for raw in copies:
                        files += 1
                        for chunk in _ingest_file(path, raw):
                            sha.update(chunk)
    return f"ingest: {files} files, sha256:{sha.hexdigest()}"


def _raw_lines(obj, path: str = ""):
    """One ``path type value`` line per leaf, floats as float.hex."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _raw_lines(value, f"{path}{key}.")
    elif isinstance(obj, float):
        yield f"{path} float {obj.hex()}\n"
    else:
        yield f"{path} {type(obj).__name__} {obj!r}\n"


def montecarlo_digest(runs=MONTECARLO_RUNS) -> str:
    """The raw Monte Carlo line, over (n_seeds, n_obs, seed_base) runs."""
    sha = hashlib.sha256()
    for n_seeds, n_obs, seed_base in runs:
        mc = pipeline.MonteCarloConfig(
            n_seeds=n_seeds, n_obs=n_obs, coeffs=TRUTH, noise=NOISE, seed_base=seed_base
        )
        for line in _raw_lines(pipeline.run_montecarlo(mc)):
            sha.update(line.encode())
    return f"montecarlo raw: {len(runs)} runs, sha256:{sha.hexdigest()}"


def fmols_stack_digest(runs=MONTECARLO_RUNS) -> str:
    """The stacked FM-OLS line, over the draws of (n_seeds, n_obs, seed_base) runs."""
    sha = hashlib.sha256()
    stacks = 0
    for n_seeds, n_obs, seed_base in runs:
        seeds = range(seed_base, seed_base + n_seeds)
        y, spread, _ = simulate_paths(TRUTH, n_obs, NOISE, seeds)
        for deterministics in coint.DETERMINISTIC_CONFIGS:
            for bandwidth in FMOLS_BANDWIDTHS:
                stacks += 1
                try:
                    fit = coint.fmols_stack(y, spread, deterministics, bandwidth)
                except CurrsubError as exc:
                    sha.update(f"fmols_stack refused: {exc}\n".encode())
                    continue
                for values in (fit.theta, fit.standard_errors, fit.r_squared):
                    sha.update(_hex_line(np.ravel(values)))
                for mat in (fit.lrc.omega, fit.lrc.lam, fit.lrc.gamma0):
                    sha.update(_hex_line(mat.ravel()))
                degenerate = fit.degenerate_inference.tolist()
                sha.update(f"{tuple(degenerate)}\n".encode())
                lcs = ["None" if d else lc.hex() for d, lc in zip(degenerate, fit.lc.tolist())]
                sha.update((",".join(lcs) + "\n").encode())
    return f"fmols stack: {stacks} stacks, sha256:{sha.hexdigest()}"


def adf_stack_digest(runs=MONTECARLO_RUNS) -> str:
    """The stacked ADF line, over the draws of (n_seeds, n_obs, seed_base) runs."""
    sha = hashlib.sha256()
    stacks = 0
    for n_seeds, n_obs, seed_base in runs:
        seeds = range(seed_base, seed_base + n_seeds)
        _, spread, eps = simulate_paths(TRUTH, n_obs, NOISE, seeds)
        for series in (spread, eps):
            for spec in unitroot.DETERMINISTIC_KINDS:
                for lags in ADF_LAGS:
                    stacks += 1
                    try:
                        rows = unitroot.adf_stack(series, spec, lags)
                    except CurrsubError as exc:
                        sha.update(f"adf_stack refused: {exc}\n".encode())
                        continue
                    for stat, lag, nobs in zip(*(a.tolist() for a in rows)):
                        sha.update(f"{stat.hex()} {lag} {nobs}\n".encode())
    return f"adf stack: {stacks} stacks, sha256:{sha.hexdigest()}"


if __name__ == "__main__":
    print(blas_header())
    print(*report_digest(), sep="\n")
    print(montecarlo_digest())
    print(ingest_digest())
    print(fmols_stack_digest())
    print(adf_stack_digest())
