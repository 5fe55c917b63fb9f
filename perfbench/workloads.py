"""The four benchmark workloads: inputs from a seed, one op, its output check.

Each workload is a closed loop with one caller. ``run_op`` is the timed
part; ``check`` runs outside the timed section and returns False for an
output that is wrong. Every op of a workload does the same work, so
per-op counts repeat exactly.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import numpy as np

from currsub import coint, model, pipeline
from currsub.errors import DegeneracyError
from currsub.series import MonthStamp, MonthlySeries
from layertrace import read_csv

# The README's synthetic truth: quadratic-trend point estimates with the
# default simulation noise.
TRUTH = model.TrendCoefficients(v0=-0.037619, v1=-0.012215, v2=0.000042, sigma=0.201694)
NOISE = model.DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=0.05)
# Candidate draws tried per dataset; see _estimable_dataset.
MAX_DRAWS = 16


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _lei_csv_text(rows) -> str:
    """Rows in the second input schema, foreign money already in lei."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(pipeline.SCHEMA_EUR_LEI)
    for row in rows:
        writer.writerow(
            [
                str(row.date),
                format(row.m_dom, ".12g"),
                format(row.m_eur * row.fx, ".12g"),
                format(row.i_dom, ".12g"),
                format(row.i_eur, ".12g"),
            ]
        )
    return out.getvalue()


def _estimate(path: str, config: pipeline.PipelineConfig) -> str:
    """The ``currsub estimate`` path, in-process, through module attributes."""
    ingested = pipeline.ingest(path)
    derived = pipeline.derive_series(ingested.rows, config)
    runs = pipeline.run_unit_roots(derived, config)
    estimation = pipeline.run_estimation(derived, config)
    doc = pipeline.build_report(config, ingested, unit_roots=runs, estimation=estimation)
    return pipeline.render_report(doc, config.output_format)


def _estimable_dataset(
    path: str, n: int, seed: int, schema: str, config: pipeline.PipelineConfig
) -> tuple[str, int]:
    """Write the seed's first draw that can be estimated; return its report and the draws skipped.

    Some draws carry no usable substitution signal: about 1.7% of
    120-month draws fit sigma <= 0, which the pipeline rightly refuses
    with a DegeneracyError (exit 3). Every op of a workload must succeed,
    so such a draw is replaced by the next one in the seed's sequence.
    """
    for draw in range(MAX_DRAWS):
        sim = model.simulate_dgp(TRUTH, n, NOISE, MAX_DRAWS * seed + draw)
        rows = pipeline.dataset_rows_from_simulation(sim)
        text = pipeline.dataset_csv_text(rows) if schema == "m_eur_fx" else _lei_csv_text(rows)
        with open(path, "w", newline="") as handle:
            handle.write(text)
        try:
            return _estimate(path, config), draw
        except DegeneracyError:
            continue
    raise RuntimeError(f"no estimable draw among {MAX_DRAWS} for seed {seed}")


class EstimateBatch:
    """Op: the full in-process estimate of each dataset in a fixed mixed set.

    One op covers the whole set, so every op does the same work: the
    median of single-dataset times would fall in the gap between the
    171- and 240-month datasets and jump between runs.
    """

    name = "estimate_batch"
    item = "datasets"
    # (months, input schema, report format): every length in both schemas,
    # three of the eight reports rendered as CSV.
    DATASETS = (
        (120, "m_eur_fx", "json"),
        (171, "m_eur_fx", "json"),
        (240, "m_eur_fx", "csv"),
        (360, "m_eur_fx", "json"),
        (120, "m_eur_lei", "csv"),
        (171, "m_eur_lei", "json"),
        (240, "m_eur_lei", "json"),
        (360, "m_eur_lei", "csv"),
    )

    def __init__(self, ctx: dict, seed: int, smoke: bool) -> None:
        self.items_per_op = len(self.DATASETS)
        self.inputs = []
        self.reference = []
        self.skipped_draws = 0
        for k, (n, schema, fmt) in enumerate(self.DATASETS):
            path = os.path.join(ctx["data_dir"], f"estimate_batch_{k}.csv")
            config = pipeline.PipelineConfig(output_format=fmt)
            report, skipped = _estimable_dataset(path, n, 1000 * seed + k, schema, config)
            self.inputs.append((path, config))
            self.reference.append(_sha256(report))
            self.skipped_draws += skipped

    def run_op(self, i: int) -> list[str]:
        return [_estimate(path, config) for path, config in self.inputs]

    def check(self, i: int, out: list[str]) -> bool:
        return [_sha256(text) for text in out] == self.reference

    @staticmethod
    def corrupt(out: list[str]) -> list[str]:
        return [out[0].replace("0", "1", 1), *out[1:]]


class MonteCarlo:
    """Op: one Monte Carlo validation run, 200 seeds x 171 months, rendered."""

    name = "montecarlo"
    item = "seeds"
    # Acceptance criterion 4's band on the median fitted sigma.
    SIGMA_BAND = 0.08

    def __init__(self, ctx: dict, seed: int, smoke: bool) -> None:
        n_seeds = 10 if smoke else 200
        self.items_per_op = n_seeds
        self.mc = pipeline.MonteCarloConfig(
            n_seeds=n_seeds, n_obs=171, coeffs=TRUTH, noise=NOISE, seed_base=1000 * seed
        )
        self.reference: str | None = None
        warm = pipeline.MonteCarloConfig(
            n_seeds=10, n_obs=171, coeffs=TRUTH, noise=NOISE, seed_base=1000 * seed + 500
        )
        pipeline.run_montecarlo(warm)

    def run_op(self, i: int) -> str:
        doc = {
            "config": pipeline.PipelineConfig().metadata(),
            "input_digest": None,
            "montecarlo": pipeline.run_montecarlo(self.mc),
        }
        return pipeline.render_report(doc)

    def check(self, i: int, out: str) -> bool:
        """Byte-identical to the run's first summary, which must be plausible."""
        if self.reference is None:
            try:
                sigma = json.loads(out)["montecarlo"]["estimates"]["sigma"]["median"]
            except (ValueError, KeyError, TypeError):
                return False
            if not abs(sigma - TRUTH.sigma) <= self.SIGMA_BAND:
                return False
            self.reference = out
        return out == self.reference

    @staticmethod
    def corrupt(out: str) -> str:
        return out.replace("0", "1", 1)


class CliEstimate:
    """Op: one ``python -m currsub.cli estimate`` subprocess on a 171-month CSV."""

    name = "cli_estimate"
    item = "calls"
    TIMEOUT_S = 60

    def __init__(self, ctx: dict, seed: int, smoke: bool) -> None:
        self.items_per_op = 1
        self.ctx = ctx
        self.tracer = None
        self.path = os.path.join(ctx["data_dir"], "cli_estimate.csv")
        report, self.skipped_draws = _estimable_dataset(
            self.path, 171, 1000 * seed, "m_eur_fx", pipeline.PipelineConfig()
        )
        self.reference = report.encode("utf-8")
        self.run_op(0)

    def run_op(self, i: int) -> tuple[int, bytes]:
        args = ["estimate", self.path]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "currsub.cli", *args]
        else:
            spans_path = os.path.join(self.ctx["out_dir"], "cli_child_spans.csv")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            cmd = [sys.executable, self.ctx["cli_child"], spans_path, *args]
        proc = subprocess.run(
            cmd,
            capture_output=True,
            env=self.ctx["child_env"],
            cwd=self.ctx["root"],
            timeout=self.TIMEOUT_S,
            check=False,
        )
        if self.tracer is not None:
            self.tracer.add_external(read_csv(spans_path), self.tracer.current())
        return proc.returncode, proc.stdout

    def check(self, i: int, out: tuple[int, bytes]) -> bool:
        returncode, stdout = out
        return returncode == 0 and stdout == self.reference

    @staticmethod
    def corrupt(out: tuple[int, bytes]) -> tuple[int, bytes]:
        return out[0], out[1] + b" "


def load_lc_tool(root: str):
    path = os.path.join(root, "tools", "simulate_lc_critical_values.py")
    spec = importlib.util.spec_from_file_location("simulate_lc_critical_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class LcTable:
    """Op: one Lc-table chunk of 250 reps at T = 2000 for each deterministic config."""

    name = "lc_table"
    item = "draws"
    CHECK_REPS = 2
    CONFIGS = {
        "const": coint.CONST,
        "linear_trend": coint.LINEAR_TREND,
        "quadratic_trend": coint.QUADRATIC_TREND,
    }

    def __init__(self, ctx: dict, seed: int, smoke: bool) -> None:
        self.tool = ctx["lctool"]
        self.reps, self.t_len = (20, 300) if smoke else (250, 2000)
        self.powers = [self.tool.CONFIG_TREND_POWERS[c] for c in self.CONFIGS]
        self.items_per_op = self.reps * len(self.powers)
        self.rng = np.random.default_rng([seed, 1])
        # The first pass runs markedly slower than later ones.
        warm = self.run_op(0)
        self.rng = np.random.default_rng([seed, 0])
        if not self.check(0, warm):
            raise RuntimeError("Lc warm-up draws disagree with coint.fmols")

    def run_op(self, i: int) -> list[tuple[dict, np.ndarray]]:
        out = []
        for powers in self.powers:
            state = self.rng.bit_generator.state
            out.append((state, self.tool.simulate_lc_chunk(self.rng, self.reps, self.t_len, powers)))
        return out

    def check(self, i: int, out: list[tuple[dict, np.ndarray]]) -> bool:
        """The first reps of every chunk equal coint.fmols at bandwidth 0 to 1e-8.

        The inputs are redrawn from the generator state saved before the
        chunk, in the tool's documented order: the regressor innovations
        for every rep, then the dependent series.
        """
        start = MonthStamp(2001, 9)
        for (state, draws), config in zip(out, self.CONFIGS.values()):
            if draws.shape != (self.reps,) or not np.all(np.isfinite(draws)) or draws.min() < 0:
                return False
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            x = np.cumsum(rng.standard_normal((self.reps, self.t_len)), axis=1)
            y = rng.standard_normal((self.reps, self.t_len))
            x = x / np.sqrt((x * x).mean(axis=1, keepdims=True))
            for r in range(self.CHECK_REPS):
                rep = coint.fmols(
                    MonthlySeries(start, y[r]),
                    MonthlySeries(start, x[r]),
                    deterministics=config,
                    bandwidth=0,
                )
                if not abs(rep.lc_statistic - draws[r]) < 1e-8:
                    return False
        return True

    @staticmethod
    def corrupt(out: list[tuple[dict, np.ndarray]]) -> list[tuple[dict, np.ndarray]]:
        state, draws = out[0]
        return [(state, draws + 1e-6), *out[1:]]


WORKLOADS = {cls.name: cls for cls in (EstimateBatch, MonteCarlo, CliEstimate, LcTable)}
