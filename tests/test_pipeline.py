"""CSV ingestion, series derivation, and the batch analysis drivers."""

import hashlib
import json
import math

import numpy as np
import pytest

from currsub import coint, model
from currsub.errors import DataError, DegeneracyError, IngestionError, ParameterError
from currsub.model import DgpNoise, TrendCoefficients, simulate_dgp
from currsub.pipeline import (
    DatasetRow,
    DerivedSeries,
    MonteCarloConfig,
    PipelineConfig,
    build_report,
    dataset_csv_text,
    dataset_rows_from_simulation,
    derive_series,
    ingest,
    ingest_rows,
    render_delta_path_csv,
    render_report,
    run_estimation,
    run_montecarlo,
    run_unit_roots,
    write_dataset_csv,
)
from currsub.series import MonthStamp, MonthlySeries

TABLE_COEFFS = TrendCoefficients(
    v0=-0.037619, v1=-0.012215, v2=0.000042, sigma=0.201694
)
NOISE = DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=0.05)
START = MonthStamp(2001, 9)
CONFIG = PipelineConfig()

CSV_FX = """date,m_dom,m_eur,fx,i_dom,i_eur
2001-09,100.0,20.0,2.5,34.0,4.0
2001-10,102.0,21.0,2.6,33.0,4.1
2001-11,101.0,22.0,2.7,32.0,4.2
"""

CSV_LEI = """date,m_dom,m_eur_lei,i_dom,i_eur
2001-09,100.0,50.0,34.0,4.0
2001-10,102.0,54.6,33.0,4.1
2001-11,101.0,59.4,32.0,4.2
"""


def derived_from_sim(sim):
    return DerivedSeries(
        log_money_ratio=sim.log_money_ratio,
        oc_spread_log=sim.oc_spread_log,
        oc_dom=sim.oc_spread_log,
        oc_for=sim.oc_spread_log,
    )


class TestIngest:
    def test_fx_schema(self):
        rows, schema = ingest_rows(CSV_FX)
        assert schema == "m_eur_fx"
        assert len(rows) == 3
        assert rows[0].date == MonthStamp(2001, 9)
        assert rows[0].fx == 2.5

    def test_lei_schema_fixes_fx_at_one(self):
        rows, schema = ingest_rows(CSV_LEI)
        assert schema == "m_eur_lei"
        assert all(row.fx == 1.0 for row in rows)
        assert rows[1].m_eur == 54.6

    def test_column_order_free(self):
        shuffled = (
            "fx,i_eur,date,m_dom,i_dom,m_eur\n"
            "2.5,4.0,2001-09,100.0,34.0,20.0\n"
        )
        rows, schema = ingest_rows(shuffled)
        assert schema == "m_eur_fx"
        assert rows[0].m_eur == 20.0

    def test_unsorted_rows_are_sorted(self):
        scrambled = CSV_FX.splitlines()
        text = "\n".join([scrambled[0], scrambled[3], scrambled[1], scrambled[2]]) + "\n"
        rows, _ = ingest_rows(text)
        assert [str(r.date) for r in rows] == ["2001-09", "2001-10", "2001-11"]

    def test_month_gap_names_missing_month(self):
        text = (
            "date,m_dom,m_eur,fx,i_dom,i_eur\n"
            "2001-09,100.0,20.0,2.5,34.0,4.0\n"
            "2001-11,101.0,22.0,2.7,32.0,4.2\n"
        )
        with pytest.raises(IngestionError, match="2001-10"):
            ingest_rows(text)

    def test_duplicate_month_rejected(self):
        text = (
            "date,m_dom,m_eur,fx,i_dom,i_eur\n"
            "2001-09,100.0,20.0,2.5,34.0,4.0\n"
            "2001-09,101.0,22.0,2.7,32.0,4.2\n"
        )
        with pytest.raises(IngestionError, match="duplicate"):
            ingest_rows(text)

    def test_zero_money_stock_names_row(self):
        text = CSV_FX.replace("2001-10,102.0", "2001-10,0.0")
        with pytest.raises(IngestionError, match="2001-10"):
            ingest_rows(text)

    def test_rate_below_floor_rejected(self):
        text = CSV_FX.replace("34.0", "-99.5")
        with pytest.raises(IngestionError, match="-99"):
            ingest_rows(text)

    def test_unknown_header_rejected(self):
        with pytest.raises(IngestionError, match="header"):
            ingest_rows("date,a,b\n2001-09,1,2\n")

    def test_bad_date_names_line(self):
        text = CSV_FX.replace("2001-10", "2001-13")
        with pytest.raises(IngestionError, match="line 3"):
            ingest_rows(text)

    def test_unparseable_number_rejected(self):
        text = CSV_FX.replace("2.6", "abc")
        with pytest.raises(IngestionError, match="fx"):
            ingest_rows(text)

    def test_ragged_row_rejected(self):
        text = CSV_FX + "2001-12,1.0,2.0\n"
        with pytest.raises(IngestionError, match="fields"):
            ingest_rows(text)

    def test_empty_input_rejected(self):
        with pytest.raises(IngestionError, match="empty"):
            ingest_rows("")
        with pytest.raises(IngestionError, match="no data"):
            ingest_rows("date,m_dom,m_eur,fx,i_dom,i_eur\n")

    def test_file_digest_and_missing_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_FX)
        result = ingest(str(path))
        assert result.schema == "m_eur_fx"
        assert result.digest.startswith("sha256:")
        assert len(result.digest) == len("sha256:") + 64
        with pytest.raises(IngestionError, match="cannot read"):
            ingest(str(tmp_path / "absent.csv"))

    def test_bom_and_crlf_copies_estimate_identically(self, tmp_path):
        plain = dataset_csv_text(
            dataset_rows_from_simulation(simulate_dgp(TABLE_COEFFS, 171, NOISE, 25))
        ).encode("utf-8")
        copies = {
            "plain": plain,
            "bom": b"\xef\xbb\xbf" + plain,
            "crlf": plain.replace(b"\n", b"\r\n"),
        }
        rows, bodies, digests = {}, {}, set()
        for name, raw in copies.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(raw)
            ingested = ingest(str(path))
            assert ingested.digest == "sha256:" + hashlib.sha256(raw).hexdigest()
            digests.add(ingested.digest)
            derived = derive_series(ingested.rows, CONFIG)
            doc = build_report(
                CONFIG,
                ingested,
                unit_roots=run_unit_roots(derived, CONFIG),
                estimation=run_estimation(derived, CONFIG),
            )
            del doc["input_digest"]
            rows[name] = ingested.rows
            bodies[name] = render_report(doc, "json")
        assert len(digests) == 3
        assert rows["bom"] == rows["plain"] == rows["crlf"]
        assert bodies["bom"] == bodies["plain"] == bodies["crlf"]


class TestDeriveSeries:
    def test_balanced_stocks_zero_log_ratio(self):
        text = (
            "date,m_dom,m_eur,fx,i_dom,i_eur\n"
            "2001-09,50.0,20.0,2.5,34.0,4.0\n"
            "2001-10,52.0,20.8,2.5,33.0,4.1\n"
        )
        rows, _ = ingest_rows(text)
        derived = derive_series(rows, CONFIG)
        assert np.abs(derived.log_money_ratio.values).max() < 1e-12

    def test_equal_rates_zero_spread(self):
        text = (
            "date,m_dom,m_eur,fx,i_dom,i_eur\n"
            "2001-09,50.0,20.0,2.5,7.0,7.0\n"
            "2001-10,52.0,20.8,2.5,6.0,6.0\n"
        )
        rows, _ = ingest_rows(text)
        derived = derive_series(rows, CONFIG)
        assert np.abs(derived.oc_spread_log.values).max() < 1e-12

    def test_hand_worked_costs(self):
        rows, _ = ingest_rows(CSV_FX)
        derived = derive_series(rows, CONFIG)
        assert derived.oc_dom.values[0] == pytest.approx(0.024901, abs=1e-5)
        assert derived.oc_for.values[0] == pytest.approx(0.004090, abs=1e-5)
        assert derived.oc_spread_log.values[0] == pytest.approx(1.8063, abs=1e-3)
        assert derived.log_money_ratio.values[0] == pytest.approx(
            math.log(2.5 * 20.0 / 100.0), abs=1e-12
        )

    def test_calendar_propagates(self):
        rows, _ = ingest_rows(CSV_FX)
        derived = derive_series(rows, CONFIG)
        for s in (
            derived.log_money_ratio,
            derived.oc_spread_log,
            derived.oc_dom,
            derived.oc_for,
        ):
            assert s.start == MonthStamp(2001, 9)
            assert len(s) == 3

    def test_nonpositive_cost_names_date(self):
        # A deeply negative rate with a tiny phi drives oc below zero.
        config = PipelineConfig(phi_annual=0.0001)
        text = CSV_FX.replace("2001-10,102.0,21.0,2.6,33.0", "2001-10,102.0,21.0,2.6,-55.0")
        rows, _ = ingest_rows(text)
        from currsub.errors import SeriesDomainError

        with pytest.raises(SeriesDomainError, match="2001-10"):
            derive_series(rows, config)


class TestRunUnitRoots:
    def test_grid_shape(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 0)
        runs = run_unit_roots(derived_from_sim(sim), CONFIG)
        assert len(runs) == 8
        names = [(r.series, r.report.test, r.report.spec) for r in runs]
        assert len(set(names)) == 8
        assert {r.series for r in runs} == {"log_money_ratio", "oc_spread_log"}
        assert {r.report.test for r in runs} == {"ADF", "PP"}

    def test_random_walk_dataset_fails_to_reject_everywhere(self):
        rng = np.random.default_rng(0)
        y = MonthlySeries(START, np.cumsum(rng.standard_normal(171)) * 0.05)
        x = MonthlySeries(START, np.cumsum(rng.standard_normal(171)) * 0.05)
        runs = run_unit_roots(DerivedSeries(y, x, x, x), CONFIG)
        assert all(not r.report.reject_at["5%"] for r in runs)

    def test_white_noise_dataset_rejects_everywhere(self):
        rng = np.random.default_rng(0)
        y = MonthlySeries(START, rng.standard_normal(171) * 0.05)
        x = MonthlySeries(START, rng.standard_normal(171) * 0.05)
        runs = run_unit_roots(DerivedSeries(y, x, x, x), CONFIG)
        assert all(r.report.reject_at["5%"] for r in runs)

    def test_fixed_lag_config_respected(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 1)
        runs = run_unit_roots(derived_from_sim(sim), PipelineConfig(lags=2, bandwidth=6))
        for run in runs:
            if run.report.test == "ADF":
                assert run.report.lags_or_bandwidth == 2
            else:
                assert run.report.lags_or_bandwidth == 6


class TestRunEstimation:
    def test_delta_ratio_path_minimum_recovered(self):
        # Estimation noise moves the recovered minimum by double-digit
        # percentages; this frozen draw sits well inside the +-30% band.
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        est = run_estimation(derived_from_sim(sim), CONFIG)
        assert float(np.min(est.delta_ratio.values)) == pytest.approx(
            0.01015, rel=0.30
        )

    def test_delta_and_ratio_consistent(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        est = run_estimation(derived_from_sim(sim), CONFIG)
        implied = 1.0 / (1.0 + est.delta_ratio.values)
        assert np.abs(est.delta.values - implied).max() < 1e-12
        assert est.delta_ratio.start == sim.log_money_ratio.start
        assert len(est.delta_ratio) == 171

    def test_correlation_in_range(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        est = run_estimation(derived_from_sim(sim), CONFIG)
        assert -1.0 <= est.correlation <= 1.0

    def test_zero_variance_spread_degenerate(self):
        y = MonthlySeries(START, np.linspace(0.0, 1.0, 40))
        x = MonthlySeries(START, np.full(40, 1.7))
        with pytest.raises(DegeneracyError):
            run_estimation(DerivedSeries(y, x, x, x), CONFIG)

    def test_short_sample_rejected(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 2)
        short = DerivedSeries(
            sim.log_money_ratio.slice(START, START.shift(28)),
            sim.oc_spread_log.slice(START, START.shift(28)),
            sim.oc_dom if hasattr(sim, "oc_dom") else sim.oc_spread_log,
            sim.oc_spread_log,
        )
        with pytest.raises(DataError, match="at least 30"):
            run_estimation(short, CONFIG)

    def test_nonpositive_fitted_sigma_degenerate(self):
        # This draw estimates a slightly negative sigma; the share path
        # is undefined there and must fail as a degeneracy, not a crash.
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 3)
        with pytest.raises(DegeneracyError, match="sigma"):
            run_estimation(derived_from_sim(sim), CONFIG)

    def test_trend_origin_changes_only_labels(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        base = run_estimation(derived_from_sim(sim), CONFIG)
        moved = run_estimation(
            derived_from_sim(sim),
            PipelineConfig(trend_origin=START.shift(-12)),
        )
        assert moved.fmols.params["sigma"] == pytest.approx(
            base.fmols.params["sigma"], rel=1e-8
        )
        assert moved.fmols.r_squared == pytest.approx(base.fmols.r_squared, abs=1e-8)
        assert moved.fmols.lc_statistic == pytest.approx(
            base.fmols.lc_statistic, rel=1e-8
        )
        assert np.abs(moved.delta_ratio.values - base.delta_ratio.values).max() < 1e-8


class TestRunMonteCarlo:
    def test_summary_contents(self):
        mc = MonteCarloConfig(n_seeds=20, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE)
        summary = run_montecarlo(mc)
        assert summary["n_seeds"] == 20
        assert set(summary["estimates"]) == {"v0", "v1", "v2", "sigma"}
        for stats in summary["estimates"].values():
            assert set(stats) == {"median", "iqr"}
        assert 0.0 <= summary["lc_reject_at_10pct"] <= 1.0

    def test_deterministic_given_seed_base(self):
        mc = MonteCarloConfig(n_seeds=10, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE)
        assert run_montecarlo(mc) == run_montecarlo(mc)

    def test_seed_base_shifts_draws(self):
        a = run_montecarlo(
            MonteCarloConfig(n_seeds=10, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE)
        )
        b = run_montecarlo(
            MonteCarloConfig(
                n_seeds=10, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE, seed_base=99
            )
        )
        assert a["estimates"]["sigma"]["median"] != b["estimates"]["sigma"]["median"]

    def test_too_few_seeds_rejected(self):
        with pytest.raises(ParameterError, match="n_seeds"):
            MonteCarloConfig(n_seeds=5, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE)

    def test_tiny_sample_propagates_data_error(self):
        mc = MonteCarloConfig(n_seeds=10, n_obs=10, coeffs=TABLE_COEFFS, noise=NOISE)
        with pytest.raises(DataError):
            run_montecarlo(mc)


class TestSyntheticDataset:
    def test_round_trip_reproduces_series(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 7)
        rows = dataset_rows_from_simulation(sim)
        assert len(rows) == 171
        text = dataset_csv_text(rows)
        rows2, schema = ingest_rows(text)
        assert schema == "m_eur_fx"
        derived = derive_series(rows2, CONFIG)
        assert np.abs(
            derived.log_money_ratio.values - sim.log_money_ratio.values
        ).max() < 1e-9
        assert np.abs(
            derived.oc_spread_log.values - sim.oc_spread_log.values
        ).max() < 1e-8

    def test_round_trip_estimation_within_tolerance(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 7)
        direct = coint.fmols(sim.log_money_ratio, sim.oc_spread_log)
        rows2, _ = ingest_rows(dataset_csv_text(dataset_rows_from_simulation(sim)))
        again = run_estimation(derive_series(rows2, CONFIG), CONFIG).fmols
        for name in direct.params:
            assert again.params[name] == pytest.approx(
                direct.params[name], abs=1e-9
            )

    def test_write_dataset_csv(self, tmp_path):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 8)
        rows = dataset_rows_from_simulation(sim)
        path = tmp_path / "sim.csv"
        write_dataset_csv(rows, str(path))
        back = ingest(str(path)).rows
        assert [r.date for r in back] == [r.date for r in rows]
        for a, b in zip(back, rows):
            for name in ("m_dom", "m_eur", "fx", "i_dom", "i_eur"):
                assert getattr(a, name) == pytest.approx(
                    getattr(b, name), rel=1e-11
                )

    def test_extreme_spread_rejected(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 9)
        big = MonthlySeries(
            sim.oc_spread_log.start, sim.oc_spread_log.values + 12.0
        )
        bloated = model.SimulatedDgp(
            log_money_ratio=sim.log_money_ratio,
            oc_spread_log=big,
            eps=sim.eps,
        )
        with pytest.raises(DataError, match="spread too large"):
            dataset_rows_from_simulation(bloated)


class TestReportRendering:
    def _full_report(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        rows = dataset_rows_from_simulation(sim)
        text = dataset_csv_text(rows)
        ingested_rows, schema = ingest_rows(text)

        class FakeIngest:
            rows = ingested_rows
            digest = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
            schema = "m_eur_fx"

        derived = derive_series(ingested_rows, CONFIG)
        return build_report(
            CONFIG,
            FakeIngest,
            unit_roots=run_unit_roots(derived, CONFIG),
            estimation=run_estimation(derived, CONFIG),
        )

    def test_top_level_keys(self):
        doc = self._full_report()
        for key in (
            "config",
            "input_digest",
            "unit_roots",
            "fmols",
            "delta_path",
            "correlation",
        ):
            assert key in doc
        assert len(doc["unit_roots"]) == 8
        assert len(doc["delta_path"]) == 171
        assert doc["config"]["phi_annual"] == 0.01
        assert doc["config"]["bandwidth_policy"] == "newey_west"

    def test_json_rendering_is_byte_stable(self):
        doc = self._full_report()
        a = render_report(doc, "json")
        b = render_report(self._full_report(), "json")
        assert a == b
        parsed = json.loads(a)
        assert parsed["fmols"]["deterministics"] == "quadratic_trend"

    def test_floats_rounded_to_nine_significant_digits(self):
        doc = self._full_report()
        parsed = json.loads(render_report(doc, "json"))
        sigma = parsed["fmols"]["params"]["sigma"]
        assert sigma == float(format(doc["fmols"]["params"]["sigma"], ".9g"))

    def test_csv_rendering(self):
        doc = self._full_report()
        text = render_report(doc, "csv")
        lines = text.splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("fmols,params.sigma,") for line in lines)
        assert any(line.startswith("unit_roots,0.test,") for line in lines)

    def test_unknown_format_rejected(self):
        with pytest.raises(ParameterError):
            render_report({"config": None}, "yaml")

    def test_delta_path_csv(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        est = run_estimation(derived_from_sim(sim), CONFIG)
        text = render_delta_path_csv(est)
        lines = text.splitlines()
        assert lines[0] == "date,ratio"
        assert len(lines) == 172
        assert lines[1].startswith("2001-09,")
