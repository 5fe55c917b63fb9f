"""End-to-end tests for the command-line interface.

Every test drives ``currsub.cli.main`` in process and asserts on the exit
status plus captured stdout/stderr, which is exactly what a shell caller
sees. Datasets are produced by the ``simulate`` command itself so the
round trip simulate -> file -> analyze is exercised along the way.
"""

import json
import re
import warnings
from pathlib import Path

import pytest

from currsub import pipeline
from currsub.cli import main

# Coefficients used for every simulated fixture dataset.
TABLE_FLAGS = [
    "--v0", "-0.037619",
    "--v1", "-0.012215",
    "--v2", "0.000042",
    "--sigma", "0.201694",
]

DATASET_HEADER = "date,m_dom,m_eur,fx,i_dom,i_eur"


def simulate_args(path, seed, n=171):
    return ["simulate", "--n", str(n), *TABLE_FLAGS,
            "--seed", str(seed), "--output", str(path)]


def exit_code(argv):
    """``main``'s status, counting argparse rejections (SystemExit) too."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A 171-month simulated dataset file (seed 7, well-behaved fit)."""
    path = tmp_path_factory.mktemp("cli") / "seed7.csv"
    assert main(simulate_args(path, seed=7)) == 0
    return str(path)


@pytest.fixture(scope="module")
def degenerate_dataset(tmp_path_factory):
    """Seed 3 draws a sample whose fitted sigma is negative."""
    path = tmp_path_factory.mktemp("cli-degen") / "seed3.csv"
    assert main(simulate_args(path, seed=3)) == 0
    return str(path)


class TestSimulate:
    def test_writes_dataset_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(simulate_args(path, seed=0)) == 0
        assert capsys.readouterr().out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == DATASET_HEADER
        assert len(lines) == 172  # header + 171 months
        assert lines[1].startswith("2001-09,")

    def test_stdout_when_no_output_flag(self, capsys):
        argv = simulate_args("ignored", seed=0)[:-2]  # drop --output pair
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == DATASET_HEADER

    def test_deterministic_for_fixed_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(simulate_args(a, seed=11)) == 0
        assert main(simulate_args(b, seed=11)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_draws(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(simulate_args(a, seed=0)) == 0
        assert main(simulate_args(b, seed=1)) == 0
        assert a.read_text() != b.read_text()

    def test_phi_annual_defaults_to_the_pipeline_default(self, tmp_path):
        paths = [tmp_path / f"{k}.csv" for k in range(3)]
        assert main(simulate_args(paths[0], seed=5)) == 0
        assert main(simulate_args(paths[1], seed=5) + ["--phi-annual", "0.01"]) == 0
        assert main(simulate_args(paths[2], seed=5) + ["--phi-annual", "0.03"]) == 0
        default, explicit, other = (p.read_bytes() for p in paths)
        assert default == explicit != other

    def test_start_flag_sets_calendar(self, tmp_path):
        path = tmp_path / "out.csv"
        argv = simulate_args(path, seed=0) + ["--start", "1999-01"]
        assert main(argv) == 0
        assert path.read_text().splitlines()[1].startswith("1999-01,")

    def test_bad_start_month_exits_2(self, tmp_path, capsys):
        argv = simulate_args(tmp_path / "x.csv", seed=0) + ["--start", "1999-13"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_months_past_9999_exit_2(self, tmp_path, capsys):
        # Such a month would be written, then refused by ingest.
        path = tmp_path / "x.csv"
        argv = ["simulate", "--n", "40", "--v0", "0", "--v1", "0", "--v2", "0",
                "--sigma", "0.2", "--start", "9999-06", "--output", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: month 10000-01 is outside 0000-01..9999-12\n"
        )
        assert not path.exists()

    def test_nonpositive_sigma_exits_2(self, tmp_path, capsys):
        argv = ["simulate", "--n", "171", "--v0", "-0.04", "--v1", "-0.01",
                "--v2", "0.00004", "--sigma", "0.0",
                "--output", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert "sigma" in capsys.readouterr().err


class TestIngestCheck:
    def test_valid_dataset(self, dataset, capsys):
        assert main(["ingest-check", dataset]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["input_schema"] == "m_eur_fx"
        assert doc["rows"] == 171
        assert doc["start"] == "2001-09"
        assert doc["end"] == "2015-11"
        assert doc["input_digest"].startswith("sha256:")
        assert len(doc["input_digest"]) == len("sha256:") + 64
        # No analysis requested, so the analysis sections stay empty.
        assert doc["unit_roots"] is None
        assert doc["fmols"] is None
        assert doc["delta_path"] is None

    def test_missing_file_exits_2(self, capsys):
        assert main(["ingest-check", "/nonexistent/data.csv"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_calendar_gap_exits_2(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text(
            DATASET_HEADER + "\n"
            "2001-09,100,50,2.5,30,4\n"
            "2001-11,101,51,2.5,30,4\n"
        )
        assert main(["ingest-check", str(path)]) == 2
        assert "2001-10" in capsys.readouterr().err

    def test_padded_header_exits_0(self, tmp_path, capsys):
        path = tmp_path / "padded.csv"
        path.write_text(
            DATASET_HEADER.replace(",", ", ") + "\n"
            "2001-09,100,50,2.5,30,4\n"
        )
        assert main(["ingest-check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 1

    def test_repeated_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "repeated.csv"
        path.write_text(
            DATASET_HEADER + ",i_eur\n"
            "2001-09,100,50,2.5,30,4,5\n"
        )
        assert main(["ingest-check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repeated" in err
        assert len(err.splitlines()) == 1

    def test_oversized_field_exits_2(self, tmp_path, capsys):
        # The blank line counts: the error names the physical line, 4.
        path = tmp_path / "oversized.csv"
        path.write_text(
            DATASET_HEADER + "\n"
            "2001-09,100,50,2.5,30,4\n"
            "\n"
            "2001-10,100," + "5" * 131_073 + ",2.5,30,4\n"
        )
        assert main(["ingest-check", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: line 4: field larger than field limit (131072)\n"
        )


class TestUnitRoot:
    def test_grid_of_eight_runs(self, dataset, capsys):
        assert main(["unit-root", dataset]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["unit_roots"]) == 8
        first = doc["unit_roots"][0]
        assert {"series", "test", "spec", "statistic",
                "approx_p_value", "reject_at"} <= set(first)
        assert doc["fmols"] is None  # estimation not part of this command

    def test_csv_format_flag(self, dataset, capsys):
        assert main(["unit-root", dataset, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("unit_roots,0.") for line in lines)


class TestEstimate:
    def test_full_report(self, dataset, capsys):
        assert main(["estimate", dataset]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["fmols"]["params"]) == {"v0", "v1", "v2", "sigma"}
        assert len(doc["delta_path"]) == 171
        assert -1.0 <= doc["correlation"] <= 1.0
        assert len(doc["unit_roots"]) == 8

    def test_byte_identical_reruns(self, dataset, capsys):
        assert main(["estimate", dataset]) == 0
        first = capsys.readouterr().out
        assert main(["estimate", dataset]) == 0
        assert capsys.readouterr().out == first

    def test_output_flag_matches_stdout(self, dataset, tmp_path, capsys):
        assert main(["estimate", dataset]) == 0
        streamed = capsys.readouterr().out
        path = tmp_path / "report.json"
        assert main(["estimate", dataset, "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == streamed

    def test_unwritable_output_exits_2(self, dataset, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "report.json"
        assert main(["estimate", dataset, "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert len(err.splitlines()) == 1

    def test_csv_format(self, dataset, capsys):
        assert main(["estimate", dataset, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("fmols,params.sigma,") for line in lines)

    def test_negative_fitted_sigma_exits_3(self, degenerate_dataset, capsys):
        assert main(["estimate", degenerate_dataset]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "sigma" in err

    def test_constant_spread_exits_3(self, tmp_path, capsys):
        # Equal constant rates make the cost-ratio regressor constant,
        # hence collinear with the intercept.
        rows = [DATASET_HEADER]
        year, month = 2001, 9
        for t in range(40):
            rows.append(f"{year}-{month:02d},{100 + t},{50 + 0.5 * t},2.5,10,10")
            month += 1
            if month == 13:
                year, month = year + 1, 1
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["estimate", str(path)]) == 3

    def test_short_sample_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        assert main(simulate_args(path, seed=0, n=40)) == 0
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:11]) + "\n")  # keep 10 rows
        assert main(["estimate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestDeltaPath:
    def test_two_column_csv(self, dataset, capsys):
        assert main(["delta-path", dataset]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "date,ratio"
        assert len(lines) == 172
        assert lines[1].startswith("2001-09,")
        float(lines[1].split(",")[1])  # parses as a number

    def test_output_flag(self, dataset, tmp_path):
        path = tmp_path / "path.csv"
        assert main(["delta-path", dataset, "--output", str(path)]) == 0
        assert path.read_text().splitlines()[0] == "date,ratio"


class TestConfigHandling:
    def test_config_file_applies(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bandwidth": 6, "lags": 2}))
        assert main(["estimate", dataset, "--config", str(cfg)]) == 0
        meta = json.loads(capsys.readouterr().out)["config"]
        assert meta["bandwidth"] == 6
        assert meta["bandwidth_policy"] == "fixed"
        assert meta["lags"] == 2
        assert meta["lag_policy"] == "fixed"

    def test_flag_overrides_config_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bandwidth": 6}))
        argv = ["estimate", dataset, "--config", str(cfg), "--bandwidth", "8"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"]["bandwidth"] == 8

    def test_defaults_without_config(self, dataset, capsys):
        assert main(["estimate", dataset]) == 0
        meta = json.loads(capsys.readouterr().out)["config"]
        assert meta["bandwidth_policy"] == "newey_west"
        assert meta["lag_policy"] == "aic"
        assert meta["phi_annual"] == 0.01

    def test_unknown_config_key_exits_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bandwith": 6}))  # typo'd key
        assert main(["estimate", dataset, "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err
        # A real setting is still unknown to a command that does not read it.
        cfg.write_text(json.dumps({"lags": 2}))
        assert main([*TestMontecarlo.MC_ARGS, "--config", str(cfg)]) == 2
        assert "unknown config keys for montecarlo" in capsys.readouterr().err

    @pytest.mark.parametrize("settings", [
        {"lags": "abc"},
        {"max_lags": None},
        {"phi_annual": "x"},
        {"trend_origin": 5},
        {"lags": 2.5},
        {"lags": True},
    ])
    def test_mistyped_setting_exits_2(self, dataset, tmp_path, capsys, settings):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        assert main(["estimate", dataset, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_bom_config_matches_plain(self, dataset, tmp_path, capsys):
        text = json.dumps({"lags": 2, "bandwidth": 6})
        plain = tmp_path / "plain.json"
        plain.write_text(text, encoding="utf-8")
        bom = tmp_path / "bom.json"
        bom.write_text(text, encoding="utf-8-sig")
        assert main(["estimate", dataset, "--config", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["estimate", dataset, "--config", str(bom)]) == 0
        assert capsys.readouterr().out == expected

    def test_malformed_config_json_exits_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["estimate", dataset, "--config", str(cfg)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config_exits_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["estimate", dataset, "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, dataset, capsys):
        assert main(["estimate", dataset, "--config", "/nope.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_trend_origin_flag(self, dataset, capsys):
        argv = ["estimate", dataset, "--trend-origin", "2000-01"]
        assert main(argv) == 0
        meta = json.loads(capsys.readouterr().out)["config"]
        assert meta["trend_origin"] == "2000-01"

    def test_last_trend_origin_keeps_lc(self, tmp_path, capsys):
        # The trend origin 9999-12 puts t near -120,000 months.
        path = str(tmp_path / "flat60.csv")
        assert main(["simulate", "--n", "60", "--v0", "0", "--v1", "0", "--v2", "0",
                     "--sigma", "0.2", "--output", path]) == 0
        capsys.readouterr()
        lc = []
        for extra in ([], ["--trend-origin", "9999-12"]):
            assert main(["estimate", path, *extra]) == 0
            lc.append(json.loads(capsys.readouterr().out)["fmols"]["lc_statistic"])
        assert lc[1] == pytest.approx(lc[0], rel=1e-6)

    def test_trend_origin_in_config_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trend_origin": "2000-06"}))
        assert main(["estimate", dataset, "--config", str(cfg)]) == 0
        meta = json.loads(capsys.readouterr().out)["config"]
        assert meta["trend_origin"] == "2000-06"

    def test_bad_trend_origin_exits_2(self, dataset, capsys):
        assert main(["estimate", dataset, "--trend-origin", "2001-13"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_config_format_csv(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_format": "csv"}))
        assert main(["estimate", dataset, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "section,key,value"


# The settings each command reads; it must refuse every other one.
SETTINGS_READ = {
    "ingest-check": {"output_format"},
    "unit-root": {"phi_annual", "lags", "max_lags", "bandwidth", "output_format"},
    "estimate": {"phi_annual", "lags", "max_lags", "bandwidth", "trend_origin",
                 "output_format"},
    "delta-path": {"phi_annual", "bandwidth", "trend_origin"},
    "montecarlo": {"output_format"},
}
# A valid non-default value for each setting, as flag and as config entry.
SETTING_VALUES = {
    "phi_annual": ("--phi-annual", 0.02),
    "lags": ("--lags", 2),
    "max_lags": ("--max-lags", 6),
    "bandwidth": ("--bandwidth", 5),
    "trend_origin": ("--trend-origin", "2000-01"),
    "output_format": ("--format", "csv"),
}


class TestSettingsTable:
    @pytest.mark.parametrize("command", sorted(SETTINGS_READ))
    @pytest.mark.parametrize("setting", sorted(SETTING_VALUES))
    def test_command_accepts_only_settings_it_reads(
        self, dataset, tmp_path, capsys, command, setting
    ):
        base = (TestMontecarlo.MC_ARGS if command == "montecarlo"
                else [command, dataset])
        flag, value = SETTING_VALUES[setting]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({setting: value}))
        via_flag = exit_code([*base, flag, str(value)])
        flag_out = capsys.readouterr().out
        via_config = exit_code([*base, "--config", str(cfg)])
        config_out = capsys.readouterr().out
        if setting in SETTINGS_READ[command]:
            assert (via_flag, via_config) == (0, 0)
            assert flag_out == config_out
        else:
            assert (via_flag, via_config) == (2, 2)


class TestReadme:
    def test_python_api_block_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert main(simulate_args(tmp_path / "demo.csv", seed=7)) == 0
        monkeypatch.chdir(tmp_path)
        exec(compile(block, "README.md", "exec"), {})
        assert len(capsys.readouterr().out.splitlines()) == 3


def one_error_line(argv, capsys):
    """``main``'s status and stderr, asserting that stderr is one ``error:``
    line and stdout empty. A NumPy RuntimeWarning, which a shell caller
    would see as stray stderr lines, is raised instead and fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    return code, err


def edited_copy(dataset, path, values, month=None):
    """``dataset`` written to ``path`` with ``values`` (column -> text) set
    in the row of ``month``, or in every row when ``month`` is None."""
    lines = Path(dataset).read_text().splitlines()
    header = lines[0].split(",")
    out = [lines[0]]
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if month is None or row["date"] == month:
            row.update(values)
        out.append(",".join(row[name] for name in header))
    path.write_text("\n".join(out) + "\n")
    return str(path)


class TestOutOfRangeArithmetic:
    """Finite inputs whose arithmetic leaves the floating-point range exit
    with one error line: no traceback, no NumPy warning."""

    @pytest.mark.parametrize("flags, message", [
        (["--v0", "800", "--v1", "0", "--v2", "0", "--sigma", "1"], "m_eur is not finite"),
        ([*TABLE_FLAGS, "--spread-start", "1e308"], "spread too large to invert into a rate"),
    ], ids=["money-stock", "spread"])
    def test_simulate_overflow_exits_2(self, tmp_path, capsys, flags, message):
        argv = ["simulate", "--n", "171", *flags, "--seed", "1",
                "--output", str(tmp_path / "x.csv")]
        assert one_error_line(argv, capsys) == (2, f"error: 2001-09: {message}\n")

    @pytest.mark.parametrize("command", ["unit-root", "estimate", "delta-path"])
    def test_underflowing_money_ratio_exits_2(self, dataset, tmp_path, capsys, command):
        # Each value is positive and finite; fx * m_eur / m_dom is 0.
        path = edited_copy(dataset, tmp_path / "tiny.csv",
                           {"m_eur": "1e-300", "fx": "1e-300"}, month="2003-04")
        assert main(["ingest-check", path]) == 0
        capsys.readouterr()
        assert one_error_line([command, path], capsys) == (
            2, "error: 2003-04: fx * m_eur / m_dom is outside the floating-point range\n")

    def test_constant_money_ratio_share_path_exits_3(self, dataset, tmp_path, capsys):
        # FM-OLS fits the constant exactly; its sigma is rounding noise.
        path = edited_copy(dataset, tmp_path / "flat.csv", {"m_eur": "2.5e9"})
        assert one_error_line(["delta-path", path], capsys) == (
            3, "error: correlation undefined for a constant series\n")

    @pytest.mark.parametrize("flags, code, message", [
        (["--v0", "0", "--v1", "0", "--v2", "1e305", "--sigma", "1"],
         2, "non-finite value at 2005-04 (position 43)"),
        (["--v0", "0", "--v1", "0", "--v2", "0", "--sigma", "1e300"],
         3, "conditional long-run variance must be > 0, got nan"),
        ([*TABLE_FLAGS, "--spread-sd", "1e300"], 3, "collinear regressors"),
        (["--v0", "1e308", "--v1", "0", "--v2", "0", "--sigma", "0.2"],
         3, "FM-OLS first-stage residuals are not finite"),
    ], ids=["trend", "sigma", "spread-scale", "first-stage"])
    def test_montecarlo_overflow_exits_with_one_line(self, capsys, flags, code, message):
        argv = ["montecarlo", "--seeds", "10", "--n", "171", *flags]
        assert one_error_line(argv, capsys) == (code, f"error: {message}\n")

    def test_montecarlo_large_spread_fits(self, capsys):
        # Long-run covariances near 1e200: omega112 must not square w12.
        argv = ["montecarlo", "--seeds", "10", "--n", "171", *TABLE_FLAGS,
                "--spread-sd", "1e100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(out)["montecarlo"]["n_seeds"] == 10

    def test_montecarlo_large_sigma_fits(self, capsys):
        # Squares of y near 1e308: R^2 and the degeneracy gate must read
        # the sums of squares at a scale where they do not overflow.
        argv = ["montecarlo", "--seeds", "10", "--n", "171", "--v0", "-0.037619",
                "--v1", "-0.012215", "--v2", "0.000042", "--sigma", "1e154"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(out)["montecarlo"]["estimates"]["sigma"]["median"] == 1e154


class TestMontecarlo:
    MC_ARGS = ["montecarlo", "--seeds", "10", "--n", "120", *TABLE_FLAGS]

    def test_summary_document(self, capsys):
        assert main(self.MC_ARGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["input_digest"] is None
        mc = doc["montecarlo"]
        assert mc["n_seeds"] == 10
        assert mc["n_obs"] == 120
        assert set(mc["estimates"]) == {"v0", "v1", "v2", "sigma"}
        assert mc["truth"]["sigma"] == pytest.approx(0.201694)

    def test_deterministic(self, capsys):
        assert main(self.MC_ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.MC_ARGS) == 0
        assert capsys.readouterr().out == first

    def test_seed_base_shifts_draws(self, capsys):
        assert main(self.MC_ARGS) == 0
        base = capsys.readouterr().out
        assert main(self.MC_ARGS + ["--seed-base", "500"]) == 0
        assert capsys.readouterr().out != base

    def test_too_few_seeds_exits_2(self, capsys):
        argv = ["montecarlo", "--seeds", "5", "--n", "120", *TABLE_FLAGS]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_too_short_sample_exits_2(self, capsys):
        argv = ["montecarlo", "--seeds", "10", "--n", "10", *TABLE_FLAGS]
        assert main(argv) == 2

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def too_large(config):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(pipeline, "run_montecarlo", too_large)
        assert one_error_line(self.MC_ARGS, capsys) == (
            2, "error: not enough memory for these arguments (Unable to allocate 7.28 TiB)\n"
        )

    def test_sample_too_short_for_the_adf_exits_2(self, capsys):
        # FM-OLS accepts 30 months; the first seed's spread ADF refuses them.
        argv = ["montecarlo", "--seeds", "10", "--n", "30", *TABLE_FLAGS]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least 32 observations, got 30\n"


class TestBoundaryArguments:
    """A value at or past the edge of a simulation flag's range exits 2 with
    one ``error:`` line and no traceback. The flag is appended to a valid
    command line; argparse keeps a repeated flag's last value."""

    MONTECARLO = [
        *((["--n", n], f"need n >= 30 observations, got {n}") for n in ("-3", "0", "1", "29")),
        (["--seeds", "0"], "need n_seeds >= 10, got 0"),
        (["--seed-base", "-1"], "seed_base must be >= 0, got -1"),
        (["--spread-sd", "0"], "noise standard deviations must be > 0"),
        (["--eps-sd", "-1"], "noise standard deviations must be > 0"),
        (["--rho", "1"], "AR(1) coefficient must satisfy |rho| < 1, got 1.0"),
        (["--v0", "nan"], "v0 must be finite, got nan"),
        (["--sigma", "0"], "sigma must be > 0, got 0.0"),
        (["--sigma", "inf"], "sigma must be finite, got inf"),
    ]
    SIMULATE = [
        (["--n", "0"], "need n >= 30 observations, got 0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--start", "2001-13"], "month must be in 1..12, got 13"),
        (["--start", "9999-01"], "month 10000-01 is outside 0000-01..9999-12"),
        (["--phi-annual", "-1"], "annual cost must exceed -100%, got -1.0"),
        (["--phi-annual", "inf"], "phi_annual must be finite, got inf"),
        (["--spread-start", "nan"], "spread_start must be finite, got nan"),
    ]

    @pytest.mark.parametrize("argv, message", MONTECARLO,
                             ids=[" ".join(argv) for argv, _ in MONTECARLO])
    def test_montecarlo(self, capsys, argv, message):
        argv = [*TestMontecarlo.MC_ARGS, *argv]
        assert one_error_line(argv, capsys) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", SIMULATE,
                             ids=[" ".join(argv) for argv, _ in SIMULATE])
    def test_simulate(self, capsys, argv, message):
        argv = ["simulate", "--n", "120", *TABLE_FLAGS, *argv]
        assert one_error_line(argv, capsys) == (2, f"error: {message}\n")


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        ([*TestMontecarlo.MC_ARGS, "--lags", "3"], "unrecognized arguments: --lags 3"),
        (["estimate"], "required: data"),
        (["estimate", "DATA", "--format", "xml"], "invalid choice: 'xml'"),
        ([], "required: command"),
        # Abbreviated flags are refused, not expanded.
        (["estimate", "DATA", "--max", "3", "--band", "4"],
         "unrecognized arguments: --max 3 --band 4"),
        ([*TestMontecarlo.MC_ARGS, "--seed", "5"], "unrecognized arguments: --seed 5"),
        (simulate_args("ignored", seed=-1)[:-2], "seed must be >= 0, got -1"),
        ([*TestMontecarlo.MC_ARGS, "--seed-base", "-5"], "seed_base must be >= 0, got -5"),
    ], ids=["unread-flag", "no-data", "bad-format", "no-command", "abbreviations",
            "ambiguous-abbreviation", "negative-seed", "negative-seed-base"])
    def test_one_error_line(self, dataset, capsys, argv, message):
        argv = [dataset if arg == "DATA" else arg for arg in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["estimate", "--help"]],
                             ids=["top", "estimate"])
    def test_help_exits_0(self, capsys, argv):
        assert exit_code(argv) == 0
        assert capsys.readouterr().out.startswith("usage: currsub")
