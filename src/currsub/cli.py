"""Command-line entry point.

Six batch commands over the pipeline:

  ingest-check   validate a dataset file and report its fingerprint
  unit-root      the 2x2x2 ADF/PP report grid for the derived series
  estimate       full analysis: unit roots, fully modified fit, share path
  delta-path     the fitted (1-delta)/delta path as a two-column CSV
  simulate       write a synthetic dataset generated by the model
  montecarlo     simulation-estimation validation summary

All but ``simulate`` take ``--config <json>`` plus flag overrides (flags
win), each for only the settings it reads (see ``build_parser``). Exit
status: 0 success, 2 invalid input, parameters or usage, 3 numerical
degeneracy. Reports go to stdout unless ``--output`` names a file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import model, pipeline
from .errors import DegeneracyError, ParameterError, ValidationError
from .series import MonthStamp

__all__ = ["main", "build_parser"]

_SETTING_FLAGS = {
    "phi_annual": ("--phi-annual", {"type": float}),
    "lags": ("--lags", {"type": int, "help": "fixed ADF augmentation order"}),
    "max_lags": ("--max-lags", {"type": int}),
    "bandwidth": ("--bandwidth", {"type": int, "help": "fixed kernel bandwidth"}),
    "trend_origin": ("--trend-origin", {
        "metavar": "YYYY-MM", "help": "month anchoring the trend index t = 0"}),
    "output_format": ("--format", {"choices": ("json", "csv")}),
}


def _load_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    """Merge defaults, the optional config file, and command-line flags."""
    values: dict = {}
    path = args.config
    if path:
        try:
            with open(path, encoding="utf-8-sig") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise ParameterError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParameterError(f"config {path} must hold a JSON object")
        unknown = set(loaded) - set(args.settings)
        if unknown:
            raise ParameterError(
                f"unknown config keys for {args.command}: {sorted(unknown)}"
            )
        values.update(loaded)
    for key in args.settings:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    origin = values.get("trend_origin")
    if isinstance(origin, str):
        values["trend_origin"] = MonthStamp.parse(origin)
    return pipeline.PipelineConfig(**values)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {output}: {exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_ingest_check(args: argparse.Namespace) -> int:
    config = _load_config(args)
    ingested = pipeline.ingest(args.data)
    doc = pipeline.build_report(config, ingested)
    _emit(pipeline.render_report(doc, config.output_format), args.output)
    return 0


def _cmd_unit_root(args: argparse.Namespace) -> int:
    config = _load_config(args)
    ingested = pipeline.ingest(args.data)
    derived = pipeline.derive_series(ingested.rows, config)
    runs = pipeline.run_unit_roots(derived, config)
    doc = pipeline.build_report(config, ingested, unit_roots=runs)
    _emit(pipeline.render_report(doc, config.output_format), args.output)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    ingested = pipeline.ingest(args.data)
    derived = pipeline.derive_series(ingested.rows, config)
    runs = pipeline.run_unit_roots(derived, config)
    estimation = pipeline.run_estimation(derived, config)
    doc = pipeline.build_report(
        config, ingested, unit_roots=runs, estimation=estimation
    )
    _emit(pipeline.render_report(doc, config.output_format), args.output)
    return 0


def _cmd_delta_path(args: argparse.Namespace) -> int:
    config = _load_config(args)
    ingested = pipeline.ingest(args.data)
    derived = pipeline.derive_series(ingested.rows, config)
    estimation = pipeline.run_estimation(derived, config)
    _emit(pipeline.render_delta_path_csv(estimation), args.output)
    return 0


def _coeffs_from_args(args: argparse.Namespace) -> model.TrendCoefficients:
    return model.TrendCoefficients(
        v0=args.v0, v1=args.v1, v2=args.v2, sigma=args.sigma
    )


def _noise_from_args(args: argparse.Namespace) -> model.DgpNoise:
    return model.DgpNoise(
        spread_sd=args.spread_sd, rho=args.rho, eps_sd=args.eps_sd
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    sim = model.simulate_dgp(
        _coeffs_from_args(args),
        args.n,
        _noise_from_args(args),
        args.seed,
        start=MonthStamp.parse(args.start),
        spread_start=args.spread_start,
    )
    rows = pipeline.dataset_rows_from_simulation(sim, phi_annual=args.phi_annual)
    _emit(pipeline.dataset_csv_text(rows), args.output)
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    config = _load_config(args)
    mc = pipeline.MonteCarloConfig(
        n_seeds=args.seeds,
        n_obs=args.n,
        coeffs=_coeffs_from_args(args),
        noise=_noise_from_args(args),
        seed_base=args.seed_base,
    )
    doc = {
        "config": config.metadata(),
        "input_digest": None,
        "montecarlo": pipeline.run_montecarlo(mc),
    }
    _emit(pipeline.render_report(doc, config.output_format), args.output)
    return 0


def _add_config_flags(cmd: argparse.ArgumentParser, settings: tuple) -> None:
    cmd.add_argument("--config", metavar="PATH", help="JSON settings file")
    for key in settings:
        flag, options = _SETTING_FLAGS[key]
        cmd.add_argument(flag, dest=key, **options)
    cmd.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    cmd.set_defaults(settings=settings)


def _add_dgp_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--n", type=int, required=True, help="sample length")
    cmd.add_argument("--v0", type=float, required=True)
    cmd.add_argument("--v1", type=float, required=True)
    cmd.add_argument("--v2", type=float, required=True)
    cmd.add_argument("--sigma", type=float, required=True)
    cmd.add_argument("--spread-sd", dest="spread_sd", type=float, default=0.05)
    cmd.add_argument("--rho", type=float, default=0.5)
    cmd.add_argument("--eps-sd", dest="eps_sd", type=float, default=0.05)


class _Parser(argparse.ArgumentParser):
    """Takes each flag only as spelled; a usage error raises ParameterError."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    # Subparsers are built with the parent's class, so they inherit both.
    parser = _Parser(
        prog="currsub",
        description="Currency-substitution money demand analysis pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The settings each data command reads, hence the only ones it accepts.
    for name, handler, settings in (
        ("ingest-check", _cmd_ingest_check, ("output_format",)),
        ("unit-root", _cmd_unit_root,
         ("phi_annual", "lags", "max_lags", "bandwidth", "output_format")),
        ("estimate", _cmd_estimate, tuple(_SETTING_FLAGS)),
        ("delta-path", _cmd_delta_path, ("phi_annual", "bandwidth", "trend_origin")),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("data", help="input CSV file")
        _add_config_flags(cmd, settings)
        cmd.set_defaults(handler=handler)

    sim = sub.add_parser("simulate")
    _add_dgp_flags(sim)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--start", default="2001-09", metavar="YYYY-MM")
    sim.add_argument("--spread-start", dest="spread_start", type=float, default=0.0)
    sim.add_argument(
        "--phi-annual", dest="phi_annual", type=float,
        default=pipeline.PipelineConfig.phi_annual,
    )
    sim.add_argument("--output", metavar="PATH")
    sim.set_defaults(handler=_cmd_simulate)

    mc = sub.add_parser("montecarlo")
    mc.add_argument("--seeds", type=int, required=True, help="number of replications")
    _add_dgp_flags(mc)
    mc.add_argument("--seed-base", dest="seed_base", type=int, default=0)
    _add_config_flags(mc, ("output_format",))
    mc.set_defaults(handler=_cmd_montecarlo)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the arguments ask for more than the machine has
        print(f"error: not enough memory for these arguments ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
