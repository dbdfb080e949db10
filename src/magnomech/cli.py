"""Command-line interface.

Subcommands: ``point`` (single evaluation), ``sweep`` (grid to file),
``presets`` (list or run shipped presets), ``validate`` (self-check
suites).  Exit codes: 0 success, 1 configuration or usage error (a config
value outside its domain, a missing or malformed option), 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .errors import ConfigError, DomainError, MagnomechError
from .presets import PRESETS, get_preset
from .sweep import emit, run_point, run_sweep, sweep_spec_from_config
from . import validate as validation
from .params import echo_config, load_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnomech",
        description=(
            "Steady-state quantum correlations of the feedback-assisted "
            "opto-magnomechanical model: stability gate, Lyapunov solve, "
            "Gaussian entanglement/steering measures, parameter sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = argparse.ArgumentParser(add_help=False)  # the options of the table-writing commands
    table.add_argument("--format", choices=("csv", "json"), help="default csv")
    table.add_argument("--workers", type=int, help="default 1")

    point = sub.add_parser("point", help="evaluate one parameter point and print the report")
    point.add_argument("--config", required=True, help="flat key/value parameter file")
    point.add_argument("--out", help="write the JSON report here instead of stdout")

    sweep = sub.add_parser("sweep", parents=[table], help="run a 1D/2D parameter sweep to a file")
    sweep.add_argument("--config", required=True, help="parameter file with axis1[/axis2] keys")
    sweep.add_argument("--out", required=True, help="output file")

    presets = sub.add_parser("presets", parents=[table], help="list shipped presets, or run one with --preset")
    presets.add_argument("--preset", help="name of the preset to run")
    presets.add_argument("--out", help="output file (required when running)")

    sub.add_parser("validate", help="run the solver and measure self-check suites")
    return parser


def _output(path):
    """Open ``path`` for writing, truncating it; stdout when no path is given."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_point(args) -> int:
    report = run_point(load_config(args.config))
    payload = {
        "params": echo_config(report.params),
        "report": report.to_record(),
    }
    with _output(args.out) as fh:
        fh.write(json.dumps(payload, indent=1) + "\n")
    return 0


def _run_to_file(spec, args) -> int:
    # opened before the sweep, as a shell redirection is, so a bad --out costs no grid
    with _output(args.out) as fh:
        emit(run_sweep(spec, workers=1 if args.workers is None else args.workers),
             args.format or "csv", fh)
    return 0


def _cmd_presets(args) -> int:
    if not args.preset:
        given = [f"--{name}" for name in ("out", "format", "workers") if getattr(args, name) is not None]
        if given:
            raise ConfigError(f"{', '.join(given)} only with --preset: the listing goes to stdout")
        width = max(len(name) for name in PRESETS)
        for name, preset in PRESETS.items():
            print(f"{name:<{width}}  {preset.description}")
        return 0
    if not args.out:
        raise ConfigError("running a preset requires --out")
    return _run_to_file(get_preset(args.preset).spec, args)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 is a numerical failure here
        if exc.code != 2:
            raise
        return 1
    try:
        if args.command == "point":
            return _cmd_point(args)
        if args.command == "sweep":
            return _run_to_file(sweep_spec_from_config(load_config(args.config)), args)
        if args.command == "presets":
            return _cmd_presets(args)
        return 0 if validation.run_all() else 2  # argparse leaves only "validate"
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MagnomechError as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
