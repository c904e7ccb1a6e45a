"""Command-line front end.

Subcommands:
  optimize    solve one distance, print the result as a CSV row
  sweep       distance sweep of all strategies plus cloee and the oracle
  curves      eta/rate versus frame size for all modes at one distance
  dump-modes  the six-row PHY mode table (and frame constants) as CSV

All numeric defaults come from the scenario config; see scenario.py for the
file format.  Exit codes: 0 ok, 2 config/value errors, 3 I/O errors.  main
prints a command's stdout, a text or the paths it wrote, once the command returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

from .errors import ConfigError
from .frame import FRAME_CONSTANTS, MODE_TABLE
from .optimizer import cloee
from .output import csv_text, write_files
from .scenario import _KEYS, Scenario, _parse_float, load_scenario
from .sweep import emit_curves, emit_fixed_distance_curves, run_sweep

OPT_HEADER = ("distance,n_t,n_cpb,eta_bits_per_joule,rate_bps,lambda,"
              "feasible,iterations,branch,kkt_rate")


def _load(args) -> Scenario:
    scenario = load_scenario(args.config) if args.config else Scenario()
    overrides = {key: _KEYS[key](key, raw) for key in ("seed", "shadowing")
                 if (raw := getattr(args, key)) is not None}
    return dataclasses.replace(scenario, **overrides) if overrides else scenario


def _point(args) -> tuple[float, Scenario, float]:
    """The checked --distance, the scenario and its first shadowing draw (chi)."""
    distance = _parse_float("--distance", args.distance)
    if not (math.isfinite(distance) and distance > 0):
        raise ConfigError("--distance", f"must be finite and > 0, got {distance}")
    scenario = _load(args)
    return distance, scenario, next(scenario.chis())


def _cmd_optimize(args) -> str:
    distance, scenario, chi = _point(args)
    res = cloee(scenario.link_model(), distance, scenario.qos, scenario.solver, chi)
    text = csv_text(OPT_HEADER, zip(*[(distance, res.n_t_star, res.n_cpb_star, res.eta, res.rate,
                                       res.lambda_, res.feasible, res.iterations, res.branch,
                                       res.kkt_rate)]))
    if args.out:
        write_files(args.out, {"optimize.csv": text})
    return text


def _cmd_sweep(args) -> list[Path]:
    return emit_curves(run_sweep(_load(args)), args.out, fmt=args.format)


def _cmd_curves(args) -> list[Path]:
    distance, scenario, chi = _point(args)
    return emit_fixed_distance_curves(scenario.link_model(), distance, scenario.qos,
                                      scenario.solver, args.out, fmt=args.format, chi=chi)


def _cmd_dump_modes(args) -> str | list[Path]:
    modes = csv_text("n_cpb,t_w_s,t_sym_s,rate_uncoded_bps,rate_coded_bps", zip(*[
        (m.n_cpb, m.t_w, m.t_sym, m.rate_uncoded, m.rate_coded) for m in MODE_TABLE]))
    if not args.out:
        return modes
    constants = csv_text("name,value", zip(*[(f.name, getattr(FRAME_CONSTANTS, f.name))
                                             for f in dataclasses.fields(FRAME_CONSTANTS)]))
    return write_files(args.out, {"modes.csv": modes, "frame_constants.csv": constants})


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="scenario config file")
    sub.add_argument("--seed", help="shadowing RNG seed")
    sub.add_argument("--shadowing", metavar="on|off",
                     help="lognormal shadowing draws (default: scenario setting)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args reads it and changes none of
    its state, so every main call after the first reuses it."""
    parser = argparse.ArgumentParser(
        prog="cloee",
        description="Energy-efficiency link adaptation for IEEE 802.15.6 IR-UWB",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="solve a single distance")
    p_opt.add_argument("--distance", required=True, metavar="METERS")
    p_opt.add_argument("--out", metavar="DIR", help="also write optimize.csv here")
    _add_common(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="distance sweep of all strategies")
    p_sweep.add_argument("--out", metavar="DIR", default=".", help="output directory")
    p_sweep.add_argument("--format", choices=("csv", "svg"), default="csv")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_curves = sub.add_parser("curves", help="eta/rate vs frame size at one distance")
    p_curves.add_argument("--distance", default="8.4", metavar="METERS")
    p_curves.add_argument("--out", metavar="DIR", default=".", help="output directory")
    p_curves.add_argument("--format", choices=("csv", "svg"), default="csv")
    _add_common(p_curves)
    p_curves.set_defaults(func=_cmd_curves)

    p_dump = sub.add_parser("dump-modes", help="PHY mode table as CSV")
    p_dump.add_argument("--out", metavar="DIR", help="write modes.csv and frame_constants.csv")
    p_dump.set_defaults(func=_cmd_dump_modes)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
        print(out if isinstance(out, str) else "".join(f"{p}\n" for p in out), end="")
        return 0
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"value-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
