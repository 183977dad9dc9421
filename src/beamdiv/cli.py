"""Command-line front end: budgets, optimization, emulation, calibration, simulation.

Units on every interface: angles in radians (printouts also show urad/mrad),
distances in meters, powers in watts/dBm, rates in bit/s, temperatures in
degrees C.  Divergence conventions (FWHM vs full 1/e^2) are explicit wherever
an angle crosses the boundary.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Failures
print a machine-readable JSON record to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

from . import calibration
from .actuator import run_script
from .beam_optics import QuadratureError
from .calibration import CalibrationTable
from .config import ConfigError, load_config
from .link_budget import budget_report
from .pointing import gain_improvement_db
from .pointing import optimal_divergence, rule_of_thumb_divergence  # noqa: F401  (perfbench traces them through this module)
from .sim import Strategy, adaptive_policy, run_pass, steps_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _angle_human(rad: float) -> str:
    if rad < 1e-3:
        return f"{rad * 1e6:.2f} urad"
    return f"{rad * 1e3:.4f} mrad"


def cmd_budget(args) -> int:
    cfg = load_config(args.config)
    report = budget_report(cfg.link, args.distance, args.rate, pointing_loss_db=args.pointing_loss_db)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(report.table(), args.out)
    return EXIT_OK


def cmd_optimize(args) -> int:
    if args.sigma is not None:
        sigma = args.sigma
    elif args.sigma_deg is not None:
        sigma = math.radians(args.sigma_deg)
    else:
        raise ConfigError("provide --sigma (radians) or --sigma-deg")
    cfg = load_config(args.config)
    state = cfg.make_actuator_state()
    convention = cfg.policy.convention
    # The closed loop's own law: zero jitter commands the collimated minimum, and
    # every pick is clamped to the limits of the actuator's branch.
    theta_rule, theta_opt = (float(adaptive_policy(replace(cfg.policy, strategy=strategy), sigma, state))
                             for strategy in (Strategy.RULE_5_SIGMA, Strategy.EXACT_OPT))
    clamped_note = "sigma <= 0: no finite optimum, clamped to the hardware minimum" if sigma == 0.0 else None
    out = {
        "sigma_rad": sigma,
        "convention": convention.value,
        "rule_of_thumb_rad": theta_rule,
        "exact_optimum_rad": theta_opt,
        "hardware_min_rad": state.dmap.collimated_divergence,
        "hardware_max_rad": state.dmap.branch_max(state.branch),
    }
    if args.reference_divergence is not None:
        out["gain_improvement_db_vs_reference"] = gain_improvement_db(
            args.reference_divergence, theta_opt, convention
        )
        out["reference_divergence_rad"] = args.reference_divergence
    if clamped_note:
        out["warning"] = clamped_note
    if args.format == "json":
        _emit(json.dumps(out, indent=2), args.out)
    else:
        lines = [
            f"pointing sigma     {_angle_human(sigma)}",
            f"rule of thumb (5s) {_angle_human(theta_rule)}",
            f"exact optimum      {_angle_human(theta_opt)}  [{convention.value} gain]",
        ]
        if "gain_improvement_db_vs_reference" in out:
            lines.append(
                f"gain vs reference  {out['gain_improvement_db_vs_reference']:+.2f} dB "
                f"(reference {_angle_human(args.reference_divergence)})"
            )
        if clamped_note:
            lines.append(f"warning: {clamped_note}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_emulate(args) -> int:
    state = load_config(args.config).make_actuator_state()
    lines = []
    if args.script:
        with open(args.script) as fh:
            lines = fh.readlines()
    trace = run_script(lines, state)
    if args.format == "json":
        _emit(json.dumps(trace, indent=2), args.out)
    else:
        cols = list(trace[0].keys())
        rows = [",".join(cols)]
        for snap in trace:
            rows.append(",".join(repr(snap[c]) if not isinstance(snap[c], str) else snap[c] for c in cols))
        _emit("\n".join(rows), args.out)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if not (args.positions or args.profiler or args.thermal or args.chromatic):
        raise ConfigError("provide at least one input CSV (--positions/--profiler/--thermal/--chromatic)")
    position_fit = thermal_fit = chromatic_fit = None
    provenance: dict = {}
    if args.positions:
        pairs = calibration.read_position_csv(args.positions)
        position_fit = calibration.build_position_map(pairs)
        provenance["positions"] = {"source": args.positions, "rows": len(pairs)}
    if args.profiler:
        samples = calibration.read_profiler_csv(args.profiler)
        fit = calibration.fit_divergence(samples)
        provenance["profiler"] = {
            "source": args.profiler,
            "rows": len(samples),
            "divergence_full_1e2_rad": fit.slope,
            "r_squared": fit.r_squared,
        }
    if args.thermal:
        rows = calibration.read_thermal_csv(args.thermal)
        thermal_fit = calibration.build_thermal_model(rows)
        provenance["thermal"] = {"source": args.thermal, "rows": len(rows)}
    if args.chromatic:
        rows = calibration.read_chromatic_csv(args.chromatic)
        chromatic_fit = calibration.build_chromatic_model(rows)
        provenance["chromatic"] = {"source": args.chromatic, "rows": len(rows)}
    table = CalibrationTable(
        position=position_fit, thermal=thermal_fit, chromatic=chromatic_fit, provenance=provenance
    )
    _emit(table.to_json(), args.out)
    if position_fit is not None and not position_fit.passed:
        print(
            json.dumps({"warning": "position map linearity below gate",
                        "r_squared_gate": position_fit.r_squared_gate,
                        "diverging_r_squared": position_fit.diverging.r_squared,
                        "converging_r_squared": position_fit.converging.r_squared}),
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    result = run_pass(
        cfg.geometry,
        cfg.policy,
        cfg.link,
        jitter=cfg.sigma_p_rad,
        seed=seed,
        state=cfg.make_actuator_state(),
    )
    csv_text = steps_to_csv(result.steps)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(csv_text)
        print(json.dumps(result.summary, indent=2))
    else:
        print(csv_text, end="")
        print(json.dumps(result.summary, indent=2), file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``beamdiv`` parser, built once per process: each ``parse_args`` call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="beamdiv",
        description=(
            "Adaptive beam-divergence transmitter toolbox. Angles are radians "
            "(FWHM unless a flag says full 1/e^2), distances meters, rates bit/s, "
            "power watts or dBm, losses dB."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="link budget breakdown and margin at a distance and rate")
    p.add_argument("--config", help="config file (INI or .json); defaults to the design point")
    p.add_argument("--distance", type=float, required=True, help="slant range in meters")
    p.add_argument("--rate", type=float, required=True, help="data rate in bit/s")
    p.add_argument("--pointing-loss-db", type=float, default=0.0, help="pointing loss magnitude in dB (>= 0)")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("optimize", help="optimum divergence for a pointing accuracy sigma")
    sigma = p.add_mutually_exclusive_group()
    sigma.add_argument("--sigma", type=float, help="pointing accuracy sigma in radians")
    sigma.add_argument("--sigma-deg", dest="sigma_deg", type=float, help="sigma in degrees (converted)")
    p.add_argument("--config", help="config file (INI or .json) whose [policy] convention and [map] limits apply; "
                                    "defaults to the design point")
    p.add_argument("--reference-divergence", type=float,
                   help="report gain improvement versus this divergence (radians)")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("emulate", help="run a command script against the actuator emulator")
    p.add_argument("--script", help="newline-delimited command file (set-divergence/set-temperature/"
                                    "set-wavelength/steer/step/query); omit for the initial state only")
    p.add_argument("--config", help="config file overriding the device models")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="trace output path (default stdout)")
    p.set_defaults(func=cmd_emulate)

    p = sub.add_parser("calibrate", help="reduce measurement CSVs into a calibration table (JSON)")
    p.add_argument("--positions", help="CSV with position_m,divergence_rad")
    p.add_argument("--profiler", help="CSV with distance_m,spot_diameter_m")
    p.add_argument("--thermal", help="CSV with theta_set_rad,temp_c,theta_meas_rad")
    p.add_argument("--chromatic", help="CSV with theta_set_rad,wavelength_m,theta_meas_rad")
    p.add_argument("--out", help="calibration table JSON path (default stdout)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="closed-loop LEO pass simulation (per-tick CSV + summary JSON)")
    p.add_argument("--config", help="config file (INI or .json); defaults to the design point")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="per-tick CSV path; summary JSON goes to stdout")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The exit code follows the exception type, in this order: a ConfigError
    # is also a ValueError.
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        code, message = EXIT_CONFIG, str(exc)
    except (ValueError, QuadratureError) as exc:
        code, message = EXIT_NUMERICAL, str(exc)
    print(json.dumps({"error": message, "command": args.command}), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
