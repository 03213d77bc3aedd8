"""Command line front end.

    scramsey <subcommand> --config SCENARIO.json [--out DIR] [--seed N] [--format csv|json]

Each subcommand accepts scenarios of matching mode: ``flop`` runs
normal, scrambled and retrieved fringe scans; the others map one to
one.  Exit codes: 0 success (including runs with warnings), 2 scenario
problems (including an output directory that cannot be created or
written), 3 simulation or protocol errors, 4 fit did not converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ScenarioError, SimulationError
from .harness import load_scenario, run_scenario

COMMANDS = {
    "flop": ("normal", "scrambled", "retrieved"),
    "sdbv": ("sdbv",),
    "ambiguity": ("ambiguity-sweep",),
    "optimize": ("optimize",),
    "secure-choice": ("secure-choice",),
    "fit": ("fit",),
}

_SEEDED_MODES = ("normal", "scrambled", "retrieved")

_HELP = {
    "flop": "excitation probability versus read delay (normal, scrambled or retrieved)",
    "sdbv": "states a scramble pulse reaches as the shot phase sweeps",
    "ambiguity": "readout spread over the shot phase, per read delay",
    "optimize": "search the scramble area that maximizes readout ambiguity",
    "secure-choice": "store a yes/no choice, read it back, check secrecy",
    "fit": "fit a damped sinusoid to fringe data",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scramsey", description="two-interferometer scrambled-memory simulator")
    commands = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, modes in COMMANDS.items():
        sub = commands.add_parser(name, help=_HELP[name], description=f"Runs scenarios with mode in {modes}.")
        sub.add_argument("--config", type=Path, required=True, metavar="PATH", help="scenario JSON file")
        sub.add_argument("-o", "--out", type=Path, default=Path("out"), metavar="DIR", help="output directory (default: ./out)")
        sub.add_argument("--seed", type=int, default=None, metavar="U64", help="override the scenario seed (trial modes only)")
        sub.add_argument("--format", choices=("csv", "json"), default="csv", help="data table format (default: csv)")
    return parser


def _summary_line(report: dict) -> str:
    mode = report["mode"]
    results = report["results"]
    if mode == "normal":
        return (
            f"normal: {results['interval_count']} intervals, "
            f"P_e in [{results['p_e_min']:.6f}, {results['p_e_max']:.6f}]"
        )
    if mode == "scrambled":
        return f"scrambled: ambiguity {results['ambiguity']:.6f}, widest spread {results['range_max']:.6f}"
    if mode == "retrieved":
        return f"retrieved: max deviation from the unscrambled fringe {results['max_deviation_from_normal']:.3e}"
    if mode == "sdbv":
        return f"sdbv: z extent {results['z_extent']:.6f} at scramble area {results['scramble_area_pi']:.4f} pi"
    if mode == "ambiguity-sweep":
        return f"ambiguity-sweep: {results['ambiguity']:.6f} (widest spread {results['range_max']:.6f})"
    if mode == "optimize":
        return f"optimize: theta* = {results['theta_star_pi']:.6f} pi, ambiguity {results['ambiguity']:.6f}"
    if mode == "secure-choice":
        return (
            f"secure-choice: stored {results['choice']!r}, read back {results['decoded']!r}, "
            f"secrecy gap {results['secrecy_gap']:.3e}"
        )
    tau = results["decay_time_s"]
    tau_text = f"{tau:.6g} s" if tau is not None and tau < float("inf") else "none"
    return (
        f"fit: {results['frequency_hz']:.6g} Hz, amplitude {results['amplitude']:.6g}, "
        f"decay {tau_text}, converged={results['converged']}"
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        mode = scenario["mode"]
        if mode not in COMMANDS[args.command]:
            raise ScenarioError(
                "mode", f"{mode!r} scenarios do not run under the {args.command!r} subcommand"
            )
        if args.seed is not None:
            if mode not in _SEEDED_MODES:
                raise ScenarioError("seed", f"--seed does not apply to mode {mode!r}")
            if not 0 <= args.seed < 2**64:
                raise ScenarioError("seed", "must fit an unsigned 64-bit integer")
            scenario["seed"] = args.seed
        # a phase overflow is reported once, as exit 3, not also as numpy warnings
        with np.errstate(all="ignore"):
            report = run_scenario(scenario, args.out, base_dir=args.config.parent, fmt=args.format)
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 2
    except SimulationError as err:
        print(f"simulation error: {err}", file=sys.stderr)
        return 3
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print(_summary_line(report))
    for name in report["outputs"]:
        print(f"wrote {args.out / name}")
    if report["mode"] == "fit" and not report["results"]["converged"]:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
