"""Command line front end.

    scramsey <subcommand> --config SCENARIO.json [--out DIR] [--seed N] [--format csv|json]

Each subcommand accepts scenarios of matching mode: ``flop`` runs
normal, scrambled and retrieved fringe scans; the others map one to
one.  The mode facts live in tables: ``COMMANDS`` maps subcommands to
modes, ``_SUMMARY`` holds each mode's one-line summary as a template
over the report's results, and the harness's key tables say which modes
take ``--seed`` and its ``TABLE_FORMATS`` which ``--format`` values
exist.  Exit codes: 0 success (including runs with warnings), 2 scenario
problems (including an output directory that cannot be created or
written), 3 simulation or protocol errors, 4 fit did not converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ScenarioError, SimulationError
from .harness import _TOP_KEYS, TABLE_FORMATS, load_scenario, run_scenario

COMMANDS = {
    "flop": ("normal", "scrambled", "retrieved"),
    "sdbv": ("sdbv",),
    "ambiguity": ("ambiguity-sweep",),
    "optimize": ("optimize",),
    "secure-choice": ("secure-choice",),
    "fit": ("fit",),
}

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
        sub.add_argument("--format", choices=TABLE_FORMATS, default="csv", help="data table format (default: csv)")
    return parser


#: The summary line of each mode: a ``str.format`` template over ``report["results"]`` and ``decay``,
#: the fit's decay time as text.
_SUMMARY = {
    "normal": "normal: {interval_count} intervals, P_e in [{p_e_min:.6f}, {p_e_max:.6f}]",
    "scrambled": "scrambled: ambiguity {ambiguity:.6f}, widest spread {range_max:.6f}",
    "retrieved": "retrieved: max deviation from the unscrambled fringe {max_deviation_from_normal:.3e}",
    "sdbv": "sdbv: z extent {z_extent:.6f} at scramble area {scramble_area_pi:.4f} pi",
    "ambiguity-sweep": "ambiguity-sweep: {ambiguity:.6f} (widest spread {range_max:.6f})",
    "optimize": "optimize: theta* = {theta_star_pi:.6f} pi, ambiguity {ambiguity:.6f}",
    "secure-choice": "secure-choice: stored {choice!r}, read back {decoded!r}, secrecy gap {secrecy_gap:.3e}",
    "fit": "fit: {frequency_hz:.6g} Hz, amplitude {amplitude:.6g}, decay {decay}, converged={converged}",
}


def _summary_line(report: dict) -> str:
    results = report["results"]
    tau = results.get("decay_time_s")
    decay = f"{tau:.6g} s" if tau is not None and tau < float("inf") else "none"
    return _SUMMARY[report["mode"]].format(**results, decay=decay)


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
            if "seed" not in _TOP_KEYS[mode]:
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
