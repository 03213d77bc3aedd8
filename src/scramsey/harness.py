"""Scenario files in, CSV and JSON artifacts out.

A scenario is a small JSON document with a ``version`` and a ``mode``
plus mode-specific sections.  Units are chosen for config ergonomics:
detunings in Hz (delta = 2*pi*f), pulse areas and phases in units of
pi, times in seconds.  Everything the engine needs is derived from
those at run time.

Every run writes a ``report.json`` plus mode-specific data tables with
fixed names into the output directory; tables are CSV by default or
JSON (``{"columns": ..., "rows": ...}``) when asked.  Fringe scans are
written long format as ``T_seconds, T_normalized, phi_S, P_e`` (one row
per interval and shot phase, the normalized column counts fringe
periods 2*pi/delta_w), state clouds as ``phi_S, x, y, z`` and their
readout projections as ``phi_S, x, z``.  The report echoes the scenario
verbatim and also records the fully resolved configuration (rad/s, rad,
seconds) actually simulated.  Writes are atomic (temp file then
rename), floats are serialized with their shortest round-trip
representation, and nothing time- or host-dependent is ever written,
so rerunning a scenario reproduces every artifact byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import analysis, expsim, protocol
from .bloch import EXCITED, GROUND, TWO_PI, _freeze, validate_state
from .errors import ScenarioError
from .sequence import FrameSet, ramsey, retrieved_ramsey, scrambled_ramsey

SCENARIO_VERSION = 1

MODES = ("normal", "scrambled", "retrieved", "sdbv", "ambiguity-sweep", "optimize", "secure-choice", "fit")

TABLE_FORMATS = ("csv", "json")

FLOP_COLUMNS = ("T_seconds", "T_normalized", "phi_S", "P_e")

#: Named record states a scenario may ask to scramble.
RECORD_STATES = {
    "ground": GROUND,
    "excited": EXCITED,
    "superposition": _freeze([0.0, -1.0, 0.0]),
}

_TOP_KEYS = {
    "normal": {"frames", "intervals", "seed", "trials", "noise"},
    "scrambled": {"frames", "intervals", "phi_samples", "pulses", "timing", "seed", "trials", "noise"},
    "retrieved": {"frames", "intervals", "phi_samples", "pulses", "timing", "seed", "trials", "noise"},
    "sdbv": {"record", "pulses", "phi_samples"},
    "ambiguity-sweep": {"frames", "intervals", "phi_samples", "record", "pulses"},
    "optimize": {"frames", "intervals", "phi_samples", "record", "optimizer"},
    "secure-choice": {"frames", "choice", "timing", "pulses", "phi_samples"},
    "fit": {"fit"},
}

_TIMING_KEYS = {
    "scrambled": {"t1_s"},
    "retrieved": {"t1_s", "t2_s", "store_halfturns_m"},
    "secure-choice": {"t1_s", "t2_s", "store_halfturns_m", "t3_s", "read_turns_k"},
}

_PULSE_KEYS = {
    "scrambled": {"scramble_area_pi"},
    "retrieved": {"scramble_area_pi"},
    "sdbv": {"scramble_area_pi"},
    "ambiguity-sweep": {"scramble_area_pi"},
    "secure-choice": {"scramble_area_pi", "read_area_pi"},
}

_schema_cache = None
_validator_cache = None


def scenario_schema() -> dict:
    """The JSON schema scenario files are validated against."""
    global _schema_cache
    if _schema_cache is None:
        text = resources.files("scramsey.schema").joinpath("scenario-v1.schema.json").read_text("utf-8")
        _schema_cache = json.loads(text)
    return _schema_cache


def _validator() -> jsonschema.Draft202012Validator:
    """A validator for :func:`scenario_schema`, built once per process.

    The packaged schema is not meta-validated here, on every process
    start; a test checks the shipped file instead.
    """
    global _validator_cache
    if _validator_cache is None:
        _validator_cache = jsonschema.Draft202012Validator(scenario_schema())
    return _validator_cache


def validate_scenario(scenario) -> None:
    """Structural (JSON schema) then semantic validation.

    Raises :class:`ScenarioError` naming the offending field.
    """
    if not isinstance(scenario, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    err = jsonschema.exceptions.best_match(_validator().iter_errors(scenario))
    if err is not None:
        field = ".".join(str(part) for part in err.absolute_path) or "<root>"
        raise ScenarioError(field, err.message)

    mode = scenario["mode"]
    allowed = _TOP_KEYS[mode] | {"version", "mode"}
    for key in scenario:
        if key not in allowed:
            raise ScenarioError(key, f"not valid in mode '{mode}'")
    for section, table in (("timing", _TIMING_KEYS), ("pulses", _PULSE_KEYS)):
        for key in scenario.get(section, {}):
            if key not in table.get(mode, set()):
                raise ScenarioError(f"{section}.{key}", f"not valid in mode '{mode}'")

    intervals = scenario.get("intervals", {})
    ranged = {"start_s", "stop_s"} & intervals.keys()
    if ranged and "periods" in intervals:
        raise ScenarioError("intervals", "give either periods or start_s/stop_s, not both")
    if len(ranged) == 1:
        raise ScenarioError("intervals", "start_s and stop_s must be given together")
    if ranged and intervals["stop_s"] <= intervals["start_s"]:
        raise ScenarioError("intervals.stop_s", "must exceed start_s")

    timing = scenario.get("timing", {})
    if "t2_s" in timing and "store_halfturns_m" in timing:
        raise ScenarioError("timing", "give either t2_s or store_halfturns_m, not both")
    if "t3_s" in timing and "read_turns_k" in timing:
        raise ScenarioError("timing", "give either t3_s or read_turns_k, not both")

    if mode == "secure-choice" and "choice" not in scenario:
        raise ScenarioError("choice", "required in mode 'secure-choice'")
    if mode == "fit":
        fit = scenario.get("fit")
        if fit is None:
            raise ScenarioError("fit", "required in mode 'fit'")
        sources = ("input_csv" in fit) + ("data" in fit)
        if sources != 1:
            raise ScenarioError("fit", "give exactly one of input_csv or data")
        if "data" in fit and len(fit["data"]["x"]) != len(fit["data"]["y"]):
            raise ScenarioError("fit.data", "x and y must have the same length")


def load_scenario(path) -> dict:
    """Read and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except OSError as err:
        raise ScenarioError(str(path), f"cannot read scenario file ({err})") from None

    def reject_constant(token: str):
        raise ScenarioError(str(path), f"{token} is not valid JSON; every number must be finite")

    try:
        scenario = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as err:
        raise ScenarioError(str(path), f"not valid JSON ({err})") from None
    validate_scenario(scenario)
    return scenario


# ------------------------------------------------------------ resolution


def _frames(scenario) -> FrameSet:
    cfg = scenario.get("frames", {})
    return FrameSet(
        TWO_PI * cfg.get("delta_w_hz", 100.0),
        TWO_PI * cfg.get("delta_s_hz", 100.0),
        np.pi * cfg.get("phi_s_pi", 0.0),
    )


def _intervals(scenario, frames: FrameSet) -> np.ndarray:
    cfg = scenario.get("intervals", {})
    count = cfg.get("count", analysis.DEFAULT_INTERVAL_POINTS)
    if "start_s" in cfg:
        return np.linspace(cfg["start_s"], cfg["stop_s"], count)
    return analysis.default_intervals(frames.delta_w, cfg.get("periods", analysis.DEFAULT_PERIODS), count)


def _record(scenario) -> np.ndarray:
    value = scenario.get("record", "excited")
    if isinstance(value, str):
        return RECORD_STATES[value]
    state = np.asarray(value, dtype=float)
    try:
        return validate_state(state)
    except ValueError as err:
        raise ScenarioError("record", str(err)) from None


def _phi_samples(scenario) -> int:
    return scenario.get("phi_samples", analysis.DEFAULT_PHI_SAMPLES)


def _scramble_area(scenario) -> float:
    return np.pi * scenario.get("pulses", {}).get("scramble_area_pi", 1.0)


def _read_area(scenario) -> float:
    return np.pi * scenario.get("pulses", {}).get("read_area_pi", 0.5)


def _noise(scenario) -> expsim.NoiseModel:
    cfg = scenario.get("noise", {})
    tau = cfg.get("contrast_decay_tau_s")
    return expsim.NoiseModel(
        seed=scenario.get("seed", 0),
        atom_count=cfg.get("atom_count"),
        contrast_decay_tau=np.inf if tau is None else tau,
        phase_jitter_sigma=cfg.get("phase_jitter_sigma", 0.0),
    )


def _store_time(scenario, frames: FrameSet) -> float:
    timing = scenario.get("timing", {})
    if "t2_s" in timing:
        return float(timing["t2_s"])
    return protocol.retrieve_delay(frames.delta_s, timing.get("store_halfturns_m", 0))


# --------------------------------------------------------------- writing


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _cells(rows, nulls: bool) -> list:
    """Each column of ``rows`` (a 2-D array or a sequence of rows) as text, formatted a column at a time:
    integers by ``str(int)``, floats by shortest round-trip ``repr``, non-finite ones as ``null`` if ``nulls``."""
    out = []
    for column in rows.T if isinstance(rows, np.ndarray) else map(np.asarray, zip(*rows)):
        ints = column.dtype.kind in "biu"
        out.append(list(map(str, map(int, column.tolist())) if ints else map(repr, column.astype(float).tolist())))
        for i in np.flatnonzero(~np.isfinite(column)).tolist() if nulls else ():
            out[-1][i] = "null"
    return out


def write_csv(path, header, rows) -> None:
    """Write rows of numbers (a 2-D array or a sequence of rows) with shortest round-trip float formatting."""
    lines = [",".join(header), *map(",".join, zip(*_cells(rows, False)))]
    _write_text(Path(path), "\n".join(lines) + "\n")


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    return value


def write_json(path, payload) -> None:
    """Canonical JSON: sorted keys, two-space indent, non-finite -> null.

    A table ``{"columns": names, "rows": 2-D array}`` is formatted a column
    at a time, to the same bytes.
    """
    table = payload["rows"] if isinstance(payload, dict) and payload.keys() == {"columns", "rows"} else None
    if isinstance(table, np.ndarray) and table.ndim == 2 and table.dtype.kind in "iuf" and table.size:
        names = ",\n    ".join(map(json.dumps, payload["columns"]))
        rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*_cells(table, True))))
        text = f'{{\n  "columns": [\n    {names}\n  ],\n  "rows": [\n    [\n      {rows}\n    ]\n  ]\n}}'
    else:
        text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_text(Path(path), text + "\n")


def _write_table(out: Path, stem: str, header, columns, fmt: str) -> str:
    """Write equal-length numeric columns as ``stem.csv`` or ``stem.json``; returns the file name."""
    name, rows = f"{stem}.{fmt}", np.column_stack(columns)
    if fmt == "json":
        write_json(out / name, {"columns": list(header), "rows": rows})
    else:
        write_csv(out / name, header, rows)
    return name


def _write_flop(out: Path, delta_w: float, intervals, phis, p_e, fmt: str) -> str:
    """Write the long-format fringe table, one contiguous block per shot phase.

    ``p_e`` has shape (len(phis), len(intervals)); the normalized column
    is the interval in units of the fringe period 2*pi/delta_w.
    """
    n, normalized = np.size(phis), intervals * delta_w / TWO_PI
    columns = [np.tile(intervals, n), np.tile(normalized, n), np.repeat(phis, intervals.size), p_e.ravel()]
    return _write_table(out, "flop", FLOP_COLUMNS, columns, fmt)


def _resolved_frames(frames: FrameSet) -> dict:
    return {
        "delta_w_rad_s": frames.delta_w,
        "delta_s_rad_s": frames.delta_s,
        "phi_s_rad": frames.phi_s,
    }


def _resolved_intervals(intervals) -> dict:
    # grids are always uniform, so endpoints plus count reproduce them
    return {"start_s": float(intervals[0]), "stop_s": float(intervals[-1]), "count": int(intervals.size)}


def _resolved_noise(noise: expsim.NoiseModel) -> dict:
    tau = noise.contrast_decay_tau
    return {
        "seed": noise.seed,
        "atom_count": noise.atom_count,
        "contrast_decay_tau_s": None if np.isinf(tau) else float(tau),
        "phase_jitter_sigma": noise.phase_jitter_sigma,
    }


# ---------------------------------------------------------------- runners


def _maybe_trials(scenario, builder, frames, intervals, out: Path, report: dict, fmt: str) -> list:
    cfg = scenario.get("trials")
    if cfg is None:
        return []
    noise = _noise(scenario)
    randomize = cfg.get("randomize_phi", True)
    stats = expsim.run_trials(builder, frames, noise, cfg["count"], intervals, randomize)
    header = ["T_seconds"] + [f"trial_{i:03d}" for i in range(stats.trials)] + ["mean", "std"]
    name = _write_table(out, "trials", header, [stats.intervals, *stats.samples, stats.mean, stats.std], fmt)
    report["results"]["trials"] = {
        "count": stats.trials,
        "seed": noise.seed,
        "std_max": float(stats.std.max()),
        "range_max": float((stats.samples.max(axis=0) - stats.samples.min(axis=0)).max()),
    }
    report["resolved"]["trials"] = {"count": stats.trials, "randomize_phi": randomize}
    report["resolved"]["noise"] = _resolved_noise(noise)
    return [name]


def _run_normal(scenario, out: Path, report: dict, fmt: str) -> list:
    frames = _frames(scenario)
    intervals = _intervals(scenario, frames)
    curve = analysis.normal_flop(frames.delta_w, intervals)
    # no scramble pulse fires here; the phi_S column just echoes the
    # configured frame phase so every fringe table shares one layout
    name = _write_flop(out, frames.delta_w, curve.intervals, frames.phi_s, curve.p_e, fmt)
    report["resolved"] = {
        "frames": _resolved_frames(frames),
        "intervals": _resolved_intervals(intervals),
    }
    report["results"] = {
        "interval_count": int(intervals.size),
        "interval_stop_s": float(intervals[-1]),
        "p_e_min": float(curve.p_e.min()),
        "p_e_max": float(curve.p_e.max()),
    }
    return [name] + _maybe_trials(scenario, ramsey, frames, intervals, out, report, fmt)


def _run_scrambled(scenario, out: Path, report: dict, fmt: str) -> list:
    frames = _frames(scenario)
    intervals = _intervals(scenario, frames)
    area = _scramble_area(scenario)
    t1 = scenario.get("timing", {}).get("t1_s", 5e-3)
    family = analysis.scrambled_flop(area, t1, intervals, _phi_samples(scenario), frames)
    name = _write_flop(out, frames.delta_w, family.intervals, family.phis, family.p_e, fmt)
    ranges = family.ranges()
    report["resolved"] = {
        "frames": _resolved_frames(frames),
        "intervals": _resolved_intervals(intervals),
        "phi_samples": int(family.phis.size),
        "scramble_area_rad": area,
        "t1_s": t1,
    }
    report["results"] = {
        "scramble_area_pi": area / np.pi,
        "t1_s": t1,
        "phi_samples": int(family.phis.size),
        "ambiguity": float(ranges.min()),
        "range_max": float(ranges.max()),
    }
    builder = lambda interval: scrambled_ramsey(area, t1, interval)
    return [name] + _maybe_trials(scenario, builder, frames, intervals, out, report, fmt)


def _run_retrieved(scenario, out: Path, report: dict, fmt: str) -> list:
    frames = _frames(scenario)
    intervals = _intervals(scenario, frames)
    area = _scramble_area(scenario)
    t1 = scenario.get("timing", {}).get("t1_s", 5e-3)
    t2 = _store_time(scenario, frames)
    store_phase = frames.delta_s * t2
    if protocol._phase_gap(store_phase, np.pi) > protocol._phase_tol(store_phase):
        report["warnings"].append(
            f"delta_s * t2 = {store_phase!r} rad is not an odd multiple of pi; the retrieve pulse will not descramble"
        )
    family = analysis.retrieved_flop(area, t1, t2, intervals, _phi_samples(scenario), frames)
    name = _write_flop(out, frames.delta_w, family.intervals, family.phis, family.p_e, fmt)
    target = analysis.normal_flop(frames.delta_w, t1 + t2 + intervals).p_e
    report["resolved"] = {
        "frames": _resolved_frames(frames),
        "intervals": _resolved_intervals(intervals),
        "phi_samples": int(family.phis.size),
        "scramble_area_rad": area,
        "t1_s": t1,
        "t2_s": t2,
    }
    report["results"] = {
        "scramble_area_pi": area / np.pi,
        "t1_s": t1,
        "t2_s": t2,
        "phi_samples": int(family.phis.size),
        "range_max": float(family.ranges().max()),
        "max_deviation_from_normal": float(np.abs(family.p_e - target[None, :]).max()),
    }
    builder = lambda interval: retrieved_ramsey(area, t1, t2, interval)
    return [name] + _maybe_trials(scenario, builder, frames, intervals, out, report, fmt)


def _run_sdbv(scenario, out: Path, report: dict, fmt: str) -> list:
    recorded = _record(scenario)
    area = _scramble_area(scenario)
    samples = _phi_samples(scenario)
    result = analysis.sdbv(recorded, area, samples)
    cloud_name = _write_table(out, "sdbv", ["phi_S", "x", "y", "z"], [result.phis, *result.points.T], fmt)
    projection = analysis.sdbv_projection_xz(recorded, area, 0.0, samples)
    proj_name = _write_table(out, "projection", ["phi_S", "x", "z"], [result.phis, *projection.T], fmt)
    z = result.points[:, 2]
    report["resolved"] = {
        "record": [float(v) for v in recorded],
        "scramble_area_rad": area,
        "phi_samples": int(samples),
        "projection_wait_phase_rad": 0.0,
    }
    report["results"] = {
        "scramble_area_pi": area / np.pi,
        "phi_samples": int(samples),
        "z_min": float(z.min()),
        "z_max": float(z.max()),
        "z_extent": float(np.ptp(z)),
        "projection_x_min": float(projection[:, 0].min()),
        "projection_x_max": float(projection[:, 0].max()),
        "projection_z_min": float(projection[:, 1].min()),
        "projection_z_max": float(projection[:, 1].max()),
    }
    return [cloud_name, proj_name]


def _run_ambiguity(scenario, out: Path, report: dict, fmt: str) -> list:
    frames = _frames(scenario)
    intervals = _intervals(scenario, frames)
    recorded = _record(scenario)
    result = analysis.ambiguity_report(recorded, _scramble_area(scenario), intervals, _phi_samples(scenario), frames)
    normalized = result.intervals * frames.delta_w / TWO_PI
    columns = [result.intervals, normalized, result.ranges]
    name = _write_table(out, "ambiguity", ["T_seconds", "T_normalized", "P_e_range"], columns, fmt)
    report["resolved"] = {
        "frames": _resolved_frames(frames),
        "intervals": _resolved_intervals(intervals),
        "phi_samples": int(_phi_samples(scenario)),
        "record": [float(v) for v in recorded],
        "scramble_area_rad": result.scramble_area,
    }
    report["results"] = {
        "scramble_area_pi": result.scramble_area / np.pi,
        "ambiguity": result.ambiguity,
        "range_max": float(result.ranges.max()),
        "argmin_interval_s": float(result.intervals[int(np.argmin(result.ranges))]),
    }
    return [name]


def _run_optimize(scenario, out: Path, report: dict, fmt: str) -> list:
    frames = _frames(scenario)
    intervals = _intervals(scenario, frames)
    recorded = _record(scenario)
    cfg = scenario.get("optimizer", {})
    tolerance = cfg.get("tolerance_rad", 1e-6)
    coarse_points = cfg.get("coarse_points", 181)
    result = analysis.optimize_scramble_area(
        recorded,
        intervals,
        _phi_samples(scenario),
        frames,
        tolerance=tolerance,
        coarse_points=coarse_points,
    )
    report["resolved"] = {
        "frames": _resolved_frames(frames),
        "intervals": _resolved_intervals(intervals),
        "phi_samples": int(_phi_samples(scenario)),
        "record": [float(v) for v in recorded],
        "tolerance_rad": tolerance,
        "coarse_points": coarse_points,
    }
    report["results"] = {
        "theta_star_rad": result.theta_star,
        "theta_star_pi": result.theta_star / np.pi,
        "ambiguity": result.ambiguity,
        "plateau_rad": list(result.plateau),
        "plateau_pi": [edge / np.pi for edge in result.plateau],
    }
    return []


def _run_secure_choice(scenario, out: Path, report: dict, fmt: str) -> list:
    frames = _frames(scenario)
    timing = scenario.get("timing", {})
    t1 = timing.get("t1_s", 5e-3)
    t2 = _store_time(scenario, frames)
    if "t3_s" in timing:
        t3 = float(timing["t3_s"])
    else:
        t3 = protocol.secure_read_delay(frames, t1, t2, timing.get("read_turns_k"))
    config = protocol.ProtocolConfig(
        frames=frames,
        t1=t1,
        t2=t2,
        t3=t3,
        scramble_area=_scramble_area(scenario),
        read_area=_read_area(scenario),
    )
    choice = scenario["choice"]
    samples = _phi_samples(scenario)
    grid = analysis.phi_grid(samples)
    p = protocol.run_secure_choice(choice, grid, config)
    name = _write_table(out, "readout", ["phi_S", "P_e"], [grid, p], fmt)
    decoded = protocol.decode_choice(float(np.mean(p)))
    total = t1 + t2 + t3
    report["resolved"] = {
        "frames": _resolved_frames(frames),
        "choice": choice,
        "phi_samples": int(samples),
        "write_area_rad": protocol.encode_choice(choice),
        "scramble_area_rad": config.scramble_area,
        "read_area_rad": config.read_area,
        "t1_s": t1,
        "t2_s": t2,
        "t3_s": t3,
    }
    report["results"] = {
        "choice": choice,
        "decoded": decoded,
        "match": decoded == choice,
        "readout_min": float(p.min()),
        "readout_max": float(p.max()),
        "secrecy_gap": protocol.secrecy_check(config, samples),
        "t1_s": t1,
        "t2_s": t2,
        "t3_s": t3,
        "total_s": total,
        "read_turns_k": int(round(frames.delta_w * total / TWO_PI)),
    }
    return [name]


def _read_fit_csv(cfg, base_dir) -> tuple:
    path = Path(base_dir or ".") / cfg["input_csv"]
    x_column = cfg.get("x_column", "T_seconds")
    y_column = cfg.get("y_column", "mean")
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
            columns = reader.fieldnames or []
    except OSError as err:
        raise ScenarioError("fit.input_csv", f"cannot read {path} ({err})") from None
    for column in (x_column, y_column):
        if column not in columns:
            raise ScenarioError("fit", f"column {column!r} not found in {path} (has {columns})")
    try:
        x = np.array([float(row[x_column]) for row in rows])
        y = np.array([float(row[y_column]) for row in rows])
    except (TypeError, ValueError):
        raise ScenarioError("fit", f"non-numeric values in columns {x_column!r}/{y_column!r} of {path}") from None
    return x, y


def _run_fit(scenario, out: Path, report: dict, base_dir, fmt: str) -> list:
    cfg = scenario["fit"]
    if "data" in cfg:
        x = np.asarray(cfg["data"]["x"], dtype=float)
        y = np.asarray(cfg["data"]["y"], dtype=float)
        source = {"data_points": int(x.size)}
    else:
        x, y = _read_fit_csv(cfg, base_dir)
        source = {
            "input_csv": cfg["input_csv"],
            "x_column": cfg.get("x_column", "T_seconds"),
            "y_column": cfg.get("y_column", "mean"),
        }
    try:
        fit = expsim.fit_damped_sinusoid(x, y, cfg.get("guess"), cfg.get("max_iterations"))
    except ValueError as err:
        raise ScenarioError("fit", str(err)) from None
    model = fit.evaluate(x)
    name = _write_table(out, "fit", ["x", "y", "model", "residual"], [x, y, model, model - y], fmt)
    if not fit.converged:
        report["warnings"].append("fit did not converge within the iteration budget")
    report["resolved"] = {
        **source,
        "guess": None if cfg.get("guess") is None else [float(v) for v in cfg["guess"]],
        "max_iterations": cfg.get("max_iterations"),
    }
    report["results"] = {
        "n_points": int(x.size),
        "offset": fit.offset,
        "amplitude": fit.amplitude,
        "decay_time_s": fit.decay_time,
        "angular_frequency_rad_s": fit.angular_frequency,
        "frequency_hz": fit.angular_frequency / TWO_PI,
        "phase_rad": fit.phase,
        "residual_rms": fit.residual_rms,
        "converged": fit.converged,
        "degenerate_amplitude": fit.degenerate_amplitude,
    }
    return [name]


def run_scenario(scenario: dict, out_dir, base_dir=None, fmt: str = "csv") -> dict:
    """Validate, run, and write artifacts; returns the report dict.

    ``base_dir`` anchors relative input paths (the CLI passes the
    scenario file's directory) and ``fmt`` picks the data-table format
    (``csv`` or ``json``; the report is always JSON).  The returned
    report is exactly what lands in ``report.json``.
    """
    if fmt not in TABLE_FORMATS:
        raise ScenarioError("format", f"must be one of {TABLE_FORMATS}, got {fmt!r}")
    validate_scenario(scenario)
    out = Path(out_dir)
    mode = scenario["mode"]
    report = {"version": SCENARIO_VERSION, "mode": mode, "scenario": scenario, "resolved": {}, "warnings": []}
    try:
        out.mkdir(parents=True, exist_ok=True)
        if mode == "fit":
            outputs = _run_fit(scenario, out, report, base_dir, fmt)
        else:
            runner = {
                "normal": _run_normal,
                "scrambled": _run_scrambled,
                "retrieved": _run_retrieved,
                "sdbv": _run_sdbv,
                "ambiguity-sweep": _run_ambiguity,
                "optimize": _run_optimize,
                "secure-choice": _run_secure_choice,
            }[mode]
            outputs = runner(scenario, out, report, fmt)
        report["outputs"] = sorted(outputs + ["report.json"])
        write_json(out / "report.json", report)
    except OSError as err:
        # the fit input is read with its own message; what is left is the output directory
        raise ScenarioError("out", f"cannot write to {out} ({err})") from None
    return report
