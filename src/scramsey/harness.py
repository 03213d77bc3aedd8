"""Scenario files in, CSV and JSON artifacts out.

A scenario is a small JSON document with a ``version`` and a ``mode``
plus mode-specific sections.  Units are chosen for config ergonomics:
detunings in Hz (delta = 2*pi*f), pulse areas and phases in units of
pi, times in seconds.  Everything the engine needs is derived from
those at run time.

A scenario is checked against the packaged JSON schema by a small
Draft 2020-12 checker that walks the schema itself and evaluates only
the keywords it uses; it refuses a schema with any other keyword.  It
answers valid or invalid, nothing more: jsonschema is imported only for
a scenario it rejects, to name the offending field and constraint, and
its verdict is final.  Three key tables (``_TOP_KEYS``,
``_TIMING_KEYS``, ``_PULSE_KEYS``) list what each mode accepts, and
drive both validation (any other key is rejected) and resolution: every
accepted section is converted to engine units once, in one place, and
echoed in the report.  The CLI reads ``_TOP_KEYS`` to tell which modes
take a seed, and ``TABLE_FORMATS`` for its format choices.  A value that
overflows once converted, or an interval grid the engine would refuse,
is a scenario error, like a schema violation.

Every run writes a ``report.json`` plus mode-specific data tables with
fixed names into the output directory; tables are CSV by default or
JSON (``{"columns": ..., "rows": ...}``) when asked.  Fringe scans are
written long format as ``T_seconds, T_normalized, phi_S, P_e`` (one row
per interval and shot phase, the normalized column counts fringe
periods 2*pi/delta_w), state clouds as ``phi_S, x, y, z`` and their
readout projections as ``phi_S, x, z``.  The report echoes the scenario
verbatim and also records the fully resolved configuration (rad/s, rad,
seconds) actually simulated.  A run finishes every engine evaluation
before it creates the output directory, so a simulation error writes
nothing, and it refuses, before allocating anything, a scenario whose
largest grid exceeds ``MAX_GRID_STATES`` final states.  Writes are
atomic (temp file then rename) and tables are formatted and written
``_CHUNK_ROWS`` rows at a time, floats are serialized with their
shortest round-trip representation, and nothing time- or host-dependent
is ever written, so rerunning a scenario reproduces every artifact byte
for byte.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import numbers
import operator
import os
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import analysis, expsim, protocol
from .bloch import EXCITED, GROUND, TWO_PI, _freeze, validate_state
from .errors import ScenarioError, SimulationError
from .sequence import FrameSet, ramsey, retrieved_ramsey, scrambled_ramsey

SCENARIO_VERSION = 1

TABLE_FORMATS = ("csv", "json")

FLOP_COLUMNS = ("T_seconds", "T_normalized", "phi_S", "P_e")

#: Most final Bloch states one grid of a scenario may ask for: intervals x phi samples (x coarse
#: areas in ``optimize``), or trials x intervals.  Bounds the engine's run time and the size of its
#: results; a larger grid exits 2.
MAX_GRID_STATES = 2**24

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


@functools.cache
def scenario_schema() -> dict:
    """The JSON schema scenario files are validated against."""
    text = resources.files("scramsey.schema").joinpath("scenario-v1.schema.json").read_text("utf-8")
    return json.loads(text)


#: Draft 2020-12 keywords :func:`_conforms` evaluates: those the packaged schema uses, plus the
#: identifying and annotating ones, which assert nothing.
_KEYWORDS = frozenset(
    ("type", "const", "enum", "oneOf", "properties", "additionalProperties", "required", "minimum", "maximum",
     "exclusiveMinimum", "items", "minItems", "maxItems", "$schema", "$id", "title")
)

#: The 2020-12 instance types, as jsonschema checks them: ``5.0`` is an integer, a bool is no number.
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer(),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}

#: Each numeric bound and the comparison with it that makes a number invalid.
_BOUNDS = (("minimum", operator.lt), ("maximum", operator.gt), ("exclusiveMinimum", operator.le))


def _audit(schema) -> None:
    """Raise ``ValueError`` unless :func:`_conforms` evaluates every keyword of ``schema`` and its subschemas.

    ``const`` and ``enum`` values must be scalars, which :func:`_same` compares.
    """
    if isinstance(schema, bool):
        return
    if unknown := schema.keys() - _KEYWORDS:
        raise ValueError(f"the fast scenario check does not evaluate schema keywords {sorted(unknown)}")
    if any(isinstance(v, (list, dict)) for v in [*schema.get("enum", ()), schema.get("const")]):
        raise ValueError("the fast scenario check compares const and enum values as scalars only")
    subschemas = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    for sub in subschemas + [schema.get("items", True), schema.get("additionalProperties", True)]:
        _audit(sub)


def _same(a, b) -> bool:
    """2020-12 equality of a value and a scalar: ``1 == 1.0``, but ``true != 1``."""
    return (a is True, a is False, a) == (b is True, b is False, b)


def _conforms(value, schema) -> bool:
    """Whether ``value`` is valid under ``schema``, a schema :func:`_audit` accepts (Draft 2020-12)."""
    if isinstance(schema, bool):
        return schema
    types = schema.get("type")
    if types is not None and not any(_TYPES[t](value) for t in ([types] if isinstance(types, str) else types)):
        return False
    if "const" in schema and not _same(value, schema["const"]):
        return False
    if "enum" in schema and not any(_same(value, each) for each in schema["enum"]):
        return False
    if "oneOf" in schema and sum(_conforms(value, each) for each in schema["oneOf"]) != 1:
        return False
    if _TYPES["number"](value) and any(key in schema and fails(value, schema[key]) for key, fails in _BOUNDS):
        return False
    if isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            return False
        return all(_conforms(item, schema.get("items", True)) for item in value)
    if isinstance(value, dict):
        properties, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        if any(key not in value for key in schema.get("required", ())):
            return False
        return all(_conforms(item, properties.get(key, extra)) for key, item in value.items())
    return True


@functools.cache
def _fast_schema() -> dict:
    """:func:`scenario_schema`, once :func:`_audit` has found nothing :func:`_conforms` cannot evaluate."""
    schema = scenario_schema()
    _audit(schema)
    return schema


def validate_scenario(scenario) -> None:
    """Structural (JSON schema) then semantic validation.

    Raises :class:`ScenarioError` naming the offending field.  A scenario
    the schema accepts is checked by :func:`_conforms` alone; jsonschema
    is loaded only to explain a rejection, and its verdict is final.
    """
    if not isinstance(scenario, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    if not _conforms(scenario, _fast_schema()):
        import jsonschema

        err = jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(scenario_schema()).iter_errors(scenario))
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
    # JSON integers are unbounded; one beyond the float range would overflow deep in the engine
    stack = [("<root>", scenario)]
    while stack:
        field, value = stack.pop()
        if isinstance(value, dict):
            stack.extend((key if field == "<root>" else f"{field}.{key}", item) for key, item in value.items())
        elif isinstance(value, list):
            stack.extend((field, item) for item in value)
        elif isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ScenarioError(field, "integer too large to convert to float")

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
    floor = protocol.SECRECY_MIN_PHI_SAMPLES
    if mode == "secure-choice" and scenario.get("phi_samples", analysis.DEFAULT_PHI_SAMPLES) < floor:
        raise ScenarioError("phi_samples", f"must be >= {floor} in mode 'secure-choice' (the secrecy check needs them)")
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


def _converted(field: str, convert, *args):
    """``convert(*args)``, an engine input derived from ``field``.

    A result that is not finite, or an overflow or domain error on the
    way, is a :class:`ScenarioError`; simulation errors (an infeasible
    read turn, say) pass through.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = convert(*args)
    except SimulationError:
        raise
    except (OverflowError, ValueError) as err:
        raise ScenarioError(field, str(err)) from None
    if not np.all(np.isfinite(value)):
        raise ScenarioError(field, "overflows once converted to engine units")
    return value


def _read_columns(path: Path, x_column: str, y_column: str) -> tuple:
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


def _grid_states(scenario: dict) -> int:
    """Final Bloch states of the largest grid ``scenario`` asks for, counted from its inputs alone."""
    top = _TOP_KEYS[scenario["mode"]]
    count = int(scenario.get("intervals", {}).get("count", analysis.DEFAULT_INTERVAL_POINTS)) if "intervals" in top else 1
    phis = int(scenario.get("phi_samples", analysis.DEFAULT_PHI_SAMPLES)) if "phi_samples" in top else 1
    areas = int(scenario.get("optimizer", {}).get("coarse_points", analysis.DEFAULT_COARSE_POINTS)) if "optimizer" in top else 1
    return max(count * phis * areas, int(scenario.get("trials", {}).get("count", 0)) * count)


def _resolve(scenario: dict, base_dir) -> tuple:
    """Engine inputs of every section the scenario's mode accepts, and their echo.

    The key tables that :func:`validate_scenario` checks decide what is
    resolved here, once, for every mode.  Returns a namespace of inputs
    in engine units (rad/s, rad, s) and the ``report["resolved"]`` dict.
    """
    if (states := _grid_states(scenario)) > MAX_GRID_STATES:
        raise ScenarioError("grid", f"asks for {states} final states on one grid; at most {MAX_GRID_STATES} are allowed")
    mode, top = scenario["mode"], _TOP_KEYS[scenario["mode"]]
    timing_keys, timing = _TIMING_KEYS.get(mode, set()), scenario.get("timing", {})
    pulse_keys, pulses = _PULSE_KEYS.get(mode, set()), scenario.get("pulses", {})
    r, echo = SimpleNamespace(), {}
    if "frames" in top:
        cfg = scenario.get("frames", {})
        r.frames = FrameSet(
            _converted("frames.delta_w_hz", operator.mul, TWO_PI, cfg.get("delta_w_hz", 100.0)),
            _converted("frames.delta_s_hz", operator.mul, TWO_PI, cfg.get("delta_s_hz", 100.0)),
            _converted("frames.phi_s_pi", operator.mul, np.pi, cfg.get("phi_s_pi", 0.0)),
        )
        echo["frames"] = {"delta_w_rad_s": r.frames.delta_w, "delta_s_rad_s": r.frames.delta_s, "phi_s_rad": r.frames.phi_s}
    if "intervals" in top:
        cfg = scenario.get("intervals", {})
        count = int(cfg.get("count", analysis.DEFAULT_INTERVAL_POINTS))
        if "start_s" in cfg:
            grid = _converted("intervals", np.linspace, cfg["start_s"], cfg["stop_s"], count)
        else:
            periods = cfg.get("periods", analysis.DEFAULT_PERIODS)
            grid = _converted("intervals", analysis.default_intervals, r.frames.delta_w, periods, count)
        # a span too narrow for its count repeats points, which the engine refuses
        r.intervals = _converted("intervals", analysis._as_intervals, grid)
        # grids are always uniform, so endpoints plus count reproduce them
        echo["intervals"] = {"start_s": float(r.intervals[0]), "stop_s": float(r.intervals[-1]), "count": count}
    if "noise" in top:
        cfg = scenario.get("noise", {})
        tau = cfg.get("contrast_decay_tau_s")
        try:
            r.noise = expsim.NoiseModel(
                seed=scenario.get("seed", 0),
                atom_count=cfg.get("atom_count"),
                contrast_decay_tau=np.inf if tau is None else tau,
                phase_jitter_sigma=cfg.get("phase_jitter_sigma", 0.0),
            )
        except ValueError as err:  # the schema bounds every other noise field
            raise ScenarioError("noise.atom_count", str(err)) from None
    if "phi_samples" in top:
        r.phi_samples = echo["phi_samples"] = int(scenario.get("phi_samples", analysis.DEFAULT_PHI_SAMPLES))
    if "record" in top:
        value = scenario.get("record", "excited")
        try:
            r.record = RECORD_STATES[value] if isinstance(value, str) else validate_state(np.asarray(value, dtype=float))
        except ValueError as err:
            raise ScenarioError("record", str(err)) from None
        echo["record"] = [float(v) for v in r.record]
    for key, name, default in (("scramble_area_pi", "scramble_area", 1.0), ("read_area_pi", "read_area", 0.5)):
        if key in pulse_keys:
            area = _converted(f"pulses.{key}", operator.mul, np.pi, pulses.get(key, default))
            setattr(r, name, area)
            echo[f"{name}_rad"] = area
    if "t1_s" in timing_keys:
        r.t1 = echo["t1_s"] = timing.get("t1_s", 5e-3)
    if "t2_s" in timing_keys:
        if "t2_s" in timing:
            r.t2 = float(timing["t2_s"])
        else:
            r.t2 = _converted("timing", protocol.retrieve_delay, r.frames.delta_s, timing.get("store_halfturns_m", 0))
        echo["t2_s"] = r.t2
    if "t3_s" in timing_keys:
        if "t3_s" in timing:
            r.t3 = float(timing["t3_s"])
        else:
            r.t3 = _converted("timing", protocol.secure_read_delay, r.frames, r.t1, r.t2, timing.get("read_turns_k"))
        echo["t3_s"] = r.t3
    if "fit" in top:
        cfg = scenario["fit"]
        if "data" in cfg:
            r.x, r.y = (np.asarray(cfg["data"][axis], dtype=float) for axis in "xy")
            echo["data_points"] = int(r.x.size)
        else:
            columns = {"x_column": cfg.get("x_column", "T_seconds"), "y_column": cfg.get("y_column", "mean")}
            echo.update(input_csv=cfg["input_csv"], **columns)
            r.x, r.y = _read_columns(Path(base_dir or ".") / cfg["input_csv"], *columns.values())
        echo["guess"] = None if cfg.get("guess") is None else [float(v) for v in cfg["guess"]]
        echo["max_iterations"] = cfg.get("max_iterations")
    return r, echo


# --------------------------------------------------------------- writing


#: Rows the table writers format and write at a time, so the memory a write takes does not grow with the table.
_CHUNK_ROWS = 65536


def _write_text(path: Path, pieces) -> None:
    """Write the strings of ``pieces`` to ``path`` atomically: a temp file, then a rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(pieces)
    os.replace(tmp, path)


def _column_text(column: np.ndarray, nulls: bool) -> list:
    """``column`` as text cells: integers by ``str(int)``, floats by shortest round-trip ``repr``,
    non-finite ones as ``null`` if ``nulls``."""
    ints = column.dtype.kind in "biu"
    cells = list(map(str, map(int, column.tolist())) if ints else map(repr, column.astype(float).tolist()))
    for i in np.flatnonzero(~np.isfinite(column)).tolist() if nulls else ():
        cells[i] = "null"
    return cells


def _text_chunks(rows, nulls: bool, cell_sep: str, row_sep: str):
    """The text of ``rows`` (a 2-D array or a sequence of rows), ``_CHUNK_ROWS`` rows per yielded string.

    Each chunk is formatted a column at a time by :func:`_column_text`,
    then its cells are joined by ``cell_sep`` and its rows by ``row_sep``.
    A column's type is decided over the whole table.
    """
    columns = list(rows.T) if isinstance(rows, np.ndarray) else [np.asarray(column) for column in zip(*rows)]
    for start in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS):
        chunk = [_column_text(column[start : start + _CHUNK_ROWS], nulls) for column in columns]
        yield row_sep.join(map(cell_sep.join, zip(*chunk)))


def write_csv(path, header, rows) -> None:
    """Write rows of numbers (a 2-D array or a sequence of rows) with shortest round-trip float formatting."""
    body = (text + "\n" for text in _text_chunks(rows, False, ",", "\n"))
    _write_text(Path(path), itertools.chain([",".join(header) + "\n"], body))


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
    at a time and written in row chunks, to the same bytes.
    """
    table = payload["rows"] if isinstance(payload, dict) and payload.keys() == {"columns", "rows"} else None
    if isinstance(table, np.ndarray) and table.ndim == 2 and table.dtype.kind in "iuf" and table.size:
        _write_text(Path(path), _json_table(payload["columns"], table))
    else:
        _write_text(Path(path), [json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False), "\n"])


def _json_table(columns, table):
    """The text of ``{"columns": columns, "rows": table}`` as :func:`write_json` writes it, in pieces."""
    names = ",\n    ".join(map(json.dumps, columns))
    yield f'{{\n  "columns": [\n    {names}\n  ],\n  "rows": [\n    [\n      '
    between = "\n    ],\n    [\n      "
    for i, text in enumerate(_text_chunks(table, True, ",\n      ", between)):
        if i:
            yield between
        yield text
    yield "\n    ]\n  ]\n}\n"


def _write_table(out: Path, stem: str, header, columns, fmt: str) -> str:
    """Write equal-length numeric columns as ``stem.csv`` or ``stem.json``; returns the file name."""
    name, rows = f"{stem}.{fmt}", np.column_stack(columns)
    if fmt == "json":
        write_json(out / name, {"columns": list(header), "rows": rows})
    else:
        write_csv(out / name, header, rows)
    return name


def _flop_table(r, phis, p_e) -> tuple:
    """The long-format fringe table of ``r.intervals``, one contiguous block per shot phase.

    ``p_e`` has shape (len(phis), len(intervals)); the normalized column
    is the interval in units of the fringe period 2*pi/delta_w.
    """
    def columns():
        n, normalized = np.size(phis), r.intervals * r.frames.delta_w / TWO_PI
        return [np.tile(r.intervals, n), np.tile(normalized, n), np.repeat(phis, r.intervals.size), p_e.ravel()]

    return "flop", FLOP_COLUMNS, columns


# ---------------------------------------------------------------- runners


def _maybe_trials(scenario, builder, r, report: dict) -> list:
    cfg = scenario.get("trials")
    if cfg is None:
        return []
    noise, randomize = r.noise, cfg.get("randomize_phi", True)
    stats = expsim.run_trials(builder, r.frames, noise, cfg["count"], r.intervals, randomize)
    header = ["T_seconds"] + [f"trial_{i:03d}" for i in range(stats.trials)] + ["mean", "std"]
    report["results"]["trials"] = {
        "count": stats.trials,
        "seed": noise.seed,
        "std_max": float(stats.std.max()),
        "range_max": float((stats.samples.max(axis=0) - stats.samples.min(axis=0)).max()),
    }
    report["resolved"]["trials"] = {"count": stats.trials, "randomize_phi": randomize}
    report["resolved"]["noise"] = {
        "seed": noise.seed,
        "atom_count": noise.atom_count,
        "contrast_decay_tau_s": None if np.isinf(noise.contrast_decay_tau) else noise.contrast_decay_tau,
        "phase_jitter_sigma": noise.phase_jitter_sigma,
    }
    return [("trials", header, lambda: [stats.intervals, *stats.samples, stats.mean, stats.std])]


def _run_normal(scenario, r, report: dict) -> list:
    p_e = analysis.normal_flop(r.frames.delta_w, r.intervals).p_e
    report["results"] = {
        "interval_count": int(r.intervals.size),
        "interval_stop_s": float(r.intervals[-1]),
        "p_e_min": float(p_e.min()),
        "p_e_max": float(p_e.max()),
    }
    # no scramble pulse fires here; the phi_S column just echoes the
    # configured frame phase so every fringe table shares one layout
    return [_flop_table(r, r.frames.phi_s, p_e)] + _maybe_trials(scenario, ramsey, r, report)


def _run_scrambled(scenario, r, report: dict) -> list:
    family = analysis.scrambled_flop(r.scramble_area, r.t1, r.intervals, r.phi_samples, r.frames)
    ranges = family.ranges()
    report["results"] = {
        "scramble_area_pi": r.scramble_area / np.pi,
        "t1_s": r.t1,
        "phi_samples": r.phi_samples,
        "ambiguity": float(ranges.min()),
        "range_max": float(ranges.max()),
    }
    builder = lambda interval: scrambled_ramsey(r.scramble_area, r.t1, interval)
    return [_flop_table(r, family.phis, family.p_e)] + _maybe_trials(scenario, builder, r, report)


def _run_retrieved(scenario, r, report: dict) -> list:
    if warning := protocol.store_phase_problem(r.frames.delta_s, r.t2):
        report["warnings"].append(warning)
    family = analysis.retrieved_flop(r.scramble_area, r.t1, r.t2, r.intervals, r.phi_samples, r.frames)
    target = analysis.normal_flop(r.frames.delta_w, r.t1 + r.t2 + r.intervals).p_e
    report["results"] = {
        "scramble_area_pi": r.scramble_area / np.pi,
        "t1_s": r.t1,
        "t2_s": r.t2,
        "phi_samples": r.phi_samples,
        "range_max": float(family.ranges().max()),
        "max_deviation_from_normal": float(np.abs(family.p_e - target[None, :]).max()),
    }
    builder = lambda interval: retrieved_ramsey(r.scramble_area, r.t1, r.t2, interval)
    return [_flop_table(r, family.phis, family.p_e)] + _maybe_trials(scenario, builder, r, report)


def _run_sdbv(scenario, r, report: dict) -> list:
    result = analysis.sdbv(r.record, r.scramble_area, r.phi_samples)
    projection = analysis.sdbv_projection_xz(r.record, r.scramble_area, 0.0, r.phi_samples)
    z = result.points[:, 2]
    report["resolved"]["projection_wait_phase_rad"] = 0.0
    report["results"] = {
        "scramble_area_pi": r.scramble_area / np.pi,
        "phi_samples": r.phi_samples,
        "z_min": float(z.min()),
        "z_max": float(z.max()),
        "z_extent": float(np.ptp(z)),
        "projection_x_min": float(projection[:, 0].min()),
        "projection_x_max": float(projection[:, 0].max()),
        "projection_z_min": float(projection[:, 1].min()),
        "projection_z_max": float(projection[:, 1].max()),
    }
    return [
        ("sdbv", ["phi_S", "x", "y", "z"], lambda: [result.phis, *result.points.T]),
        ("projection", ["phi_S", "x", "z"], lambda: [result.phis, *projection.T]),
    ]


def _run_ambiguity(scenario, r, report: dict) -> list:
    result = analysis.ambiguity_report(r.record, r.scramble_area, r.intervals, r.phi_samples, r.frames)
    report["results"] = {
        "scramble_area_pi": result.scramble_area / np.pi,
        "ambiguity": result.ambiguity,
        "range_max": float(result.ranges.max()),
        "argmin_interval_s": float(result.intervals[int(np.argmin(result.ranges))]),
    }
    columns = lambda: [result.intervals, result.intervals * r.frames.delta_w / TWO_PI, result.ranges]
    return [("ambiguity", ["T_seconds", "T_normalized", "P_e_range"], columns)]


def _run_optimize(scenario, r, report: dict) -> list:
    cfg = scenario.get("optimizer", {})
    tolerance = cfg.get("tolerance_rad", analysis.DEFAULT_AREA_TOLERANCE)
    coarse_points = cfg.get("coarse_points", analysis.DEFAULT_COARSE_POINTS)
    result = analysis.optimize_scramble_area(
        r.record, r.intervals, r.phi_samples, r.frames, tolerance=tolerance, coarse_points=coarse_points
    )
    report["resolved"].update(tolerance_rad=tolerance, coarse_points=coarse_points)
    report["results"] = {
        "theta_star_rad": result.theta_star,
        "theta_star_pi": result.theta_star / np.pi,
        "ambiguity": result.ambiguity,
        "plateau_rad": list(result.plateau),
        "plateau_pi": [edge / np.pi for edge in result.plateau],
    }
    return []


def _run_secure_choice(scenario, r, report: dict) -> list:
    config = protocol.ProtocolConfig(
        frames=r.frames, t1=r.t1, t2=r.t2, t3=r.t3, scramble_area=r.scramble_area, read_area=r.read_area
    )
    choice = scenario["choice"]
    grid = analysis.phi_grid(r.phi_samples)
    p = protocol.run_secure_choice(choice, grid, config)
    decoded = protocol.decode_choice(float(np.mean(p)))
    total = r.t1 + r.t2 + r.t3
    report["resolved"].update(choice=choice, write_area_rad=protocol.encode_choice(choice))
    report["results"] = {
        "choice": choice,
        "decoded": decoded,
        "match": decoded == choice,
        "readout_min": float(p.min()),
        "readout_max": float(p.max()),
        "secrecy_gap": protocol.secrecy_check(config, r.phi_samples),
        "t1_s": r.t1,
        "t2_s": r.t2,
        "t3_s": r.t3,
        "total_s": total,
        "read_turns_k": int(round(r.frames.delta_w * total / TWO_PI)),
    }
    return [("readout", ["phi_S", "P_e"], lambda: [grid, p])]


def _run_fit(scenario, r, report: dict) -> list:
    cfg = scenario["fit"]
    try:
        fit = expsim.fit_damped_sinusoid(r.x, r.y, cfg.get("guess"), cfg.get("max_iterations"))
    except ValueError as err:
        raise ScenarioError("fit", str(err)) from None
    model = fit.evaluate(r.x)
    if not fit.converged:
        report["warnings"].append("fit did not converge within the iteration budget")
    report["results"] = {
        "n_points": int(r.x.size),
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
    return [("fit", ["x", "y", "model", "residual"], lambda: [r.x, r.y, model, model - r.y])]


#: The runner of each mode: (scenario, resolved inputs, report) -> the tables to write, each a
#: (stem, header, columns) triple whose ``columns()`` builds the numeric columns when written.
_RUNNERS = {
    "normal": _run_normal,
    "scrambled": _run_scrambled,
    "retrieved": _run_retrieved,
    "sdbv": _run_sdbv,
    "ambiguity-sweep": _run_ambiguity,
    "optimize": _run_optimize,
    "secure-choice": _run_secure_choice,
    "fit": _run_fit,
}


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
    inputs, resolved = _resolve(scenario, base_dir)
    report = {"version": SCENARIO_VERSION, "mode": mode, "scenario": scenario, "resolved": resolved, "warnings": []}
    # every engine run happens here, so a simulation error leaves the output directory untouched
    tables = _RUNNERS[mode](scenario, inputs, report)
    try:
        out.mkdir(parents=True, exist_ok=True)
        outputs = [_write_table(out, stem, header, columns(), fmt) for stem, header, columns in tables]
        report["outputs"] = sorted(outputs + ["report.json"])
        write_json(out / "report.json", report)
    except OSError as err:
        # inputs were read while resolving, with their own messages; what is left is the output directory
        raise ScenarioError("out", f"cannot write to {out} ({err})") from None
    return report
