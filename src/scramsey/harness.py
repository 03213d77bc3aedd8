"""Scenario files in, CSV and JSON artifacts out.

A scenario is a small JSON document with a ``version`` and a ``mode``
plus mode-specific sections.  Units are chosen for config ergonomics:
detunings in Hz (delta = 2*pi*f), pulse areas and phases in units of
pi, times in seconds.  Everything the engine needs is derived from
those at run time.

A scenario is checked against the packaged JSON schema by a small
Draft 2020-12 checker that walks the schema itself and evaluates only
the keywords it uses; it refuses a schema with any other keyword, or
with a shape whose errors jsonschema words differently.  Of the
violations it finds, it reports the one jsonschema's ``best_match``
picks, worded as jsonschema words it, so numpy stays the only runtime
dependency.  Three key tables (``_TOP_KEYS``,
``_TIMING_KEYS``, ``_PULSE_KEYS``) list what each mode accepts, and
drive both validation (any other key is rejected) and resolution: every
accepted section is converted to engine units once, in one place, and
echoed in the report.  The CLI reads ``_TOP_KEYS`` to tell which modes
take a seed, and ``TABLE_FORMATS`` for its format choices.  Validation
bounds every JSON integer to the float range, and each engine entry
takes ``float()`` of its real inputs, so an integer beyond int64 runs as
its float.  A value that overflows once converted, or an interval grid
the engine would refuse (in ``retrieved`` also once shifted by t1 + t2),
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
largest grid exceeds ``MAX_GRID_STATES`` final states.  A table is held
as columns that broadcast to its grid (a fringe table's intervals,
phases and P_e grid), so no column is built to the table's length.
Writes are atomic (temp file then rename) and tables are formatted and
written in blocks of whole grid rows of at most ``_CHUNK_ROWS`` rows,
cut by the grid scans' rule (:func:`bloch._blocks`).  Floats are
serialized with their shortest round-trip representation (each distinct
value of a block's column is formatted once, to the same bytes), and
nothing time- or host-dependent is ever written, so rerunning a
scenario reproduces every artifact byte for byte.
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
from .bloch import EXCITED, GROUND, TWO_PI, _blocks, _freeze, validate_state
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


#: Draft 2020-12 keywords :func:`_errors` evaluates: those the packaged schema uses, plus the
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

#: Each numeric bound: the comparison with it that makes a number invalid, and how the error says so.
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}


def _audit(schema) -> None:
    """Raise ``ValueError`` unless :func:`_errors` words every error of ``schema`` as jsonschema does.

    Every keyword and subschema must be one it evaluates: an object
    schema (not ``true`` or ``false``), ``const`` and ``enum`` values that
    are scalars, which :func:`_same` compares, ``additionalProperties``
    only as ``false``, and no ``minItems: 1`` or ``maxItems: 0``, which
    jsonschema words apart.
    """
    if not isinstance(schema, dict):
        raise ValueError("the fast scenario check evaluates object schemas only, not true or false")
    if unknown := schema.keys() - _KEYWORDS:
        raise ValueError(f"the fast scenario check does not evaluate schema keywords {sorted(unknown)}")
    if any(isinstance(v, (list, dict)) for v in [*schema.get("enum", ()), schema.get("const")]):
        raise ValueError("the fast scenario check compares const and enum values as scalars only")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("the fast scenario check evaluates additionalProperties only as false")
    if schema.get("minItems") == 1 or schema.get("maxItems") == 0:
        raise ValueError("the fast scenario check does not word minItems 1 or maxItems 0 as jsonschema does")
    subschemas = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    for sub in subschemas + ([schema["items"]] if "items" in schema else []):
        _audit(sub)


def _same(a, b) -> bool:
    """2020-12 equality of a value and a scalar: ``1 == 1.0``, but ``true != 1``."""
    return (a is True, a is False, a) == (b is True, b is False, b)


def _errors(value, schema, path=()):
    """Each way ``value`` at ``path`` violates ``schema``, one :func:`_audit` accepts, in jsonschema's order.

    An error is ``(path, message, keyword, typed, context)``; ``typed``
    tells whether ``value`` has a type ``schema`` names, and a ``oneOf``
    error no branch passes carries every branch's errors as its context.
    Keywords are evaluated in schema order, properties in schema order and
    items by index (Draft 2020-12, worded as jsonschema words them).
    """
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    typed = any(_TYPES[name](value) for name in types)
    obj, array, number = isinstance(value, dict), isinstance(value, list), _TYPES["number"](value)
    for keyword, arg in schema.items():
        fault, context = None, ()
        if keyword == "type" and not typed:
            fault = f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "const" and not _same(value, arg):
            fault = f"{arg!r} was expected"
        elif keyword == "enum" and not any(_same(value, each) for each in arg):
            fault = f"{value!r} is not one of {arg!r}"
        elif keyword == "oneOf":
            branches = [list(_errors(value, branch, path)) for branch in arg]
            valid = [branch for branch, errors in zip(arg, branches) if not errors]
            if not valid:
                fault = f"{value!r} is not valid under any of the given schemas"
                context = list(itertools.chain.from_iterable(branches))
            elif len(valid) > 1:
                fault = f"{value!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"
        elif keyword in _BOUNDS and number and _BOUNDS[keyword][0](value, arg):
            fault = f"{value!r} {_BOUNDS[keyword][1]} {arg!r}"
        elif keyword == "minItems" and array and len(value) < arg:
            fault = f"{value!r} is too short"
        elif keyword == "maxItems" and array and len(value) > arg:
            fault = f"{value!r} is too long"
        elif keyword == "items" and array:
            for index, item in enumerate(value):
                yield from _errors(item, arg, (*path, index))
        elif keyword == "properties" and obj:
            for key, sub in arg.items():
                if key in value:
                    yield from _errors(value[key], sub, (*path, key))
        elif keyword == "additionalProperties" and obj:
            if extra := sorted((key for key in value if key not in schema.get("properties", {})), key=str):
                verb = "was" if len(extra) == 1 else "were"
                fault = f"Additional properties are not allowed ({', '.join(map(repr, extra))} {verb} unexpected)"
        elif keyword == "required" and obj:
            for key in arg:
                if key not in value:
                    yield path, f"{key!r} is a required property", keyword, typed, ()
        if fault is not None:
            yield path, fault, keyword, typed, context


def _rank(error) -> tuple:
    """jsonschema's ``relevance``: shallow before deep, a later path, then not ``oneOf``, then mistyped."""
    path, _, keyword, typed, _ = error
    return -len(path), path, keyword != "oneOf", not typed


def _best(errors):
    """The error jsonschema's ``best_match`` picks: the highest :func:`_rank`, the first of equals.

    From a ``oneOf`` error it descends to the lowest ranked (the deepest)
    error of its context, unless the two lowest rank the same.
    """
    best = max(errors, key=_rank)
    while context := best[4]:
        first, *rest = sorted(context, key=_rank)
        if rest and _rank(first) == _rank(rest[0]):
            break
        best = first
    return best


@functools.cache
def _fast_schema() -> dict:
    """:func:`scenario_schema`, once :func:`_audit` has found nothing :func:`_errors` cannot word."""
    schema = scenario_schema()
    _audit(schema)
    return schema


def validate_scenario(scenario) -> None:
    """Structural (JSON schema) then semantic validation.

    Raises :class:`ScenarioError` naming the offending field.  The schema
    check is :func:`_errors` alone; of several violations it reports the
    one jsonschema's ``best_match`` would, with jsonschema's message.
    """
    if not isinstance(scenario, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    if errors := list(_errors(scenario, _fast_schema())):
        path, message, *_ = _best(errors)
        raise ScenarioError(".".join(map(str, path)) or "<root>", message)

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
    if mode == "secure-choice":
        try:
            protocol._secrecy_phi_samples(scenario.get("phi_samples", analysis.DEFAULT_PHI_SAMPLES))
        except ValueError as err:
            raise ScenarioError("phi_samples", f"{err} (mode 'secure-choice' runs the secrecy check)") from None
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
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError(str(path), f"cannot read scenario file ({err})") from None

    def reject_constant(token: str):
        raise ScenarioError(str(path), f"{token} is not valid JSON; every number must be finite")

    try:
        scenario = json.loads(text, parse_constant=reject_constant)
    except ScenarioError:  # reject_constant's, a ValueError too
        raise
    except (ValueError, RecursionError) as err:
        # a syntax error, an integer literal past the interpreter's digit limit, or nesting past its recursion limit
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
    except (OSError, UnicodeDecodeError, csv.Error) as err:
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
            grid = _converted("intervals", np.linspace, float(cfg["start_s"]), float(cfg["stop_s"]), count)
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
    if "optimizer" in top:
        cfg = scenario.get("optimizer", {})
        r.tolerance = echo["tolerance_rad"] = cfg.get("tolerance_rad", analysis.DEFAULT_AREA_TOLERANCE)
        r.coarse_points = echo["coarse_points"] = cfg.get("coarse_points", analysis.DEFAULT_COARSE_POINTS)
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


#: Most rows the table writers format and write at a time, so the memory a write takes does not grow with the
#: table's length.  It grows with its width: a chunk holds the text of every cell of its rows.
_CHUNK_ROWS = 65536


def _write_text(path: Path, pieces) -> None:
    """Write the strings of ``pieces`` to ``path`` atomically: a temp file, then a rename.

    A write that fails (a full disk, or an error raised by ``pieces``)
    removes the temp file before the error goes on.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _column_text(column: np.ndarray, nulls: bool) -> list:
    """``column`` as text cells: integers by ``str(int)``, floats by shortest round-trip ``repr``,
    non-finite ones as ``null`` if ``nulls``.

    A float column is formatted once per distinct value, then indexed back
    into place: fringe tables repeat each interval and shot phase many times.
    """
    if column.dtype.kind in "biu":
        return list(map(str, map(int, column.tolist())))
    # distinct bit patterns, not distinct values: np.unique merges -0.0 with 0.0, which repr tells apart
    bits, inverse = np.unique(column.astype(float).view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    texts = np.array(list(map(repr, distinct.tolist())), dtype=object)
    if nulls:
        texts[~np.isfinite(distinct)] = "null"
    return texts[inverse].tolist()


class _Columns(tuple):
    """A table held as numeric columns that broadcast to one grid, a row per grid point in C order, which the
    writers take as rows without ever building the 2-D array or a column of the table's length.  The columns
    :func:`_write_table` makes share one dtype."""

    @property
    def shape(self) -> tuple:
        return np.broadcast_shapes(*(column.shape for column in self))


def _text_chunks(rows, nulls: bool, cell_sep: str, row_sep: str):
    """The text of ``rows`` (a 2-D array, :class:`_Columns` or a sequence of rows), one yielded string per
    block of whole grid rows of at most ``_CHUNK_ROWS`` rows (:func:`bloch._blocks`).

    Each block is formatted a column at a time by :func:`_column_text`,
    each column broadcast to the grid and cut to the block there, then its
    cells are joined by ``cell_sep`` and its rows by ``row_sep``.  A
    column's type is decided over the whole table.
    """
    if not isinstance(rows, _Columns):
        rows = _Columns(rows.T if isinstance(rows, np.ndarray) else map(np.asarray, zip(*rows)))
    shape = rows.shape if rows else (0,)
    for block in _blocks(shape, _CHUNK_ROWS):
        chunk = [_column_text(np.broadcast_to(column, shape)[block].ravel(), nulls) for column in rows]
        yield row_sep.join(map(cell_sep.join, zip(*chunk)))


def write_csv(path, header, rows) -> None:
    """Write rows of numbers (a 2-D array or a sequence of rows) with shortest round-trip float formatting."""
    body = (text + "\n" for text in _text_chunks(rows, False, ",", "\n"))
    _write_text(Path(path), itertools.chain([",".join(header) + "\n"], body))


def _json_safe(value):
    if isinstance(value, _Columns):
        return [_json_safe(row) for row in zip(*(np.broadcast_to(column, value.shape).ravel() for column in value))]
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

    A table ``{"columns": names, "rows": _Columns}`` of numbers, the form
    :func:`_write_table` hands over, is formatted a column at a time and
    written in blocks of whole grid rows, to the same bytes.
    """
    table = payload["rows"] if isinstance(payload, dict) and payload.keys() == {"columns", "rows"} else None
    # the columns share one dtype, so the first tells the type
    if isinstance(table, _Columns) and table and table[0].dtype.kind in "iuf" and 0 not in table.shape:
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
    """Write numeric columns that broadcast to one grid as ``stem.csv`` or ``stem.json``, a row per grid point
    in C order; returns the file name."""
    columns = [np.asarray(column) for column in columns]
    # the one dtype np.column_stack would give the table, taken a column at a time
    dtype = np.result_type(*columns)
    name, rows = f"{stem}.{fmt}", _Columns(column.astype(dtype, copy=False) for column in columns)
    if fmt == "json":
        write_json(out / name, {"columns": list(header), "rows": rows})
    else:
        write_csv(out / name, header, rows)
    return name


def _flop_table(r, phis, p_e) -> tuple:
    """The long-format fringe table of ``r.intervals``, one contiguous run of rows per shot phase.

    ``p_e`` has shape (len(phis), len(intervals)), or (len(intervals),)
    for one phase; the columns broadcast to that grid, so no column is
    repeated to the table's length.  The normalized column is the interval
    in units of the fringe period 2*pi/delta_w.
    """
    return "flop", FLOP_COLUMNS, [r.intervals, r.intervals * r.frames.delta_w / TWO_PI, np.expand_dims(phis, -1), p_e]


# ---------------------------------------------------------------- runners


def _maybe_trials(scenario, r, report: dict, builder, *args) -> list:
    """The trials table of ``builder`` with its leading ``args`` bound; none without a ``trials`` section.

    The bound builder is a ``functools.partial``, which :func:`expsim.run_trials`
    reads a block of intervals at a time for the builders of :mod:`scramsey.sequence`.
    """
    cfg = scenario.get("trials")
    if cfg is None:
        return []
    noise, randomize = r.noise, cfg.get("randomize_phi", True)
    stats = expsim.run_trials(functools.partial(builder, *args), r.frames, noise, cfg["count"], r.intervals, randomize)
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
    return [("trials", header, [stats.intervals, *stats.samples, stats.mean, stats.std])]


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
    return [_flop_table(r, r.frames.phi_s, p_e)] + _maybe_trials(scenario, r, report, ramsey)


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
    return [_flop_table(r, family.phis, family.p_e)] + _maybe_trials(scenario, r, report, scrambled_ramsey, r.scramble_area, r.t1)


def _run_retrieved(scenario, r, report: dict) -> list:
    if warning := protocol.store_phase_problem(r.frames.delta_s, r.t2):
        report["warnings"].append(warning)
    family = analysis.retrieved_flop(r.scramble_area, r.t1, r.t2, r.intervals, r.phi_samples, r.frames)
    # the normal fringe it is compared with is read at t1 + t2 + T, where a delay long against the grid's
    # spacing rounds points together; checked after the family, whose phase overflow is a simulation error
    shifted = _converted("intervals", analysis._as_intervals, r.t1 + r.t2 + r.intervals)
    target = analysis.normal_flop(r.frames.delta_w, shifted).p_e
    # |p - target| is largest at a column's least or greatest p, and fl(t - p) = -fl(p - t): the bits of
    # np.abs(p_e - target).max() without a temporary the size of the grid
    hi, lo = family.p_e.max(axis=0), family.p_e.min(axis=0)
    report["results"] = {
        "scramble_area_pi": r.scramble_area / np.pi,
        "t1_s": r.t1,
        "t2_s": r.t2,
        "phi_samples": r.phi_samples,
        "range_max": float((hi - lo).max()),
        "max_deviation_from_normal": float(np.maximum(hi - target, target - lo).max()),
    }
    return [_flop_table(r, family.phis, family.p_e)] + _maybe_trials(scenario, r, report, retrieved_ramsey, r.scramble_area, r.t1, r.t2)


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
        ("sdbv", ["phi_S", "x", "y", "z"], [result.phis, *result.points.T]),
        ("projection", ["phi_S", "x", "z"], [result.phis, *projection.T]),
    ]


def _run_ambiguity(scenario, r, report: dict) -> list:
    result = analysis.ambiguity_report(r.record, r.scramble_area, r.intervals, r.phi_samples, r.frames)
    report["results"] = {
        "scramble_area_pi": result.scramble_area / np.pi,
        "ambiguity": result.ambiguity,
        "range_max": float(result.ranges.max()),
        "argmin_interval_s": float(result.intervals[int(np.argmin(result.ranges))]),
    }
    columns = [result.intervals, result.intervals * r.frames.delta_w / TWO_PI, result.ranges]
    return [("ambiguity", ["T_seconds", "T_normalized", "P_e_range"], columns)]


def _run_optimize(scenario, r, report: dict) -> list:
    result = analysis.optimize_scramble_area(
        r.record, r.intervals, r.phi_samples, r.frames, tolerance=r.tolerance, coarse_points=r.coarse_points
    )
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
    return [("readout", ["phi_S", "P_e"], [grid, p])]


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
    return [("fit", ["x", "y", "model", "residual"], [r.x, r.y, model, model - r.y])]


#: The runner of each mode: (scenario, resolved inputs, report) -> the tables to write, each a
#: (stem, header, columns) triple of numeric columns that broadcast to the table's grid.
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
        outputs = [_write_table(out, stem, header, columns, fmt) for stem, header, columns in tables]
        report["outputs"] = sorted(outputs + ["report.json"])
        write_json(out / "report.json", report)
    except OSError as err:
        # inputs were read while resolving, with their own messages; what is left is the output directory
        raise ScenarioError("out", f"cannot write to {out} ({err})") from None
    return report
