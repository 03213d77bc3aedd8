"""Scenario validation, artifact writing, CLI behavior and exit codes."""

import contextlib
import copy
import errno
import functools
import hashlib
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import PINS, _skip_reason

import scramsey
from scramsey import cli, harness
from scramsey.analysis import default_intervals, normal_flop
from scramsey.bloch import TWO_PI
from scramsey.cli import _SUMMARY, COMMANDS, _summary_line, main
from scramsey.errors import ScenarioError
from scramsey.harness import (
    load_scenario,
    run_scenario,
    scenario_schema,
    validate_scenario,
    write_csv,
    write_json,
)
from scramsey.sequence import DELTA_W_REF, FrameSet

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = {"version": 1, "mode": "normal"}


def _scenario(**overrides):
    merged = dict(MINIMAL)
    merged.update(overrides)
    return merged


# ------------------------------------------------------------- validation


def test_schema_is_packaged():
    schema = scenario_schema()
    assert schema["$id"] == "scramsey/scenario-v1"
    assert set(schema["properties"]["mode"]["enum"]) >= {"normal", "fit"}


def test_minimal_scenario_validates():
    validate_scenario(MINIMAL)


@pytest.mark.parametrize(
    "scenario,field",
    [
        ({"mode": "normal"}, "<root>"),  # version missing
        ({"version": 1, "mode": "bogus"}, "mode"),
        (_scenario(bogus=1), "<root>"),
        (_scenario(phi_samples=3), "phi_samples"),
        ([1, 2], "<root>"),
    ],
)
def test_structural_rejection(scenario, field):
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario)
    assert err.value.field == field


@pytest.mark.parametrize(
    "scenario,field",
    [
        (_scenario(choice="yes"), "choice"),
        (_scenario(record="excited"), "record"),
        (_scenario(mode="sdbv", intervals={"count": 5}), "intervals"),
        (_scenario(mode="normal", timing={"t1_s": 1e-3}), "timing"),
        (_scenario(mode="scrambled", timing={"t2_s": 1e-3}), "timing.t2_s"),
        (_scenario(mode="sdbv", pulses={"read_area_pi": 0.5}), "pulses.read_area_pi"),
        (_scenario(intervals={"periods": 2.0, "start_s": 0.0, "stop_s": 0.1}), "intervals"),
        (_scenario(intervals={"start_s": 0.0}), "intervals"),
        (_scenario(intervals={"start_s": 0.2, "stop_s": 0.1}), "intervals.stop_s"),
        (_scenario(mode="retrieved", timing={"t2_s": 1e-3, "store_halfturns_m": 1}), "timing"),
        (_scenario(mode="secure-choice", timing={"t3_s": 0.0, "read_turns_k": 1}), "timing"),
        ({"version": 1, "mode": "secure-choice"}, "choice"),
        (_scenario(mode="secure-choice", choice="yes", phi_samples=18), "phi_samples"),
        (_scenario(mode="secure-choice", choice="yes", phi_samples=257), "phi_samples"),
        ({"version": 1, "mode": "fit"}, "fit"),
        (_scenario(mode="fit", fit={"x_column": "a"}), "fit"),
        (
            _scenario(
                mode="fit",
                fit={"input_csv": "a.csv", "data": {"x": [0, 1, 2, 3, 4, 5], "y": [0, 1, 2, 3, 4, 5]}},
            ),
            "fit",
        ),
        (
            _scenario(mode="fit", fit={"data": {"x": [0, 1, 2, 3, 4, 5], "y": [0, 1, 2, 3, 4, 5, 6]}}),
            "fit.data",
        ),
    ],
)
def test_semantic_rejection(scenario, field):
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario)
    assert err.value.field == field


def test_record_vector_norm_is_checked(tmp_path):
    scenario = _scenario(mode="sdbv", record=[1.0, 1.0, 1.0])
    with pytest.raises(ScenarioError) as err:
        run_scenario(scenario, tmp_path)
    assert err.value.field == "record"


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "nope.json")


@pytest.mark.parametrize(
    "scenario",
    [
        {"mode": "normal"},
        {"version": 2, "mode": "normal"},
        {"version": 1, "mode": "bogus"},
        _scenario(bogus=1),
        _scenario(phi_samples=3),
        _scenario(phi_samples=8.5),
        _scenario(seed=-1),
        _scenario(frames={"delta_w_hz": 0}),
        _scenario(frames={"delta_w_hz": "fast", "phi_s_pi": []}),
        _scenario(intervals={"count": 1, "periods": -1}),
        _scenario(record=[0.0, 1.0]),
        _scenario(trials={}),
        _scenario(noise={"atom_count": 0, "phase_jitter_sigma": -1}),
        {"version": 1, "mode": "fit", "fit": {"data": {"x": [1], "y": "no"}}},
        {},
        _scenario(intervals={"count": 2}, trials={"count": 8_000_000}),  # 16 M states, within the grid budget
    ],
)
def test_structural_errors_match_jsonschema_validate(scenario):
    with pytest.raises(jsonschema.ValidationError) as oracle:
        jsonschema.validate(scenario, scenario_schema())
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario)
    expected = ".".join(str(part) for part in oracle.value.absolute_path) or "<root>"
    assert (err.value.field, err.value.constraint) == (expected, oracle.value.message)


def test_shipped_schema_is_a_valid_draft_2020_12_schema():
    # validate_scenario trusts the packaged schema and never meta-validates it
    jsonschema.Draft202012Validator.check_schema(scenario_schema())


# the fast check (whether harness._errors yields nothing) against jsonschema's verdict on the same scenario

U64_MAX = 2**64 - 1

_ORACLE = jsonschema.Draft202012Validator(scenario_schema())


@pytest.mark.parametrize(
    "scenario,valid",
    [
        (_scenario(version=1.0), True),
        (_scenario(version=True), False),
        (_scenario(mode="scrambled", phi_samples=5.0), True),
        (_scenario(mode="scrambled", phi_samples=5.5), False),
        (_scenario(mode="scrambled", phi_samples=True), False),
        (_scenario(seed=U64_MAX), True),
        (_scenario(seed=U64_MAX + 1), False),
        (_scenario(seed=float(U64_MAX)), False),  # rounds up to 2**64
        (_scenario(seed=0), True),
        (_scenario(seed=-1), False),
        (_scenario(frames={"delta_w_hz": 5e-324}), True),
        (_scenario(frames={"delta_w_hz": 0.0}), False),
        (_scenario(intervals={"start_s": 0.0, "stop_s": 1.0}), True),
        (_scenario(intervals={"start_s": -5e-324, "stop_s": 1.0}), False),
        (_scenario(trials={"count": 1, "randomize_phi": 1}), False),
        (_scenario(trials={"count": True}), False),
        (_scenario(trials={"randomize_phi": True}), False),
        (_scenario(noise={"atom_count": None, "contrast_decay_tau_s": None}), True),
        (_scenario(noise={"phase_jitter_sigma": None}), False),
        (_scenario(mode="sdbv", record=[0.0, 0.0, 1]), True),
        (_scenario(mode="sdbv", record=[0.0, 1.0]), False),
        (_scenario(mode="sdbv", record=[0.0, 0.0, 1.0, 0.0]), False),
        (_scenario(mode="sdbv", record=[0.0, False, 1.0]), False),
        (_scenario(mode="sdbv", record="sideways"), False),
        (_scenario(mode="sdbv", record="ground"), True),
        (_scenario(frames={"delta_w_hz": 100.0, "bogus": 1}), False),
        ({"version": 1}, False),
        (_scenario(trials={"count": 65536}), True),
        (_scenario(trials={"count": 65537}), False),
    ],
)
def test_fast_check_follows_draft_2020_12(scenario, valid):
    assert _ORACLE.is_valid(scenario) is valid
    assert (next(harness._errors(scenario, scenario_schema()), None) is None) is valid


@pytest.mark.parametrize("value", [5, 5.0, 5.5, True, "5", None])
def test_fast_check_one_of_means_exactly_one_branch(value):
    # the packaged schema's oneOf branches never overlap; these do, for integers
    schema = {"oneOf": [{"type": "number"}, {"type": "integer", "minimum": 0}]}
    conforms = next(harness._errors(value, schema), None) is None
    assert conforms == jsonschema.Draft202012Validator(schema).is_valid(value)
    assert conforms is (value == 5.5)


#: Values a mutation may put anywhere: type swaps, bool/int and int/float twins, record shapes, and a
#: section with two unknown keys, which an error names in sorted order.
_MUTANTS = [True, False, 0, 1, 1.0, 5, 5.0, -1, 2.5, None, "x", "ground", "sideways", [], {}]
_MUTANTS += [[0.0, 1.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8, 0.0], [True, 0.0, 0.0], {"count": 2}, {"zz": 1, "Aa": 2}]


def _edge_values(node) -> list:
    """Values at the edges of what ``node``, or a ``oneOf`` branch of it, accepts.

    Each bound hit exactly and missed by one or by one ulp, each ``const``
    or ``enum`` value with its float and bool twins, and arrays of numbers
    at, one short of and one beyond each item count.
    """
    edges = []
    for branch in [node, *node.get("oneOf", ())]:
        for key in ("minimum", "maximum", "exclusiveMinimum"):
            if key in branch:
                bound = branch[key]
                edges += [bound, float(bound), bound - 1, bound + 1]
                edges += [math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
        for value in [*branch.get("enum", ()), *([branch["const"]] if "const" in branch else [])]:
            edges += [value, float(value), bool(value)] if isinstance(value, int) else [value]
        for key in ("minItems", "maxItems"):
            if key in branch:
                edges += [[0.5] * count for count in (branch[key] - 1, branch[key], branch[key] + 1)]
    return edges


#: Values of each JSON type, for a field the schema gives a type.
_OF_TYPE = {
    "integer": st.integers(-3, 2**65) | st.integers(-3, 3).map(float),
    "number": st.floats(allow_nan=False, allow_infinity=False),
    "boolean": st.booleans(),
    "string": st.text(max_size=3),
    "null": st.none(),
}


def _mutant(node):
    """A value for a field governed by ``node``: an edge value, a value of its type, or any mutant."""
    types = [node["type"]] if isinstance(node.get("type"), str) else node.get("type", [])
    choices = [st.sampled_from(_MUTANTS)] + [_OF_TYPE[name] for name in types if name in _OF_TYPE]
    if edges := _edge_values(node):
        choices.append(st.sampled_from(edges))
    return st.one_of(choices)


def _slots(value, node):
    """Every place in ``value`` a mutation may change, with the schema node that governs it (``{}`` if none).

    A dict offers each key it has, each key the schema knows and one
    unknown key; a list offers each index.
    """
    node = node if isinstance(node, dict) else {}
    if isinstance(value, dict):
        properties = node.get("properties", {})
        for key in sorted(set(value) | set(properties) | {"bogus"}):
            yield value, key, properties.get(key, {})
        for key, item in value.items():
            yield from _slots(item, properties.get(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield value, index, node.get("items", {})
            yield from _slots(item, node.get("items"))


@functools.cache
def _base_scenarios() -> list:
    from test_golden import VARIANTS

    shipped = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(SCENARIOS.glob("*.json"))]
    return shipped + [{"version": 1, **VARIANTS[name]} for name in sorted(VARIANTS)]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fast_check_agrees_with_jsonschema_on_mutated_scenarios(data):
    schema = scenario_schema()
    scenario = copy.deepcopy(data.draw(st.sampled_from(_base_scenarios())))
    for _ in range(data.draw(st.integers(1, 2))):
        target, key, node = data.draw(st.sampled_from(list(_slots(scenario, schema))))
        if isinstance(target, dict) and key in target and data.draw(st.booleans()):
            del target[key]  # required keys among them
        else:
            target[key] = copy.deepcopy(data.draw(_mutant(node)))
    assert (next(harness._errors(scenario, schema), None) is None) == _ORACLE.is_valid(scenario)
    best = jsonschema.exceptions.best_match(_ORACLE.iter_errors(scenario))
    if best is not None:  # the field and message reported are the ones best_match picks
        with pytest.raises(ScenarioError) as err:
            validate_scenario(scenario)
        expected = ".".join(str(part) for part in best.absolute_path) or "<root>"
        assert (err.value.field, err.value.constraint) == (expected, best.message)


def test_fast_check_refuses_a_schema_keyword_it_does_not_evaluate(monkeypatch):
    harness._audit(scenario_schema())  # the shipped schema uses only what the check evaluates
    schema = copy.deepcopy(scenario_schema())
    schema["properties"]["fit"]["properties"]["input_csv"]["pattern"] = r"\.csv$"
    with pytest.raises(ValueError, match="pattern"):
        harness._audit(schema)
    schema = copy.deepcopy(scenario_schema())
    schema["properties"]["version"]["const"] = [1]
    with pytest.raises(ValueError, match="scalars"):
        harness._audit(schema)
    # shapes jsonschema words in ways _errors does not: its order of extra keys under a schema, its own
    # message for a false schema or false items, "should be non-empty" and "is expected to be empty"
    for path, value, match in [
        (["frames", "additionalProperties"], {"type": "number"}, "additionalProperties"),
        (["frames", "additionalProperties"], True, "additionalProperties"),
        (["version"], False, "true or false"),
        (["record", "oneOf", 1, "items"], False, "true or false"),
        (["fit", "properties", "data", "properties", "x", "minItems"], 1, "minItems"),
        (["fit", "properties", "guess", "maxItems"], 0, "maxItems"),
    ]:
        shape = copy.deepcopy(scenario_schema())
        functools.reduce(operator.getitem, path[:-1], shape["properties"])[path[-1]] = value
        with pytest.raises(ValueError, match=match):
            harness._audit(shape)
    # validate_scenario refuses to run the check rather than pass a scenario it cannot judge
    monkeypatch.setattr(harness, "scenario_schema", lambda: schema)
    harness._fast_schema.cache_clear()
    try:
        with pytest.raises(ValueError, match="scalars"):
            validate_scenario(MINIMAL)
    finally:
        monkeypatch.undo()
        harness._fast_schema.cache_clear()
    validate_scenario(MINIMAL)


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(path)


# ---------------------------------------------------------------- writers


def test_write_csv_round_trips_floats(tmp_path):
    path = tmp_path / "x.csv"
    values = [0.1 + 0.2, 1.0 / 3.0, 5e-3, 1e-17]
    write_csv(path, ["v"], [[v] for v in values])
    lines = path.read_text().splitlines()
    assert lines[0] == "v"
    assert [float(line) for line in lines[1:]] == values


def test_write_csv_uses_unix_newlines(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [[1, 2.5]])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": np.float64(1.5), "a": np.inf, "c": np.array([1.0, 2.0]), "d": np.bool_(True)})
    data = json.loads(path.read_text())
    assert data == {"a": None, "b": 1.5, "c": [1.0, 2.0], "d": True}
    # keys sorted in the serialized text
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


EDGE_FLOATS = [0.0, -0.0, 1e-17, 0.1 + 0.2, 1.0 / 3.0, -2.5e300, 5e-324, np.nan, np.inf, -np.inf]


def _per_value_cell(value) -> str:
    # the rule tables were written with one value at a time
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _per_value_csv(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(_per_value_cell(v) for v in row) for row in rows]) + "\n"


def _row_list_json(header, rows) -> str:
    rows = [[v if isinstance(v, int) or np.isfinite(v) else None for v in row] for row in rows]
    return json.dumps({"columns": list(header), "rows": rows}, indent=2, sort_keys=True) + "\n"


def test_csv_writer_matches_per_value_rule(tmp_path):
    floats = np.array(EDGE_FLOATS)
    header = ["n", "v", "neg"]
    rows = [[i - 3, f, -f] for i, f in enumerate(floats.tolist())]
    write_csv(tmp_path / "rows.csv", header, rows)
    assert (tmp_path / "rows.csv").read_text() == _per_value_csv(header, rows)
    table = np.column_stack([floats, -floats, 3.0 * floats])
    write_csv(tmp_path / "array.csv", header, table)
    assert (tmp_path / "array.csv").read_text() == _per_value_csv(header, table)
    ints = np.arange(-4, 8).reshape(4, 3)
    write_csv(tmp_path / "ints.csv", header, ints)
    assert (tmp_path / "ints.csv").read_text() == _per_value_csv(header, ints)
    write_csv(tmp_path / "empty.csv", header, np.empty((0, 3)))
    assert (tmp_path / "empty.csv").read_text() == "n,v,neg\n"


@pytest.mark.parametrize("shape", [(10, 3), (1, 1), (0, 3)])
def test_json_table_matches_canonical_encoder(tmp_path, shape):
    rng = np.random.default_rng(5)
    table = rng.choice(np.array(EDGE_FLOATS), size=shape)
    header = ["T_seconds", "phi_\u03a9", 'q"uote'][: shape[1]]
    write_json(tmp_path / "t.json", {"columns": header, "rows": table})
    assert (tmp_path / "t.json").read_text() == _row_list_json(header, table.tolist())
    # the row-list form goes through the generic encoder and must agree
    write_json(tmp_path / "rows.json", {"columns": header, "rows": table.tolist()})
    assert (tmp_path / "rows.json").read_text() == (tmp_path / "t.json").read_text()


def test_json_table_writes_int_columns_as_ints(tmp_path):
    table = np.arange(-3, 3).reshape(3, 2)
    write_json(tmp_path / "t.json", {"columns": ["a", "b"], "rows": table})
    assert (tmp_path / "t.json").read_text() == _row_list_json(["a", "b"], table.tolist())


@pytest.mark.parametrize(
    "payload,plain",
    [
        ({"columns": ["a", "b"], "rows": [[1, 2.5], [np.nan, 3]]}, {"columns": ["a", "b"], "rows": [[1, 2.5], [None, 3]]}),
        ({"columns": ["a"], "rows": np.array([[True], [False]])}, {"columns": ["a"], "rows": [[True], [False]]}),
        ({"columns": [], "rows": np.empty((2, 0))}, {"columns": [], "rows": [[], []]}),
        ({"columns": ["a"], "rows": np.arange(3.0)}, {"columns": ["a"], "rows": [0.0, 1.0, 2.0]}),
        ({"columns": ["a"], "rows": np.ones((1, 1)), "x": 1}, {"columns": ["a"], "rows": [[1.0]], "x": 1}),
    ],
)
def test_write_json_other_payloads_keep_the_generic_encoder(tmp_path, payload, plain):
    write_json(tmp_path / "t.json", payload)
    assert (tmp_path / "t.json").read_text() == json.dumps(plain, indent=2, sort_keys=True) + "\n"


def _seeded_tables(rows: int, seed: int) -> tuple:
    """A float table salted with the edge values, an int table and the row-list form of an int and a float column."""
    rng = np.random.default_rng(seed)
    floats = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
    salted = rng.random((rows, 3)) < 0.1
    floats[salted] = rng.choice(np.array(EDGE_FLOATS), size=int(salted.sum()))
    ints = rng.integers(-(2**62), 2**62, size=(rows, 2))
    mixed = [[int(i), float(f)] for i, f in zip(ints[:, 0], floats[:, 0])]
    return floats, ints, mixed


def _assert_writers_match_a_single_pass_join(tmp_path, tables):
    for name, table in tables.items():
        header = ["a", "b", "c"][: len(table[0]) if len(table) else 3]
        write_csv(tmp_path / f"{name}.csv", header, table)
        assert (tmp_path / f"{name}.csv").read_text() == _per_value_csv(header, table), name
        if isinstance(table, np.ndarray):
            write_json(tmp_path / f"{name}.json", {"columns": header, "rows": table})
            assert (tmp_path / f"{name}.json").read_text() == _row_list_json(header, table.tolist()), name


@pytest.mark.parametrize("rows", [0, 1, 3, 4, 5, 13])
def test_chunked_writers_match_a_single_pass_join(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(harness, "_CHUNK_ROWS", 4)
    floats, ints, mixed = _seeded_tables(rows, seed=rows)
    _assert_writers_match_a_single_pass_join(tmp_path, {"floats": floats, "ints": ints, "mixed": mixed})


def test_writers_match_a_single_pass_join_one_row_past_a_chunk(tmp_path):
    floats, _, _ = _seeded_tables(harness._CHUNK_ROWS + 1, seed=1)
    _assert_writers_match_a_single_pass_join(tmp_path, {"floats": floats[:, :1]})


def test_writers_format_each_distinct_bit_pattern_by_its_own_rule(tmp_path):
    # the writers format each distinct value once; values that compare equal but print differently
    # (-0.0 and 0.0) and distinct NaN payloads must each keep the per-value text
    payloads = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0x7FF0000000000001], dtype=np.uint64)
    nans = np.frombuffer(payloads.tobytes(), dtype=np.float64)
    edges = np.array([0.0, -0.0, -0.0, 0.0, *nans, np.inf, -np.inf, 5e-324, -5e-324, 1.0, 0.1 + 0.2])
    rows = harness._CHUNK_ROWS + 1
    table = np.column_stack(
        [
            np.resize(edges, rows),
            np.full(rows, 0.1 + 0.2),
            np.random.default_rng(11).permutation(rows) / 7.0 - 3e4,
        ]
    )
    assert np.unique(table[:, 2]).size == rows
    _assert_writers_match_a_single_pass_join(tmp_path, {"distinct": table})


def test_table_writer_memory_does_not_grow_with_rows(tmp_path):
    # the peak of a write is a few chunks of text, not every row's cells
    peaks = {}
    for rows in (2 * harness._CHUNK_ROWS + 1, 300_000):
        column = np.random.default_rng(rows).random((rows, 1))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", ["v"], column)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[300_000] < 1.1 * peaks[2 * harness._CHUNK_ROWS + 1], peaks


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "columns",
    [
        [np.arange(5), np.linspace(0.0, 1.0, 5), np.array([np.inf, np.nan, -0.0, 1e-300, 2.5])],
        [np.arange(4), np.arange(4) * 3],
        [np.array([True, False, True]), np.array([False, False, True])],
        [np.empty(0), np.empty(0)],
    ],
)
def test_table_columns_write_the_bytes_of_the_stacked_table(tmp_path, fmt, columns):
    header = [f"c{i}" for i in range(len(columns))]
    harness._write_table(tmp_path, "columns", header, columns, fmt)
    stacked = np.column_stack(columns)
    if fmt == "json":
        write_json(tmp_path / "stacked.json", {"columns": header, "rows": stacked})
    else:
        write_csv(tmp_path / "stacked.csv", header, stacked)
    assert (tmp_path / f"columns.{fmt}").read_bytes() == (tmp_path / f"stacked.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_write_holds_no_stacked_copy(tmp_path, monkeypatch, fmt):
    # the 1 M-row flop table of 1024 intervals x 1024 shot phases, its columns tiled by hand to the table's length
    T = np.linspace(0.0, 0.02, 1024)
    phis = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    p_e = np.random.default_rng(5).random((phis.size, T.size))
    columns = [np.tile(T, phis.size), np.tile(50.0 * T, phis.size), np.repeat(phis, T.size), p_e.ravel()]
    # small chunks of empty cells leave only what the write itself holds of the table in the peak
    monkeypatch.setattr(harness, "_CHUNK_ROWS", 4096)
    monkeypatch.setattr(harness, "_column_text", lambda column, nulls: [""] * column.size)
    tracemalloc.start()
    try:
        harness._write_table(tmp_path, "flop", ["T_seconds", "T_normalized", "phi_S", "P_e"], columns, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a stacked 2-D copy alone would be the full 32 MB
    assert peak < sum(column.nbytes for column in columns) / 8, peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_flop_table_columns_are_written_without_a_copy_of_the_table(tmp_path, monkeypatch, fmt):
    # _flop_table's columns of a 1024 x 1024 family broadcast to its grid: no column is built to the table's length
    r = SimpleNamespace(intervals=np.linspace(0.0, 0.02, 1024), frames=FrameSet(TWO_PI * 50.0, TWO_PI * 100.0))
    phis = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    p_e = np.random.default_rng(5).random((phis.size, r.intervals.size))
    # set up as test_table_write_holds_no_stacked_copy: small chunks of empty cells
    monkeypatch.setattr(harness, "_CHUNK_ROWS", 4096)
    monkeypatch.setattr(harness, "_column_text", lambda column, nulls: [""] * column.size)
    tracemalloc.start()
    try:
        harness._write_table(tmp_path, *harness._flop_table(r, phis, p_e), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one column tiled to the table's length alone would hold p_e.nbytes
    assert peak < p_e.nbytes / 4, peak


def test_retrieved_report_makes_no_temporary_the_size_of_the_family(monkeypatch):
    # a pi/2 scramble spreads the family over the shot phase and a detuned store leaves it spread, so both
    # extremes of each column count and the deviation from the normal fringe is not zero
    scenario = _scenario(
        mode="retrieved",
        intervals={"count": 1024},
        phi_samples=1024,
        pulses={"scramble_area_pi": 0.5},
        timing={"t1_s": 0.005, "t2_s": 0.0031},
    )
    r, _ = harness._resolve(scenario, None)
    family = harness.analysis.retrieved_flop(r.scramble_area, r.t1, r.t2, r.intervals, r.phi_samples, r.frames)
    monkeypatch.setattr(harness.analysis, "retrieved_flop", lambda *args: family)
    report = {"warnings": []}
    tracemalloc.start()
    try:
        harness._run_retrieved(scenario, r, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # |p_e - target| alone would hold p_e.nbytes
    assert peak < family.p_e.nbytes / 4, peak
    target = normal_flop(r.frames.delta_w, r.t1 + r.t2 + r.intervals).p_e
    deviation = report["results"]["max_deviation_from_normal"]
    assert deviation > 0 and deviation.hex() == float(np.abs(family.p_e - target).max()).hex()
    assert report["results"]["range_max"] > 0
    assert report["results"]["range_max"].hex() == float(family.ranges().max()).hex()


def test_flop_table_rows_follow_the_grid_in_c_order(tmp_path):
    # one run of rows per shot phase, each holding the intervals in order; one phase makes one run
    r = SimpleNamespace(intervals=np.array([0.0, 1e-3, 2e-3]), frames=FrameSet(TWO_PI * 100.0, TWO_PI * 100.0))
    T, normalized = r.intervals.tolist(), (r.intervals * r.frames.delta_w / TWO_PI).tolist()
    p_e = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    for name, phis, p in (("family", np.array([0.0, 0.5]), p_e), ("normal", 0.25, p_e[0])):
        (tmp_path / name).mkdir()
        harness._write_table(tmp_path / name, *harness._flop_table(r, phis, p), "csv")
        grid = zip(np.atleast_1d(phis).tolist(), np.atleast_2d(p).tolist())
        rows = [[t, n, phi, q] for phi, row in grid for t, n, q in zip(T, normalized, row)]
        assert (tmp_path / name / "flop.csv").read_text() == _per_value_csv(harness.FLOP_COLUMNS, rows)


def test_no_temp_files_left_behind(tmp_path):
    run_scenario(MINIMAL, tmp_path)
    assert not list(tmp_path.glob("*.tmp"))


def test_a_write_that_fails_part_way_leaves_no_temp_file(tmp_path, capsys):
    # the disk fills after the first chunk of the flop table: exit 2 through the CLI, and the .tmp file is removed
    chunks = harness._text_chunks

    def filling(*args):
        yield next(chunks(*args))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    out = tmp_path / "out"
    with mock.patch.object(harness, "_text_chunks", filling):
        assert main(["flop", "--config", str(SCENARIOS / "normal.json"), "-o", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert out.is_dir() and not list(out.glob("*.tmp"))


def test_a_write_that_runs_out_of_memory_keeps_the_tables_before_it(tmp_path, capsys):
    # the second table's write runs out of memory after its first chunk: exit 3 with one line, the flop table
    # written before it stays complete, and neither a temp file nor report.json is left
    config, clean, out = str(SCENARIOS / "normal_noisy.json"), tmp_path / "clean", tmp_path / "out"
    assert main(["flop", "--config", config, "-o", str(clean)]) == 0
    capsys.readouterr()
    chunks, calls = harness._text_chunks, []

    def exhausting(*args):
        calls.append(args)
        yield next(chunks(*args))
        if len(calls) == 2:
            raise MemoryError

    with mock.patch.object(harness, "_text_chunks", exhausting):
        assert main(["flop", "--config", config, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "simulation error: out of memory\n"
    assert sorted(path.name for path in out.iterdir()) == ["flop.csv"]
    assert (out / "flop.csv").read_bytes() == (clean / "flop.csv").read_bytes()


# ---------------------------------------------------------------- running


def test_normal_scenario_outputs(tmp_path):
    report = run_scenario(dict(MINIMAL), tmp_path)
    assert report["outputs"] == ["flop.csv", "report.json"]
    lines = (tmp_path / "flop.csv").read_text().splitlines()
    assert lines[0] == "T_seconds,T_normalized,phi_S,P_e"
    assert lines[1] == "0.0,0.0,0.0,1.0"
    # every row round-trips to the analysis curve exactly
    curve = normal_flop(DELTA_W_REF, default_intervals(DELTA_W_REF))
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], curve.intervals)
    assert np.allclose(parsed[:, 1], curve.intervals * DELTA_W_REF / (2 * np.pi), atol=1e-12)
    assert np.array_equal(parsed[:, 2], np.zeros(curve.intervals.size))
    assert np.array_equal(parsed[:, 3], curve.p_e)
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["mode"] == "normal"
    assert saved["results"]["p_e_max"] == 1.0
    assert saved["resolved"]["frames"]["delta_w_rad_s"] == pytest.approx(DELTA_W_REF)
    assert saved["resolved"]["intervals"]["count"] == curve.intervals.size


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_scenarios_run(path, tmp_path):
    scenario = load_scenario(path)
    report = run_scenario(scenario, tmp_path, base_dir=path.parent)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == report["outputs"]
    assert (tmp_path / "report.json").exists()
    assert json.loads((tmp_path / "report.json").read_text())["mode"] == scenario["mode"]


def _read_long_flop(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    assert lines[0] == "T_seconds,T_normalized,phi_S,P_e"
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_scrambled_band_is_full_on_commensurate_grid(tmp_path):
    scenario = load_scenario(SCENARIOS / "scrambled.json")
    report = run_scenario(scenario, tmp_path)
    assert report["results"]["ambiguity"] == pytest.approx(1.0, abs=1e-9)
    rows = _read_long_flop(tmp_path / "flop.csv")
    n_t = scenario["intervals"]["count"]
    assert rows.shape == (n_t * scenario["phi_samples"], 4)
    # one contiguous block of intervals per shot phase, phases ascending
    assert np.array_equal(rows[:n_t, 2], np.zeros(n_t))
    assert np.all(np.diff(rows[::n_t, 2]) > 0)
    # normalized column counts fringe periods: the grid spans two
    assert rows[:, 1].max() == pytest.approx(2.0, abs=1e-12)


def test_retrieved_scenario_collapses(tmp_path):
    report = run_scenario(load_scenario(SCENARIOS / "retrieved.json"), tmp_path)
    assert report["results"]["max_deviation_from_normal"] < 1e-9
    assert report["warnings"] == []


def test_retrieved_csv_per_interval_spread_is_tiny(tmp_path):
    # the written table itself must show the collapse: for reference
    # timings the P_e spread across shot phases stays below 1e-9 at
    # every interval
    run_scenario(load_scenario(SCENARIOS / "retrieved.json"), tmp_path)
    rows = _read_long_flop(tmp_path / "flop.csv")
    by_interval = {}
    for t, _, _, p in rows:
        by_interval.setdefault(t, []).append(p)
    assert len(by_interval) == 257
    spread = max(max(ps) - min(ps) for ps in by_interval.values())
    assert spread <= 1e-9


def test_retrieved_detuned_store_warns_but_runs(tmp_path):
    scenario = load_scenario(SCENARIOS / "retrieved.json")
    scenario["timing"] = {"t1_s": 0.005, "t2_s": 0.0025}
    report = run_scenario(scenario, tmp_path)
    assert len(report["warnings"]) == 1
    assert "descramble" in report["warnings"][0]
    assert report["results"]["max_deviation_from_normal"] > 0.1


def test_secure_choice_report(tmp_path):
    report = run_scenario(load_scenario(SCENARIOS / "secure_choice.json"), tmp_path)
    results = report["results"]
    assert results["decoded"] == results["choice"] == "yes"
    assert results["match"] is True
    assert results["readout_min"] > 1.0 - 1e-9
    assert results["secrecy_gap"] < 1e-12
    assert results["read_turns_k"] == 1
    lines = (tmp_path / "readout.csv").read_text().splitlines()
    assert lines[0] == "phi_S,P_e"
    assert len(lines) == 257


def test_sdbv_table_headers(tmp_path):
    report = run_scenario(load_scenario(SCENARIOS / "sdbv.json"), tmp_path)
    assert report["outputs"] == ["projection.csv", "report.json", "sdbv.csv"]
    cloud = (tmp_path / "sdbv.csv").read_text().splitlines()
    assert cloud[0] == "phi_S,x,y,z"
    projection = (tmp_path / "projection.csv").read_text().splitlines()
    assert projection[0] == "phi_S,x,z"
    assert len(cloud) == len(projection)
    # both tables share the phi grid
    assert [line.split(",")[0] for line in cloud[1:]] == [line.split(",")[0] for line in projection[1:]]


def test_optimize_scenario_finds_half_pi(tmp_path):
    report = run_scenario(load_scenario(SCENARIOS / "optimize.json"), tmp_path)
    assert report["results"]["theta_star_pi"] == pytest.approx(0.5, abs=1e-3)
    assert report["results"]["ambiguity"] == pytest.approx(1.0, abs=1e-6)


def test_fit_scenario_from_csv(tmp_path):
    report = run_scenario(load_scenario(SCENARIOS / "fit.json"), tmp_path, base_dir=SCENARIOS)
    results = report["results"]
    assert results["converged"] and not results["degenerate_amplitude"]
    assert results["frequency_hz"] == pytest.approx(100.0, rel=0.01)
    lines = (tmp_path / "fit.csv").read_text().splitlines()
    assert lines[0] == "x,y,model,residual"


def test_fit_chains_from_trials_csv(tmp_path):
    run_scenario(load_scenario(SCENARIOS / "normal_noisy.json"), tmp_path / "run")
    fit_scenario = _scenario(mode="fit", fit={"input_csv": "run/trials.csv"})
    report = run_scenario(fit_scenario, tmp_path / "fit", base_dir=tmp_path)
    assert report["results"]["frequency_hz"] == pytest.approx(100.0, rel=0.01)


def test_fit_missing_column(tmp_path):
    (tmp_path / "d.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    scenario = _scenario(mode="fit", fit={"input_csv": "d.csv"})
    with pytest.raises(ScenarioError) as err:
        run_scenario(scenario, tmp_path / "out", base_dir=tmp_path)
    assert err.value.field == "fit"


def test_fit_unsorted_data_is_a_scenario_error(tmp_path):
    scenario = _scenario(
        mode="fit",
        fit={"data": {"x": [0.0, 2.0, 1.0, 3.0, 4.0, 5.0], "y": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]}},
    )
    with pytest.raises(ScenarioError):
        run_scenario(scenario, tmp_path)


# ------------------------------------------------------------ determinism


def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", ["normal_noisy.json", "secure_choice.json"])
def test_rerun_is_byte_identical(name, tmp_path):
    scenario = load_scenario(SCENARIOS / name)
    run_scenario(dict(scenario), tmp_path / "a")
    run_scenario(dict(scenario), tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_seed_changes_trials_only(tmp_path):
    scenario = load_scenario(SCENARIOS / "normal_noisy.json")
    first = dict(scenario)
    second = dict(scenario, seed=scenario["seed"] + 1)
    run_scenario(first, tmp_path / "a")
    run_scenario(second, tmp_path / "b")
    assert (tmp_path / "a/flop.csv").read_bytes() == (tmp_path / "b/flop.csv").read_bytes()
    assert (tmp_path / "a/trials.csv").read_bytes() != (tmp_path / "b/trials.csv").read_bytes()


def test_json_table_format(tmp_path):
    scenario = dict(MINIMAL)
    report = run_scenario(scenario, tmp_path / "json", fmt="json")
    assert report["outputs"] == ["flop.json", "report.json"]
    table = json.loads((tmp_path / "json/flop.json").read_text())
    assert table["columns"] == ["T_seconds", "T_normalized", "phi_S", "P_e"]
    # same numbers either way: both serializers use shortest round-trip floats
    run_scenario(scenario, tmp_path / "csv")
    csv_rows = _read_long_flop(tmp_path / "csv/flop.csv")
    assert np.array_equal(np.array(table["rows"]), csv_rows)
    # reruns stay byte-identical in this format too
    run_scenario(scenario, tmp_path / "json2", fmt="json")
    assert _tree_bytes(tmp_path / "json") == _tree_bytes(tmp_path / "json2")


def test_unknown_table_format_rejected(tmp_path):
    with pytest.raises(ScenarioError) as err:
        run_scenario(dict(MINIMAL), tmp_path, fmt="xml")
    assert err.value.field == "format"


def test_report_scenario_reruns_to_same_resolved_config(tmp_path):
    # the echoed scenario is a complete recipe: feeding it back yields
    # the same resolved configuration and artifacts
    for name in ("retrieved.json", "secure_choice.json"):
        first = run_scenario(load_scenario(SCENARIOS / name), tmp_path / "a" / name)
        echoed = json.loads((tmp_path / "a" / name / "report.json").read_text())["scenario"]
        second = run_scenario(echoed, tmp_path / "b" / name)
        assert second["resolved"] == first["resolved"]
        assert _tree_bytes(tmp_path / "a" / name) == _tree_bytes(tmp_path / "b" / name)


# ----------------------------------------------------------------- CLI


def test_cli_normal_run(tmp_path, capsys):
    code = main(["flop", "--config", str(SCENARIOS / "normal.json"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "normal:" in out
    assert "flop.csv" in out


def test_cli_seed_override(tmp_path):
    base = ["flop", "--config", str(SCENARIOS / "normal_noisy.json")]
    assert main(base + ["-o", str(tmp_path / "a"), "--seed", "7"]) == 0
    assert main(base + ["-o", str(tmp_path / "b"), "--seed", "7"]) == 0
    assert main(base + ["-o", str(tmp_path / "c"), "--seed", "8"]) == 0
    assert (tmp_path / "a/trials.csv").read_bytes() == (tmp_path / "b/trials.csv").read_bytes()
    assert (tmp_path / "a/trials.csv").read_bytes() != (tmp_path / "c/trials.csv").read_bytes()
    report = json.loads((tmp_path / "a/report.json").read_text())
    assert report["scenario"]["seed"] == 7


def test_cli_format_json(tmp_path, capsys):
    args = ["flop", "--config", str(SCENARIOS / "normal.json"), "-o", str(tmp_path), "--format", "json"]
    assert main(args) == 0
    assert "flop.json" in capsys.readouterr().out
    assert (tmp_path / "flop.json").exists()
    assert not (tmp_path / "flop.csv").exists()


def test_cli_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["flop", "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, token",
    [
        ('{"version": 1, "mode": "normal", "frames": {"delta_w_hz": NaN}}', "NaN"),
        ('{"version": 1, "mode": "retrieved", "timing": {"t1_s": Infinity}}', "Infinity"),
        ('{"version": 1, "mode": "normal", "intervals": {"start_s": -Infinity, "stop_s": 0.02}}', "-Infinity"),
    ],
)
def test_cli_non_finite_json_numbers_are_exit_2(tmp_path, capsys, text, token):
    # Python's json accepts these tokens, RFC 8259 does not; they must not
    # reach the engine as a traceback or a simulation error
    path = tmp_path / "non_finite.json"
    path.write_text(text, encoding="utf-8")
    assert main(["flop", "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error") and f"{token} is not valid JSON" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "raw",
    [
        b'\xff{"version": 1, "mode": "normal"}',  # not UTF-8
        b'{"version": 1, "mode": "normal", "seed": ' + b"1" * 4301 + b"}",  # past the int digit limit
        b"[" * 100_000 + b"]" * 100_000,  # past the recursion limit
    ],
    ids=["not-utf8", "long-integer", "deep-nesting"],
)
def test_cli_hostile_scenario_files_are_exit_2(tmp_path, capsys, raw):
    path = tmp_path / "hostile.json"
    path.write_bytes(raw)
    assert main(["flop", "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_overflowing_time_is_a_simulation_error(tmp_path, capsys):
    path = tmp_path / "huge_hold.json"
    path.write_text(json.dumps(_scenario(mode="scrambled", timing={"t1_s": 1e308})), encoding="utf-8")
    with np.errstate(invalid="ignore", over="ignore"):
        assert main(["flop", "--config", str(path), "-o", str(tmp_path / "out")]) == 3
    assert "overflowed" in capsys.readouterr().err


def test_cli_empty_interval_grid_is_exit_2(tmp_path, capsys):
    scenario = _scenario(intervals={"start_s": 0.0, "stop_s": 0.02, "count": 0})
    path = tmp_path / "empty_grid.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["flop", "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    assert "intervals.count" in capsys.readouterr().err


# interval grids that pass the schema and validation, but whose span is too
# narrow for their count, so the evenly spaced points repeat
NARROW_GRIDS = [
    {"start_s": 0, "stop_s": 5e-324, "count": 3},
    {"start_s": 1.0, "stop_s": 1.0000000000000002, "count": 5},
    {"periods": 1e-322, "count": 5},
]

# (subcommand, scenario keys, field named): each value is schema-valid but
# overflows, or is out of the engine's domain, once converted to engine units
HOSTILE = [
    ("flop", {"frames": {"delta_w_hz": 1e308}}, "frames.delta_w_hz"),
    ("flop", {"frames": {"phi_s_pi": 1e308}}, "frames.phi_s_pi"),
    ("flop", {"intervals": {"periods": 1e308}}, "intervals"),
    ("flop", {"mode": "scrambled", "pulses": {"scramble_area_pi": 1e308}}, "pulses.scramble_area_pi"),
    ("flop", {"mode": "scrambled", "timing": {"t1_s": 10**310}}, "timing.t1_s"),
    ("flop", {"mode": "retrieved", "timing": {"store_halfturns_m": 10**310}}, "timing.store_halfturns_m"),
    ("flop", {"mode": "retrieved", "timing": {"store_halfturns_m": 10**308}}, "timing"),
    ("flop", {"mode": "retrieved", "frames": {"delta_s_hz": 1e-320}}, "timing"),
    ("sdbv", {"mode": "sdbv", "record": [10**310, 0, 0]}, "record"),
    ("secure-choice", {"mode": "secure-choice", "choice": "yes", "pulses": {"read_area_pi": 1e308}}, "pulses.read_area_pi"),
    ("secure-choice", {"mode": "secure-choice", "choice": "yes", "timing": {"t1_s": 1e307}}, "timing"),
    ("secure-choice", {"mode": "secure-choice", "choice": "no", "timing": {"store_halfturns_m": 10**310}}, "timing.store_halfturns_m"),
    ("secure-choice", {"mode": "secure-choice", "choice": "yes", "timing": {"read_turns_k": 10**310}}, "timing.read_turns_k"),
    ("secure-choice", {"mode": "secure-choice", "choice": "yes", "timing": {"read_turns_k": 10**308}}, "timing"),
    ("secure-choice", {"mode": "secure-choice", "choice": "yes", "phi_samples": 8}, "phi_samples"),
    # a grid that is not a multiple of 4 is not closed under the pi/2 shift between yes and no: a perfect
    # scramble would read a secrecy gap of 0.17 at 18 phases
    ("secure-choice", {"mode": "secure-choice", "choice": "yes", "phi_samples": 18}, "phi_samples"),
    ("fit", {"mode": "fit", "fit": {"data": {"x": [0, 1, 2, 3, 4, 10**310], "y": [0, 1, 0, 1, 0, 1]}}}, "fit.data.x"),
    ("flop", {"trials": {"count": 2}, "intervals": {"count": 3}, "noise": {"atom_count": 10**20}}, "noise.atom_count"),
    *[("flop", {"intervals": grid}, "intervals") for grid in NARROW_GRIDS],
    # finite data whose spread, span or derived starting point overflows
    ("fit", {"mode": "fit", "fit": {"data": {"x": [0, 1, 2, 3, 4, 5], "y": [1e308, -1e308] * 3}}}, "fit"),
    ("fit", {"mode": "fit", "fit": {"data": {"x": [-1e308, 1, 2, 3, 4, 1e308], "y": [0, 1, 0, 1, 0, 1]}}}, "fit"),
    ("fit", {"mode": "fit", "fit": {"data": {"x": list(range(99)), "y": [0.8e308, -0.4e308, -0.4e308] * 33}}}, "fit"),
    # a start whose residuals overflow: exp(-x / decay_time) for x < 0 and a short decay time
    ("fit", {"mode": "fit", "fit": {"data": {"x": np.linspace(-1, 0, 8).tolist(), "y": [0, 1] * 4}, "guess": [0, 1, 1e-12, 1, 0]}}, "fit"),
    # a JSON integer beyond int64 that overflows once converted, like the float 1e308 above
    ("flop", {"intervals": {"periods": 10**308}}, "intervals"),
    # a valid grid whose points repeat once shifted by t1 + t2 for the normal fringe the report compares with
    ("flop", {"mode": "retrieved", "intervals": {"periods": 1e-15, "count": 257}}, "intervals"),
]


@pytest.mark.parametrize("command, overrides, field", HOSTILE)
def test_cli_hostile_values_are_exit_2(tmp_path, capsys, command, overrides, field):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(_scenario(**overrides)), encoding="utf-8")
    assert main([command, "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {field}: ")
    assert err.count("\n") == 1


def test_a_secure_choice_phi_grid_that_is_not_a_multiple_of_4_writes_nothing(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"version": 1, "mode": "secure-choice", "choice": "yes", "phi_samples": 18}), encoding="utf-8")
    assert main(["secure-choice", "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: phi_samples: phi_samples must be a multiple of 4, got 18")
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, mode", [("flop", "normal"), ("ambiguity", "ambiguity-sweep"), ("optimize", "optimize")])
@pytest.mark.parametrize("grid", NARROW_GRIDS)
def test_cli_narrow_interval_grid_is_exit_2_and_writes_nothing(tmp_path, capsys, command, mode, grid):
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(_scenario(mode=mode, intervals=grid)), encoding="utf-8")
    assert main([command, "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "scenario error: intervals: intervals must be strictly increasing\n"
    assert not (tmp_path / "out").exists()


# number-valued keys given as JSON integers beyond int64, which numpy holds only as object arrays
HUGE_INTEGERS = [
    {"intervals": {"periods": 10**20, "count": 5}},
    {"intervals": {"start_s": 0, "stop_s": 10**20, "count": 5}},
    {"intervals": {"start_s": 10**19, "stop_s": 2 * 10**19, "count": 5}},
    {"mode": "optimize", "intervals": {"count": 5}, "phi_samples": 8, "optimizer": {"tolerance_rad": 10**20}},
]


@pytest.mark.parametrize("overrides", HUGE_INTEGERS)
def test_huge_integer_numbers_run_as_their_floats(tmp_path, overrides):
    as_floats = json.loads(json.dumps(overrides), parse_int=lambda text: float(text) if abs(int(text)) >= 2**63 else int(text))
    given, floats = (run_scenario(_scenario(**keys), tmp_path / name) for name, keys in (("int", overrides), ("float", as_floats)))
    assert (given["resolved"], given["results"]) == (floats["resolved"], floats["results"])
    for name in given["outputs"]:
        if name != "report.json":
            assert (tmp_path / "int" / name).read_bytes() == (tmp_path / "float" / name).read_bytes()


def _fresh_cli_runs(tmp_path, cases) -> list:
    """[exit status, stderr] of ``main`` on each (subcommand, scenario keys) case, all in one fresh interpreter.

    A fresh process shows what a user sees: numpy warnings and tracebacks
    included.  Every warning is shown, so none hides behind an earlier run.
    """
    runs = []
    for i, (command, overrides, *_) in enumerate(cases):
        path = tmp_path / f"case_{i}.json"
        path.write_text(json.dumps(_scenario(**overrides)), encoding="utf-8")
        runs.append([command, "--config", str(path), "-o", str(tmp_path / f"out_{i}")])
    code = (
        "import contextlib, io, json, sys, warnings\n"
        "from scramsey.cli import main\n"
        "warnings.simplefilter('always')\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        status = main(argv)\n"
        "    print(json.dumps([status, err.getvalue()]))\n"
    )
    result = _fresh_python(code, json.dumps(runs))
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines()]


def test_hostile_values_exit_2_in_a_fresh_interpreter(tmp_path):
    outcomes = _fresh_cli_runs(tmp_path, HOSTILE)
    assert [status for status, _ in outcomes] == [2] * len(HOSTILE)
    for i, ((status, err), (_, _, field)) in enumerate(zip(outcomes, HOSTILE)):
        assert err.startswith(f"scenario error: {field}: ") and err.count("\n") == 1, err
        assert not (tmp_path / f"out_{i}").exists()


# (subcommand, scenario keys): each value is schema-valid and resolves,
# but a phase overflows in the engine
OVERFLOWING = [
    ("flop", {"mode": "retrieved", "timing": {"t2_s": 1e308}}),
    ("secure-choice", {"mode": "secure-choice", "choice": "yes", "timing": {"t3_s": 1e308}}),
    ("flop", {"intervals": {"start_s": 0.0, "stop_s": 1e308, "count": 3}}),
    ("flop", {"intervals": {"start_s": 0, "stop_s": 10**308, "count": 3}}),
    ("flop", {"trials": {"count": 2}, "intervals": {"count": 3}, "noise": {"phase_jitter_sigma": 1e308}}),
]


def test_phase_overflows_exit_3_in_a_fresh_interpreter(tmp_path):
    outcomes = _fresh_cli_runs(tmp_path, OVERFLOWING)
    assert [status for status, _ in outcomes] == [3] * len(OVERFLOWING)
    for _, err in outcomes:
        assert err.startswith("simulation error: ") and err.count("\n") == 1, err


def test_phase_overflows_leave_the_output_directory_untouched(tmp_path):
    # every engine run happens before the output directory is made, so an
    # exit 3 writes nothing: neither an empty directory (the t2 overflow)
    # nor a flop table without its report (the jitter overflow in the trials)
    outcomes = _fresh_cli_runs(tmp_path, OVERFLOWING)
    assert [status for status, _ in outcomes] == [3] * len(OVERFLOWING)
    for i in range(len(OVERFLOWING)):
        assert not (tmp_path / f"out_{i}").exists()


#: Numbers a mutation puts into a numeric leaf: zeros, subnormals, the float and int64 edges, huge integers.
_EXTREMES = [0, 0.0, -0.0, 5e-324, 1e-320, -1e-320, 1e-15, -1e-15, 1, -1, 0.5, 2**53 + 1, 1e20, 1e308, -1e308]
_EXTREMES += [2**63 - 1, 2**63, -(2**63), 10**20, -(10**20), 10**308, -(10**308), 10**310]

_COMMAND_OF = {mode: command for command, modes in COMMANDS.items() for mode in modes}


def _numeric_leaves(value, path=()):
    """Paths to every number in ``value`` (bools and the schema ``version`` aside)."""
    if isinstance(value, dict):
        for key, item in value.items():
            if path or key != "version":
                yield from _numeric_leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _numeric_leaves(item, path + (index,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


@st.composite
def _extreme_scenarios(draw):
    """(subcommand, scenario): a shipped or variant scenario with 1-3 numeric leaves set to extremes."""
    scenario = copy.deepcopy(draw(st.sampled_from([s for s in _base_scenarios() if any(_numeric_leaves(s))])))
    for path in draw(st.lists(st.sampled_from(list(_numeric_leaves(scenario))), min_size=1, max_size=3, unique=True)):
        target = functools.reduce(lambda node, key: node[key], path[:-1], scenario)
        target[path[-1]] = draw(st.sampled_from(_EXTREMES))
    if "input_csv" in scenario.get("fit", {}):
        scenario["fit"]["input_csv"] = str(SCENARIOS / scenario["fit"]["input_csv"])  # the scenario is written elsewhere
    return _COMMAND_OF[scenario["mode"]], scenario


@settings(max_examples=100, deadline=None)
@given(_extreme_scenarios())
# the two classes that exited 1 with a traceback: repeated points in the
# shifted retrieved grid, and a number-valued JSON integer beyond int64
@example(("flop", {"version": 1, "mode": "retrieved", "intervals": {"periods": 1e-15, "count": 257}}))
@example(("flop", {"version": 1, "mode": "normal", "intervals": {"periods": 10**20}}))
def test_property_extreme_numbers_keep_the_exit_code_contract(case):
    command, scenario = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(harness, "MAX_GRID_STATES", 2**17):
        path, out, err = Path(tmp) / "scenario.json", Path(tmp) / "out", io.StringIO()
        path.write_text(json.dumps(scenario), encoding="utf-8")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = main([command, "--config", str(path), "-o", str(out)])
        assert status in (0, 2, 3, 4)
        if status in (2, 3):
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert not out.exists()


# (subcommand, scenario keys, largest grid): every grid a scenario can ask for
GRIDS = [
    ("flop", {"intervals": {"count": 7}}, 7),
    ("flop", {"intervals": {"count": 7}, "trials": {"count": 5}}, 35),
    ("flop", {"mode": "scrambled", "intervals": {"count": 7}, "phi_samples": 4, "trials": {"count": 3}}, 28),
    ("flop", {"mode": "retrieved", "intervals": {"count": 7}, "phi_samples": 4, "trials": {"count": 5}}, 35),
    ("flop", {"mode": "scrambled"}, 201 * 256),
    ("sdbv", {"mode": "sdbv", "phi_samples": 9}, 9),
    ("ambiguity", {"mode": "ambiguity-sweep", "intervals": {"count": 7}, "phi_samples": 4}, 28),
    ("optimize", {"mode": "optimize", "intervals": {"count": 7}, "phi_samples": 4, "optimizer": {"coarse_points": 16}}, 448),
    ("optimize", {"mode": "optimize"}, 181 * 201 * 256),
    ("secure-choice", {"mode": "secure-choice", "choice": "yes", "phi_samples": 32}, 32),
]


@pytest.mark.parametrize("command, overrides, states", GRIDS)
def test_grid_states_are_counted_from_the_inputs(command, overrides, states):
    assert harness._grid_states(_scenario(**overrides)) == states


@pytest.mark.parametrize("command, overrides, states", GRIDS)
def test_grids_over_the_budget_are_exit_2(tmp_path, capsys, command, overrides, states):
    # the budget is lowered to the grid's own size, so nothing large is ever allocated
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_scenario(**overrides)), encoding="utf-8")
    with mock.patch.object(harness, "MAX_GRID_STATES", states - 1):
        assert main([command, "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: grid: asks for {states} final states") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_grid_at_the_budget_runs(tmp_path):
    scenario = _scenario(mode="scrambled", intervals={"count": 7}, phi_samples=4, trials={"count": 3})
    with mock.patch.object(harness, "MAX_GRID_STATES", 28):
        run_scenario(scenario, tmp_path)
    assert (tmp_path / "report.json").exists()


def test_the_grid_budget_is_checked_before_anything_is_allocated(tmp_path, capsys):
    # a grid far beyond memory: the check must come before the interval grid exists
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_scenario(mode="scrambled", intervals={"count": 10**15}, phi_samples=10**15)), encoding="utf-8")
    with mock.patch.object(np, "linspace", side_effect=AssertionError("allocated an interval grid")):
        assert main(["flop", "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"scenario error: grid: asks for {10**30} final states")


def test_the_trial_count_is_capped_by_the_schema():
    # 8 M trials of 2 intervals fit the grid budget, but each trial spawns a random stream of its own
    with pytest.raises(ScenarioError) as err:
        validate_scenario(_scenario(intervals={"count": 2}, trials={"count": 8_000_000}))
    assert (err.value.field, err.value.constraint) == ("trials.count", "8000000 is greater than the maximum of 65536")


def test_integral_float_counts_behave_like_ints(tmp_path):
    for name, count in (("int", 5), ("float", 5.0)):
        grid = {"start_s": 0.0, "stop_s": 0.02, "count": count}
        run_scenario(_scenario(mode="scrambled", intervals=grid, phi_samples=8, trials={"count": 2}), tmp_path / name)
    for table in ("flop.csv", "trials.csv"):
        assert (tmp_path / "int" / table).read_bytes() == (tmp_path / "float" / table).read_bytes()


def _reference_summary_line(report: dict) -> str:
    """The summary line as a branch per mode, the reference for the CLI's ``_SUMMARY`` table."""
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


def test_cli_summary_table_matches_a_branch_per_mode(tmp_path):
    # the reference runs on this machine's numbers: some results sit at rounding level
    flat_fit = _scenario(mode="fit", fit={"data": {"x": [0, 1, 2, 3, 4, 5], "y": [0.5] * 6}})
    scenarios = _base_scenarios() + [flat_fit]
    assert {scenario["mode"] for scenario in scenarios} == set(_SUMMARY)
    for i, scenario in enumerate(scenarios):
        report = run_scenario(scenario, tmp_path / str(i), base_dir=SCENARIOS)
        assert _summary_line(report) == _reference_summary_line(report)
    assert report["results"]["degenerate_amplitude"] and " decay none, " in _summary_line(report)


def test_cli_rejects_mode_mismatch(tmp_path, capsys):
    assert main(["flop", "--config", str(SCENARIOS / "sdbv.json"), "-o", str(tmp_path)]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_cli_rejects_seed_without_trials_support(tmp_path, capsys):
    assert main(["sdbv", "--config", str(SCENARIOS / "sdbv.json"), "-o", str(tmp_path), "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_rejects_seed_beyond_u64(tmp_path, capsys):
    args = ["flop", "--config", str(SCENARIOS / "normal_noisy.json"), "-o", str(tmp_path)]
    assert main(args + ["--seed", str(2**64)]) == 2
    assert "64-bit" in capsys.readouterr().err


def test_cli_protocol_error_is_exit_3(tmp_path, capsys):
    scenario = load_scenario(SCENARIOS / "secure_choice.json")
    scenario["timing"] = {"t1_s": 0.005, "t2_s": 0.005, "t3_s": 0.001}
    path = tmp_path / "broken_timing.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["secure-choice", "--config", str(path), "-o", str(tmp_path / "out")]) == 3
    assert "simulation error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 128. MiB for an array")])
def test_cli_out_of_memory_is_exit_3(tmp_path, capsys, error):
    # an engine call that runs out of memory fails the run: one line, no traceback, nothing written
    with mock.patch("scramsey.analysis.scrambled_flop", side_effect=error):
        assert main(["flop", "--config", str(SCENARIOS / "scrambled.json"), "-o", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == f"simulation error: {str(error) or 'out of memory'}\n"
    assert not (tmp_path / "out").exists()


def test_a_fit_csv_with_a_non_numeric_cell_is_exit_2(tmp_path, capsys):
    (tmp_path / "data.csv").write_text("T_seconds,mean\n0,0.5\n1,abc\n", encoding="utf-8")
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(_scenario(mode="fit", fit={"input_csv": "data.csv"})), encoding="utf-8")
    assert main(["fit", "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"scenario error: fit: non-numeric values in columns 'T_seconds'/'mean' of {tmp_path / 'data.csv'}\n"
    assert not (tmp_path / "out").exists()


def test_cli_infeasible_read_turn_stays_exit_3(tmp_path, capsys):
    # resolving t3 maps overflow to exit 2, but an infeasible turn count is a simulation error
    scenario = load_scenario(SCENARIOS / "secure_choice.json")
    scenario["timing"] = {"t1_s": 0.005, "store_halfturns_m": 0, "read_turns_k": 0}
    path = tmp_path / "infeasible_k.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["secure-choice", "--config", str(path), "-o", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("simulation error: 2*pi*k = ") and err.count("\n") == 1


def test_cli_fit_nonconvergence_is_exit_4(tmp_path, capsys):
    x = np.linspace(0.0, 0.06, 40)
    y = 0.5 + 0.4 * np.exp(-x / 0.02) * np.cos(2 * np.pi * 100.0 * x)
    scenario = _scenario(mode="fit", fit={"data": {"x": x.tolist(), "y": y.tolist()}, "max_iterations": 1})
    path = tmp_path / "fit_budget.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["fit", "--config", str(path), "-o", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert "did not converge" in captured.err
    assert (tmp_path / "out/fit.csv").exists()


def test_cli_detuned_store_warns_and_exits_zero(tmp_path, capsys):
    scenario = load_scenario(SCENARIOS / "retrieved.json")
    scenario["timing"] = {"t1_s": 0.005, "t2_s": 0.0025}
    scenario["intervals"] = {"periods": 1.0, "count": 17}
    path = tmp_path / "detuned.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["flop", "--config", str(path), "-o", str(tmp_path / "out")]) == 0
    assert "warning" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "scramsey", "flop", "--config", str(SCENARIOS / "normal.json"), "-o", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "flop.csv").exists()


def test_cli_unwritable_out_is_exit_2(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    code = main(["flop", "--config", str(SCENARIOS / "normal.json"), "-o", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: out: cannot write to")
    assert len(err.strip().splitlines()) == 1
    assert main(["flop", "--config", str(SCENARIOS / "normal.json"), "-o", str(blocker)]) == 2


def _fresh_python(code: str, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(scramsey.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)


def test_scipy_optimize_loads_only_for_fits(tmp_path):
    runs = []
    for path in sorted(SCENARIOS.glob("*.json")):
        mode = json.loads(path.read_text(encoding="utf-8"))["mode"]
        command = next(name for name, modes in COMMANDS.items() if mode in modes)
        if command != "fit":
            runs.append([command, "--config", str(path), "-o", str(tmp_path / path.stem)])
    code = (
        "import json, sys\n"
        "import scramsey\n"
        "from scramsey.cli import main\n"
        "assert 'scipy.optimize' not in sys.modules, 'import scramsey loaded scipy.optimize'\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'scipy.optimize' not in sys.modules, argv\n"
    )
    result = _fresh_python(code, json.dumps(runs))
    assert result.returncode == 0, result.stderr
    assert len(runs) == 8

    fit = _fresh_python(
        "import sys\nfrom scramsey.cli import main\nsys.exit(main(sys.argv[1:]))",
        "fit", "--config", str(SCENARIOS / "fit.json"), "-o", str(tmp_path / "fit"),
    )
    assert fit.returncode == 0, fit.stderr
    assert (tmp_path / "fit" / "fit.csv").exists()


def test_every_shipped_scenario_runs_without_scipy(tmp_path):
    runs = []
    for path in sorted(SCENARIOS.glob("*.json")):
        mode = json.loads(path.read_text(encoding="utf-8"))["mode"]
        command = next(name for name, modes in COMMANDS.items() if mode in modes)
        for fmt in harness.TABLE_FORMATS:
            runs.append([command, "--config", str(path), "-o", str(tmp_path / f"{path.stem}-{fmt}"), "--format", fmt])
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy or a submodule fails\n"
        "from scramsey.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = [name for name in sys.modules if name.startswith('scipy')]\n"
        "assert loaded == ['scipy'] and sys.modules['scipy'] is None, loaded\n"
    )
    result = _fresh_python(code, json.dumps(runs))
    assert result.returncode == 0, result.stderr
    assert len(runs) == 18

    if _skip_reason() is None:
        for run in runs:
            out = Path(run[4])
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
            assert digests == PINS["artifacts"][out.name], out.name


def test_cli_never_loads_jsonschema(tmp_path):
    runs = []
    for path in sorted(SCENARIOS.glob("*.json")):
        mode = json.loads(path.read_text(encoding="utf-8"))["mode"]
        command = next(name for name, modes in COMMANDS.items() if mode in modes)
        runs.append([command, "--config", str(path), "-o", str(tmp_path / path.stem)])
    code = (
        "import json, sys\n"
        "import scramsey\n"
        "from scramsey.cli import main\n"
        "assert 'jsonschema' not in sys.modules, 'import scramsey loaded jsonschema'\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'jsonschema' not in sys.modules, argv\n"
    )
    result = _fresh_python(code, json.dumps(runs))
    assert result.returncode == 0, result.stderr
    assert len(runs) == 9

    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({"version": 1, "mode": "scrambled", "phi_samples": 3}), encoding="utf-8")
    rejected = _fresh_python(
        "import sys\nfrom scramsey.cli import main\ncode = main(sys.argv[1:])\n"
        "print('jsonschema' in sys.modules)\nsys.exit(code)",
        "flop", "--config", str(path), "-o", str(tmp_path / "invalid"),
    )
    assert rejected.returncode == 2
    assert rejected.stderr == "scenario error: phi_samples: 3 is less than the minimum of 4\n"
    assert rejected.stdout == "False\n"
    assert not (tmp_path / "invalid").exists()


def test_a_deeply_nested_seed_is_one_bounded_line_in_a_fresh_interpreter(tmp_path):
    # the schema error quotes the whole value: 900 brackets deep, over 1 800 characters uncut
    path = tmp_path / "deep.json"
    path.write_text('{"version": 1, "mode": "normal", "seed": ' + "[" * 900 + "]" * 900 + "}", encoding="utf-8")
    result = _fresh_python(
        "import sys\nfrom scramsey.cli import main\nsys.exit(main(sys.argv[1:]))",
        "flop", "--config", str(path), "-o", str(tmp_path / "deep"),
    )
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    line = result.stderr.rstrip("\n")
    assert line.startswith("scenario error: seed: [[[") and line.endswith("...")
    assert len(line) == cli._MAX_ERROR_LINE <= 400
    assert not (tmp_path / "deep").exists()


#: Fit inputs the csv reader cannot read: a byte that is not UTF-8, and a field one character past the csv
#: module's default limit of 131 072
UNREADABLE_CSVS = {"not-utf-8": b"x,y\n0,\xff\n", "field-over-the-limit": b"x,y\n0," + b"1" * 131_073 + b"\n"}


@pytest.mark.parametrize("content", UNREADABLE_CSVS.values(), ids=UNREADABLE_CSVS)
def test_an_unreadable_fit_csv_is_exit_2_in_a_fresh_interpreter(tmp_path, content):
    (tmp_path / "data.csv").write_bytes(content)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(_scenario(mode="fit", fit={"input_csv": "data.csv"})), encoding="utf-8")
    result = _fresh_python(
        "import sys\nfrom scramsey.cli import main\nsys.exit(main(sys.argv[1:]))",
        "fit", "--config", str(path), "-o", str(tmp_path / "out"),
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"scenario error: fit.input_csv: cannot read {tmp_path / 'data.csv'} (")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_a_fit_csv_that_is_a_directory_is_exit_2(tmp_path, capsys):
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(_scenario(mode="fit", fit={"input_csv": "."})), encoding="utf-8")
    assert main(["fit", "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: fit.input_csv: cannot read {tmp_path} (") and "Is a directory" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_error_lines_within_the_bound_are_printed_whole(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"version": 1, "mode": "normal", "seed": "x" * 300}), encoding="utf-8")
    assert main(["flop", "--config", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "scenario error: seed: '" + "x" * 300 + "' is not of type 'integer'\n"
    assert len(err) - 1 <= cli._MAX_ERROR_LINE
