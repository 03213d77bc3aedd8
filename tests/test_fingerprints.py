"""Every shipped scenario and golden variant reproduces its numeric fingerprint, on any machine.

The sha256 pins of ``test_golden.py`` hold only where numpy and its SIMD
targets match the pinning machine, so elsewhere they skip.  This gate
never skips.  ``tests/fingerprints.json`` holds, for each artifact of
each shipped scenario and each ``VARIANTS`` entry in both table formats:

* ``report.json`` as parsed: its keys, strings, bools, nulls and integers
  must match exactly, and its floats to 16 ulps, ``16 * eps * max(1, |v|)``;
* per table, the column names exactly and per numeric column the count,
  sum, sum of squares, min, max and dot product with a fixed seeded
  +-1 vector (``_column_print``).  Sums are exactly rounded
  (``math.fsum``), so the tolerance covers the data alone: count exact,
  min and max as single numbers above, sum and dot product to
  ``16 * n * eps * max(1, max|v|)`` and the sum of squares to that with
  the scale squared.  A one-ulp nudge of every value passes; moving a
  single ``P_e`` of the 65 792-row ``scrambled`` table by 1e-9 fails.

``optimize`` and ``fit`` runs compare with ``LOOSE`` in place of
``16 * eps``: the golden-section search and the least-squares fit can turn
a last-bit change of their objective into a larger move of the result.

Re-pin only for a deliberate change of the artifacts, with
``PYTHONPATH=src python tests/test_fingerprints.py``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from test_golden import SCENARIOS, VARIANTS, _variant

from scramsey.harness import load_scenario, run_scenario

FINGERPRINTS_PATH = Path(__file__).resolve().parent / "fingerprints.json"
FINGERPRINTS = json.loads(FINGERPRINTS_PATH.read_text("utf-8"))

#: Tolerance per unit of scale for engine outputs: 16 ulps of a value of magnitude 1.
STRICT = 16 * float(np.finfo(float).eps)

#: Tolerance per unit of scale for the runs of ``LOOSE_MODES``.
LOOSE = 1e-6
LOOSE_MODES = ("optimize", "fit")

SHIPPED = sorted(p.stem for p in SCENARIOS.glob("*.json"))
CASES = [("shipped", stem) for stem in SHIPPED] + [("variants", name) for name in sorted(VARIANTS)]


def _column_print(v: np.ndarray) -> list:
    """Count, sum, sum of squares, min, max and dot product with seeded signs of a float column."""
    signs = np.random.default_rng(2019).choice([-1.0, 1.0], size=v.size)
    return [int(v.size), math.fsum(v), math.fsum(v * v), float(v.min()), float(v.max()), math.fsum(v * signs)]


def _table(path: Path) -> tuple:
    """Column names and float columns of a written table; a JSON null reads as nan."""
    if path.suffix == ".csv":
        header = path.read_text("utf-8").split("\n", 1)[0].split(",")
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    else:
        table = json.loads(path.read_text("utf-8"))
        header, rows = table["columns"], np.array(table["rows"], dtype=float)
    return header, list(rows.T)


def _table_print(header, columns) -> dict:
    return {"columns": header, "prints": [_column_print(column) for column in columns]}


def fingerprint(out: Path) -> dict:
    """Per file written to ``out``: ``report.json`` as parsed, or the table's :func:`_table_print`."""
    prints = {}
    for path in sorted(out.iterdir()):
        prints[path.name] = json.loads(path.read_text("utf-8")) if path.name == "report.json" else _table_print(*_table(path))
    return prints


def _run(kind: str, name: str, fmt: str, out: Path) -> tuple:
    """Run a shipped scenario or a variant into ``out``; returns its mode and :func:`fingerprint`."""
    scenario = load_scenario(SCENARIOS / f"{name}.json") if kind == "shipped" else _variant(name)
    run_scenario(scenario, out, base_dir=SCENARIOS, fmt=fmt)
    return scenario["mode"], fingerprint(out)


def _value_mismatches(want, got, scale: float, where: str) -> list:
    """Where JSON value ``got`` departs from ``want``: floats by more than ``scale * max(1, |want|)``,
    anything else (keys, lengths, types, strings, bools, nulls, integers) at all."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} is not a {type(want).__name__} like {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in _value_mismatches(want[key], got[key], scale, f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, pair in enumerate(zip(want, got)) for m in _value_mismatches(*pair, scale, f"{where}[{i}]")]
    if isinstance(want, float):
        ok = abs(got - want) <= scale * max(1.0, abs(want))
    else:
        ok = got == want
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


def _column_mismatches(want: list, got: list, scale: float, where: str) -> list:
    """Where column print ``got`` departs from ``want`` by more than its tolerance (module docstring)."""
    n, lo, hi = want[0], want[3], want[4]
    big = max(1.0, abs(lo), abs(hi))
    tols = (0, scale * n * big, scale * n * big**2, scale * max(1.0, abs(lo)), scale * max(1.0, abs(hi)), scale * n * big)
    names = ("count", "sum", "sum of squares", "min", "max", "signed sum")
    return [f"{where} {name}: {g!r} != {w!r}" for name, w, g, tol in zip(names, want, got, tols) if not abs(g - w) <= tol]


def mismatches(want: dict, got: dict, scale: float) -> list:
    """Every departure of fingerprint ``got`` from ``want``; empty when they agree."""
    if got.keys() != want.keys():
        return [f"files {sorted(got)} != {sorted(want)}"]
    found = []
    for name, expected in want.items():
        actual = got[name]
        if name == "report.json":
            found += _value_mismatches(expected, actual, scale, name)
        elif actual["columns"] != expected["columns"]:
            found.append(f"{name}: columns {actual['columns']} != {expected['columns']}")
        else:
            for column, w, g in zip(expected["columns"], expected["prints"], actual["prints"]):
                found += _column_mismatches(w, g, scale, f"{name}.{column}")
    return found


def test_every_shipped_scenario_and_variant_is_fingerprinted():
    assert {kind: sorted(prints) for kind, prints in FINGERPRINTS.items()} == {
        kind: sorted(f"{name}-{fmt}" for k, name in CASES if k == kind for fmt in ("csv", "json"))
        for kind in ("shipped", "variants")
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind, name", CASES)
def test_artifacts_match_fingerprint(kind, name, fmt, tmp_path):
    mode, got = _run(kind, name, fmt, tmp_path)
    assert mismatches(FINGERPRINTS[kind][f"{name}-{fmt}"], got, LOOSE if mode in LOOSE_MODES else STRICT) == []


def test_fingerprint_passes_an_ulp_nudge_and_fails_a_1e_9_move(tmp_path):
    _, want = _run("shipped", "scrambled", "csv", tmp_path)
    header, columns = _table(tmp_path / "flop.csv")
    for direction in (np.inf, -np.inf):
        nudged = {**want, "flop.csv": _table_print(header, [np.nextafter(c, direction) for c in columns])}
        assert mismatches(want, nudged, STRICT) == []
    k = header.index("P_e")
    assert columns[k].size == 65792
    for i in (0, columns[k].size // 2, int(np.argmin(columns[k])), int(np.argmax(columns[k]))):
        moved = list(columns)
        moved[k] = columns[k].copy()
        moved[k][i] += 1e-9 if moved[k][i] < 0.5 else -1e-9
        assert mismatches(want, {**want, "flop.csv": _table_print(header, moved)}, STRICT) != []


def test_report_mismatches_name_each_kind_of_departure():
    want = {"a": 1.0, "b": [1, "x", None, True], "c": {"d": 2.0}}
    assert _value_mismatches(want, json.loads(json.dumps(want)), STRICT, "r") == []
    assert _value_mismatches(want, {**want, "a": 1.0 + 1e-14}, STRICT, "r") != []
    assert _value_mismatches(want, {**want, "a": 1}, STRICT, "r") != []
    assert _value_mismatches(want, {**want, "b": [1, "y", None, True]}, STRICT, "r") != []
    assert _value_mismatches(want, {**want, "b": [1, "x", None, 1]}, STRICT, "r") != []
    assert _value_mismatches(want, {**want, "c": {"e": 2.0}}, STRICT, "r") != []


if __name__ == "__main__":
    import re
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        prints = {"shipped": {}, "variants": {}}
        for kind, name in CASES:
            for fmt in ("csv", "json"):
                prints[kind][f"{name}-{fmt}"] = _run(kind, name, fmt, Path(tmp) / f"{kind}-{name}-{fmt}")[1]
    text = json.dumps(prints, indent=1, sort_keys=True, allow_nan=False)
    # a list of numbers on one line
    text = re.sub(r"\[\s+([-+.\w]+(?:,\s+[-+.\w]+)*)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)
    assert json.loads(text) == prints
    FINGERPRINTS_PATH.write_text(text + "\n", "utf-8")
