"""Every shipped scenario reproduces its pinned artifacts byte for byte.

The pins live in ``perfbench/checksums.json`` (read here, never written):
the sha256 of each artifact of each scenario in both table formats.  A
refactor of the engine, the analysis or the writers must leave every one
of them unchanged.  A different numpy version or SIMD dispatch may round
the last bit of a transcendental differently, so the test skips when
either differs from the machine the pins were produced on.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from scramsey.harness import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
PINS = json.loads((ROOT / "perfbench" / "checksums.json").read_text("utf-8"))


def _simd_found() -> list:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def _skip_reason():
    produced = PINS["produced_with"]
    if np.__version__ != produced["numpy"]:
        return f"pins made with numpy {produced['numpy']}, running {np.__version__}"
    found = _simd_found()
    if found != produced["numpy_simd"]["found"]:
        return f"pins made with SIMD targets {produced['numpy_simd']['found']}, running {found}"
    return None


def test_every_shipped_scenario_is_pinned():
    stems = sorted(p.stem for p in SCENARIOS.glob("*.json"))
    assert sorted(PINS["artifacts"]) == [f"{s}-{fmt}" for s in stems for fmt in ("csv", "json")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("stem", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_artifacts_match_pinned_checksums(stem, fmt, tmp_path):
    reason = _skip_reason()
    if reason:
        pytest.skip(reason)
    run_scenario(load_scenario(SCENARIOS / f"{stem}.json"), tmp_path, base_dir=SCENARIOS, fmt=fmt)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert got == PINS["artifacts"][f"{stem}-{fmt}"]
