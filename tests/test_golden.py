"""Every shipped scenario reproduces its pinned artifacts byte for byte.

The pins live in ``perfbench/checksums.json`` (read here, never written):
the sha256 of each artifact of each scenario in both table formats.  A
refactor of the engine, the analysis or the writers must leave every one
of them unchanged.  A different numpy version or SIMD dispatch may round
the last bit of a transcendental differently, so the test skips when
either differs from the machine the pins were produced on.

``VARIANTS`` reach the optional sections the shipped scenarios leave
out (trials with noise on every fringe mode, vector records, explicit
store and read times, the detuned-store warning, fits with a guess).
Their pins live in ``tests/variant_checksums.json``; re-pin them only
for a deliberate change of the artifacts, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from scramsey.harness import MAX_GRID_STATES, _grid_states, load_scenario, run_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
PINS = json.loads((ROOT / "perfbench" / "checksums.json").read_text("utf-8"))
VARIANT_PINS_PATH = Path(__file__).resolve().parent / "variant_checksums.json"
VARIANT_PINS = json.loads(VARIANT_PINS_PATH.read_text("utf-8"))

_FIT_X = [0.0, 0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02, 0.0225, 0.025, 0.0275]
_FIT_Y = [0.8344, 0.4532, 0.1912, 0.4506, 0.758, 0.6195, 0.3074, 0.338, 0.6223, 0.679, 0.4446, 0.3258]

VARIANTS = {
    "normal_defaults": {"mode": "normal"},
    "normal_range_phased": {
        "mode": "normal",
        "frames": {"delta_w_hz": 80.0, "delta_s_hz": 120.0, "phi_s_pi": 0.25},
        "intervals": {"start_s": 0.001, "stop_s": 0.02, "count": 19},
    },
    "normal_trials_fixed_phi": {
        "mode": "normal",
        "seed": 7,
        "intervals": {"periods": 1.0, "count": 21},
        "trials": {"count": 3, "randomize_phi": False},
        "noise": {"phase_jitter_sigma": 0.05},
    },
    "scrambled_defaults": {"mode": "scrambled", "intervals": {"count": 9.0}, "phi_samples": 8.0},
    "scrambled_trials_noisy": {
        "mode": "scrambled",
        "seed": 11,
        "intervals": {"periods": 1.0, "count": 17},
        "phi_samples": 16,
        "pulses": {"scramble_area_pi": 0.75},
        "timing": {"t1_s": 0},
        "trials": {"count": 2.0},
        "noise": {"atom_count": 100, "contrast_decay_tau_s": 0.02, "phase_jitter_sigma": 0.1},
    },
    # shot phases drawn with no binomial after them: every stream's draws are known before the walk
    "scrambled_trials_phase_draws": {
        "mode": "scrambled",
        "seed": 5,
        "intervals": {"periods": 1.0, "count": 33},
        "phi_samples": 8,
        "pulses": {"scramble_area_pi": 0.6},
        "trials": {"count": 4},
        "noise": {"contrast_decay_tau_s": 0.03},
    },
    "retrieved_m2_trials": {
        "mode": "retrieved",
        "seed": 3,
        "frames": {"delta_s_hz": 50.0},
        "intervals": {"periods": 1.5, "count": 13},
        "phi_samples": 12,
        "pulses": {"scramble_area_pi": 0.5},
        "timing": {"t1_s": 0.003, "store_halfturns_m": 2},
        "trials": {"count": 2},
        "noise": {"atom_count": 50, "phase_jitter_sigma": 0.02},
    },
    "retrieved_detuned_store": {
        "mode": "retrieved",
        "intervals": {"count": 11},
        "phi_samples": 8,
        "timing": {"t1_s": 0.005, "t2_s": 0.0025},
    },
    "sdbv_defaults": {"mode": "sdbv"},
    "sdbv_vector_record": {"mode": "sdbv", "record": [0.6, 0.0, 0.8], "pulses": {"scramble_area_pi": 0.3}, "phi_samples": 32},
    "ambiguity_vector_range": {
        "mode": "ambiguity-sweep",
        "frames": {"delta_w_hz": 50.0},
        "intervals": {"start_s": 0.001, "stop_s": 0.03, "count": 15},
        "phi_samples": 16,
        "record": [0.0, 0.6, -0.8],
        "pulses": {"scramble_area_pi": 0.8},
    },
    "optimize_fine_tolerance": {
        "mode": "optimize",
        "record": "superposition",
        "intervals": {"count": 9},
        "phi_samples": 16,
        "optimizer": {"tolerance_rad": 1e-15, "coarse_points": 33},
    },
    "secure_choice_explicit_times": {
        "mode": "secure-choice",
        "choice": "no",
        "pulses": {"scramble_area_pi": 3.0, "read_area_pi": 2.5},
        "timing": {"t1_s": 0.005, "t2_s": 0.005, "t3_s": 0.0},
        "phi_samples": 16,
    },
    "secure_choice_turns": {
        "mode": "secure-choice",
        "choice": "yes",
        "timing": {"t1_s": 0.002, "store_halfturns_m": 1, "read_turns_k": 3},
        "phi_samples": 16,
    },
    "fit_data_guess": {
        "mode": "fit",
        "fit": {"data": {"x": _FIT_X, "y": _FIT_Y}, "guess": [0.5, 0.35, 0.04, 565.0, 0.3], "max_iterations": 200},
    },
    "fit_csv_default_columns": {"mode": "fit", "fit": {"input_csv": "fit_example_data.csv", "guess": [0.5, 0.4, 0.03, 628.0, 0.0]}},
}


def _simd_found() -> list:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def _skip_reason(pins=PINS):
    produced = pins["produced_with"]
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
    assert _digests(load_scenario(SCENARIOS / f"{stem}.json"), tmp_path, fmt) == PINS["artifacts"][f"{stem}-{fmt}"]


def _digests(scenario, out, fmt) -> dict:
    run_scenario(scenario, out, base_dir=SCENARIOS, fmt=fmt)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _variant(name) -> dict:
    return {"version": 1, **VARIANTS[name]}


def test_every_shipped_scenario_and_variant_fits_the_grid_budget():
    scenarios = [load_scenario(path) for path in SCENARIOS.glob("*.json")] + [_variant(name) for name in VARIANTS]
    assert max(_grid_states(scenario) for scenario in scenarios) <= MAX_GRID_STATES


def test_every_variant_is_pinned():
    assert sorted(VARIANT_PINS["artifacts"]) == sorted(f"{name}-{fmt}" for name in VARIANTS for fmt in ("csv", "json"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_artifacts_match_pinned_checksums(name, fmt, tmp_path):
    reason = _skip_reason(VARIANT_PINS)
    if reason:
        pytest.skip(reason)
    assert _digests(_variant(name), tmp_path, fmt) == VARIANT_PINS["artifacts"][f"{name}-{fmt}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        artifacts = {
            f"{name}-{fmt}": _digests(_variant(name), Path(tmp) / f"{name}-{fmt}", fmt)
            for name in VARIANTS
            for fmt in ("csv", "json")
        }
    produced = {"numpy": np.__version__, "numpy_simd": {"found": _simd_found()}}
    text = json.dumps({"produced_with": produced, "artifacts": artifacts}, indent=2, sort_keys=True)
    VARIANT_PINS_PATH.write_text(text + "\n", "utf-8")
