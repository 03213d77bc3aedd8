import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import scramsey
from scramsey import analysis
from scramsey.analysis import (
    AmbiguityReport,
    FlopCurve,
    FlopFamily,
    SDBV,
    ambiguity_report,
    default_intervals,
    normal_flop,
    optimize_scramble_area,
    phi_grid,
    retrieved_flop,
    scrambled_flop,
    sdbv,
    sdbv_projection_xz,
)
from scramsey.bloch import EXCITED
from scramsey.harness import load_scenario, run_scenario
from scramsey.sequence import DELTA_W_REF

# equal-superposition record produced by the pi/2 write pulse
PLUS = np.array([0.0, -1.0, 0.0])

# interval grid commensurate with the phi grids used below: sampled phi
# extremes then hit the true band edges (delta_w * T = k*pi/8)
T33 = np.linspace(0.0, 2 * 2 * np.pi / DELTA_W_REF, 33)
T1_REF = 5e-3


# ------------------------------------------------------------------- grids


def test_default_intervals_cover_two_periods():
    t = default_intervals(DELTA_W_REF)
    assert t.size == 201
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.02)
    with pytest.raises(ValueError):
        default_intervals(0.0)
    with pytest.raises(ValueError):
        default_intervals(DELTA_W_REF, periods=-1.0)
    with pytest.raises(ValueError):
        default_intervals(DELTA_W_REF, count=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda periods: default_intervals(2 * np.pi * 100, periods, 3),
        lambda tolerance: optimize_scramble_area(EXCITED, np.linspace(0, 0.01, 5), 8, tolerance=tolerance),
    ],
    ids=["default_intervals-periods", "optimize_scramble_area-tolerance"],
)
def test_an_integer_beyond_int64_runs_as_its_float(call):
    # numpy refuses such an integer in np.isfinite; each entry reads float() of it first
    got, want = call(10**20), call(1e20)
    if isinstance(want, np.ndarray):
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


def test_phi_grid_values():
    assert np.allclose(phi_grid(4), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    with pytest.raises(ValueError):
        phi_grid(0)


# ------------------------------------------------------------------- types


def test_flop_curve_validation():
    with pytest.raises(ValueError):
        FlopCurve(np.array([0.0, 0.0]), np.array([0.5, 0.5]))  # not increasing
    with pytest.raises(ValueError):
        FlopCurve(np.array([0.0, 1.0]), np.array([0.5, 1.5]))  # out of range
    with pytest.raises(ValueError):
        FlopCurve(np.array([0.0, 1.0]), np.array([0.5]))  # shape


def test_flop_family_validation_and_accessors():
    fam = scrambled_flop(np.pi, T1_REF, T33[:5], phi_samples=8)
    assert fam.p_e.shape == (8, 5)
    c = fam.curve(3)
    assert np.allclose(c.p_e, np.clip(fam.p_e[3], 0, 1))
    assert np.allclose(fam.ranges(), fam.p_e.max(axis=0) - fam.p_e.min(axis=0))
    with pytest.raises(ValueError):
        FlopFamily(fam.intervals, fam.phis, fam.p_e.T)


def test_ambiguity_report_validation():
    t = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        AmbiguityReport(np.pi, t, np.array([0.5, 0.4]), 0.3)  # wrong aggregate
    with pytest.raises(ValueError):
        AmbiguityReport(np.pi, t, np.array([0.5, 1.4]), 0.5)  # out of range


def test_sdbv_validation():
    cloud = sdbv(PLUS, np.pi / 2, 16)
    with pytest.raises(ValueError):
        SDBV(cloud.recorded, np.pi / 2, cloud.phis, cloud.points[:4])
    with pytest.raises(ValueError):
        sdbv([0.0, 0.0, 2.0], np.pi / 2, 16)


@pytest.mark.parametrize(
    "call",
    [
        lambda rec, n: ambiguity_report(rec, 1.0, np.linspace(0.0, 1e-2, n), 4),
        lambda rec, n: optimize_scramble_area(rec, np.linspace(0.0, 1e-2, n), 4, coarse_points=5),
        lambda rec, n: sdbv(rec, 1.0, n),
    ],
    ids=["ambiguity_report", "optimize_scramble_area", "sdbv"],
)
@pytest.mark.parametrize("count", [2, 3])
def test_a_stacked_record_is_rejected(call, count):
    # two records against two intervals used to pair record i with interval
    # i; against three they failed inside numpy's broadcasting
    with pytest.raises(ValueError, match=r"^recorded state must be a single 3-vector$"):
        call(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), count)


# ------------------------------------------------------------- normal flop


def test_normal_flop_matches_closed_form():
    t = default_intervals(DELTA_W_REF)
    curve = normal_flop(DELTA_W_REF, t)
    want = (1.0 + np.cos(DELTA_W_REF * t)) / 2.0
    assert np.abs(curve.p_e - want).max() <= 1e-12


def test_normal_flop_ground_state_returns_at_odd_pi():
    t = default_intervals(DELTA_W_REF)
    curve = normal_flop(DELTA_W_REF, t)
    # delta_w * T = pi at index 50 and 3*pi at index 150 on the 201-point grid
    assert curve.p_e[50] == 0.0
    assert curve.p_e[150] == 0.0
    assert curve.p_e[0] == pytest.approx(1.0, abs=1e-15)


# -------------------------------------------------------------------- SDBV


def test_sdbv_equatorial_z_closed_form():
    # scrambling an equator state at azimuth a gives z = sin(area)*sin(a - phi)
    for a, area in ((-np.pi / 2, np.pi / 2), (0.7, 1.1), (2.9, 2.2)):
        rec = [np.cos(a), np.sin(a), 0.0]
        cloud = sdbv(rec, area, 64)
        want = np.sin(area) * np.sin(a - cloud.phis)
        assert np.abs(cloud.points[:, 2] - want).max() <= 1e-12


def test_sdbv_excited_quarter_pulse_lands_on_equator():
    cloud = sdbv(EXCITED, np.pi / 2, 256)
    want = np.stack([-np.sin(cloud.phis), np.cos(cloud.phis), np.zeros_like(cloud.phis)], axis=1)
    assert np.abs(cloud.points - want).max() <= 1e-12
    assert np.abs(cloud.points[:, 2]).max() <= 1e-9


def test_sdbv_equal_superposition_pi_pulse_stays_on_equator():
    cloud = sdbv(PLUS, np.pi, 256)
    a = -np.pi / 2
    want_azimuth = 2 * cloud.phis - a
    want = np.stack([np.cos(want_azimuth), np.sin(want_azimuth), np.zeros_like(cloud.phis)], axis=1)
    assert np.abs(cloud.points - want).max() <= 1e-12
    assert np.abs(cloud.points[:, 2]).max() <= 1e-9


def test_sdbv_points_stay_on_unit_sphere():
    cloud = sdbv([0.36, -0.48, 0.8], 1.23, 128)
    assert np.abs(np.linalg.norm(cloud.points, axis=1) - 1.0).max() <= 1e-12


def test_sdbv_projection_is_half_radius_circle_through_origin():
    pts = sdbv_projection_xz(PLUS, np.pi / 2, np.pi / 2, 256)
    center = np.array([0.5, 0.0])  # at distance 0.5 from the origin
    assert np.abs(np.linalg.norm(pts - center, axis=1) - 0.5).max() <= 1e-12
    extent = np.ptp(pts[:, 1])
    assert extent == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- flop families


def test_scrambled_flop_zero_area_reduces_to_normal():
    fam = scrambled_flop(0.0, T1_REF, T33, phi_samples=8)
    want = normal_flop(DELTA_W_REF, T1_REF + T33).p_e
    assert np.abs(fam.p_e - want).max() <= 1e-12


def test_retrieved_flop_zero_area_reduces_to_normal():
    fam = retrieved_flop(0.0, T1_REF, 5e-3, T33, phi_samples=8)
    want = normal_flop(DELTA_W_REF, T1_REF + 5e-3 + T33).p_e
    assert np.abs(fam.p_e - want).max() <= 1e-12


def test_scrambled_flop_half_pulse_spread_is_half():
    fam = scrambled_flop(np.pi / 2, T1_REF, T33, phi_samples=64)
    assert np.abs(fam.ranges() - 0.5).max() <= 1e-9


def test_scrambled_flop_pi_pulse_spread_is_full():
    fam = scrambled_flop(np.pi, T1_REF, T33, phi_samples=64)
    assert np.abs(fam.ranges() - 1.0).max() <= 1e-9


def test_scrambled_spread_does_not_depend_on_hold_time():
    # delta_w * t1 multiples of pi/2 keep the sampled extremes grid-aligned
    base = scrambled_flop(np.pi / 2, 2.5e-3, T33, phi_samples=64).ranges()
    for t1 in (5e-3, 10e-3):
        other = scrambled_flop(np.pi / 2, t1, T33, phi_samples=64).ranges()
        assert np.abs(other - base).max() <= 1e-9


def test_retrieved_flop_collapses_onto_normal_fringe():
    t2 = 5e-3  # delta_s * t2 = pi
    fam = retrieved_flop(np.pi / 2, T1_REF, t2, T33, phi_samples=16)
    want = normal_flop(DELTA_W_REF, T1_REF + t2 + T33).p_e
    assert np.abs(fam.p_e - want).max() <= 1e-9
    assert np.abs(fam.ranges()).max() <= 1e-9


def test_retrieved_flop_detuned_store_leaves_spread():
    t2 = 2.5e-3  # delta_s * t2 = pi/2: store condition broken
    fam = retrieved_flop(np.pi / 2, T1_REF, t2, T33, phi_samples=64)
    assert fam.ranges().max() > 0.1


# ------------------------------------------------------------------ ambiguity


def test_ambiguity_pi_pulse_on_excited_state_reveals_everything():
    report = ambiguity_report(EXCITED, np.pi, T33, phi_samples=64)
    assert report.ambiguity <= 1e-9


def test_ambiguity_half_pulse_on_excited_state_hides_everything():
    report = ambiguity_report(EXCITED, np.pi / 2, T33, phi_samples=64)
    assert report.ambiguity == pytest.approx(1.0, abs=1e-6)


def test_ambiguity_half_pulse_on_equal_superposition():
    report = ambiguity_report(PLUS, np.pi / 2, T33, phi_samples=64)
    assert report.ambiguity == pytest.approx(0.5, abs=1e-6)
    assert np.abs(report.ranges - 0.5).max() <= 1e-6


def test_ambiguity_closed_forms_track_area():
    # |e>: A = |sin(area)|; equal superposition: A = (1 - cos(area))/2
    for area in (0.4, 1.2, 2.8):
        got = ambiguity_report(EXCITED, area, T33, phi_samples=64).ambiguity
        assert got == pytest.approx(abs(np.sin(area)), abs=1e-9)
        got = ambiguity_report(PLUS, area, T33, phi_samples=64).ambiguity
        assert got == pytest.approx((1 - np.cos(area)) / 2, abs=1e-9)


def test_ambiguity_symmetric_under_area_reflection():
    rec = np.array([0.36, -0.48, 0.8])
    for area in (0.7, 2.1, 4.4):
        a1 = ambiguity_report(rec, area, T33, phi_samples=64).ambiguity
        a2 = ambiguity_report(rec, 2 * np.pi - area, T33, phi_samples=64).ambiguity
        assert a1 == pytest.approx(a2, abs=1e-12)


def test_ambiguity_grid_refinement_bound():
    rec = np.array([0.6, 0.0, 0.8])
    prev = ambiguity_report(rec, 1.3, T33, phi_samples=64).ambiguity
    for n in (128, 256):
        nxt = ambiguity_report(rec, 1.3, T33, phi_samples=n).ambiguity
        assert abs(nxt - prev) <= 2 * np.pi**2 / (n // 2)
        prev = nxt


# ------------------------------------------------------------------ optimizer


def test_optimizer_prefers_half_pulse_for_excited_record():
    res = optimize_scramble_area(EXCITED, T33, phi_samples=64, tolerance=1e-4)
    assert res.theta_star == pytest.approx(np.pi / 2, abs=1e-3)
    assert res.theta_star < np.pi  # tie against the equal 3*pi/2 peak
    assert res.ambiguity == pytest.approx(1.0, abs=1e-6)
    assert res.plateau[0] <= np.pi / 2 <= res.plateau[1] or res.plateau == (res.theta_star, res.theta_star)


def test_optimizer_prefers_pi_pulse_for_equal_superposition():
    res = optimize_scramble_area(PLUS, T33, phi_samples=64, tolerance=1e-4)
    assert res.theta_star == pytest.approx(np.pi, abs=1e-3)
    assert res.ambiguity == pytest.approx(1.0, abs=1e-6)


def test_optimizer_agrees_with_brute_force():
    thetas = np.arange(0.0, 2 * np.pi, 0.01)
    for rec in (EXCITED, PLUS):
        res = optimize_scramble_area(rec, T33, phi_samples=64, tolerance=1e-4)
        brute = max(ambiguity_report(rec, th, T33, phi_samples=64).ambiguity for th in thetas)
        assert abs(res.ambiguity - brute) <= 1e-6


def test_optimizer_validation():
    with pytest.raises(ValueError):
        optimize_scramble_area(EXCITED, T33, phi_samples=64, tolerance=0.0)
    with pytest.raises(ValueError):
        optimize_scramble_area(EXCITED, T33, phi_samples=64, coarse_points=2)


@pytest.mark.parametrize("tolerance", [1e-16, 1e-320])
def test_optimizer_terminates_below_float_resolution(tolerance):
    # the golden-section bracket near pi/2 cannot shrink below ~2e-16; a
    # tolerance under that once looped forever, so run it where a hang
    # fails the test instead of stalling the suite
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from scramsey.analysis import default_intervals, optimize_scramble_area\n"
        "from scramsey.bloch import EXCITED\n"
        "from scramsey.sequence import DELTA_W_REF\n"
        "T = default_intervals(DELTA_W_REF, 2.0, 9)\n"
        "res = optimize_scramble_area(EXCITED, T, 16, tolerance=float(sys.argv[1]), coarse_points=33)\n"
        "print(json.dumps([res.theta_star, res.ambiguity]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(scramsey.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code, repr(tolerance)], capture_output=True, text=True, env=env, timeout=30
    )
    assert result.returncode == 0, result.stderr
    theta_star, ambiguity = json.loads(result.stdout)
    assert theta_star == pytest.approx(np.pi / 2, abs=1e-6)
    assert ambiguity == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------- the golden search

# The search takes its next steps from one objective call on every area
# they may ask for.  It must reach the bits of the one-area-per-call search
# below, the form it had before, on any deterministic objective.


def scalar_golden_max(f, lo, hi, tol):
    """Golden-section maximization with one call of ``f`` per area: the search's reference."""
    c = hi - analysis._INV_PHI * (hi - lo)
    d = lo + analysis._INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol and math.nextafter(lo, hi) < hi:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - analysis._INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + analysis._INV_PHI * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def ulps_above(x, n):
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


OBJECTIVES = {
    "peak": lambda x: -((x - 1.3) ** 2),
    "constant": lambda x: 0.25,  # every comparison an exact tie
    "plateau": lambda x: min(x, 1.0),  # ties right of 1
    "rising": lambda x: x,  # the maximum at the right end
    "falling": lambda x: -x,
    "steps": lambda x: round(math.sin(3.0 * x), 2),  # runs of exact ties
    "kink": lambda x: -abs(x - 0.7),
}
BRACKETS = [
    (0.0, 2 * np.pi, 1e-6),
    (0.3, 0.9, 1e-12),
    (1.0, 2.0, 1e-16),  # below the float spacing near 2
    (0.5, 1.5, 5e-324),
    (1.0, ulps_above(1.0, 5), 1e-300),  # a bracket a few ulps wide
    (0.7, ulps_above(0.7, 2), 1e-300),
    (np.pi / 2, ulps_above(np.pi / 2, 40), 1e-320),
    (2.0, 3.0, 10.0),  # no step at all
]


@pytest.mark.parametrize("lo, hi, tol", BRACKETS)
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_golden_search_reaches_the_bits_of_the_scalar_search(name, lo, hi, tol):
    g = OBJECTIVES[name]
    scalar_areas, batched_calls = [], []

    def scalar(x):
        scalar_areas.append(float(x))
        return g(x)

    def batched(xs):
        batched_calls.append([float(x) for x in xs])
        return [g(x) for x in xs]

    want = scalar_golden_max(scalar, lo, hi, tol)
    got = analysis._golden_max(batched, lo, hi, tol)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    # every area the scalar search asked for was asked for, in far fewer calls of at most 2**depth - 1 areas
    asked = {x for call in batched_calls for x in call}
    assert set(scalar_areas) <= asked
    assert all(len(call) <= 2**analysis._GOLDEN_DEPTH - 1 for call in batched_calls)
    steps = len(scalar_areas) - 3  # the scalar search's first pair and its last area are no steps
    assert len(batched_calls) == 2 + math.ceil(steps / analysis._GOLDEN_DEPTH)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_the_shipped_optimize_scenario_scans_at_most_16_times(tmp_path):
    # 6 coarse scans of up to 32 areas, the first pair, 8 calls of 3 golden steps each and the last area: 16;
    # one call per area took 33
    with mock.patch.object(analysis, "_readout_ranges", wraps=analysis._readout_ranges) as scans:
        run_scenario(load_scenario(SCENARIOS / "optimize.json"), tmp_path)
    assert scans.call_count <= 16


# The batched objective evaluates the golden candidates as one row of areas
# against the phi column.  Each area's value must be the one a scan of that
# area alone gives, bit for bit: its cosine and sine come from math, as a
# scalar area's do, and the rest of the head is elementwise.


def optimizer_objective(record, intervals, phi_samples):
    """The batched objective ``optimize_scramble_area`` hands its golden search."""
    with mock.patch.object(analysis, "_golden_max", wraps=analysis._golden_max) as search:
        optimize_scramble_area(record, intervals, phi_samples, tolerance=1e-2, coarse_points=9)
    return search.call_args.args[0]


@pytest.mark.parametrize("record", [EXCITED, PLUS, np.array([0.48, -0.6, 0.64])], ids=["excited", "plus", "tilted"])
def test_batched_objective_equals_the_scalar_one_bit_for_bit(record):
    rng = np.random.default_rng(27)
    T = default_intervals(DELTA_W_REF, 2.0, 17)
    fr = analysis._phi_rows(None, phi_grid(16))
    objective = optimizer_objective(record, T, 16)
    # a grid, random areas, the ends and repeats: a repeat in one call is an exact tie, and so is every zero spread
    areas = np.concatenate([np.linspace(0.0, 2 * np.pi, 181), rng.uniform(0.0, 2 * np.pi, 120), [0.0, np.pi / 2, np.pi, 2 * np.pi]])
    areas = np.concatenate([areas, areas[::37]]).tolist()
    scalar = [float(analysis._readout_ranges(record, fr, area, T).min()) for area in areas]
    for size in (1, 2, 7):
        with mock.patch.object(analysis, "_readout_ranges", wraps=analysis._readout_ranges) as scans:
            batched = [v for i in range(0, len(areas), size) for v in objective(areas[i : i + size])]
        assert [v.hex() for v in batched] == [v.hex() for v in scalar]
        # each call's trig is math's, one area at a time, as a scalar area's is
        for call, i in zip(scans.call_args_list, range(0, len(areas), size)):
            cos, sin = call.args[2]
            chunk = areas[i : i + size]
            assert cos.tolist() == [math.cos(a) for a in chunk] and sin.tolist() == [math.sin(a) for a in chunk]
    assert len(set(scalar)) < len(scalar)
