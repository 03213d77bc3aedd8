"""The blocked broadcast engine against the per-interval scalar path.

Every grid the analysis layer evaluates in blocks must equal, bit for bit,
a stack of scalar ``simulate`` calls (one per interval) or of
``ambiguity_report`` calls (one per scramble area).  The block budget is
shrunk in the property tests so that interval and phi counts land on,
just past and far past block edges without large reference loops; the
fixed tests check the same edges at the shipped budget.
"""

import contextlib
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from scramsey import analysis, bloch, sequence
from scramsey.analysis import (
    SDBV,
    AmbiguityReport,
    FlopCurve,
    FlopFamily,
    ambiguity_report,
    normal_flop,
    optimize_scramble_area,
    phi_grid,
    retrieved_flop,
    scrambled_flop,
    sdbv,
    sdbv_projection_xz,
)
from scramsey.bloch import GROUND, Z_TOL, _precess, _rotate, excitation_probability, precess, rotate_inplane, wrap_angle
from scramsey.errors import InvalidTimelineError
from scramsey.expsim import NoiseModel, TrialStats, damp_contrast, fit_damped_sinusoid, run_trials
from scramsey.protocol import ProtocolConfig, decode_choice, retrieve_delay, smallest_secure_k
from scramsey.sequence import (
    Frame,
    FrameSet,
    Pulse,
    Timeline,
    Wait,
    _walk,
    _walk_z,
    apply_event,
    default_frames,
    ramsey,
    retrieved_ramsey,
    scrambled_ramsey,
    simulate,
)

BUDGET = analysis._BLOCK_STATES


def per_interval(build, frames, intervals, state=GROUND):
    """P_e from one scalar-interval simulate call per interval, stacked on the last axis."""
    return np.stack([excitation_probability(simulate(build(float(t)), frames, state)) for t in intervals], axis=-1)


def read_after_scramble(area):
    return lambda t: Timeline((Pulse.sri(area), Wait(t), Pulse.wri(np.pi / 2)))


def grid(seed, count):
    """Random detunings, timings, record and a strictly increasing interval grid."""
    rng = np.random.default_rng(seed)
    record = rng.normal(size=3)
    return {
        "frames": FrameSet(2 * np.pi * rng.uniform(50.0, 200.0), 2 * np.pi * rng.uniform(50.0, 200.0)),
        "intervals": rng.uniform(0.0, 1e-3) + np.cumsum(rng.uniform(1e-5, 1e-3, count)),
        "area": rng.uniform(-2 * np.pi, 4 * np.pi),
        "t1": rng.uniform(0.0, 1e-2),
        "t2": rng.uniform(0.0, 1e-2),
        "record": record / np.linalg.norm(record),
    }


def assert_families_match(g, phi_samples):
    T, fr = g["intervals"], g["frames"]
    phis = phi_grid(phi_samples)
    sweep = FrameSet(fr.delta_w, fr.delta_s, phis)
    got = normal_flop(fr.delta_w, T).p_e
    assert np.array_equal(got, per_interval(ramsey, FrameSet(fr.delta_w, fr.delta_w, 0.0), T))
    got = scrambled_flop(g["area"], g["t1"], T, phi_samples, fr).p_e
    assert np.array_equal(got, per_interval(lambda t: scrambled_ramsey(g["area"], g["t1"], t), sweep, T))
    got = retrieved_flop(g["area"], g["t1"], g["t2"], T, phi_samples, fr).p_e
    assert np.array_equal(got, per_interval(lambda t: retrieved_ramsey(g["area"], g["t1"], g["t2"], t), sweep, T))
    got = ambiguity_report(g["record"], g["area"], T, phi_samples, fr).ranges
    want = np.ptp(per_interval(read_after_scramble(g["area"]), sweep, T, g["record"]), axis=0)
    assert np.array_equal(got, want)


# ------------------------------------------------------------ block edges


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([8, 64, 100]),
    st.sampled_from([1, 3, 8, 64, 101]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_families_and_ranges_equal_per_interval_stack(budget, phi_samples, blocks, extra, seed):
    # interval counts of 1 and of one or two times budget // phis, plus 0 or
    # 1: rows that fill a block exactly or leave rows over, and with few phis
    # rows longer than the budget, which are cut too; 101 phis exceed the 64
    # and 8 budgets on their own
    step = max(1, budget // phi_samples)
    g = grid(seed, max(1, blocks * step + extra))
    with mock.patch.object(analysis, "_BLOCK_STATES", budget):
        assert_families_match(g, phi_samples)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([8, 64, 100]),
    st.sampled_from([4, 8, 33]),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_optimizer_coarse_values_equal_per_area_reports(budget, phi_samples, interval_count, area_count, seed):
    # the coarse scan scrambles a row of areas against the phi column, and its
    # blocks cut that row when it exceeds the budget; each per-area minimum
    # must still equal a standalone report
    g = grid(seed, interval_count)
    T, fr = g["intervals"], g["frames"]
    thetas = np.linspace(0.0, 2 * np.pi, area_count)
    with mock.patch.object(analysis, "_BLOCK_STATES", budget):
        coarse = analysis._readout_ranges(g["record"], analysis._phi_rows(fr, phi_grid(phi_samples)), thetas, T).min(axis=1)
        reports = [ambiguity_report(g["record"], th, T, phi_samples, fr).ambiguity for th in thetas]
    sweep = FrameSet(fr.delta_w, fr.delta_s, phi_grid(phi_samples))
    scalar = [np.ptp(per_interval(read_after_scramble(th), sweep, T, g["record"]), axis=0).min() for th in thetas]
    assert np.array_equal(coarse, reports)
    assert np.array_equal(coarse, scalar)


@pytest.mark.parametrize(
    "phi_samples, interval_count",
    [
        (BUDGET + 1, 3),  # more phi rows than the budget holds states: blocks of BUDGET // 3 rows
        (256, BUDGET // 256 + 1),  # a block of BUDGET // 65 rows, then the four rows left
        (BUDGET // 64 + 1, 64),  # one phi row past a full block
        (64, 1),  # a single interval
    ],
)
def test_shipped_budget_block_edges(phi_samples, interval_count):
    assert_families_match(grid(7, interval_count), phi_samples)


def test_normal_flop_one_past_a_full_block():
    # P = 1, so a block holds BUDGET intervals and this grid needs two; each
    # P_e depends on its own interval only, so the points around the edge suffice
    T = grid(11, BUDGET + 1)["intervals"]
    fr = FrameSet(2 * np.pi * 100.0, 2 * np.pi * 100.0, 0.0)
    edge = [0, 1, BUDGET // 2, BUDGET - 2, BUDGET - 1, BUDGET]
    assert np.array_equal(normal_flop(fr.delta_w, T).p_e[edge], per_interval(ramsey, fr, T[edge]))


@pytest.mark.parametrize(
    "build",
    [
        lambda g, t: scrambled_ramsey(g["area"], g["t1"], t),  # array wait after the S pulse
        lambda g, t: scrambled_ramsey(g["area"], t, g["t2"]),  # array wait before it: array fire times
        lambda g, t: retrieved_ramsey(t * 1e3, g["t1"], g["t2"], g["t2"]),  # array pulse areas
    ],
)
def test_simulate_broadcasts_array_events_against_phi_column(build):
    g = grid(3, 17)
    phis = phi_grid(12)
    fr = g["frames"]
    got = simulate(build(g, g["intervals"]), FrameSet(fr.delta_w, fr.delta_s, phis[:, None]))
    sweep = FrameSet(fr.delta_w, fr.delta_s, phis)
    want = np.stack([simulate(build(g, float(t)), sweep) for t in g["intervals"]], axis=1)
    assert got.shape == (12, 17, 3)
    assert np.array_equal(got, want)


# ----------------------------------------------- validation moved, not dropped


@pytest.mark.parametrize(
    "call",
    [
        lambda: rotate_inplane([np.nan, 0.0, 1.0], 0.0, 1.0),
        lambda: rotate_inplane(GROUND, np.inf, 1.0),
        lambda: rotate_inplane(GROUND, 0.0, np.array([1.0, np.nan])),
        lambda: precess([0.0, np.inf, 0.0], 1.0),
        lambda: precess(GROUND, np.nan),
        lambda: excitation_probability([0.0, 0.0, np.nan]),
        lambda: simulate(ramsey(1e-3), default_frames(), [np.nan, 0.0, 0.0]),
    ],
)
def test_public_entry_points_still_reject_non_finite_input(call):
    with pytest.raises(ValueError):
        call()


DIGITS = r"an integer of more than \d+ digits$"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: normal_flop(default_frames().delta_w, np.zeros((2, 2))), "interval grid must be a non-empty 1-D array"),
        (lambda: normal_flop(default_frames().delta_w, [0.0, np.nan]), "intervals must be finite and >= 0"),
        (lambda: normal_flop(default_frames().delta_w, [-1e-3, 0.0]), "intervals must be finite and >= 0"),
        (lambda: scrambled_flop(np.inf, 0.0, [0.0, 1e-3], 4), "pulse area must be finite"),
        (lambda: FlopFamily([0.0, 1e-3], [], np.zeros((0, 2))), "phi grid must be a non-empty 1-D array"),
        (lambda: FlopFamily([0.0, 1e-3], [0.0], [[0.5, 1.5]]), r"p_e values must lie in \[0, 1\]"),
        (lambda: AmbiguityReport(1.0, [0.0, 1e-3], [0.1, 0.2, 0.3], 0.1), r"ranges shape \(3,\) does not match"),
        (lambda: sdbv_projection_xz(GROUND, 1.0, np.nan), "wait_phase must be finite"),
        (lambda: TrialStats([0.0, 1e-3], np.zeros((0, 2))), "need at least one trial"),
        (lambda: TrialStats([0.0, 1e-3], [[0.5, np.nan]]), "samples must be finite"),
        (lambda: fit_damped_sinusoid(np.zeros((6, 2)), np.zeros((6, 2))), "x and y must be 1-D arrays"),
        (lambda: ProtocolConfig(default_frames(), 0.0, 0.0, 0.0, read_area=np.inf), "read_area must be finite"),
        # integers beyond the float range, which float() refuses with OverflowError, not a ValueError
        (lambda: retrieve_delay(10**400), "^delta_s must be finite and positive, got 1000"),
        (lambda: NoiseModel(phase_jitter_sigma=10**400), "^phase_jitter_sigma must be finite and >= 0, got 1000"),
        (lambda: FrameSet(10**400, 1.0), "^delta_w must be finite, got 1000"),
        (lambda: ProtocolConfig(default_frames(), 10**400, 0.0, 0.0), "^t1 must be finite and >= 0, got 1000"),
        # a negative delay has no smallest secure turn count
        (lambda: smallest_secure_k(default_frames(), -1.0, 0.0), r"^t1 must be finite and >= 0, got -1\.0$"),
        (lambda: smallest_secure_k(default_frames(), 0.0, -1.0), r"^t2 must be finite and >= 0, got -1\.0$"),
        # one decay-time rule for the noise model and the damping
        (lambda: damp_contrast(0.5, 0.0, np.nan), r"^tau must be positive \(inf allowed\), got nan$"),
        # more integers beyond the float range: a readout, a threshold, a hold time
        (lambda: decode_choice(10**400), r"^p_e must lie in \[0, 1\], got 1000"),
        (lambda: decode_choice(0.5, 10**400), r"^threshold must lie strictly inside \(0, 1\), got 1000"),
        (lambda: damp_contrast(0.5, 10**400, 1.0), r"^hold_time must be >= 0 \(inf allowed\), got 1000"),
        # an integer too long for Python to write out is named by that limit, not by the limit's own error
        (lambda: FrameSet(10**5000, 1.0), "^delta_w must be finite, got " + DIGITS),
        (lambda: phi_grid(-(10**5000)), "^phi sample count must be an integer >= 1, got " + DIGITS),
        (lambda: NoiseModel(atom_count=10**5000), r"^atom_count must be an integer in \[1, \d+\], got " + DIGITS),
        (lambda: damp_contrast(0.5, 0.0, -(10**5000)), r"^tau must be positive \(inf allowed\), got " + DIGITS),
        (lambda: decode_choice(-(10**5000)), r"^p_e must lie in \[0, 1\], got " + DIGITS),
        (lambda: Wait(10**5000), "^wait duration must be finite and >= 0, got " + DIGITS),
        (lambda: Pulse.wri(10**5000), "^pulse area must be finite, got " + DIGITS),
        # an array event fails the same rule, and its message does not quote the array
        (lambda: Wait(np.array([1e-3, np.nan])), "^wait duration must be finite and >= 0$"),
        (lambda: Wait(np.array([1e-3, -1e-9])), "^wait duration must be finite and >= 0$"),
        (lambda: Pulse.sri(np.array([1.0, np.nan])), "^pulse area must be finite$"),
        # a count that is not finite fails the count rule, not int()'s OverflowError or its own ValueError
        (lambda: phi_grid(np.inf), r"^phi sample count must be an integer >= 1, got inf$"),
        (lambda: phi_grid(np.nan), r"^phi sample count must be an integer >= 1, got nan$"),
    ],
)
def test_public_entry_points_reject_bad_grids_areas_and_samples(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Wait(np.array([1e-3, np.nan])),
        lambda: Wait(np.array([1e-3, -1e-9])),
        lambda: Pulse.sri(np.array([1.0, np.inf])),
    ],
)
def test_array_events_are_checked_when_built(build):
    with pytest.raises(InvalidTimelineError):
        build()


def test_array_events_hold_read_only_copies():
    durations = np.array([1e-3, 2e-3])
    wait = Wait(durations)
    durations[0] = 5.0
    assert wait.duration[0] == 1e-3
    assert not wait.duration.flags.writeable
    assert isinstance(Wait(np.float64(1e-3)).duration, float)
    # a list is an array event too, as FrameSet and the kernels already take one
    areas = [0.5, 1.5]
    pulse = Pulse.sri(areas)
    areas[0] = 5.0
    assert pulse == Pulse.sri(np.array([0.5, 1.5]))
    assert not pulse.area.flags.writeable


@pytest.mark.parametrize(
    "call",
    [
        lambda: FrameSet(np.array([1.0, 2.0]), 1.0),
        lambda: normal_flop(np.array([1.0, 2.0]), [0.0, 1e-3]),
        lambda: ambiguity_report(GROUND, np.array([1.0, 2.0]), [0.0, 1e-3]),
        lambda: sdbv(GROUND, [1.0, 2.0], phi_samples=2),
        lambda: ProtocolConfig(default_frames(), np.array([0.0, 1e-3]), 0.0, 0.0),
        lambda: smallest_secure_k(default_frames(), 0.0, np.array([1e-3])),
    ],
)
def test_a_scalar_input_refuses_an_array(call):
    # only areas, waits, shot phases and the kernels' angles broadcast; a detuning, a scramble area
    # or a delay given as an array would be paired element by element with the grid's own axes
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: phi_grid(True), "phi sample count"),
        (lambda: phi_grid(np.True_), "phi sample count"),
        (lambda: NoiseModel(seed=True), "seed"),
        (lambda: NoiseModel(seed=False), "seed"),
        (lambda: NoiseModel(atom_count=True), "atom_count"),
        (lambda: retrieve_delay(1.0, True), "m"),
        (lambda: run_trials(ramsey, None, NoiseModel(), True, [0.0, 1e-3]), "trials"),
    ],
)
def test_a_bool_is_not_a_count(call, name):
    # each of these used to run as a count of 1 (or 0)
    with pytest.raises(ValueError, match=f"^{name} must be an integer (>=|in) "):
        call()


def test_simulate_rejects_an_overflowing_phase():
    # the per-kernel checks used to catch this; now one check of the final state does
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(InvalidTimelineError):
            simulate(Timeline((Wait(1e307), Wait(1e307))), default_frames(), [1.0, 0.0, 0.0])


# --------------------------------------------------- records built once

def engine_records() -> dict:
    """Every record an entry point builds without its constructor, by that entry."""
    g = grid(5, 17)
    T, fr = g["intervals"], g["frames"]
    return {
        "normal_flop": normal_flop(fr.delta_w, T),
        "scrambled_flop": scrambled_flop(g["area"], g["t1"], T, 8, fr),
        "retrieved_flop": retrieved_flop(g["area"], g["t1"], g["t2"], T, 8, fr),
        "ambiguity_report": ambiguity_report(g["record"], g["area"], T, 8, fr),
        "sdbv": sdbv(g["record"], g["area"], 8),
        "run_trials": run_trials(lambda t: scrambled_ramsey(g["area"], g["t1"], t), fr, NoiseModel(seed=2), 3, T),
    }


def fields(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def assert_same_bits(got, want, name):
    got_fields, want_fields = fields(got), fields(want)
    assert type(got) is type(want) and got_fields.keys() == want_fields.keys(), name
    for key, a in got_fields.items():
        b = want_fields[key]
        assert type(a) is type(b), (name, key)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (name, key)
            assert not a.flags.writeable, (name, key)
        else:
            assert a.hex() == b.hex(), (name, key)


def test_an_engine_record_equals_the_one_its_checked_constructor_builds():
    for name, record in engine_records().items():
        assert_same_bits(record, type(record)(**fields(record)), name)


def test_the_engine_does_not_check_its_own_records_again():
    # each entry checked its grid, record state and area where they entered, and a constructor's checks
    # would repeat them and pass twice over a whole P x T family for values the engine clips into [0, 1]
    want = engine_records()
    with contextlib.ExitStack() as patches:
        for cls in (FlopCurve, FlopFamily, SDBV, AmbiguityReport, TrialStats):
            checked = AssertionError(f"{cls.__name__} checked")
            patches.enter_context(mock.patch.object(cls, "__post_init__", side_effect=checked))
        got = engine_records()
        with pytest.raises(AssertionError, match="FlopCurve checked"):
            FlopCurve([0.0, 1.0], [0.5, 0.5])
    for name in want:
        assert_same_bits(got[name], want[name], name)


# ------------------------------------------------------- component triples

# The engine carries (x, y, z) through the walk and stacks only at the
# public boundary.  The public functions must still return the full
# broadcast (..., 3) shape, also where only some components broadcast, and
# the grid scans' z-only read must equal P_e of the stacked states.


def unit_states(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(
    mutually_broadcastable_shapes(num_shapes=3, max_dims=3, max_side=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_public_kernels_return_the_full_broadcast_shape(shapes, seed):
    rng = np.random.default_rng(seed)
    (state_shape, axis_shape, angle_shape), result_shape = shapes
    state = unit_states(rng, state_shape)
    axis, angle = rng.uniform(0.0, 2 * np.pi, axis_shape), rng.uniform(-np.pi, np.pi, angle_shape)
    assert rotate_inplane(state, axis, angle).shape == result_shape + (3,)
    assert precess(state, axis).shape == np.broadcast_shapes(state_shape, axis_shape) + (3,)
    assert apply_event(state, Pulse.wri(angle), 0.0, default_frames()).shape == np.broadcast_shapes(state_shape, angle_shape) + (3,)
    assert apply_event(state, Wait(np.abs(angle)), 0.0, default_frames()).shape == np.broadcast_shapes(state_shape, angle_shape) + (3,)


# each template names the shapes that reach the final state: the start
# state, the area, the wait and, only through an S pulse, the phi column
TEMPLATES = {
    "wait only": (lambda area, wait: Timeline((Wait(wait),)), ("state", "wait")),
    "W pulse only": (lambda area, wait: Timeline((Pulse.wri(area),)), ("state", "area")),
    "pulse then wait": (lambda area, wait: Timeline((Pulse.wri(area), Wait(wait))), ("state", "area", "wait")),
    "read after scramble": (
        lambda area, wait: Timeline((Pulse.sri(area), Wait(wait), Pulse.wri(np.pi / 2))),
        ("state", "area", "wait", "phi"),
    ),
    "empty": (lambda area, wait: Timeline(), ("state",)),
}


@settings(max_examples=80, deadline=None)
@given(
    mutually_broadcastable_shapes(num_shapes=4, max_dims=3, max_side=3),
    st.sampled_from(sorted(TEMPLATES)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_simulate_returns_the_full_broadcast_shape(shapes, template, seed):
    rng = np.random.default_rng(seed)
    (state_shape, area_shape, wait_shape, phi_shape), _ = shapes
    build, used = TEMPLATES[template]
    area, wait = rng.uniform(-np.pi, np.pi, area_shape), rng.uniform(0.0, 1e-2, wait_shape)
    frames = FrameSet(2 * np.pi * 100.0, 2 * np.pi * 120.0, rng.uniform(0.0, 2 * np.pi, phi_shape))
    named = {"state": state_shape, "area": area_shape, "wait": wait_shape, "phi": phi_shape}
    got = simulate(build(area, wait), frames, unit_states(rng, state_shape))
    assert got.shape == np.broadcast_shapes(*(named[name] for name in used)) + (3,)


def test_precess_broadcasts_the_untouched_z_column():
    phases = np.linspace(0.0, 2 * np.pi, 7)
    got = precess(GROUND, phases)
    assert got.shape == (7, 3)
    assert np.array_equal(got[:, 2], np.ones(7))
    assert np.array_equal(got[:, :2], np.zeros((7, 2)))


def test_wait_only_timeline_over_an_array_duration_has_one_state_per_duration():
    durations = np.array([0.0, 1e-3, 2e-3, 5e-3])
    want = np.broadcast_to(GROUND, (4, 3))
    assert np.array_equal(simulate(Timeline((Wait(durations),)), default_frames()), want)
    assert np.array_equal(apply_event(GROUND, Wait(durations), 0.0, default_frames()), want)
    v = [0.6, 0.0, 0.8]
    got = simulate(Timeline((Wait(durations),)), default_frames(), v)
    assert got.shape == (4, 3) and np.array_equal(got[:, 2], np.full(4, 0.8))


# A grid scan walks the events before the wait (its head) once, over the
# phi column (P, 1), or (P, C) when a head pulse carries a row of C areas,
# and the intervals first appear at the wait.  Blocks are runs of whole phi
# rows (a row longer than the budget is cut too), each a contiguous slice
# of the grid that z goes straight into.  The z must equal that of the
# states ``simulate`` returns for the whole timeline on the whole grid, bit
# for bit, whatever the budget.

HEADS = {
    "none": lambda g, area: (),
    "wait": lambda g, area: (Wait(g["t1"]),),
    "scramble": lambda g, area: (Pulse.sri(area),),
    "scrambled": lambda g, area: scrambled_ramsey(area, g["t1"], 0.0).events[:-2],
    "retrieved": lambda g, area: retrieved_ramsey(area, g["t1"], g["t2"], 0.0).events[:-2],
}

READ = Pulse.wri(np.pi / 2)


def scan_case(g, name, phi_samples, areas):
    """The scan's frames and head, and the whole timeline and frames ``simulate`` evaluates the same (P, C, T) grid with.

    ``areas`` is None (one area) or a count C of areas laid as a row
    against the phi column; the stacked walk needs them as a (C, 1)
    column and the phis as (P, 1, 1), so its intervals broadcast last.
    C is 1 for a head without a scramble pulse.
    """
    fr, phis = g["frames"], phi_grid(phi_samples)
    area = g["area"] if areas is None else np.linspace(-np.pi, 3 * np.pi, areas)
    frames = FrameSet(fr.delta_w, fr.delta_s, phis[:, None])
    head = HEADS[name](g, area)
    whole = Timeline((*HEADS[name](g, np.reshape(area, (-1, 1))), Wait(g["intervals"]), READ))
    shape = (phi_samples, np.size(area) if any(isinstance(e, Pulse) for e in head) else 1, g["intervals"].size)
    return frames, head, whole, FrameSet(fr.delta_w, fr.delta_s, phis[:, None, None]), shape


def block_offsets(grid, calls):
    """The (start, stop) flat offsets in ``grid`` of the ``out`` each recorded ``_read_z`` call wrote, all C-contiguous."""
    spans = []
    for call in calls:
        out = call.args[-1]
        assert np.shares_memory(out, grid) and out.flags.c_contiguous
        start = (out.ctypes.data - grid.ctypes.data) // grid.itemsize
        spans.append((start, start + out.size))
    return spans


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(HEADS)),
    st.sampled_from([None, 1, 3, 7]),
    st.sampled_from([1, 5, 16]),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([8, 64, BUDGET]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_scan_z_read_equals_p_e_of_stacked_states(name, areas, phi_samples, interval_count, budget, seed):
    g = grid(seed, interval_count)
    T = g["intervals"]
    frames, head, whole, whole_frames, shape = scan_case(g, name, phi_samples, areas)
    want = np.broadcast_to(simulate(whole, whole_frames, g["record"])[..., 2], shape)
    got = np.empty(shape)
    with (
        mock.patch.object(analysis, "_BLOCK_STATES", budget),
        mock.patch.object(analysis, "_read_z", wraps=analysis._read_z) as reads,
    ):
        for _ in analysis._scan(frames, head, T, analysis._wait_trig(frames, T), g["record"], got):
            pass
        spans = block_offsets(got, reads.call_args_list)
        # without an output, every block goes through one scratch array; a reduction over phi sees each block's rows
        lo, hi = np.full(shape[1:], np.inf), np.full(shape[1:], -np.inf)
        for index, z in analysis._scan(frames, head, T, analysis._wait_trig(frames, T), g["record"]):
            lo[index], hi[index] = np.fmin(lo[index], z.min(axis=0)), np.fmax(hi[index], z.max(axis=0))
        p_e = analysis._fringes(shape, frames, head, T)  # from the ground state
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(lo, want.min(axis=0)) and np.array_equal(hi, want.max(axis=0))
    assert np.array_equal(p_e, np.broadcast_to(excitation_probability(simulate(whole, whole_frames)), shape))
    # the blocks tile the grid once, in order, each within the budget, and
    # each a run of whole phi rows whenever one row fits in the budget
    assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]] and spans[-1][1] == got.size
    row = got.size // phi_samples
    for start, stop in spans:
        assert stop - start <= budget
        if row <= budget:
            assert start % row == 0 and (stop - start == budget // row * row or stop == got.size)


# The scan's head, walked once over the phi column, must give what walking
# the whole timeline gives, bit for bit: overflows in the head raise, and a
# z that holds an exact zero is read the general way, as the walk reads it.


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(HEADS)),
    st.sampled_from([None, 3]),
    st.sampled_from([1, 5, 16]),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([8, 64, BUDGET]),
    st.sampled_from([None, 0.0]),
    st.sampled_from([None, (-1.0, -0.0, -0.0)]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# a wait of 0 leaves the state, so the first interval reads z = -0.0 the short way and +0.0 the general way
@example("wait", None, 5, 9, 8, 0.0, (-1.0, -0.0, -0.0), 0)
@example("scrambled", None, 5, 9, 8, 1e308, None, 0)  # t1 overflows the phase
@example("retrieved", 3, 16, 40, 64, 1e308, None, 1)
def test_property_scan_head_equals_the_head_in_every_block(name, areas, phi_samples, interval_count, budget, t1, start, seed):
    g = grid(seed, interval_count)
    if t1 is not None:
        g["t1"] = t1
    g["intervals"] = g["intervals"] - g["intervals"][0]  # the first interval is 0
    frames, head, whole, whole_frames, shape = scan_case(g, name, phi_samples, areas)
    state = g["record"] if start is None else start

    def outcome(walk):
        with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(analysis, "_BLOCK_STATES", budget):
            try:
                return walk().view(np.int64)
            except InvalidTimelineError:
                return None

    def scan():
        out = np.empty(shape)
        for _ in analysis._scan(frames, head, g["intervals"], analysis._wait_trig(frames, g["intervals"]), state, out):
            pass
        return out

    got = outcome(scan)
    want = outcome(lambda: np.broadcast_to(_walk(whole, whole_frames, state)[2], shape))
    assert (got is None) == (want is None) == (t1 == 1e308 and name not in ("none", "scramble"))
    assert got is None or np.array_equal(got, want)


@pytest.mark.parametrize(
    "run, head_pulses",
    [
        (lambda T, P: scrambled_flop(0.7 * np.pi, 5e-3, T, P), 2),  # write, scramble
        (lambda T, P: retrieved_flop(0.7 * np.pi, 5e-3, 5e-3, T, P), 3),  # write, scramble, retrieve
    ],
    ids=["scrambled_flop", "retrieved_flop"],
)
@pytest.mark.parametrize("blocks", [1, 3, 7])
def test_a_flop_walks_its_head_once_whatever_the_block_count(run, head_pulses, blocks):
    # 32 intervals in a budget of 64 states: two phi rows per block, the
    # last block one row.  Every full rotation is a head pulse; the read
    # rotates z alone, and only when it falls back to the general way.
    T = grid(5, 32)["intervals"]
    with (
        mock.patch.object(analysis, "_BLOCK_STATES", 64),
        mock.patch.object(analysis, "_advance", wraps=analysis._advance) as heads,
        mock.patch.object(analysis, "_read_z", wraps=analysis._read_z) as reads,
        mock.patch.object(sequence, "_rotate", wraps=sequence._rotate) as rotations,
    ):
        run(T, 2 * blocks - 1)
    assert heads.call_count == 1
    assert reads.call_count == blocks
    assert sum(not call.kwargs.get("z_only") for call in rotations.call_args_list) == head_pulses


@pytest.mark.parametrize(
    "budget, interval_count",
    [
        (64, 7),  # a row of 12 areas x 7 intervals exceeds the budget: blocks of 9 areas of one phi row
        (8, 7),  # one area's 7 intervals fit: blocks of one area of one phi row
        (5, 7),  # one area's intervals exceed the budget: blocks of 5 and 2 intervals
    ],
)
def test_rows_longer_than_the_budget_are_cut_and_stay_bit_identical(budget, interval_count):
    g = grid(9, interval_count)
    T, fr = g["intervals"], g["frames"]
    thetas = np.linspace(0.0, 2 * np.pi, 12)
    sweep = FrameSet(fr.delta_w, fr.delta_s, phi_grid(5))
    with mock.patch.object(analysis, "_BLOCK_STATES", budget):
        coarse = analysis._readout_ranges(g["record"], analysis._phi_rows(fr, phi_grid(5)), thetas, T)
        family = scrambled_flop(g["area"], g["t1"], T, 5, fr).p_e
    want = [np.ptp(per_interval(read_after_scramble(th), sweep, T, g["record"]), axis=0) for th in thetas]
    assert np.array_equal(coarse.view(np.int64), np.array(want).view(np.int64))
    assert np.array_equal(family, per_interval(lambda t: scrambled_ramsey(g["area"], g["t1"], t), sweep, T))


# Reductions over phi keep only the least and the greatest z and map those
# two to P_e at the end.  That rests on numpy alone: (1 - z) / 2 and the
# clip are monotone, so the spread of P_e over a column of z is P_e of its
# least z less P_e of its greatest, to the last bit.

Z_BAND = st.floats(-1.0 - Z_TOL, 1.0 + Z_TOL, allow_nan=False, allow_subnormal=True)
ULP_BELOW_1, ULP_ABOVE_1 = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(Z_BAND, min_size=1, max_size=12))
@example([0.0, -0.0])
@example([-0.0, 0.0, 0.5])
@example([1.0, -1.0])
@example([-1.0, -0.0, 1.0, 0.0])
@example([5e-324, -5e-324, 0.0, -0.0])
@example([2.2250738585072014e-308, -2.225073858507201e-308])
@example([ULP_BELOW_1, 1.0, ULP_ABOVE_1])
@example([-ULP_BELOW_1, -1.0, -ULP_ABOVE_1])
@example([1.0 + Z_TOL, -1.0 - Z_TOL, 0.25])
def test_property_p_e_spread_is_p_e_of_the_z_extremes(column):
    z = np.array(column)
    p_e = lambda v: np.clip((1.0 - v) / 2.0, 0.0, 1.0)
    spread = np.ptp(p_e(z))
    assert np.array_equal(np.float64(spread).view(np.int64), (p_e(z.min()) - p_e(z.max())).view(np.int64))
    assert np.array_equal(analysis._excitation_probability(z.copy()).view(np.int64), p_e(z).view(np.int64))


# ------------------------------------------------------------ z-only read

# The trial and secure-choice reads take z through _walk_z, which rotates
# only z through the last pulse (the grid scans read through _scan, above).
# It must give _walk's z, broadcast to the whole triple's shape, bit for
# bit, and raise exactly when _walk does.  An independent matrix model of
# the timeline checks both, so a fault in the one z formula they share
# shows too.

PHI_COLUMN = phi_grid(3)[:, None]


def matrix_z(events, frames, xyz, time):
    """z after ``events`` by 3x3 rotation matrices (Rodrigues' formula about each axis)."""
    v = np.stack(np.broadcast_arrays(*xyz), axis=-1)
    for event in events:
        if isinstance(event, Wait):
            axis, angle = np.array([0.0, 0.0, 1.0]), frames.delta_w * np.asarray(event.duration)
            time = time + event.duration
        else:
            # the S azimuth as the engine defines it: reduced to [0, 2*pi) before its cosine
            a = 0.0 if event.frame is Frame.W else wrap_angle((frames.delta_w - frames.delta_s) * time + frames.phi_s)
            axis = np.stack(np.broadcast_arrays(np.cos(a), np.sin(a), 0.0), axis=-1)
            angle = np.asarray(event.area)
        k = np.broadcast_to(np.zeros(3), np.broadcast_shapes(axis.shape, angle.shape + (3,)))
        n = axis + k
        cross = np.zeros(n.shape + (3,))
        cross[..., 0, 1], cross[..., 0, 2], cross[..., 1, 2] = -n[..., 2], n[..., 1], -n[..., 0]
        cross = cross - np.swapaxes(cross, -1, -2)
        c, s = np.cos(angle)[..., None, None], np.sin(angle)[..., None, None]
        rotation = c * np.eye(3) + s * cross + (1.0 - c) * n[..., :, None] * n[..., None, :]
        v = np.einsum("...ij,...j->...i", rotation, v)
    return v[..., 2]


def event_values(low, high):
    """A float, or an array of 4 floats, in [low, high]."""
    value = st.floats(low, high, allow_nan=False)
    return value | st.lists(value, min_size=4, max_size=4).map(np.array)


EVENTS = st.one_of(
    st.builds(Pulse.wri, event_values(-10.0, 10.0)),
    st.builds(Pulse.sri, event_values(-10.0, 10.0)),
    st.builds(Wait, event_values(0.0, 1e-2)),
    st.builds(Wait, st.sampled_from([1e307, 1e308])),  # a phase that overflows
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(EVENTS, max_size=6),
    st.sampled_from([0.0, 2.5e-3, 1e307]),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([Wait(1e307), Wait(1e307), Pulse.wri(np.pi / 2)], 0.0, False, True, 0)  # overflow, then a read
@example([Pulse.wri(np.pi / 2), Wait(1e308)], 0.0, False, False, 0)  # overflow in the last event
@example([], 0.0, True, True, 0)
@example([Pulse.sri(2.0), Wait(np.array([0.0, 1e-3, 2e-3, 3e-3])), Pulse.wri(np.pi / 2)], 0.0, True, False, 1)  # a read after a wait
@example([Wait(1e-3), Pulse.wri(np.array([0.0, -0.0, np.pi, -np.pi]))], 2.5e-3, False, True, 2)  # array read areas
@example([Pulse.wri(np.pi / 2), Wait(1e308), Pulse.wri(np.pi / 2)], 0.0, False, False, 0)  # a read after an overflow
@example([Wait(1e308), Wait(1e-3), Pulse.wri(np.pi / 2)], 0.0, False, True, 0)  # non-finite x and y, finite z
@example([Pulse.sri(2.0), Wait(1e-3), Pulse.sri(np.pi / 2)], 1e307, True, False, 0)  # an S read: the general path
def test_property_z_only_read_is_walk_z_bit_for_bit(events, time, phi_column, array_start, seed):
    rng = np.random.default_rng(seed)
    frames = FrameSet(2 * np.pi * rng.uniform(50.0, 200.0), 2 * np.pi * rng.uniform(50.0, 200.0), PHI_COLUMN if phi_column else 0.7)
    # an array start is the jitter branch of run_trials: a precessed state per trial
    start = tuple(unit_states(rng, (4,)).T) if array_start else (0.0, 0.0, 1.0)
    timeline = Timeline(events)

    def outcome(read):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return read()
            except InvalidTimelineError:
                return None

    triple = outcome(lambda: _walk(timeline, frames, start, time))
    got = outcome(lambda: _walk_z(timeline, frames, start, time))
    assert (got is None) == (triple is None)
    if triple is None:
        return
    want = np.broadcast_to(triple[2], np.broadcast(*triple).shape)
    assert np.shape(got) == want.shape
    assert np.array_equal(np.asarray(got, dtype=float).view(np.int64), want.view(np.int64))
    np.testing.assert_allclose(got, matrix_z(timeline, frames, start, time), rtol=0.0, atol=1e-9)


# The grid scans' W read right after a wait takes only y from the wait and
# no x term; that read differs from the general one in the sign of an exact
# zero alone.  _walk_z reads such a timeline the general way, and must keep
# that zero's sign and raise on an overflow as _walk does.


def bits(z):
    return np.asarray(z, dtype=float).view(np.int64)


def test_w_read_after_a_wait_keeps_the_sign_of_an_exact_zero():
    # y - 0.0 * x turns y = -0.0 into +0.0 for a negative x; y alone keeps -0.0
    events, start = (Wait(0.0), Pulse.wri(np.pi / 2)), (-1.0, -0.0, -0.0)
    frames = default_frames()
    assert bits(_walk(events, frames, start)[2]) == bits(0.0)
    assert bits(_walk_z(events, frames, start)) == bits(0.0)
    # one zero in a block reads the whole block the general way, the other states unchanged
    block = tuple(np.array([c, 0.5, 0.0]) for c in start)
    want = _walk(events, frames, block)[2]
    assert bits(want[0]) == bits(0.0)
    assert np.array_equal(bits(_walk_z(events, frames, block)), bits(want))


# The scans' read tests only the rows whose z * cos(pi/2) is zero for an
# exact zero, and reads the block again the general way only if one holds
# one.  Hand-made columns put each case of that rule beside ordinary rows.

#: (x, y, z) rows: z = -0.0 with y = -0.0 and x < 0 reads -0.0 the short way and +0.0 the general way at a
#: zero wait; z = +0.0, a positive x and a z whose z * cos(pi/2) underflows to +0.0 read the same either way
ZERO_ROWS = [(-0.6, -0.0, -0.0), (-0.6, -0.0, 0.0), (0.6, -0.0, -0.0), (-1.0, -0.0, 5e-324), (-0.8, -0.0, -5e-324)]
ORDINARY_ROWS = [(0.36, 0.48, 0.8), (-0.6, 0.0, 0.8), (0.0, -1.0, 0.0)]


def read_columns(rows, intervals):
    """``_read_z`` of ``rows`` as (rows, 1, 1) columns, the general read's z of the same, and the general reads it took."""
    frames = default_frames()
    xyz = [np.array(column).reshape(-1, 1, 1) for column in zip(*rows)]
    out = np.empty((len(rows), 1, intervals.size))
    with mock.patch.object(analysis, "_rotate", wraps=analysis._rotate) as general:
        analysis._read_z(xyz, frames, intervals, analysis._wait_trig(frames, intervals), out)
    x, y, z = _precess(*xyz, frames.delta_w * intervals)
    return out, _rotate(x, y, z, 0.0, np.pi / 2, z_only=True), general.call_count


@pytest.mark.parametrize("count", [5, 64])  # a buffered and an unbuffered row
@pytest.mark.parametrize(
    "rows", [ZERO_ROWS, ZERO_ROWS + ORDINARY_ROWS, ORDINARY_ROWS[::-1] + ZERO_ROWS[:1], ZERO_ROWS[3:] + ORDINARY_ROWS]
)
def test_read_z_keeps_the_sign_of_every_exact_zero(rows, count):
    T = np.linspace(0.0, 1e-2, count)  # the first wait is 0: cos 1, sin 0
    got, want, general = read_columns(rows, T)
    assert np.array_equal(bits(got), bits(want))
    assert general == 1  # a zero-wait read of a zero row holds an exact zero
    if (-0.6, -0.0, -0.0) in rows:
        assert bits(want[rows.index((-0.6, -0.0, -0.0)), 0, 0]) == bits(0.0)


def test_read_z_reads_the_general_way_only_for_a_zero_on_a_zero_row():
    T = np.linspace(1e-4, 1e-2, 9)  # no zero wait: no row's y term is zero
    got, want, general = read_columns(ZERO_ROWS + ORDINARY_ROWS, T)
    assert np.array_equal(bits(got), bits(want)) and got.all() and general == 0
    # an exact zero on a row whose z * cos(pi/2) is not zero reads the same either way: y + z_cos = +0.0
    z = 0.5
    row = (0.6, -(z * bloch._HALF_PI_COS), z)
    got, want, general = read_columns([row] + ORDINARY_ROWS, np.linspace(0.0, 1e-2, 9))
    assert bits(got[0, 0, 0]) == bits(0.0)
    assert np.array_equal(bits(got), bits(want)) and general == 0


# Finiteness is checked once per scan, on the head's components and the
# wait's cosine and sine: each is bounded by 1 when finite, so the read is
# finite exactly when they are, and no block needs a check of its own.


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["x", "y", "z", "cos", "sin"])
def test_a_non_finite_head_or_wait_raises_before_any_read(where, bad):
    frames = analysis._phi_rows(default_frames(), phi_grid(4))
    T = np.linspace(0.0, 1e-2, 9)
    cb, sb = analysis._wait_trig(frames, T)
    state = [np.full((4, 1), c) for c in (0.6, 0.0, 0.8)]
    if where in ("cos", "sin"):
        (cb if where == "cos" else sb)[5] = bad
    else:
        state["xyz".index(where)][2, 0] = bad
    with mock.patch.object(analysis, "_read_z", wraps=analysis._read_z) as reads, pytest.raises(InvalidTimelineError):
        for _ in analysis._scan(frames, (), T, (cb, sb), state):
            pass
    assert reads.call_count == 0


@pytest.mark.parametrize("head", [(Wait(1e308),), (Wait(1e308), Pulse.sri(0.7 * np.pi))], ids=["wait", "wait-then-scramble"])
def test_a_head_that_overflows_raises_before_any_read(head):
    frames = analysis._phi_rows(default_frames(), phi_grid(4))
    T = np.linspace(0.0, 1e-2, 9)
    with (
        np.errstate(invalid="ignore", over="ignore"),
        mock.patch.object(analysis, "_read_z", wraps=analysis._read_z) as reads,
        pytest.raises(InvalidTimelineError),
    ):
        for _ in analysis._scan(frames, head, T, analysis._wait_trig(frames, T), (0.6, 0.0, 0.8)):
            pass
    assert reads.call_count == 0


@pytest.mark.parametrize("start", [(1.0, 0.0, 0.0), tuple(np.array([[0.6, 0.0, 0.8]] * 3).T)])
def test_w_read_after_an_overflowing_wait_raises(start):
    events = (Pulse.wri(np.pi / 2), Wait(1e308), Pulse.wri(np.pi / 2))
    with np.errstate(invalid="ignore", over="ignore"):
        for walk in (_walk, _walk_z):
            with pytest.raises(InvalidTimelineError):
                walk(events, default_frames(), start)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("wait", [0.0, 1e-3])
def test_non_finite_x_before_the_last_wait_reaches_z(x, wait):
    # a zero phase multiplies x by sin(0) = 0, which is NaN for an infinite x
    events = (Wait(wait), Pulse.wri(np.pi / 2))
    with np.errstate(invalid="ignore", over="ignore"):
        for walk in (_walk, _walk_z):
            with pytest.raises(InvalidTimelineError):
                walk(events, default_frames(), (x, 0.0, 0.0))
            with pytest.raises(InvalidTimelineError):
                walk(events, default_frames(), (np.array([0.0, x]), np.zeros(2), np.ones(2)))


# --------------------------------------------------------- scan memory

# The optimizer's coarse scan runs on a grid of its own size, 181 areas x
# 33 intervals x 64 phis (23 blocks), whichever interval count is asked.
SCAN_RUNS = {
    "scrambled_flop": (lambda T: scrambled_flop(0.7 * np.pi, 5e-3, T, 1024).p_e, lambda T: 8 * 1024 * T.size),
    "retrieved_flop": (lambda T: retrieved_flop(0.7 * np.pi, 5e-3, 5e-3, T, 1024).p_e, lambda T: 8 * 1024 * T.size),
    "ambiguity_report": (lambda T: ambiguity_report([0.6, 0.0, 0.8], 0.7 * np.pi, T, 1024).ranges, lambda T: 8 * T.size),
    "optimize_scramble_area": (lambda T: optimize_scramble_area([0.6, 0.0, 0.8], T[:33], 64, coarse_points=181), lambda T: 0),
}


def scan_peak_bytes(run, count):
    """Traced peak of one run over ``count`` intervals and 1024 phases."""
    T = analysis.default_intervals(2 * np.pi * 100.0, 2.0, count)
    run(T)  # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(T)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(SCAN_RUNS))
def test_scan_memory_is_bounded_by_the_block_not_the_grid(name):
    # the output array aside, a 1024 x 1025 scan holds under three
    # block-sized arrays at once (1.1 for the flops, 2.1 for the ambiguity,
    # 2.5 for the optimizer), and no more than a 1024 x 257 one; the first
    # bound grows with the block, so the bytes are pinned too (blocks of
    # 2**16 states: 0.58, 1.10 and 1.32 MB)
    run, output_bytes = SCAN_RUNS[name]
    extra = {count: scan_peak_bytes(run, count) - output_bytes(np.empty(count)) for count in (257, 1025)}
    assert extra[1025] < 3 * (8 * BUDGET), extra
    assert extra[1025] < 1.5e6, extra
    assert extra[1025] <= extra[257] + 2 * BUDGET, extra


@pytest.mark.parametrize("rows, count", [(16, 1024), (496, 33)])
def test_block_read_allocates_little_beside_its_temporary(rows, count):
    # (rows, 1, 1) columns against a row of intervals, 2**14 states: with
    # numpy's default buffer the broadcast operands were copied into
    # buffers of the read's size (2.0 reads); a long row is read
    # unbuffered, leaving only the kernel's one temporary (1.0), a short
    # one through small buffers (1.1)
    g = grid(5, count)
    rng = np.random.default_rng(5)
    xyz = list(np.moveaxis(unit_states(rng, (rows, 1, 1)), -1, 0))
    T = g["intervals"]
    trig = analysis._wait_trig(g["frames"], T)
    out = np.empty((rows, 1, T.size))
    analysis._read_z(xyz, g["frames"], T, trig, out)  # warm caches outside the trace
    assert out.all()  # no exact zero: the general re-read would add its own arrays
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        analysis._read_z(xyz, g["frames"], T, trig, out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.nbytes, peak / out.nbytes


#: A caller's own ufunc buffer size, which the scans must leave as they found it.
CALLER_BUFSIZE = 4096


def scan_abandoned_after_one_block():
    fr = default_frames()
    T = analysis.default_intervals(fr.delta_w, 2.0, 2 * BUDGET // 64)
    frames = analysis._phi_rows(fr, phi_grid(64))
    blocks = analysis._scan(frames, (Pulse.sri(0.7 * np.pi),), T, analysis._wait_trig(frames, T))
    next(blocks)
    assert np.getbufsize() == CALLER_BUFSIZE  # the scope of the unbuffered read holds no yield
    blocks.close()


def scan_raising_mid_grid():
    # one phi row of BUDGET + 1 intervals is cut in two blocks; the wait
    # phase of the last interval overflows, so the scan raises before its first
    T = np.append(np.linspace(0.0, 1e-2, BUDGET), 1e308)
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            with pytest.raises(InvalidTimelineError):
                normal_flop(default_frames().delta_w, T)
        finally:
            # np.errstate would restore the size on leaving it, so look inside
            assert np.getbufsize() == CALLER_BUFSIZE


def scan_whose_kernel_raises():
    with mock.patch.object(analysis, "_precess_rotate_x_z", side_effect=FloatingPointError("overflow")):
        with pytest.raises(FloatingPointError):
            scrambled_flop(0.7 * np.pi, 5e-3, [0.0, 1e-3], 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: scrambled_flop(0.7 * np.pi, 5e-3, analysis.default_intervals(2 * np.pi * 100.0, 2.0, 257), 1024),
        scan_abandoned_after_one_block,
        scan_raising_mid_grid,
        scan_whose_kernel_raises,
    ],
    ids=["finished", "abandoned", "raising", "kernel-raising"],
)
def test_scans_leave_the_ufunc_buffer_size_as_they_found_it(call):
    default = np.getbufsize()
    old = np.setbufsize(CALLER_BUFSIZE)
    try:
        call()
        assert np.getbufsize() == CALLER_BUFSIZE
    finally:
        np.setbufsize(old)
    assert np.getbufsize() == default
