"""The blocked broadcast engine against the per-interval scalar path.

Every grid the analysis layer evaluates in blocks must equal, bit for bit,
a stack of scalar ``simulate`` calls (one per interval) or of
``ambiguity_report`` calls (one per scramble area).  The block budget is
shrunk in the property tests so that interval and phi counts land on,
just past and far past block edges without large reference loops; the
fixed tests check the same edges at the shipped budget.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from scramsey import analysis
from scramsey.analysis import ambiguity_report, normal_flop, phi_grid, retrieved_flop, scrambled_flop
from scramsey.bloch import GROUND, excitation_probability, precess, rotate_inplane
from scramsey.errors import InvalidTimelineError
from scramsey.sequence import (
    FrameSet,
    Pulse,
    Timeline,
    Wait,
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
    # counts of 1, one block, one past a block, two blocks and one past two
    # blocks; 101 phis exceed the 64 and 8 budgets on their own
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
    # the coarse scan lays (area, interval) pairs on one axis, so its blocks
    # cut across areas; each per-area minimum must still equal a standalone report
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
        (BUDGET + 1, 3),  # the phi grid alone exceeds the budget: one interval per block
        (256, BUDGET // 256 + 1),  # one interval past the first block
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


def test_simulate_rejects_an_overflowing_phase():
    # the per-kernel checks used to catch this; now one check of the final state does
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(InvalidTimelineError):
            simulate(Timeline((Wait(1e307), Wait(1e307))), default_frames(), [1.0, 0.0, 0.0])


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


def stacked_scan(out, build, frames, state, reduce, step):
    """``analysis._scan`` as it read P_e before: from the stacked states ``simulate`` returns."""
    for i in range(0, out.shape[-1], step):
        out[..., i : i + step] = reduce(excitation_probability(simulate(build(slice(i, i + step)), frames, state)))
    return out


SCAN_BUILDS = {
    # z is never broadcast: the walk leaves it a scalar
    "wait only": lambda g, t: Timeline((Wait(t),)),
    "read after scramble": lambda g, t: Timeline((Pulse.sri(g["area"]), Wait(t), Pulse.wri(np.pi / 2))),
    "scrambled": lambda g, t: scrambled_ramsey(g["area"], g["t1"], t),
    "retrieved, array areas": lambda g, t: retrieved_ramsey(t * 1e3, g["t1"], g["t2"], g["t2"]),
    "ramsey": lambda g, t: ramsey(t),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(SCAN_BUILDS)),
    st.sampled_from([1, 5, 16]),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([8, 64, BUDGET]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_scan_z_read_equals_p_e_of_stacked_states(name, phi_samples, interval_count, budget, spread, seed):
    g = grid(seed, interval_count)
    T, fr = g["intervals"], g["frames"]
    frames = FrameSet(fr.delta_w, fr.delta_s, phi_grid(phi_samples)[:, None])
    build = lambda b: SCAN_BUILDS[name](g, T[b])
    shape = (T.size,) if spread else (phi_samples, T.size)

    def recorded(seen):
        """The reduce, recording the shape of each block it is handed."""

        def reduce(p):
            seen.append(np.shape(p))
            return np.ptp(p, axis=0) if spread else p

        return reduce

    got_shapes, want_shapes = [], []
    with mock.patch.object(analysis, "_BLOCK_STATES", budget):
        got = analysis._scan(np.empty(shape), build, frames, g["record"], recorded(got_shapes))
    step = max(1, budget // phi_samples)
    want = stacked_scan(np.empty(shape), build, frames, g["record"], recorded(want_shapes), step)
    assert np.array_equal(got, want)
    assert got_shapes == want_shapes
