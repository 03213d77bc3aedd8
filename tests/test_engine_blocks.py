"""The blocked broadcast engine against the per-interval scalar path.

Every grid the analysis layer evaluates in blocks must equal, bit for bit,
a stack of scalar ``simulate`` calls (one per interval) or of
``ambiguity_report`` calls (one per scramble area).  The block budget is
shrunk in the property tests so that interval and phi counts land on,
just past and far past block edges without large reference loops; the
fixed tests check the same edges at the shipped budget.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from scramsey import analysis
from scramsey.analysis import ambiguity_report, normal_flop, phi_grid, retrieved_flop, scrambled_flop
from scramsey.bloch import GROUND, excitation_probability, precess, rotate_inplane, wrap_angle
from scramsey.errors import InvalidTimelineError
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


# ------------------------------------------------------------ z-only read

# Every P_e read (grid scans, trials, the secure choice) takes z through
# _walk_z, which rotates only z through the last pulse.  It must give
# _walk's z, broadcast to the whole triple's shape, bit for bit, and raise
# exactly when _walk does.  An independent matrix model of the timeline
# checks both, so a fault in the one z formula they share shows too.

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


# --------------------------------------------------------- scan memory

SCAN_RUNS = {
    "scrambled_flop": (lambda T: scrambled_flop(0.7 * np.pi, 5e-3, T, 1024).p_e, lambda T: 8 * 1024 * T.size),
    "ambiguity_report": (lambda T: ambiguity_report([0.6, 0.0, 0.8], 0.7 * np.pi, T, 1024).ranges, lambda T: 8 * T.size),
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
    # the output array aside, a 1024 x 1025 scan holds a few block-sized
    # temporaries at once, and no more than a 1024 x 257 one
    run, output_bytes = SCAN_RUNS[name]
    extra = {count: scan_peak_bytes(run, count) - output_bytes(np.empty(count)) for count in (257, 1025)}
    assert extra[1025] < 8 * (8 * BUDGET), extra
    assert extra[1025] <= extra[257] + 2 * BUDGET, extra
