"""Noise channels, trial ensembles, damped-sinusoid fitting."""

import functools
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import SCENARIOS, VARIANTS, _skip_reason, _variant

from scramsey import _trf, analysis, expsim, sequence
from scramsey.analysis import FlopCurve, ambiguity_report, normal_flop, scrambled_flop, sdbv
from scramsey.bloch import TWO_PI, excitation_probability, precess, wrap_angle
from scramsey.errors import InvalidTimelineError
from scramsey.expsim import (
    FitResult,
    NoiseModel,
    TrialStats,
    damp_contrast,
    damped_sinusoid,
    fit_damped_sinusoid,
    initial_guess,
    project_noise,
    run_trials,
)
from scramsey.harness import _resolve, load_scenario
from scramsey.sequence import (
    DELTA_W_REF,
    Frame,
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

PERIOD = 2 * np.pi / DELTA_W_REF
# commensurate with the shot-phase grid arguments below (delta_w * T on
# multiples of pi/8) so band edges are reachable exactly
T17 = np.linspace(0.0, 2 * PERIOD, 17)
T1_REF = 5e-3


# ------------------------------------------------------------- NoiseModel


def test_noise_model_defaults_are_noiseless():
    noise = NoiseModel()
    assert noise.seed == 0
    assert noise.atom_count is None
    assert np.isinf(noise.contrast_decay_tau)
    assert noise.phase_jitter_sigma == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": -1},
        {"seed": 0.5},
        {"atom_count": 0},
        {"atom_count": 2.5},
        {"atom_count": 2**63},  # past int64, which the binomial draw counts in
        {"atom_count": 1e20},
        {"contrast_decay_tau": 0.0},
        {"contrast_decay_tau": -1.0},
        {"phase_jitter_sigma": -0.1},
        {"phase_jitter_sigma": np.inf},
    ],
)
def test_noise_model_rejects(kwargs):
    with pytest.raises(ValueError):
        NoiseModel(**kwargs)


# ---------------------------------------------------------- noise channels


def test_damp_contrast_reference_value():
    # one decay time: 0 -> 0.5 - 0.5/e
    assert damp_contrast(0.0, 1.0, 1.0) == pytest.approx(0.5 - 0.5 / np.e, abs=1e-15)
    assert damp_contrast(1.0, 1.0, 1.0) == pytest.approx(0.5 + 0.5 / np.e, abs=1e-15)
    assert damp_contrast(0.5, 123.0, 1.0) == 0.5


def test_damp_contrast_infinite_tau_is_identity():
    values = np.array([0.0, 0.25, 1.0])
    assert damp_contrast(values, 1.0, np.inf) is values
    assert damp_contrast(0.125, 1.0, np.inf) == 0.125


def test_damp_contrast_rejects_bad_tau():
    with pytest.raises(ValueError):
        damp_contrast(0.5, 1.0, 0.0)


@pytest.mark.parametrize("tau", [0.1, np.inf])
@pytest.mark.parametrize("hold_time", [-1.0, -5e-324, -np.inf, np.nan, np.array([1.0, -1.0]), np.array([0.0, np.nan])])
def test_damp_contrast_rejects_a_negative_or_nan_hold_time(hold_time, tau):
    # a hold time of -1 used to give 8811.09 from 0.9, and a NaN one NaN
    with pytest.raises(ValueError, match="hold_time"):
        damp_contrast(0.9, hold_time, tau)


@pytest.mark.parametrize(
    "p_e",
    [1.5, -0.1, -5e-324, 1.0000000000000002, np.nan, np.inf, 10**400, -(10**400)]
    + [np.array([0.5, 1.5]), np.array([0.5, np.nan]), np.array([[0.0], [-0.1]])],
)
def test_damp_contrast_rejects_a_p_e_outside_the_unit_interval(p_e):
    # 1.5 used to give 0.868, a NaN passed through and 10**400 raised OverflowError
    for tau in (1.0, np.inf):
        with pytest.raises(ValueError, match=r"^p_e must lie in \[0, 1\], got "):
            damp_contrast(p_e, 1.0, tau)


def test_damp_contrast_accepts_the_unit_interval_ends():
    assert damp_contrast(0, 0.0, 1.0) == 0.0 and damp_contrast(1, 0.0, 1.0) == 1.0
    assert np.array_equal(damp_contrast(np.array([0.0, -0.0, 1.0]), 0.0, 1.0), [0.0, 0.0, 1.0])


def test_a_records_rounding_past_the_unit_interval_is_clipped_before_damping():
    # a record keeps a p_e within P_TOL of [0, 1] as given; the noise functions take probabilities only
    curve = FlopCurve([0.0, 1.0], [0.5, 1.0 + 1e-13])
    assert curve.p_e[1] == 1.0 + 1e-13
    for noisy in (lambda p: damp_contrast(p, 1.0, 1.0), lambda p: project_noise(p, 10, np.random.default_rng(0))):
        with pytest.raises(ValueError, match=r"^p_e must lie in \[0, 1\]"):
            noisy(curve.p_e)
    assert np.array_equal(damp_contrast(np.clip(curve.p_e, 0.0, 1.0), 0.0, 1.0), [0.5, 1.0])


def test_damp_contrast_infinite_hold_time_gives_one_half():
    assert damp_contrast(0.9, np.inf, 0.1) == 0.5
    assert np.array_equal(damp_contrast(np.array([0.0, 1.0]), np.array([np.inf, 0.0]), 0.1), [0.5, 1.0])
    assert damp_contrast(0.9, -0.0, 0.1) == 0.9


def test_run_trials_damps_through_the_unchecked_core():
    # a timeline's duration sums checked waits, so no interval pays for the public check
    model = NoiseModel(seed=3, contrast_decay_tau=0.02, atom_count=50)
    want = run_trials(ramsey, None, model, 3, T17).samples
    with mock.patch.object(expsim, "damp_contrast", side_effect=AssertionError("public check called")):
        assert np.array_equal(run_trials(ramsey, None, model, 3, T17).samples, want)


def test_project_noise_statistics():
    # binomial fraction: mean p, std sqrt(p(1-p)/N)
    rng = np.random.default_rng(123)
    p, atoms, draws = 0.3, 50, 100_000
    samples = project_noise(np.full(draws, p), atoms, rng)
    assert samples.mean() == pytest.approx(p, abs=1e-3)
    assert samples.std() == pytest.approx(np.sqrt(p * (1 - p) / atoms), rel=0.1)


def test_project_noise_endpoints_are_exact():
    rng = np.random.default_rng(0)
    assert project_noise(0.0, 10, rng) == 0.0
    assert project_noise(1.0, 10, rng) == 1.0


def test_project_noise_rejects_out_of_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        project_noise(1.5, 10, rng)
    # the damping's rule: a NaN and an integer beyond the float range are rejected too
    for p_e in (np.nan, np.array([0.5, np.nan]), 10**400):
        with pytest.raises(ValueError, match=r"^p_e must lie in \[0, 1\], got "):
            project_noise(p_e, 10, rng)
    with pytest.raises(ValueError):
        project_noise(0.5, 0, rng)
    with pytest.raises(ValueError):
        project_noise(0.5, 2**63, rng)
    assert 0.0 <= project_noise(0.5, 2**63 - 1, rng) <= 1.0
    assert NoiseModel(atom_count=2**63 - 1).atom_count == 2**63 - 1


# -------------------------------------------------------------- TrialStats


def test_trial_stats_mean_std():
    stats = TrialStats(intervals=np.array([0.0, 1.0]), samples=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(stats.mean, [0.5, 0.5])
    assert stats.std == pytest.approx([np.sqrt(0.5), np.sqrt(0.5)])
    assert stats.trials == 2


def test_trial_stats_single_trial_std_is_zero():
    stats = TrialStats(intervals=np.array([0.0, 1.0]), samples=np.array([[0.2, 0.8]]))
    assert np.array_equal(stats.std, [0.0, 0.0])


def test_trial_stats_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        TrialStats(intervals=np.array([0.0, 1.0]), samples=np.array([[0.1, 0.2, 0.3]]))


def test_trial_stats_arrays_are_frozen():
    stats = TrialStats(intervals=np.array([0.0, 1.0]), samples=np.array([[0.2, 0.8]]))
    with pytest.raises(ValueError):
        stats.samples[0, 0] = 0.5


# -------------------------------------------------------------- run_trials


def test_noiseless_normal_trials_match_closed_form():
    stats = run_trials(ramsey, None, NoiseModel(seed=11), 5, T17)
    expected = normal_flop(DELTA_W_REF, T17).p_e
    assert np.max(np.abs(stats.mean - expected)) < 1e-12
    # no randomness consumed at all: every trial is bitwise the same row
    # (mean/std still carry 1-ulp summation residue, hence the bound)
    assert all(np.array_equal(stats.samples[0], row) for row in stats.samples)
    assert np.max(stats.std) < 1e-15


def test_run_trials_is_seed_deterministic():
    builder = lambda T: scrambled_ramsey(np.pi, T1_REF, T)
    a = run_trials(builder, None, NoiseModel(seed=42), 3, T17)
    b = run_trials(builder, None, NoiseModel(seed=42), 3, T17)
    c = run_trials(builder, None, NoiseModel(seed=43), 3, T17)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_scrambled_trials_fill_the_band():
    # fresh shot phase per shot: with theta = pi the per-interval spread
    # approaches the full [0, 1] band
    builder = lambda T: scrambled_ramsey(np.pi, T1_REF, T)
    stats = run_trials(builder, None, NoiseModel(seed=7), 60, T17)
    ranges = stats.samples.max(axis=0) - stats.samples.min(axis=0)
    assert np.all(ranges > 0.9)


def test_scrambled_trials_fixed_phase_are_reproducible():
    builder = lambda T: scrambled_ramsey(np.pi, T1_REF, T)
    frames = default_frames(phi_s=1.234)
    stats = run_trials(builder, frames, NoiseModel(seed=5), 5, T17, randomize_phi=False)
    assert all(np.array_equal(stats.samples[0], row) for row in stats.samples)
    assert np.max(stats.std) < 1e-15


def test_retrieved_trials_ignore_shot_phase():
    # retrieve undoes the scramble, so randomize_phi changes nothing
    t2 = np.pi / default_frames().delta_s
    builder = lambda T: retrieved_ramsey(np.pi, T1_REF, t2, T)
    stats = run_trials(builder, None, NoiseModel(seed=3), 8, T17)
    expected = normal_flop(DELTA_W_REF, T1_REF + t2 + T17).p_e
    assert np.max(np.abs(stats.mean - expected)) < 1e-9
    assert np.max(stats.std) < 1e-9


def test_contrast_decay_applies_to_timeline_duration():
    tau = 8e-3
    stats = run_trials(ramsey, None, NoiseModel(seed=1, contrast_decay_tau=tau), 2, T17)
    clean = normal_flop(DELTA_W_REF, T17).p_e
    expected = 0.5 + (clean - 0.5) * np.exp(-T17 / tau)
    assert np.max(np.abs(stats.mean - expected)) < 1e-12


def test_projection_noise_shrinks_with_atom_count():
    noise = NoiseModel(seed=21, atom_count=400)
    stats = run_trials(ramsey, None, noise, 40, T17)
    clean = normal_flop(DELTA_W_REF, T17).p_e
    # binomial std at N=400 is at most 0.025
    assert np.max(np.abs(stats.mean - clean)) < 0.02
    assert np.max(stats.std) < 0.05


def test_phase_jitter_blurs_the_fringe():
    noise = NoiseModel(seed=2, phase_jitter_sigma=0.3)
    stats = run_trials(ramsey, None, noise, 50, T17)
    # jitter before the read pulse moves samples off the clean curve
    clean = normal_flop(DELTA_W_REF, T17).p_e
    assert np.max(stats.std) > 0.05
    assert np.max(np.abs(stats.mean - clean)) < 0.2


def test_run_trials_rejects_bad_trials():
    with pytest.raises(ValueError):
        run_trials(ramsey, None, NoiseModel(), 0, T17)
    with pytest.raises(ValueError):
        run_trials(ramsey, None, NoiseModel(), True, T17)


def test_run_trials_rejects_an_array_of_shot_phases():
    frames = FrameSet(DELTA_W_REF, DELTA_W_REF, np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="one scalar shot phase"):
        run_trials(ramsey, frames, NoiseModel(), 2, T17, randomize_phi=False)


def test_run_trials_rejects_array_valued_events():
    builder = lambda T: Timeline((Pulse.wri(np.pi / 2), Wait(np.array([T, T])), Pulse.wri(np.pi / 2)))
    with pytest.raises(ValueError, match="scalar events"):
        run_trials(builder, None, NoiseModel(), 2, T17)


@pytest.mark.parametrize("atom_count", [None, 10])
def test_run_trials_jitter_overflow_is_an_invalid_timeline(atom_count):
    # with atoms each stream walks its own shot: an overflowed jitter must not reach math.cos, which raises for inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidTimelineError, match="overflowed"):
            run_trials(ramsey, None, NoiseModel(phase_jitter_sigma=1e308, atom_count=atom_count), 2, T17)


@pytest.mark.parametrize("atom_count", [None, 10])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_run_trials_head_overflow_is_an_invalid_timeline(sigma, atom_count):
    # the events before the last overflow; the non-finite x and y reach z through the read, jitter or not
    model = NoiseModel(phase_jitter_sigma=sigma, atom_count=atom_count)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidTimelineError, match="overflowed"):
            run_trials(lambda T: ramsey(T + 1e306), None, model, 2, T17)


def test_run_trials_overflow_before_a_drawn_s_pulse_is_an_invalid_timeline():
    # the hold before the scramble overflows; its non-finite x and y reach z through the S pulse of each shot's phase
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidTimelineError, match="overflowed"):
            run_trials(lambda T: scrambled_ramsey(2.1, 1e306, T), None, NoiseModel(atom_count=10), 2, T17)


def _per_shot_reference(builder, frames, noise, trials, intervals, randomize_phi):
    """Shot by shot, in the documented draw order, through the public kernels only."""
    samples = np.empty((trials, len(intervals)))
    for i, stream in enumerate(np.random.SeedSequence(noise.seed).spawn(trials)):
        rng = np.random.default_rng(stream)
        for j, interval in enumerate(intervals):
            timeline = builder(float(interval))
            shot = frames
            if randomize_phi and any(isinstance(e, Pulse) and e.frame is Frame.S for e in timeline):
                shot = FrameSet(frames.delta_w, frames.delta_s, rng.uniform(0.0, 2.0 * np.pi))
            jitter = rng.normal(0.0, noise.phase_jitter_sigma) if noise.phase_jitter_sigma > 0.0 else 0.0
            if jitter == 0.0 or len(timeline) == 0:
                v = simulate(timeline, shot)
            else:
                head = Timeline(timeline.events[:-1])
                v = apply_event(precess(simulate(head, shot), jitter), timeline.events[-1], head.duration, shot)
            p = damp_contrast(excitation_probability(v), timeline.duration, noise.contrast_decay_tau)
            samples[i, j] = project_noise(p, noise.atom_count, rng) if noise.atom_count is not None else p
    return samples


REFERENCE_BUILDERS = {
    "ramsey": ramsey,
    "scrambled": lambda T: scrambled_ramsey(2.1, T1_REF, T),
    "retrieved": lambda T: retrieved_ramsey(2.1, T1_REF, 3.3e-3, T),
    # an S pulse for only some intervals: phases are drawn for those alone
    "s_pulse_sometimes": lambda T: scrambled_ramsey(2.1, T1_REF, T) if T > PERIOD else ramsey(T),
    "empty": lambda T: Timeline(),
    # a last Wait: the jitter precesses before it, and the walk checks x and y after it
    "ends_in_wait": lambda T: Timeline((*ramsey(T).events, Wait(1e-3))),
    # a scramble area that changes with the interval: a run walks a column of areas
    "area_per_interval": lambda T: scrambled_ramsey(2.1 + 300.0 * T, T1_REF, T),
    # a wait of 0.0 or -0.0 by interval: the two do not share one value
    "signed_zero_wait": lambda T: Timeline((Pulse.wri(np.pi / 2), Wait(-0.0 if T > PERIOD else 0.0), *ramsey(T).events)),
    # the same timeline for every interval: without a draw, a walk's probability is one float for all its shots
    "fixed": lambda T: Timeline((Pulse.wri(1.0), Wait(1e-3), Pulse.sri(2.1))),
    # a W pulse between two S pulses, and an S pulse last: a fixed axis amid the drawn ones, and a drawn last axis
    "w_between_s": lambda T: Timeline(
        (Pulse.wri(np.pi / 2), Wait(T1_REF), Pulse.sri(2.1), Wait(T), Pulse.wri(0.7), Wait(1e-3), Pulse.sri(1.3))
    ),
}
REFERENCE_NOISE = {
    "none": {},
    "atoms": {"atom_count": 40},
    "sigma_tau": {"phase_jitter_sigma": 0.2, "contrast_decay_tau": 0.05},
    "atoms_tau": {"atom_count": 37, "contrast_decay_tau": 0.02},
    "sigma_atoms": {"phase_jitter_sigma": 0.2, "atom_count": 300},
    "all": {"phase_jitter_sigma": 0.3, "atom_count": 500, "contrast_decay_tau": 0.05},
}


@pytest.mark.parametrize("trials", [1, 2, 7])
@pytest.mark.parametrize("randomize_phi", [True, False])
@pytest.mark.parametrize("noise", REFERENCE_NOISE)
@pytest.mark.parametrize("builder", REFERENCE_BUILDERS)
def test_run_trials_matches_the_per_shot_reference(builder, noise, randomize_phi, trials):
    frames = FrameSet(2 * np.pi * 97.0, 2 * np.pi * 103.0, 0.7)
    model = NoiseModel(seed=1234, **REFERENCE_NOISE[noise])
    build = REFERENCE_BUILDERS[builder]
    stats = run_trials(build, frames, model, trials, T17, randomize_phi)
    assert np.array_equal(stats.samples, _per_shot_reference(build, frames, model, trials, T17, randomize_phi))


@pytest.mark.parametrize("budget", [8, 2], ids=["runs_of_2", "one_interval"])
@pytest.mark.parametrize("noise", ["none", "sigma_tau", "atoms_tau"])
@pytest.mark.parametrize("builder", ["scrambled", "s_pulse_sometimes", "area_per_interval"])
def test_the_run_cap_splits_the_grid_and_keeps_every_value(builder, noise, budget):
    # 3 trials against a block of 8 states give runs of 2 intervals; a block of 2 holds less than one interval
    frames = FrameSet(2 * np.pi * 97.0, 2 * np.pi * 103.0, 0.7)
    model = NoiseModel(seed=99, **REFERENCE_NOISE[noise])
    build, walk_z, shot_counts = REFERENCE_BUILDERS[builder], expsim._walk_z, expsim._shot_counts
    sizes, walked_intervals, shots = [], [], []

    def walked(*args):
        sizes.append(np.size(z := walk_z(*args)))
        walked_intervals.append(np.shape(z)[-1] if np.ndim(z) else 1)  # a walk's z is (k,) or (trials, k)
        return z

    def counted(*args):
        shots.append(len(counts := shot_counts(*args)))
        return counts

    with (
        mock.patch.object(expsim, "_BLOCK_STATES", budget),
        mock.patch.object(expsim, "_walk_z", walked),
        mock.patch.object(expsim, "_shot_counts", counted),
    ):
        stats = run_trials(build, frames, model, 3, T17)
    assert np.array_equal(stats.samples, _per_shot_reference(build, frames, model, 3, T17, True))
    # each interval is read once: by a walk of at most the cap's states, or stream by stream (the atoms_tau S pulses)
    assert sum(walked_intervals) + len(shots) == 17
    assert max(sizes, default=0) <= max(budget, 3)
    assert shots == [3] * len(shots)


@pytest.mark.parametrize("scan_block", [2**12, 2**18])
def test_trial_walks_do_not_follow_the_scan_block(scan_block):
    # the grid scans' block and the trial walks' cap are two constants: the run_trials memory tests rest on the cap
    walk_z, sizes = expsim._walk_z, []

    def walked(*args):
        sizes.append(np.size(z := walk_z(*args)))
        return z

    with mock.patch.object(analysis, "_BLOCK_STATES", scan_block), mock.patch.object(expsim, "_walk_z", walked):
        run_trials(ramsey, None, NoiseModel(seed=1), 1, np.linspace(0.0, 0.02, 2**16))
    assert sizes == [2**14] * 4


@pytest.mark.parametrize(
    "noise, randomize_phi, walks",
    [({}, True, 1), ({"phase_jitter_sigma": 0.1}, True, 1), ({"atom_count": 50}, False, 1), ({"atom_count": 50}, True, 17)],
    ids=["noiseless", "jitter", "atoms_fixed_phase", "atoms_phase_draws"],
)
def test_only_a_binomial_after_a_draw_walks_interval_by_interval(noise, randomize_phi, walks):
    builder = lambda T: scrambled_ramsey(2.1, T1_REF, T)
    with mock.patch.object(expsim, "_advance", wraps=expsim._advance) as advance:
        run_trials(builder, None, NoiseModel(seed=4, **noise), 5, T17, randomize_phi)
    assert advance.call_count == walks


def test_a_run_shares_a_value_only_when_every_interval_has_its_bits():
    run = [Timeline((Wait(0.0), Pulse.wri(1.0))), Timeline((Wait(-0.0), Pulse.wri(1.0)))]
    [((wait, read), duration, k)] = expsim._stacked((Wait, Frame.W), iter(run), 2)
    assert k == 2 and np.ndim(read.area) == 0 and float(read.area).hex() == (1.0).hex()
    assert np.array_equal(np.signbit(wait.duration), [False, True])
    assert np.array_equal(duration, [0.0, 0.0])


def test_a_runs_event_columns_are_views_of_its_table():
    # the values were checked when their timelines were built: a column is not copied and checked again,
    # and the walk's table is transposed once so that each column is contiguous for the kernels
    run = [Timeline((Pulse.wri(1.0), Wait(t), Pulse.sri(2.0 + t))) for t in (0.0, 1e-3, 2e-3)]
    [((write, wait, read), duration, k)] = expsim._stacked((Frame.W, Wait, Frame.S), iter(run), 3)
    table = duration.base
    assert k == 3 and table.shape == (4, 3) and duration.flags.c_contiguous
    assert type(write.area) is float and write.area == 1.0
    for column, want in ((wait.duration, [0.0, 1e-3, 2e-3]), (read.area, [2.0, 2.001, 2.002])):
        assert np.shares_memory(column, table) and column.flags.c_contiguous and not column.flags.writeable
        assert np.array_equal(column, want)
    assert (write.frame, read.frame) == (Frame.W, Frame.S)


def test_a_package_builders_walk_of_one_interval_holds_the_floats_of_a_row():
    # a block of one is built on a float, so its events are the Python floats _stacked gives a run of one
    build, grid = functools.partial(retrieved_ramsey, 2.1, T1_REF, 3.3e-3), np.array([-0.0, 1e-3, 2e-3])
    (events, duration, k), (last, last_duration, one) = expsim._built(build, grid, 2)
    assert k == 2 and np.array_equal(events[5].duration, grid[:2]) and np.array_equal(duration, T1_REF + 3.3e-3 + grid[:2])
    [(row, row_duration, _)] = expsim._stacked(expsim._kinds(build(2e-3)), iter([build(2e-3)]), 1)
    assert one == 1 and np.array_equal(last_duration, row_duration)
    for got, want in zip(last, row):
        value, want_value = (got.duration, want.duration) if isinstance(got, Wait) else (got.area, want.area)
        assert type(value) is float and value.hex() == want_value.hex()


# (kind, value, constant): a value of "interval" grows with the interval, "signed_zero" is 0.0 or -0.0 by interval
EVENTS = st.tuples(
    st.sampled_from(["W", "S", "wait"]),
    st.sampled_from(["constant", "interval", "signed_zero"]),
    st.sampled_from([0.0, -0.0, 0.4, 1.3, np.pi]),
)


def _event(kind, value, constant, interval, negative_zero):
    if value == "interval":
        constant = interval if kind == "wait" else 2.1 + 300.0 * interval
    elif value == "signed_zero":
        constant = -0.0 if negative_zero else 0.0
    return Wait(constant) if kind == "wait" else Pulse(Frame.W if kind == "W" else Frame.S, constant)


@settings(max_examples=100, deadline=None)
@given(
    templates=st.lists(st.lists(EVENTS, max_size=5), min_size=1, max_size=3),
    noise=st.sampled_from(sorted(REFERENCE_NOISE)),
    trials=st.integers(1, 4),
    randomize_phi=st.booleans(),
    budget=st.sampled_from([None, 2, 5, 8]),
    data=st.data(),
)
def test_property_run_trials_equals_the_per_shot_reference(templates, noise, trials, randomize_phi, budget, data):
    # timelines of one to three kinds, picked interval by interval, so kinds change mid-grid, with empty ones
    # and signed zeros among them; a small block budget makes the run cap split runs
    count = data.draw(st.integers(1, 12), label="count")
    picks = data.draw(st.lists(st.integers(0, len(templates) - 1), min_size=count, max_size=count), label="picks")
    signs = data.draw(st.lists(st.booleans(), min_size=count, max_size=count), label="signs")
    grid = np.linspace(0.0, 2 * PERIOD, count)
    shots = {
        float(T): Timeline(tuple(_event(*e, float(T), negative) for e in templates[pick]))
        for T, pick, negative in zip(grid, picks, signs)
    }
    frames = FrameSet(2 * np.pi * 97.0, 2 * np.pi * 103.0, 0.7)
    model = NoiseModel(seed=7, **REFERENCE_NOISE[noise])
    with mock.patch.object(expsim, "_BLOCK_STATES", budget or expsim._BLOCK_STATES):
        stats = run_trials(shots.__getitem__, frames, model, trials, grid, randomize_phi)
    assert np.array_equal(stats.samples, _per_shot_reference(shots.__getitem__, frames, model, trials, grid, randomize_phi))


def test_an_empty_timeline_still_draws_its_jitter():
    # a property example pinned: the empty timelines draw a jitter they never use, so the binomials of the W pulse's
    # shots after them come from further along the stream; a build that skipped that draw gave other counts
    templates = [[], [], [("W", "constant", 0.4)]]
    grid = np.linspace(0.0, 2 * PERIOD, 6)
    shots = {
        float(T): Timeline(tuple(_event(*e, float(T), False) for e in templates[pick]))
        for T, pick in zip(grid, [0, 2, 1, 2, 0, 2])
    }
    frames = FrameSet(2 * np.pi * 97.0, 2 * np.pi * 103.0, 0.7)
    model = NoiseModel(seed=7, **REFERENCE_NOISE["all"])
    stats = run_trials(shots.__getitem__, frames, model, 1, grid, randomize_phi=False)
    assert np.array_equal(stats.samples, _per_shot_reference(shots.__getitem__, frames, model, 1, grid, False))


def test_wrap_angle_maps_every_drawn_shot_phase_to_itself():
    # run_trials sets its drawn shot phases on its frames without the wrap a FrameSet applies: it must be the identity
    phis = 0.0 + TWO_PI * np.random.default_rng(5).random(1 << 20)
    phis = np.concatenate([phis, [0.0, TWO_PI * np.nextafter(1.0, 0.0)]])
    assert phis.max() < TWO_PI
    assert np.array_equal(wrap_angle(phis).view(np.int64), phis.view(np.int64))
    assert np.array_equal(FrameSet(1.0, 1.0, phis).phi_s.view(np.int64), phis.view(np.int64))
    assert all(wrap_angle(phi).hex() == phi.hex() for phi in phis[-2:].tolist())


def test_a_drawn_axis_just_below_zero_wraps_to_zero_as_wrap_angle_does():
    # -1e-300 mod 2 pi rounds to 2 pi itself, which the rule maps to 0
    assert wrap_angle(-1e-300) == 0.0
    assert expsim._drawn_axis(-1e-300, 0.0) == (1.0, 0.0)


@pytest.mark.parametrize(
    "trials, noise, builder",
    [
        (1, {}, ramsey),
        (4, {"contrast_decay_tau": 0.05}, ramsey),
        (1, {}, lambda T: ramsey(T)),
        (4, {"contrast_decay_tau": 0.05}, lambda T: ramsey(T)),
    ],
    ids=["one_trial", "four_decay", "one_trial_lambda", "four_decay_lambda"],
)
def test_a_long_grid_holds_one_row_per_interval_not_its_timelines(trials, noise, builder):
    # 65 536 intervals in runs of 16 384 // trials: a run's timelines alone would be ~18 MB at one trial; ramsey
    # builds each walk as one timeline, and the lambda's timelines are read one float row per interval
    grid, model = np.linspace(0.0, 0.02, 65536), NoiseModel(seed=1, **noise)
    run_trials(builder, None, model, trials, grid[:64])  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        run_trials(builder, None, model, trials, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6, peak


def test_run_trials_does_not_check_its_own_result_again():
    # TrialStats' checks of the grid (a np.diff the size of it) and of the samples (a boolean isfinite the size of
    # them) ran after the walks and set the peak: 19.4 MB here, for an 8.4 MB output
    grid, model = np.linspace(0.0, 0.02, 1 << 20), NoiseModel(seed=1)
    run_trials(ramsey, None, model, 1, grid[:64])  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        run_trials(ramsey, None, model, 1, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5e6, peak


def test_results_leave_the_callers_arrays_writeable():
    # a result is a read-only view of a float64 input, sharing its memory; the caller's own array stays writeable
    grid, samples, state = np.linspace(0.0, 0.02, 17), np.full((2, 17), 0.5), np.array([0.6, 0.0, 0.8])
    results = {
        "run_trials": (run_trials(ramsey, None, NoiseModel(), 2, grid), "intervals", "samples"),
        "TrialStats": (TrialStats(grid, samples), "intervals", "samples"),
        "normal_flop": (normal_flop(DELTA_W_REF, grid), "intervals", "p_e"),
        "scrambled_flop": (scrambled_flop(np.pi, T1_REF, grid, 8), "intervals", "phis", "p_e"),
        "ambiguity_report": (ambiguity_report(state, np.pi, grid, 8), "intervals", "ranges"),
        "sdbv": (sdbv(state, np.pi, 8), "recorded", "phis", "points"),
    }
    assert grid.flags.writeable and samples.flags.writeable and state.flags.writeable
    for name, (result, *arrays) in results.items():
        for array in arrays:
            assert not getattr(result, array).flags.writeable, (name, array)
        if name != "sdbv":
            assert np.shares_memory(result.intervals, grid), name
    assert np.shares_memory(results["TrialStats"][0].samples, samples)
    assert np.shares_memory(results["sdbv"][0].recorded, state)


def test_run_trials_calls_the_builder_once_per_interval():
    calls = []
    builder = lambda T: calls.append(T) or scrambled_ramsey(np.pi, T1_REF, T)
    run_trials(builder, None, NoiseModel(seed=1, atom_count=10, phase_jitter_sigma=0.1), 7, T17)
    assert calls == [float(T) for T in T17]


# a package builder, bare or with its leading arguments bound, and the same builder as a lambda
BLOCK_BUILDERS = {
    "ramsey": (ramsey, lambda T: ramsey(T)),
    "scrambled": (functools.partial(scrambled_ramsey, 2.1, T1_REF), lambda T: scrambled_ramsey(2.1, T1_REF, T)),
    "retrieved": (
        functools.partial(retrieved_ramsey, 2.1, T1_REF, 3.3e-3),
        lambda T: retrieved_ramsey(2.1, T1_REF, 3.3e-3, T),
    ),
}
# 23 intervals from -0.0: one walk; walks of 20 + 3 or of 6, 6, 6 + 5; of 2 with a last one of 1, or of 1 at 3 trials
BLOCK_GRID = np.concatenate([[-0.0], np.linspace(0.0, 2 * PERIOD, 23)[1:]])


@pytest.mark.parametrize("budget", [None, 20, 2], ids=["one_walk", "budget_20", "budget_2"])
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("randomize_phi", [True, False])
@pytest.mark.parametrize("noise", REFERENCE_NOISE)
@pytest.mark.parametrize("builder", BLOCK_BUILDERS)
def test_a_package_builder_read_a_walk_at_a_time_gives_its_timelines_bits(builder, noise, randomize_phi, trials, budget):
    block, per_interval = BLOCK_BUILDERS[builder]
    frames = FrameSet(2 * np.pi * 97.0, 2 * np.pi * 103.0, 0.7)
    model = NoiseModel(seed=31, **REFERENCE_NOISE[noise])
    with mock.patch.object(expsim, "_BLOCK_STATES", budget or expsim._BLOCK_STATES):
        got = run_trials(block, frames, model, trials, BLOCK_GRID, randomize_phi).samples
        want = run_trials(per_interval, frames, model, trials, BLOCK_GRID, randomize_phi).samples
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _user_builder(scramble_area, interval):
    return scrambled_ramsey(scramble_area, T1_REF, interval)


@pytest.mark.parametrize(
    "builder, blocks",
    [
        (ramsey, True),
        (functools.partial(scrambled_ramsey, 2.1, T1_REF), True),
        (functools.partial(retrieved_ramsey, 2.1, T1_REF, 3.3e-3), True),
        (lambda T: scrambled_ramsey(2.1, T1_REF, T), False),
        (functools.partial(_user_builder, 2.1), False),
    ],
    ids=["ramsey", "scrambled", "retrieved", "lambda", "user_partial"],
)
def test_only_a_package_builder_skips_the_per_interval_rows(builder, blocks):
    # 17 intervals at 3 trials against a budget of 20 states: walks of 6, 6 and 5
    refused = AssertionError("a package builder's timelines were read row by row")
    stacked = mock.Mock(side_effect=refused if blocks else expsim._stacked)
    timelines, model = mock.Mock(wraps=sequence.Timeline), NoiseModel(seed=2, phase_jitter_sigma=0.1)
    with (
        mock.patch.object(expsim, "_BLOCK_STATES", 20),
        mock.patch.object(expsim, "_stacked", stacked),
        mock.patch.object(sequence, "Timeline", timelines),
    ):
        stats = run_trials(builder, None, model, 3, T17)
    assert stacked.called is not blocks
    # one timeline for the run's kinds, then one per walk; any other builder is called once per interval
    assert timelines.call_count == (1 + 3 if blocks else 17)
    assert np.array_equal(stats.samples, run_trials(lambda T: builder(T), None, model, 3, T17).samples)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
def test_the_scalar_draws_are_numpys_uniform_and_normal(seed):
    # run_trials draws its shot phase and jitter as below; numpy's uniform and normal are these formulas,
    # so the bits and the stream's consumption are theirs
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for sigma in (1e-300, 0.01, 0.2, 1e3):
        for _ in range(64):
            assert (0.0 + TWO_PI * ours.random()).hex() == float(numpys.uniform(0.0, TWO_PI)).hex()
            assert (0.0 + sigma * ours.standard_normal()).hex() == float(numpys.normal(0.0, sigma)).hex()
    assert ours.bit_generator.state == numpys.bit_generator.state


# ----------------------------------------------------------------- fitting


TRUE = dict(offset=0.5, amplitude=0.45, decay_time=0.04, angular_frequency=2 * np.pi * 97.0, phase=0.6)


def _synthetic(n=400, span=0.1, **overrides):
    params = dict(TRUE, **overrides)
    x = np.linspace(0.0, span, n)
    return x, damped_sinusoid(x, **params), params


def test_damped_sinusoid_values():
    assert damped_sinusoid(0.0, 0.5, 0.4, 1.0, 0.0, 0.0) == pytest.approx(0.9)
    assert damped_sinusoid(1.0, 0.0, 1.0, 1.0, np.pi, 0.0) == pytest.approx(-1.0 / np.e)
    assert damped_sinusoid(3.0, 0.25, 0.5, np.inf, 0.0, 0.0) == pytest.approx(0.75)


def test_a_nan_decay_time_gives_nan_and_an_infinite_one_no_envelope():
    x = np.linspace(-0.01, 0.05, 41)
    assert np.isnan(damped_sinusoid(x, 0.5, 0.4, np.nan, 600.0, 0.1)).all()
    assert np.isnan(FitResult(0.5, 0.4, np.nan, 600.0, 0.1, 0.0, True, False).evaluate(x)).all()
    undamped = 0.5 + 0.4 * np.cos(600.0 * x + 0.1)
    for decay_time in (np.inf, -np.inf):
        assert damped_sinusoid(x, 0.5, 0.4, decay_time, 600.0, 0.1).tobytes() == undamped.tobytes()
        assert FitResult(0.5, 0.4, decay_time, 600.0, 0.1, 0.0, True, False).evaluate(x).tobytes() == undamped.tobytes()


def test_initial_guess_lands_near_truth():
    x, y, params = _synthetic()
    offset, amplitude, decay_time, omega, phase = initial_guess(x, y)
    assert omega == pytest.approx(params["angular_frequency"], rel=0.05)
    assert offset == pytest.approx(params["offset"], abs=0.05)
    assert 0.2 < amplitude < 0.7
    assert 0.01 < decay_time < 0.5


def test_a_fit_checks_its_data_once():
    # the public initial_guess checks its data; the fit, which checked them already, takes its start unchecked
    x, y, _ = _synthetic()
    with mock.patch.object(expsim, "_validate_xy", wraps=expsim._validate_xy) as validate:
        fit_damped_sinusoid(x, y)
    assert validate.call_count == 1


def test_fit_recovers_noiseless_parameters():
    x, y, params = _synthetic()
    fit = fit_damped_sinusoid(x, y)
    assert fit.converged and not fit.degenerate_amplitude
    assert fit.offset == pytest.approx(params["offset"], rel=1e-6)
    assert fit.amplitude == pytest.approx(params["amplitude"], rel=1e-6)
    assert fit.decay_time == pytest.approx(params["decay_time"], rel=1e-6)
    assert fit.angular_frequency == pytest.approx(params["angular_frequency"], rel=1e-6)
    assert fit.phase == pytest.approx(params["phase"], abs=1e-6)
    assert fit.residual_rms < 1e-9


def test_fit_zero_phase_recovered_absolutely():
    x, y, _ = _synthetic(phase=0.0)
    fit = fit_damped_sinusoid(x, y)
    assert abs(fit.phase) < 1e-6


def test_fit_evaluate_reproduces_data():
    x, y, _ = _synthetic()
    fit = fit_damped_sinusoid(x, y)
    assert np.max(np.abs(fit.evaluate(x) - y)) < 1e-8


def test_fit_accepts_explicit_guess():
    x, y, params = _synthetic()
    guess = (0.4, 0.3, 0.05, 2 * np.pi * 90.0, 0.0)
    fit = fit_damped_sinusoid(x, y, guess=guess)
    assert fit.angular_frequency == pytest.approx(params["angular_frequency"], rel=1e-6)
    with pytest.raises(ValueError):
        fit_damped_sinusoid(x, y, guess=(0.5, 0.4))


def test_fit_constant_data_degenerates():
    x = np.linspace(0.0, 1.0, 50)
    fit = fit_damped_sinusoid(x, np.full(50, 0.75))
    assert fit.converged and fit.degenerate_amplitude
    assert fit.offset == 0.75
    assert fit.amplitude == 0.0
    assert fit.angular_frequency == 0.0
    assert np.isinf(fit.decay_time)


def test_fit_pure_noise_is_degenerate():
    rng = np.random.default_rng(17)
    x = np.linspace(0.0, 0.1, 120)
    y = 0.5 + rng.normal(0.0, 0.01, size=x.shape)
    fit = fit_damped_sinusoid(x, y)
    assert fit.degenerate_amplitude


def test_fit_noisy_frequency_within_a_percent():
    rng = np.random.default_rng(99)
    x, clean, params = _synthetic()
    fit = fit_damped_sinusoid(x, clean + rng.normal(0.0, 0.02, size=x.shape))
    assert fit.converged and not fit.degenerate_amplitude
    assert fit.angular_frequency == pytest.approx(params["angular_frequency"], rel=0.01)


def test_fit_iteration_budget_reports_nonconvergence():
    x, y, _ = _synthetic()
    fit = fit_damped_sinusoid(x, y, max_iterations=1)
    assert isinstance(fit, FitResult)
    assert not fit.converged


@pytest.mark.parametrize("max_iterations", [2.5, np.nan, np.inf, 10**400, True, 0, -1])
def test_fit_refuses_a_max_iterations_that_is_not_a_count(max_iterations, monkeypatch):
    # a budget the solver's nfev == max_nfev test can never meet (2.5, NaN) would let it loop for ever
    def model(*args):
        raise AssertionError("a residual was evaluated")

    x, y, _ = _synthetic(n=60)
    monkeypatch.setattr(expsim, "damped_sinusoid", model)
    with pytest.raises(ValueError, match="^max_iterations must be an integer"):
        fit_damped_sinusoid(x, y, max_iterations=max_iterations)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_damped_sinusoid([0.0, 1.0], [0.0, 1.0])
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        fit_damped_sinusoid(x[::-1], np.zeros(10))
    with pytest.raises(ValueError):
        fit_damped_sinusoid(x, np.full(10, np.nan))
    # finite data whose span, spread, mean or spectrum overflows, rejected without a numpy warning
    beyond = [
        (np.arange(6.0), np.array([1e308, -1e308] * 3), "y spans more than the float range"),
        (np.arange(6.0), np.full(6, 1.5e308), "y spans more than the float range"),
        (np.array([-1e308, 1.0, 2.0, 3.0, 4.0, 1e308]), np.arange(6.0), "x spans more than the float range"),
        # a step of x that overflows to inf, still an increase
        (np.array([-1.5, 1.5, 1.6, 1.7, 1.71, 1.72]) * 1e308, np.arange(6.0), "x spans more than the float range"),
        (np.arange(99.0), np.array([0.8e308, -0.4e308, -0.4e308] * 33), "x and y give no finite starting point"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y, message in beyond:
            for fit in (initial_guess, fit_damped_sinusoid):
                with pytest.raises(ValueError, match=message):
                    fit(x, y)


def test_fit_rejects_a_start_outside_the_bounds_or_with_residuals_that_overflow():
    x = np.linspace(-1.0, 0.0, 8)
    y = np.array([0.0, 1.0] * 4)
    with pytest.raises(ValueError, match="^Initial guess is outside of provided bounds$"):
        fit_damped_sinusoid(x, y, guess=(np.nan, 1, 1, 1, 0))
    # exp(-x / decay_time) overflows at x < 0 for the decay time the start is clipped to
    with pytest.raises(ValueError, match=r"^Residuals are not finite in the initial point\.$"):
        fit_damped_sinusoid(x, y, guess=[0, 1, 1e-12, 1, 0])


# ------------------------------------------------ the solver against scipy


class _Captured(Exception):
    pass


def _fit_residual(x, y):
    """The residual function :func:`fit_damped_sinusoid` hands its solver, and the solver's lower bounds."""
    captured = []

    def capture(fun, x0, lower, **kwargs):
        captured.append((fun, np.asarray(lower, dtype=float)))
        raise _Captured

    with mock.patch.object(_trf, "least_squares", capture), pytest.raises(_Captured):
        fit_damped_sinusoid(x, y)
    return captured[0]


def _looped_jacobian(fun, x0, f0, lb):
    """scipy's forward differences, one residual call per parameter: the reference for the one-call Jacobian."""
    sign_x0 = (x0 >= 0).astype(float) * 2 - 1
    h = _trf._DIFF_STEP * sign_x0 * np.maximum(1.0, np.abs(x0))
    h[x0 + h < lb] *= -1
    J_transposed = np.empty((x0.size, f0.size))
    for i in range(x0.size):
        x1 = np.copy(x0)
        x1[i] = x0[i] + h[i]
        J_transposed[i] = (fun(x1) - f0) / ((x0[i] + h[i]) - x0[i])
    return J_transposed.T


@pytest.mark.parametrize(
    ("x0", "lb"),
    [
        ((0.5, 0.4, 0.03, 600.0, 0.3), None),
        # the amplitude on its lower bound 0: its step goes forward, off the bound
        ((0.5, 0.0, 0.03, 600.0, 0.3), None),
        # negative parameters, the offset and the phase on lower bounds of their own: their steps flip forward
        ((-0.5, -0.4, 0.03, 600.0, -2.0), (-0.5, -np.inf, 0.0, 0.0, -2.0)),
    ],
    ids=["plain", "amplitude-on-its-bound", "negative-parameters"],
)
def test_the_one_call_jacobian_matches_the_per_parameter_loop(x0, lb):
    x = np.linspace(0.0, 0.06, 40)
    fun, fit_lb = _fit_residual(x, 0.5 + 0.4 * np.exp(-x / 0.02) * np.cos(2 * np.pi * 100.0 * x))
    x0, lb = np.array(x0), fit_lb if lb is None else np.array(lb)
    f0 = fun(x0)
    calls = []
    J = _trf._jacobian(lambda p: calls.append(p.shape) or fun(p), x0, f0, lb)
    want = _looped_jacobian(fun, x0, f0, lb)
    assert calls == [(5, 5)]
    assert J.flags.f_contiguous and J.shape == want.shape == (40, 5)
    assert J.tobytes(order="F") == want.tobytes(order="F")


def _stacked_rows(x0, lb):
    """The (n, n) stack of stepped parameter rows the solver's Jacobian hands the residual at ``x0``."""
    stacks = []

    def record(rows):
        stacks.append(rows.copy())
        return np.zeros((rows.shape[0], 1))

    _trf._jacobian(record, np.array(x0, dtype=float), np.zeros(1), np.array(lb, dtype=float))
    return stacks[0]


def test_a_stacked_residual_gives_each_row_the_bits_of_one_row():
    # x reaches back before t = 0, so a short decay time overflows exp(-x/decay_time) there
    x = np.linspace(-0.02, 0.06, 57)
    fun, lb = _fit_residual(x, 0.5 + 0.4 * np.exp(-x / 0.02) * np.cos(2 * np.pi * 100.0 * x))
    start, negative = np.array([0.5, 0.4, 0.03, 600.0, 0.3]), np.array([-0.5, -0.4, 0.03, 600.0, -2.0])
    forward = _stacked_rows(start, lb)
    # negative values step backward, unless they sit on a lower bound of their own: then their steps flip forward
    backward = _stacked_rows(negative, (-np.inf, -np.inf, 0.0, 0.0, -np.inf))
    at_bound = _stacked_rows(negative, (-0.5, -np.inf, 0.0, 0.0, -2.0))
    assert (forward > start).sum() == (forward != start).sum() == 5
    assert (backward < negative).sum() == 3 and (at_bound < negative).sum() == 1 and (at_bound > negative).sum() == 4
    rows = np.vstack(
        [
            forward,
            backward,
            at_bound,
            [0.5, 0.4, np.inf, 600.0, 0.3],  # no envelope: exp(-x/inf) is exactly 1
            [0.5, 0.0, np.inf, 0.0, 0.0],
            [0.5, 0.4, 1e-5, 600.0, 0.3],  # the envelope overflows to inf before t = 0
            [0.5, 1e308, 0.01, 600.0, 0.3],  # the amplitude times the envelope overflows
            [0.5, 0.0, 1e-5, 600.0, 0.3],  # 0 * inf: NaN
        ]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = fun(rows)
        alone = np.array([fun(row) for row in rows])
        curves = damped_sinusoid(x, *rows.T[..., None])
        single = np.array([damped_sinusoid(x, *row) for row in rows])
    assert stacked.shape == alone.shape == (rows.shape[0], x.size)
    assert np.isinf(curves[-3:-1]).any() and np.isnan(curves[-1]).any() and np.isfinite(curves[:-3]).all()
    assert stacked.view(np.int64).tolist() == alone.view(np.int64).tolist()
    assert curves.view(np.int64).tolist() == single.view(np.int64).tolist()


def test_the_solver_counts_the_shipped_fits_evaluations_and_jacobians_as_scipy_does(monkeypatch):
    from scipy.optimize import least_squares

    scenario = load_scenario(SCENARIOS / "fit.json")
    inputs, _ = _resolve(scenario, SCENARIOS)
    problems, counts = [], []
    solve, bounds = _trf.least_squares, _trf._trf_bounds

    def recorded_solve(fun, x0, lower, **kwargs):
        problems.append((fun, x0, lower, kwargs))
        return solve(fun, x0, lower, **kwargs)

    def recorded_bounds(*args):
        out = bounds(*args)
        counts.append(out[2:])
        return out

    monkeypatch.setattr(_trf, "least_squares", recorded_solve)
    monkeypatch.setattr(_trf, "_trf_bounds", recorded_bounds)
    fit = fit_damped_sinusoid(inputs.x, inputs.y, scenario["fit"].get("guess"), scenario["fit"].get("max_iterations"))
    fun, x0, lower, kwargs = problems[0]
    max_nfev = kwargs.pop("max_nfev")
    result = least_squares(fun, x0, bounds=(lower, np.inf), method="trf", max_nfev=max_nfev, **kwargs)
    assert fit.converged and len(counts) == 1 and (result.status, result.nfev, result.njev) == counts[0]
    if _skip_reason() is None:
        # with the pins' numpy and SIMD targets: status 2 (the cost test) after 7 residual evaluations outside
        # the Jacobian (the start point and 6 trial steps) and 7 Jacobians, J0 and one after each step taken;
        # other targets round exp and cos differently, and their fits take other paths
        assert counts == [(2, 7, 7)]


def _scipy_least_squares(fun, x0, lower, ftol, xtol, gtol, max_nfev=None):
    """scipy's trust-region reflective solver on the problem the fit poses, returning what the port returns."""
    from scipy.optimize import least_squares

    result = least_squares(
        fun, x0, bounds=(lower, np.inf), method="trf", ftol=ftol, xtol=xtol, gtol=gtol, max_nfev=max_nfev
    )
    return result.x, result.fun, result.status


def _fit_outcome(x, y, guess, max_iterations) -> str:
    """``repr`` of the fit, or of the ``ValueError`` it raises."""
    try:
        return repr(fit_damped_sinusoid(x, y, guess, max_iterations))
    except ValueError as err:
        return f"ValueError: {err}"


def _trial_mean_fits() -> list:
    """Fits of the trial means of seeded noisy shot rounds: every builder, with and without noise."""
    cases = []
    rng = np.random.default_rng(10)
    for _, builder in itertools.product(range(4), ("ramsey", "scrambled", "retrieved")):
        dw, ds = 2 * np.pi * rng.uniform(50.0, 200.0, size=2)
        area, t1 = rng.uniform(0.1, 1.9) * np.pi, rng.uniform(1e-3, 1e-2)
        timeline = {
            "ramsey": ramsey,
            "scrambled": lambda T: scrambled_ramsey(area, t1, T),
            "retrieved": lambda T: retrieved_ramsey(area, t1, np.pi / ds, T),
        }[builder]
        seed, atoms = rng.integers(2**32), rng.integers(50, 1001)
        tau, sigma = rng.uniform(0.01, 0.1), rng.uniform(0.01, 0.2)
        noise = NoiseModel(
            seed=int(seed),
            atom_count=int(atoms) if len(cases) % 2 else None,
            contrast_decay_tau=tau,
            phase_jitter_sigma=sigma if len(cases) % 3 == 0 else 0.0,
        )
        T = np.linspace(0.0, rng.uniform(1.0, 4.0) * 2 * np.pi / dw, int(rng.integers(31, 101)))
        stats = run_trials(timeline, FrameSet(dw, ds), noise, int(rng.integers(5, 20)), T)
        cases.append((T, stats.mean, None, None))
    return cases


def _noisy_fringes(count=200) -> list:
    """Seeded damped fringes of 6-300 points with noise from 0.1 % to 20 % of full scale."""
    cases = []
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n, span = int(rng.integers(6, 301)), rng.uniform(0.005, 0.2)
        x = np.linspace(0.0, span, n)
        params = dict(
            offset=rng.uniform(0.3, 0.7),
            amplitude=rng.uniform(0.0, 0.5),
            decay_time=rng.uniform(0.2, 5.0) * span,
            angular_frequency=2 * np.pi * rng.uniform(0.5, n / (3 * span)),
            phase=rng.uniform(-np.pi, np.pi),
        )
        cases.append((x, damped_sinusoid(x, **params) + rng.normal(0.0, rng.uniform(0.001, 0.2), n), None, None))
    return cases


def _growing_fringes() -> list:
    """Fringes recorded from before t = 0 that grow towards it, started from too long a decay time.

    A trial step towards the true decay time overflows ``exp(-x/decay_time)``,
    so the solver meets residuals that are not finite and shrinks its trust region.
    """
    cases = []
    grid = itertools.product((12, 20, 30), (-1.0, -1.5), (0.01, 0.015, 0.02), (2.0, 5.0, 10.0))
    for n, start, decay_time, factor in grid:
        x = np.linspace(start, 0.2, n)
        y = 0.5 + np.exp(-x / decay_time) * np.cos(10.0 * x + 0.3)
        cases.append((x, y, (0.5, 1.0, decay_time * factor, 10.0, 0.0), None))
    return cases


def _oracle_corpus() -> list:
    """(x, y, guess, max_iterations) of every fit the port is checked on."""
    variants = [_variant(name) for name in VARIANTS if name.startswith("fit")]
    scenarios = [load_scenario(SCENARIOS / "fit.json")] + variants
    shipped = []
    for scenario in scenarios:
        inputs, _ = _resolve(scenario, SCENARIOS)
        shipped.append((inputs.x, inputs.y, scenario["fit"].get("guess"), scenario["fit"].get("max_iterations")))
    x, y = shipped[0][:2]
    # an explicit amplitude of 0 starts the solver on its bound
    on_bound = [(x, y, (0.5, 0.0, 0.03, 628.0, 0.0), None), (x, y, (0.5, 0.0, 0.03, 628.0, 0.0), 3)]
    x = np.linspace(0.0, 0.06, 40)
    y = 0.5 + 0.4 * np.exp(-x / 0.02) * np.cos(2 * np.pi * 100.0 * x)
    budgets = [(x, y, None, budget) for budget in range(1, 41)]
    return shipped + on_bound + budgets + _trial_mean_fits() + _noisy_fringes() + _growing_fringes()


def test_fit_matches_scipy_least_squares_bit_for_bit(monkeypatch):
    corpus = _oracle_corpus()
    reached = {"reflected": 0, "not_finite": 0, "budget_spent": 0}
    not_finite = []

    def build_quadratic_1d(J, g, s, diag, s0=None):
        # only the reflected step builds its quadratic from a start point
        reached["reflected"] += s0 is not None
        return build(J, g, s, diag, s0)

    def residual_model(*args):
        out = model(*args)
        not_finite.append(not np.all(np.isfinite(out)))
        return out

    build, model = _trf._build_quadratic_1d, expsim.damped_sinusoid
    ported = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with monkeypatch.context() as patch:
            patch.setattr(_trf, "_build_quadratic_1d", build_quadratic_1d)
            patch.setattr(expsim, "damped_sinusoid", residual_model)
            for case in corpus:
                not_finite.clear()
                ported.append(_fit_outcome(*case))
                # a fit that returns met a non-finite residual only at a trial step: at the
                # start point it raises, and in a Jacobian it makes the SVD raise
                reached["not_finite"] += any(not_finite) and ported[-1].startswith("FitResult(")
        monkeypatch.setattr(_trf, "least_squares", _scipy_least_squares)
        reference = [_fit_outcome(*case) for case in corpus]

    mismatches = [(i, a, b) for i, (a, b) in enumerate(zip(ported, reference)) if a != b]
    assert not mismatches, mismatches[:3]
    reached["budget_spent"] = sum("converged=False" in outcome for outcome in ported)
    assert sum(outcome.startswith("FitResult(") for outcome in ported) >= 300
    assert all(reached.values()), reached
