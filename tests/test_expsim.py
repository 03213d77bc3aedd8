"""Noise channels, trial ensembles, damped-sinusoid fitting."""

import numpy as np
import pytest

from scramsey.analysis import normal_flop
from scramsey.bloch import excitation_probability, precess
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


def test_run_trials_jitter_overflow_is_an_invalid_timeline():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidTimelineError, match="overflowed"):
            run_trials(ramsey, None, NoiseModel(phase_jitter_sigma=1e308), 2, T17)


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
}
REFERENCE_NOISE = {
    "none": {},
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


def test_run_trials_calls_the_builder_once_per_interval():
    calls = []
    builder = lambda T: calls.append(T) or scrambled_ramsey(np.pi, T1_REF, T)
    run_trials(builder, None, NoiseModel(seed=1, atom_count=10, phase_jitter_sigma=0.1), 7, T17)
    assert calls == [float(T) for T in T17]


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


def test_initial_guess_lands_near_truth():
    x, y, params = _synthetic()
    offset, amplitude, decay_time, omega, phase = initial_guess(x, y)
    assert omega == pytest.approx(params["angular_frequency"], rel=0.05)
    assert offset == pytest.approx(params["offset"], abs=0.05)
    assert 0.2 < amplitude < 0.7
    assert 0.01 < decay_time < 0.5


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


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_damped_sinusoid([0.0, 1.0], [0.0, 1.0])
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        fit_damped_sinusoid(x[::-1], np.zeros(10))
    with pytest.raises(ValueError):
        fit_damped_sinusoid(x, np.full(10, np.nan))
