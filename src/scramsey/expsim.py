"""Shot-by-shot experiment simulation and fringe fitting.

Bridges the noiseless engine and what a real run produces: a fresh shot
phase per measurement, optional phase jitter before the read pulse,
contrast decay with hold time, and finite-ensemble projection noise.
All randomness flows from one seed through per-trial child streams, so
every result is reproducible bit for bit.

Draw order within a shot is fixed: shot phase (only when the timeline
contains an S pulse and randomization is on), then phase jitter (only
when sigma > 0), then the projection sample (only with a finite atom
count).  Each trial stream draws all of shot j before anything of shot
j + 1.

:func:`run_trials` walks the interval grid once.  Per interval it builds
one timeline, draws every stream's shot phase and jitter, and evaluates
all trials in one engine call with a (trials,) axis of shot phases and
jitters; the streams are independent, so this keeps each stream's draw
order, and every sample, exactly as a shot-by-shot loop would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .analysis import _as_intervals, _freeze
from .bloch import _GROUND_XYZ, _checked_probability, _count, _precess, _wrap_centred
from .sequence import Frame, FrameSet, Pulse, Timeline, _walk, _walk_z, default_frames

#: Largest ensemble the binomial draw can count (it counts in int64).
_MAX_ATOMS = int(np.iinfo(np.int64).max)


def _atom_count(count) -> int:
    """``count`` as an int, checked to be a positive ensemble size the binomial draw accepts."""
    if int(count) != count or not 1 <= count <= _MAX_ATOMS:
        raise ValueError(f"atom_count must be an integer in [1, {_MAX_ATOMS}], got {count!r}")
    return int(count)


@dataclass(frozen=True)
class NoiseModel:
    """What is allowed to fluctuate, and the seed that drives it.

    atom_count None means an exact ensemble average (no projection
    noise); contrast_decay_tau is the 1/e time of the fringe envelope
    (inf disables decay); phase_jitter_sigma is the standard deviation
    of an extra precession angle picked up just before the last event.
    """

    seed: int = 0
    atom_count: int | None = None
    contrast_decay_tau: float = np.inf
    phase_jitter_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        if self.atom_count is not None:
            object.__setattr__(self, "atom_count", _atom_count(self.atom_count))
        tau = float(self.contrast_decay_tau)
        if np.isnan(tau) or tau <= 0.0:
            raise ValueError(f"contrast_decay_tau must be positive (inf allowed), got {self.contrast_decay_tau!r}")
        object.__setattr__(self, "contrast_decay_tau", tau)
        sigma = float(self.phase_jitter_sigma)
        if not np.isfinite(sigma) or sigma < 0.0:
            raise ValueError(f"phase_jitter_sigma must be finite and >= 0, got {self.phase_jitter_sigma!r}")
        object.__setattr__(self, "phase_jitter_sigma", sigma)


def damp_contrast(p_e, hold_time, tau: float):
    """Pull excitation probabilities toward 1/2 by exp(-hold_time/tau).

    With tau = inf the input is returned unchanged (same object for
    arrays).
    """
    tau = float(tau)
    if np.isnan(tau) or tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    if np.isinf(tau):
        return p_e
    factor = np.exp(-np.asarray(hold_time, dtype=float) / tau)
    damped = 0.5 + (np.asarray(p_e, dtype=float) - 0.5) * factor
    if np.ndim(damped) == 0:
        return float(damped)
    return damped


def project_noise(p_e, atom_count: int, rng: np.random.Generator):
    """Replace probabilities by binomial excitation fractions of the ensemble."""
    atom_count = _atom_count(atom_count)
    p = np.asarray(p_e, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    fraction = _binomial_fraction(p, atom_count, rng)
    if np.ndim(p_e) == 0 and np.ndim(fraction) == 0:
        return float(fraction)
    return fraction


def _binomial_fraction(p, atom_count: int, rng: np.random.Generator):
    """Unchecked core of :func:`project_noise`."""
    return rng.binomial(atom_count, p) / float(atom_count)


@dataclass(frozen=True)
class TrialStats:
    """Per-trial readout samples over a common interval grid.

    samples has shape (trials, n_intervals).  std uses ddof=1 when at
    least two trials are present, otherwise it is identically zero.
    """

    intervals: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        intervals = _as_intervals(self.intervals)
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != intervals.shape[0]:
            raise ValueError(f"samples must have shape (trials, {intervals.shape[0]}), got {samples.shape}")
        if samples.shape[0] < 1:
            raise ValueError("need at least one trial")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "intervals", _freeze(intervals))
        object.__setattr__(self, "samples", _freeze(samples))

    @property
    def trials(self) -> int:
        return self.samples.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        if self.trials < 2:
            return np.zeros(self.samples.shape[1])
        return self.samples.std(axis=0, ddof=1)


def _has_s_pulse(timeline: Timeline) -> bool:
    """Whether ``timeline`` fires an S pulse; rejects array-valued events.

    An array event would broadcast against the trial axis and silently
    give each trial its own value.
    """
    has_s = False
    for ev in timeline.events:
        if isinstance(ev, Pulse):
            value, has_s = ev.area, has_s or ev.frame is Frame.S
        else:
            value = ev.duration
        if isinstance(value, np.ndarray):
            raise ValueError("builder must return a timeline of scalar events: one shot per interval")
    return has_s


def run_trials(
    builder: Callable[[float], Timeline],
    frames: FrameSet | None,
    noise: NoiseModel,
    trials: int,
    intervals,
    randomize_phi: bool = True,
) -> TrialStats:
    """Measure builder(T) over the interval grid, ``trials`` times.

    builder maps an interval to a Timeline of scalar events; it is
    called once per interval (not once per shot), and its timeline
    serves every trial, so it must not depend on how often it is
    called.  The pure builders of :mod:`scramsey.sequence` qualify.
    frames supplies detunings and the one baseline shot phase (None:
    reference frames); an array ``phi_s`` is rejected.  When
    randomize_phi is set, shots whose timeline contains an S pulse get
    a fresh uniform shot phase each time.  Each trial consumes an
    independent child stream of noise.seed, in the draw order the
    module docstring gives; all trials of one interval are evaluated
    in one engine call.
    """
    if isinstance(trials, bool) or int(trials) != trials or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if frames is None:
        frames = default_frames()
    if np.ndim(frames.phi_s):
        raise ValueError("run_trials needs one scalar shot phase; frames.phi_s is an array")
    intervals = _as_intervals(intervals)
    trials = int(trials)
    rngs = [np.random.default_rng(stream) for stream in np.random.SeedSequence(noise.seed).spawn(trials)]
    sigma, atoms = noise.phase_jitter_sigma, noise.atom_count
    samples = np.empty((trials, intervals.shape[0]))
    phis, jitters = np.empty(trials), np.empty(trials)
    for j, interval in enumerate(intervals):
        timeline = builder(float(interval))
        draw_phi = _has_s_pulse(timeline) and randomize_phi
        for i, rng in enumerate(rngs):
            if draw_phi:
                phis[i] = rng.uniform(0.0, 2.0 * np.pi)
            if sigma > 0.0:
                jitters[i] = rng.normal(0.0, sigma)
        shot_frames = replace(frames, phi_s=phis) if draw_phi else frames
        if sigma > 0.0 and len(timeline):
            # the jitter is an extra precession just before the last event
            head = Timeline(timeline.events[:-1])
            xyz = _precess(*_walk(head, shot_frames, _GROUND_XYZ), jitters)
            z = _walk_z(timeline.events[-1:], shot_frames, xyz, head.duration)
        else:
            z = _walk_z(timeline, shot_frames, _GROUND_XYZ)
        p = damp_contrast(_checked_probability(z), timeline.duration, noise.contrast_decay_tau)
        if atoms is not None:
            p = [_binomial_fraction(q, atoms, rng) for q, rng in zip(np.broadcast_to(p, trials), rngs)]
        samples[:, j] = p
    return TrialStats(intervals=intervals, samples=samples)


# ----------------------------------------------------------------- fitting


def damped_sinusoid(x, offset, amplitude, decay_time, angular_frequency, phase):
    """offset + amplitude * exp(-x/decay_time) * cos(angular_frequency*x + phase)"""
    x = np.asarray(x, dtype=float)
    envelope = np.exp(-x / decay_time) if np.isfinite(decay_time) else 1.0
    return offset + amplitude * envelope * np.cos(angular_frequency * x + phase)


@dataclass(frozen=True)
class FitResult:
    """Parameters of a damped-sinusoid fit and its diagnostics.

    degenerate_amplitude flags fits whose amplitude is not resolved
    above the residual noise (amplitude <= 3 * residual_rms); such a
    fringe should not be trusted, which is exactly the signature a
    scrambled record leaves in trial-averaged data.
    """

    offset: float
    amplitude: float
    decay_time: float
    angular_frequency: float
    phase: float
    residual_rms: float
    converged: bool
    degenerate_amplitude: bool

    def evaluate(self, x):
        return damped_sinusoid(x, self.offset, self.amplitude, self.decay_time, self.angular_frequency, self.phase)


def _validate_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.shape[0] < 6:
        raise ValueError(f"need at least 6 samples to fit 5 parameters, got {x.shape[0]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("x and y must be finite")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("x must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        x_span, y_spread, y_mean = x[-1] - x[0], np.ptp(y), y.mean()
    if not math.isfinite(x_span):
        raise ValueError("x spans more than the float range: its last minus its first value overflows")
    if not (math.isfinite(y_spread) and math.isfinite(y_mean)):
        raise ValueError("y spans more than the float range: its spread or its mean overflows")
    return x, y


@np.errstate(over="ignore", invalid="ignore")
def initial_guess(x, y) -> tuple[float, float, float, float, float]:
    """Spectral starting point for :func:`fit_damped_sinusoid`.

    Frequency from the tallest nonzero rfft bin with parabolic
    refinement, phase from that bin's angle, decay time from a linear
    fit to the log envelope of block maxima.  Returns (offset,
    amplitude, decay_time, angular_frequency, phase); raises
    ValueError when data near the float range give no finite one.
    """
    x, y = _validate_xy(x, y)
    offset = float(y.mean())
    detrended = y - offset
    amplitude = float(np.ptp(y)) / 2.0
    span = float(x[-1] - x[0])

    spectrum = np.fft.rfft(detrended)
    magnitude = np.abs(spectrum)
    k = int(np.argmax(magnitude[1:])) + 1 if magnitude.shape[0] > 1 else 0
    refined = float(k)
    if 1 <= k < magnitude.shape[0] - 1:
        alpha, beta, gamma = magnitude[k - 1], magnitude[k], magnitude[k + 1]
        denom = alpha - 2.0 * beta + gamma
        if denom != 0.0:
            refined = k + 0.5 * float((alpha - gamma) / denom)
    step = span / (x.shape[0] - 1)
    omega = 2.0 * np.pi * refined / (x.shape[0] * step)
    phase = _wrap_centred(float(np.angle(spectrum[k])) - omega * float(x[0])) if k > 0 else 0.0

    blocks = min(8, max(2, x.shape[0] // 8))
    edges = np.array_split(np.arange(x.shape[0]), blocks)
    envelope = np.array([np.abs(detrended[idx]).max() for idx in edges])
    centers = np.array([x[idx].mean() for idx in edges])
    keep = envelope > 1e-15 * max(1.0, np.abs(y).max())
    decay_time = 10.0 * span
    if keep.sum() >= 2:
        slope = float(np.polyfit(centers[keep], np.log(envelope[keep]), 1)[0])
        if slope < 0.0:
            decay_time = min(-1.0 / slope, 1e3 * span)
    guess = (offset, amplitude, decay_time, max(omega, 0.0), phase)
    if not all(map(math.isfinite, guess)):
        raise ValueError(f"x and y give no finite starting point for the fit: {guess}")
    return guess


def fit_damped_sinusoid(x, y, guess: Sequence[float] | None = None, max_iterations: int | None = None) -> FitResult:
    """Least-squares fit of a decaying cosine to (x, y).

    The solver is the trust-region reflective method of Branch, Coleman
    and Li (1999), ported from scipy's ``least_squares(method="trf")``
    and giving its results bit for bit, with amplitude, decay time and
    angular frequency bounded below.  ``max_iterations`` caps the
    residual evaluations, not counting the finite-difference Jacobian.
    Non-convergence is reported through ``converged``, never raised.
    Constant data short-circuits to a zero-amplitude degenerate result.
    """
    # imported on first use, so that only a fit loads (and, without a bytecode cache, compiles) the solver
    from ._trf import least_squares

    x, y = _validate_xy(x, y)
    scale = max(1.0, float(np.abs(y).max()))
    if np.ptp(y) <= 1e-12 * scale:
        mean = float(y.mean())
        rms = float(np.sqrt(np.mean((y - mean) ** 2)))
        return FitResult(mean, 0.0, np.inf, 0.0, 0.0, rms, True, True)

    if guess is None:
        guess = initial_guess(x, y)
    elif len(guess) != 5:
        raise ValueError("guess must hold (offset, amplitude, decay_time, angular_frequency, phase)")
    offset, amplitude, decay_time, omega, phase = (float(g) for g in guess)

    def residual(params):
        return damped_sinusoid(x, *params) - y

    span = float(x[-1] - x[0])
    lower = [-np.inf, 0.0, span * 1e-9, 0.0, -np.inf]
    start = [
        offset,
        max(amplitude, 1e-12 * scale),
        float(np.clip(decay_time, span * 1e-6, 1e6 * span)),
        max(omega, 0.0),
        phase,
    ]
    params, fun, status = least_squares(
        residual, start, lower, ftol=1e-14, xtol=1e-14, gtol=1e-14, max_nfev=max_iterations
    )
    offset, amplitude, decay_time, omega, phase = (float(v) for v in params)
    rms = float(np.sqrt(np.mean(fun**2)))
    return FitResult(
        offset=offset,
        amplitude=amplitude,
        decay_time=decay_time,
        angular_frequency=omega,
        phase=_wrap_centred(phase),
        residual_rms=rms,
        converged=status > 0,
        degenerate_amplitude=bool(amplitude <= 3.0 * rms),
    )
