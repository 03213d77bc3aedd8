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
j + 1.  The shot phase is ``0.0 + TWO_PI * rng.random()`` and the
jitter ``0.0 + sigma * rng.standard_normal()``: numpy's own formulas
for ``rng.uniform(0.0, TWO_PI)`` and ``rng.normal(0.0, sigma)``, so the
draws, their bits and each stream's consumption are theirs, without
the cost of their argument handling.  The projection sample is
``rng.binomial(atom_count, p)``; each stream writes its counts into the
result, which is divided by ``atom_count`` once, after the last walk.

:func:`run_trials` reads the interval grid in runs of consecutive
intervals whose timelines have the same event kinds.  A walk evaluates
every trial at once, on a (trials,) axis of shot phases and jitters
(the phases set on one private copy of the frames, unchecked, as every
draw lies in [0, 2*pi) already): the events before the last, the
jitter's precession, then the last event.  A run whose shots draw a
binomial after a shot phase or a jitter is read interval by interval,
since each stream's next draw waits for the result, and stream by
stream (:func:`_shot_counts`): a plan made once per interval (the events
before the first S pulse whose axis takes the drawn phase walked as
Python floats, the cosines and sines of the rest, the damping factor),
then each stream's draws, its walk of the rest on Python floats by the
kernels' formulas written out term for term, and its binomial.  Its
cosines and sines are :mod:`math`'s, which give numpy's bits (see
:mod:`scramsey.bloch`); the damping factor stays numpy's ``exp``.  A
jitter is drawn even for an empty timeline, which has no event to
precess.  Any other run is read as one float row per interval (event
values, then duration), never as timelines, at most ``_BLOCK_STATES //
trials`` rows (at least one) a walk, this module's own cap of 2**14
states, not the grid scans' block, which bounds the rows a run holds and
the walk's temporaries: each stream draws the rows' values in order (one
call for one kind of draw, else one (trials, k) array per kind, a column
per shot, each stream's shot phase before its jitter), the walk covers a
(trials, k) grid, each event a (k,) column unless all rows share its
bits, and each stream draws its k binomials in one call.  The streams
are independent, so every sample is exactly what a shot-by-shot loop
gives.  The walks' events and the result skip their constructors'
checks (:func:`bloch._record`), done on the way in.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import _as_intervals
from .bloch import _GROUND_XYZ, TWO_PI, _checked_probability, _cos_sin, _count, _float, _precess, _real, _reals, _record, _shown, _wrap_centred
from .sequence import Frame, FrameSet, Pulse, Timeline, Wait, _advance, _check_finite, _pulse_axis, _ShotFrames, _walk_z, default_frames

#: Most (trial, interval) states one :func:`run_trials` walk of float rows covers.
_BLOCK_STATES = 2**14

#: Largest ensemble the binomial draw can count (it counts in int64).
_MAX_ATOMS = int(np.iinfo(np.int64).max)


def _decay_time(name: str, value) -> float:
    """``value`` as a float, checked to be a positive 1/e decay time; inf is allowed and means no decay."""
    tau = _float(value)
    if not tau > 0.0:  # NaN fails the comparison too
        raise ValueError(f"{name} must be positive (inf allowed), got {_shown(value)}")
    return tau


def _in_range(name: str, value, highest: float) -> np.ndarray:
    """``value`` as a float array checked to lie in [0, ``highest``]; NaN fails, as does an integer past the float range."""
    v = np.asarray(_float(value) if isinstance(value, int) else value, dtype=float)
    if not ((v >= 0.0) & (v <= highest)).all():
        rule = "be >= 0 (inf allowed)" if highest == math.inf else f"lie in [0, {highest:g}]"
        raise ValueError(f"{name} must {rule}, got {_shown(value)}")
    return v


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
            object.__setattr__(self, "atom_count", _count("atom_count", self.atom_count, 1, _MAX_ATOMS))
        object.__setattr__(self, "contrast_decay_tau", _decay_time("contrast_decay_tau", self.contrast_decay_tau))
        object.__setattr__(self, "phase_jitter_sigma", _real("phase_jitter_sigma", self.phase_jitter_sigma, 0.0))


def damp_contrast(p_e, hold_time, tau: float):
    """Pull excitation probabilities toward 1/2 by exp(-hold_time/tau).

    With tau = inf the input is returned unchanged (same object for
    arrays).  ``p_e`` must lie in [0, 1] and ``hold_time`` be >= 0 (inf
    allowed: the result is 1/2).
    """
    tau = _decay_time("tau", tau)
    _in_range("hold_time", hold_time, math.inf)
    _in_range("p_e", p_e, 1.0)
    return _damp_contrast(p_e, hold_time, tau)


def _decay_factor(hold_time, tau: float):
    """exp(-hold_time / tau) as numpy takes it: its SIMD exp need not give math.exp's bits."""
    return np.exp(-np.asarray(hold_time, dtype=float) / tau)


def _damp_contrast(p_e, hold_time, tau: float):
    """Unchecked core of :func:`damp_contrast`: ``tau`` a positive float, ``hold_time`` >= 0."""
    if tau == math.inf:  # no numpy call for the float the checks made
        return p_e
    damped = 0.5 + (np.asarray(p_e, dtype=float) - 0.5) * _decay_factor(hold_time, tau)
    if np.ndim(damped) == 0:
        return float(damped)
    return damped


def project_noise(p_e, atom_count: int, rng: np.random.Generator):
    """Replace probabilities by binomial excitation fractions of the ensemble."""
    atom_count = _count("atom_count", atom_count, 1, _MAX_ATOMS)
    p = _in_range("p_e", p_e, 1.0)
    fraction = rng.binomial(atom_count, p) / float(atom_count)
    if np.ndim(p_e) == 0 and np.ndim(fraction) == 0:
        return float(fraction)
    return fraction


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
        _record(self, intervals=intervals, samples=_reals("samples", samples))

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


def _kinds(timeline: Timeline) -> tuple:
    """The frame of each pulse and ``Wait`` for each wait; rejects array-valued events.

    An array event would broadcast against the trial axis and silently
    give each trial its own value.
    """
    kinds = []
    for ev in timeline.events:
        if isinstance(ev, Pulse):
            value, kind = ev.area, ev.frame
        else:
            value, kind = ev.duration, Wait
        if isinstance(value, np.ndarray):
            raise ValueError("builder must return a timeline of scalar events: one shot per interval")
        kinds.append(kind)
    return tuple(kinds)


def _stacked(kinds, timelines, cap: int):
    """Like timelines, read ``cap`` at a time as ``(events, duration, k)`` for a walk of k intervals.

    A timeline is one float row: its event values, then ``Timeline.duration``
    (a sum of the wait columns need not have its bits).  An event column is
    a Python float when every row has its bits (-0.0 and 0.0 differ), else
    a read-only (k,) row of one transposed copy of the table, so the kernels
    read it in order; the durations are the last row.
    """
    width = len(kinds) + 1
    rows = itertools.chain.from_iterable(
        [*(e.duration if kind is Wait else e.area for e, kind in zip(t.events, kinds)), t.duration] for t in timelines
    )
    while (table := np.fromiter(itertools.islice(rows, cap * width), float)).size:
        *columns, duration = table.reshape(-1, width).T.copy()
        events = []
        for kind, column in zip(kinds, columns):
            bits = column.view(np.int64)
            value = float(column[0]) if (bits == bits[0]).all() else column
            events.append(_record(Wait, duration=value) if kind is Wait else _record(Pulse, frame=kind, area=value))
        yield tuple(events), duration, len(duration)


def _drawn_axis(drift: float, phi: float):
    """``(cos, sin)`` of the S pulse axis ``drift + phi``, wrapped by :func:`bloch.wrap_angle`'s float rule."""
    if (a := (drift + phi) % TWO_PI) >= TWO_PI:
        a = 0.0
    return math.cos(a), math.sin(a)


def _shot_counts(
    events, duration, frames: FrameSet, cut: int, draw_phi: bool, sigma: float, tau: float, atoms: int, rngs
) -> list:
    """Each stream's count for one interval whose shots draw a binomial after a shot phase or a jitter.

    The interval's plan is made once for every stream: the events before
    ``cut`` (the first S pulse when shot phases are drawn, else the last
    event) walked by :func:`_advance`; for each event from ``cut`` on, the
    ``(cos, sin)`` of its area or of its wait's phase, a pulse's ``1 -
    cos`` and its axis's ``(cos, sin)``, or, for an S pulse that takes the
    drawn phase, its drift ``(delta_w - delta_s) * t``; and the damping
    factor.  Each stream then draws its shot phase and its jitter, walks
    the rest on Python floats with :func:`bloch._rotate`'s and
    :func:`bloch._precess`' formulas written out term for term (the same
    operands in the same order, so each value has the bits an array walk
    gives that stream's column), checks the state as :func:`_walk_z` does,
    and draws its binomial.  A drawn axis is wrapped by
    :func:`bloch.wrap_angle`'s float rule; a NaN one stays NaN, which
    ``math.cos`` and ``math.sin`` return for it.
    """
    (x0, y0, z0), time = _advance(events[:cut], frames, _GROUND_XYZ, 0.0)
    # a wait as (cos, sin) of its phase; a pulse as (drift, ax, ay, cos, sin, 1 - cos), drift None for a fixed axis
    steps = []
    for event in events[cut:]:
        if event.__class__ is Wait:
            steps.append(_cos_sin(frames.delta_w * event.duration))
            time = time + event.duration
            continue
        ct, st = _cos_sin(event.area)
        if draw_phi and event.frame is Frame.S:
            steps.append(((frames.delta_w - frames.delta_s) * time, None, None, ct, st, 1.0 - ct))
        else:
            steps.append((None, *_cos_sin(_pulse_axis(event, time, frames)), ct, st, 1.0 - ct))
    *middle, last = steps or [None]
    factor = None if tau == math.inf else float(_decay_factor(duration, tau))
    counts = []
    for rng in rngs:
        # this stream's draws, in the module's order: the shot phase, then the jitter
        phi = 0.0 + TWO_PI * rng.random() if draw_phi else None
        jitter = 0.0 + sigma * rng.standard_normal() if sigma > 0.0 else None
        x, y, z = x0, y0, z0
        for step in middle:
            if len(step) == 2:
                cb, sb = step
                x, y = x * cb - y * sb, x * sb + y * cb
                continue
            drift, ax, ay, ct, st, rise = step
            if drift is not None:
                ax, ay = _drawn_axis(drift, phi)
            along = ax * x + ay * y
            x, y, z = (
                x * ct + ay * z * st + ax * along * rise,
                y * ct - ax * z * st + ay * along * rise,
                z * ct + (ax * y - ay * x) * st,
            )
        if last is not None:
            if jitter is not None:
                # the jitter is an extra precession just before the last event; _cos_sin guards an overflowed one
                cb, sb = _cos_sin(jitter)
                x, y = x * cb - y * sb, x * sb + y * cb
            if len(last) == 2:
                # a last wait leaves z as it is but may overflow x and y
                cb, sb = last
                _check_finite((x * cb - y * sb, x * sb + y * cb, z))
            else:
                # a last pulse: its z alone, which a non-finite x, y or axis reaches
                drift, ax, ay, ct, st, _ = last
                if drift is not None:
                    ax, ay = _drawn_axis(drift, phi)
                z = z * ct + (ax * y - ay * x) * st
                if not math.isfinite(z):
                    _check_finite((z,))
        p = _checked_probability(z)
        counts.append(rng.binomial(atoms, p if factor is None else 0.5 + (p - 0.5) * factor))
    return counts


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
    called once per interval (not once per shot), in the order of the
    grid, and its timeline serves every trial, so it must not depend on
    how often it is called.  The pure builders of
    :mod:`scramsey.sequence` qualify.  frames supplies detunings and the
    one baseline shot phase (None: reference frames); an array
    ``phi_s`` is rejected.  When randomize_phi is set, shots whose
    timeline contains an S pulse get a fresh uniform shot phase each
    time.  Each trial consumes an independent child stream of
    noise.seed, in the draw order the module docstring gives.

    Timelines are built as the walks read them, never held.  A builder
    error is raised when its interval is built, which can be before an
    engine error of an earlier interval of the same run or the run before.
    """
    trials = _count("trials", trials, 1)
    if frames is None:
        frames = default_frames()
    if np.ndim(frames.phi_s):
        raise ValueError("run_trials needs one scalar shot phase; frames.phi_s is an array")
    intervals = _as_intervals(intervals)
    rngs = [np.random.default_rng(stream) for stream in np.random.SeedSequence(noise.seed).spawn(trials)]
    sigma, atoms = noise.phase_jitter_sigma, noise.atom_count
    samples = np.empty((trials, intervals.shape[0]))
    # the shot phases go on a private, unchecked copy: every draw lies in [0, 2*pi) already
    j, tau, shot_frames = 0, noise.contrast_decay_tau, _ShotFrames(frames.delta_w, frames.delta_s, frames.phi_s)
    # a shot's draws in stream order, each as (scale, method): the shot phase, then the jitter
    jitter = [(sigma, np.random.Generator.standard_normal)] if sigma > 0.0 else []
    for kinds, timelines in itertools.groupby(map(builder, map(float, intervals)), _kinds):
        draw_phi = bool(randomize_phi) and Frame.S in kinds
        draws = [(TWO_PI, np.random.Generator.random), *jitter] if draw_phi else jitter
        if atoms is not None and draws:
            # a binomial after a shot phase or a jitter needs the walk's result before the stream's next draw
            cut = kinds.index(Frame.S) if draw_phi else max(len(kinds) - 1, 0)
            for t in timelines:
                samples[:, j] = _shot_counts(t.events, t.duration, frames, cut, draw_phi, sigma, tau, atoms, rngs)
                j += 1
            continue
        walk_frames = shot_frames if draw_phi else frames
        for events, duration, k in _stacked(kinds, timelines, max(1, _BLOCK_STATES // trials)):
            if k > 1 and len(draws) == 1:
                # one kind of draw for the whole walk: one call per stream
                [(scale, draw)] = draws
                drawn = [np.array([0.0 + scale * draw(rng, k) for rng in rngs])]
            elif draws:
                # shot by shot, each stream's shot phase before its jitter: the streams are independent
                drawn = [np.empty((trials, k)) for _ in draws]
                for m in range(k):
                    for kind, (scale, draw) in zip(drawn, draws):
                        kind[:, m] = [0.0 + scale * draw(rng) for rng in rngs]
            if draw_phi:
                shot_frames.phi_s = drawn[0]
            xyz, time = _advance(events[:-1], walk_frames, _GROUND_XYZ, 0.0)
            if jitter and events:
                # the jitter is an extra precession just before the last event
                xyz = _precess(*xyz, drawn[-1])
            z = _walk_z(events[-1:], walk_frames, xyz, time)
            p = _damp_contrast(_checked_probability(z), duration, tau)
            if atoms is None:
                samples[:, j : j + k] = p
            else:
                # no draw came before: every stream draws the walk's row in one call
                row = np.broadcast_to(p, k)
                samples[:, j : j + k] = [rng.binomial(atoms, row) for rng in rngs]
            j += k
    if atoms is not None:
        # every sample is a count: one division for the whole grid
        samples /= float(atoms)
    return _record(TrialStats, intervals=intervals, samples=samples)


# ----------------------------------------------------------------- fitting


def damped_sinusoid(x, offset, amplitude, decay_time, angular_frequency, phase):
    """offset + amplitude * exp(-x/decay_time) * cos(angular_frequency*x + phase)

    The parameters broadcast against ``x``, so (k, 1) columns give k
    curves at once.  An infinite decay time makes the envelope exactly
    1.0 at every finite ``x``; a NaN one gives NaN.
    """
    x = np.asarray(x, dtype=float)
    return offset + amplitude * np.exp(-x / decay_time) * np.cos(angular_frequency * x + phase)


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
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(np.diff(x) <= 0.0):  # a step that overflows is inf, still an increase
            raise ValueError("x must be strictly increasing")
        x_span, y_spread, y_mean = x[-1] - x[0], np.ptp(y), y.mean()
    if not math.isfinite(x_span):
        raise ValueError("x spans more than the float range: its last minus its first value overflows")
    if not (math.isfinite(y_spread) and math.isfinite(y_mean)):
        raise ValueError("y spans more than the float range: its spread or its mean overflows")
    return x, y


def initial_guess(x, y) -> tuple[float, float, float, float, float]:
    """Spectral starting point for :func:`fit_damped_sinusoid`.

    Frequency from the tallest nonzero rfft bin with parabolic
    refinement, phase from that bin's angle, decay time from a linear
    fit to the log envelope of block maxima.  Returns (offset,
    amplitude, decay_time, angular_frequency, phase); raises
    ValueError when data near the float range give no finite one.
    """
    return _initial_guess(*_validate_xy(x, y))


@np.errstate(over="ignore", invalid="ignore")
def _initial_guess(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float, float]:
    """:func:`initial_guess` of data :func:`_validate_xy` has checked."""
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
    # np.array_split's blocks as slices: the first `extra` hold one sample more
    size, extra = divmod(x.shape[0], blocks)
    edges = [i * size + min(i, extra) for i in range(blocks + 1)]
    cuts = [slice(start, stop) for start, stop in zip(edges, edges[1:])]
    envelope = np.array([np.abs(detrended[cut]).max() for cut in cuts])
    centers = np.array([x[cut].mean() for cut in cuts])
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
    residual evaluations, not counting the finite-difference Jacobian:
    None for scipy's default of 500, else an integer of at least 1 within
    the float range (not a bool), checked by the count rule before any
    residual is evaluated.
    Non-convergence is reported through ``converged``, never raised.
    Constant data short-circuits to a zero-amplitude degenerate result.
    """
    # imported on first use, so that only a fit loads (and, without a bytecode cache, compiles) the solver
    from ._trf import least_squares

    if max_iterations is not None:
        max_iterations = _count("max_iterations", max_iterations, 1, sys.float_info.max)
    x, y = _validate_xy(x, y)
    scale = max(1.0, float(np.abs(y).max()))
    if np.ptp(y) <= 1e-12 * scale:
        mean = float(y.mean())
        rms = float(np.sqrt(np.mean((y - mean) ** 2)))
        return FitResult(mean, 0.0, np.inf, 0.0, 0.0, rms, True, True)

    if guess is None:
        guess = _initial_guess(x, y)
    elif len(guess) != 5:
        raise ValueError("guess must hold (offset, amplitude, decay_time, angular_frequency, phase)")
    offset, amplitude, decay_time, omega, phase = (float(g) for g in guess)

    def residual(params):
        # a (k, 5) stack of parameter rows goes in as (k, 1) columns against x: one curve per row
        if params.ndim == 2:
            params = params.T[..., None]
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
