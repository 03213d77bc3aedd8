"""Secure yes/no recording on top of scramble/retrieve timing conditions.

A choice is written as a pulse area (yes: pi/2, no: 3*pi/2), hidden by a
pi scramble pulse, recovered by a retrieve pulse fired when the S frame
has advanced an odd multiple of pi, and read when the total W-frame phase
is a whole number of turns.  The readout then returns P_e = 1 for yes and
P_e = 0 for no, independent of the unknown shot phase phi_s; before the
retrieve pulse, the stored state is statistically identical for the two
choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import DEFAULT_PHI_SAMPLES, phi_grid
from .bloch import _GROUND_XYZ, TWO_PI, _checked_probability, _count, _float, _real, _reals, _shown, _wrap_centred, wrap_angle
from .errors import (
    IndeterminateReadoutError,
    InfeasibleTimingError,
    ProtocolMisconfigurationError,
)
from .sequence import FrameSet, Pulse, Timeline, Wait, _advance, _ShotFrames, _walk_z, default_frames

#: Relative tolerance for all phase-condition checks.
TIMING_RTOL = 1e-9

#: Fewest shot phases :func:`secrecy_check` samples.
SECRECY_MIN_PHI_SAMPLES = 16


def _secrecy_phi_samples(phi_samples) -> int:
    """``phi_samples`` as an int, checked to make a phi grid :func:`secrecy_check` can read.

    The yes and no readouts differ by a shot-phase shift of pi/2, so
    their sample sets agree only on a grid closed under that shift: a
    multiple of 4 phases, and at least ``SECRECY_MIN_PHI_SAMPLES``.
    """
    n = _count("phi_samples", phi_samples, SECRECY_MIN_PHI_SAMPLES)
    if n % 4:
        raise ValueError(f"phi_samples must be a multiple of 4, got {n}: only such a phi grid is closed under a pi/2 shift")
    return n


class Choice:
    """The two storable answers."""

    YES = "yes"
    NO = "no"
    ALL = (YES, NO)


def _phase_tol(phase: float) -> float:
    return TIMING_RTOL * max(1.0, abs(phase))


def _off_target(phase: float, target: float) -> bool:
    """Whether ``phase`` misses ``target`` modulo 2*pi by more than its tolerance; a non-finite phase always misses."""
    return not abs(_wrap_centred(phase - target)) <= _phase_tol(phase)


def _half_turns_delay(delta_name: str, delta: float, count_name: str, count: int) -> float:
    """Delay t with delta * t = (2 * count + 1) * pi; errors name the caller's arguments."""
    return (2 * _count(count_name, count, 0) + 1) * np.pi / _real(delta_name, delta, 0.0, strict=True)


def retrieve_delay(delta_s: float, m: int = 0) -> float:
    """Store time t2 with delta_s * t2 = (2m + 1) * pi.

    Firing the retrieve pulse after an odd number of half turns of the S
    frame undoes the scramble pulse exactly, for any pulse area and any
    shot phase.
    """
    return _half_turns_delay("delta_s", delta_s, "m", m)


def faithful_read_delay(delta_w: float, n: int = 0) -> float:
    """Read interval T with delta_w * T = (2n + 1) * pi.

    A normal write/read pair separated by this interval returns a ground
    state to the ground state (P_e = 0), the faithful-recording check.
    """
    return _half_turns_delay("delta_w", delta_w, "n", n)


def smallest_secure_k(frames: FrameSet, t1: float, t2: float) -> int:
    """Smallest k >= 0 with 2*pi*k >= delta_w * (t1 + t2) (to tolerance).

    Raises ValueError unless t1 and t2 are finite and >= 0, delta_w is
    finite and positive and their phase does not overflow.
    """
    t1, t2 = _real("t1", t1, 0.0), _real("t2", t2, 0.0)
    phase = _real("delta_w", frames.delta_w, 0.0, strict=True) * (t1 + t2)
    if not math.isfinite(phase):
        raise ValueError(f"delta_w * (t1 + t2) = {phase!r} rad overflows")
    return max(0, math.ceil((phase - _phase_tol(phase)) / TWO_PI))


def secure_read_delay(frames: FrameSet, t1: float, t2: float, k: int | None = None) -> float:
    """Read delay t3 >= 0 with delta_w * (t1 + t2 + t3) = 2*pi*k.

    With the total W phase a whole number of turns, the read pulse sees
    the recorded state at its original azimuth and the readout becomes
    deterministic.  ``k=None`` picks the smallest feasible turn count
    (see :func:`smallest_secure_k`); an explicit k whose phase budget is
    already exceeded raises :class:`InfeasibleTimingError`.  The inputs
    are checked as :func:`smallest_secure_k` checks them.
    """
    smallest = smallest_secure_k(frames, t1, t2)
    phase = frames.delta_w * (float(t1) + float(t2))
    k = smallest if k is None else _count("k", k, 0)
    t3 = (TWO_PI * k - phase) / frames.delta_w
    if t3 < 0.0:
        if TWO_PI * k >= phase - _phase_tol(phase):
            return 0.0  # rounding residue only
        raise InfeasibleTimingError(
            f"2*pi*k = {TWO_PI * k!r} rad falls short of the {phase!r} rad already accumulated over t1 + t2"
        )
    return t3


#: The three delays of a secure-choice timeline: the hold, the store and the read delay.
_DURATIONS = ("t1", "t2", "t3")


@dataclass
class ProtocolConfig:
    """Frames, timings and pulse areas of one secure-choice run; the write area encodes the choice."""

    frames: FrameSet
    t1: float
    t2: float
    t3: float
    scramble_area: float = np.pi
    read_area: float = np.pi / 2

    def __post_init__(self):
        for name in _DURATIONS:
            setattr(self, name, _real(name, getattr(self, name), 0.0))
        for name in ("scramble_area", "read_area"):
            setattr(self, name, _real(name, getattr(self, name)))


def default_config(t1: float = 5e-3, m: int = 0, k: int | None = None) -> ProtocolConfig:
    """Reference protocol: store per ``m``, read at the ``k``-th full turn."""
    frames = default_frames()
    t2 = retrieve_delay(frames.delta_s, m)
    t3 = secure_read_delay(frames, t1, t2, k)
    return ProtocolConfig(frames=frames, t1=t1, t2=t2, t3=t3)


def encode_choice(choice: str) -> float:
    """Write-pulse area for a choice: yes -> pi/2, no -> 3*pi/2."""
    if choice == Choice.YES:
        return np.pi / 2
    if choice == Choice.NO:
        return 3 * np.pi / 2
    raise ValueError(f"choice must be one of {Choice.ALL}, got {choice!r}")


def store_phase_problem(delta_s: float, t2: float) -> str | None:
    """Why a store time ``t2`` will not descramble, or None when delta_s * t2 is an odd multiple of pi."""
    store_phase = delta_s * t2
    if _off_target(store_phase, np.pi):
        return f"delta_s * t2 = {store_phase!r} rad is not an odd multiple of pi; the retrieve pulse will not descramble"
    return None


def validate_secure_config(config: ProtocolConfig) -> None:
    """Check the delays, then the three phase conditions the deterministic readout needs.

    Raises :class:`ProtocolMisconfigurationError` naming the violated
    condition: first a delay that is not finite and >= 0 (a config
    changed after it was made can hold one whose phases still line up),
    then a phase off its target by more than TIMING_RTOL relative to it.
    """
    for name in _DURATIONS:
        try:
            _real(name, getattr(config, name), 0.0)
        except ValueError as err:
            raise ProtocolMisconfigurationError(str(err)) from None
    if problem := store_phase_problem(config.frames.delta_s, config.t2):
        raise ProtocolMisconfigurationError(problem)
    total_phase = config.frames.delta_w * (config.t1 + config.t2 + config.t3)
    if _off_target(total_phase, 0.0):
        raise ProtocolMisconfigurationError(
            f"delta_w * (t1 + t2 + t3) = {total_phase!r} rad is not a multiple of 2*pi; the readout is not deterministic"
        )
    if _off_target(config.scramble_area, np.pi):
        raise ProtocolMisconfigurationError(
            f"scramble area {config.scramble_area!r} rad is not pi (mod 2*pi); stored choices would be distinguishable"
        )
    if _off_target(config.read_area, np.pi / 2):
        raise ProtocolMisconfigurationError(
            f"read area {config.read_area!r} rad is not pi/2 (mod 2*pi)"
        )


def secure_choice_timeline(choice: str, config: ProtocolConfig) -> Timeline:
    """Write/scramble/retrieve/read timeline for one choice.

    The scramble and the retrieve pulse are one event, as in
    :func:`sequence.retrieved_ramsey`: ``t.events[2] is t.events[4]``.
    """
    s = Pulse.sri(config.scramble_area)
    return Timeline(
        (Pulse.wri(encode_choice(choice)), Wait(config.t1), s, Wait(config.t2), s, Wait(config.t3), Pulse.wri(config.read_area))
    )


#: Per choice, the state and time after the write pulse and the t1 hold, and the five events left, for the
#: values of configs that passed :func:`validate_secure_config`; emptied when it reaches 64 entries.
_VALID_CONFIGS: dict = {}


def run_secure_choice(choice: str, phi_s: float, config: ProtocolConfig) -> float:
    """Excitation probability read out for ``choice`` at shot phase phi_s.

    With a valid config this is 1.0 for yes and 0.0 for no, independent
    of phi_s.  An array of phases gives an array of readouts.  The first
    read of a distinct set of config values checks it with
    :func:`validate_secure_config` and prepares both choices: the write
    pulse and the t1 hold depend on neither the shot phase nor the S
    frame, so they are walked once per choice.  The key is the values,
    not the mutable config, so a changed config is checked again; a
    failed check is not remembered, so a bad config raises on every
    read.  Each read walks the last five events from the prepared state,
    so it gives the bits of a walk of the whole timeline.  Its frames are
    a private, unchecked FrameSet of its own: the config's two detunings,
    checked when the config's frames were made or set, and ``phi_s`` put
    through the rule a FrameSet applies to it (finite, then wrapped into
    [0, 2*pi)), so a bad phase raises that rule's ValueError.  Nothing of
    a read's frames is kept in the cache.
    """
    frames = config.frames
    key = (frames.delta_w, frames.delta_s, config.t1, config.t2, config.t3, config.scramble_area, config.read_area)
    prepared = _VALID_CONFIGS.get(key)
    if prepared is None:
        validate_secure_config(config)
        prepared = {}
        for known in Choice.ALL:
            events = secure_choice_timeline(known, config).events
            prepared[known] = (*_advance(events[:2], frames, _GROUND_XYZ, 0.0), events[2:])
        if len(_VALID_CONFIGS) >= 64:
            _VALID_CONFIGS.clear()
        _VALID_CONFIGS[key] = prepared
    # the detunings were checked when the config's frames were made or set: only the read's phase takes the rule
    frames = _ShotFrames(frames.delta_w, frames.delta_s, wrap_angle(_reals("phi_s", phi_s)))
    if choice not in prepared:
        encode_choice(choice)  # raises its ValueError
    xyz, time, tail = prepared[choice]
    return _checked_probability(_walk_z(tail, frames, xyz, time))


def decode_choice(p_e: float, threshold: float = 0.5) -> str:
    """Map a readout probability back to a choice.

    Values above the threshold decode to yes, below to no; a value
    exactly on the threshold raises IndeterminateReadoutError rather
    than guessing.
    """
    p, t = _float(p_e), _float(threshold)  # NaN, which fails both rules, for an integer beyond the float range
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p_e must lie in [0, 1], got {_shown(p_e)}")
    if not 0.0 < t < 1.0:
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {_shown(threshold)}")
    if p > t:
        return Choice.YES
    if p < t:
        return Choice.NO
    raise IndeterminateReadoutError(f"readout {p!r} sits exactly on the threshold {t!r}")


def secrecy_check(config: ProtocolConfig, phi_samples: int = DEFAULT_PHI_SAMPLES) -> float:
    """Largest gap between the sorted yes and no readout samples.

    Both choices are written, held for t1 and scrambled; an adversary
    then reads immediately with a W pulse of ``config.read_area``.  The
    sorted P_e samples over the phi_s grid are compared elementwise; a
    pi scramble pulse makes the two sample sets identical on the
    shift-closed uniform grid, so the gap vanishes (up to rounding).
    Detuned scramble areas generally leave a detectable gap.  The grid
    needs at least ``SECRECY_MIN_PHI_SAMPLES`` phases and a multiple of
    4 of them: the yes and no readouts differ by a pi/2 shift of the
    shot phase, and on any other grid even a pi scramble shows a gap
    (0.17 at 18 phases).  Other counts raise ValueError.
    """
    frames = replace(config.frames, phi_s=phi_grid(_secrecy_phi_samples(phi_samples)))
    writes = np.array([[encode_choice(Choice.YES)], [encode_choice(Choice.NO)]])  # one row per choice
    timeline = Timeline((Pulse.wri(writes), Wait(config.t1), Pulse.sri(config.scramble_area), Pulse.wri(config.read_area)))
    yes, no = np.sort(_checked_probability(_walk_z(timeline, frames, _GROUND_XYZ)), axis=-1)
    return float(np.abs(yes - no).max())
