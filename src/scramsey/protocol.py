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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import DEFAULT_PHI_SAMPLES, phi_grid
from .bloch import _GROUND_XYZ, TWO_PI, _checked_probability, _count, _wrap_centred
from .errors import (
    IndeterminateReadoutError,
    InfeasibleTimingError,
    ProtocolMisconfigurationError,
)
from .sequence import FrameSet, Pulse, Timeline, Wait, _walk_z, default_frames

#: Relative tolerance for all phase-condition checks.
TIMING_RTOL = 1e-9

#: Fewest shot phases :func:`secrecy_check` samples.
SECRECY_MIN_PHI_SAMPLES = 16


class Choice:
    """The two storable answers."""

    YES = "yes"
    NO = "no"
    ALL = (YES, NO)


def _phase_gap(phase: float, target: float) -> float:
    """Distance from ``phase`` to ``target`` modulo 2*pi."""
    return abs(_wrap_centred(phase - target))


def _phase_tol(phase: float) -> float:
    return TIMING_RTOL * max(1.0, abs(phase))


def _half_turns_delay(delta_name: str, delta: float, count_name: str, count: int) -> float:
    """Delay t with delta * t = (2 * count + 1) * pi; errors name the caller's arguments."""
    delta = float(delta)
    if not np.isfinite(delta) or delta <= 0.0:
        raise ValueError(f"{delta_name} must be finite and positive, got {delta!r}")
    return (2 * _count(count_name, count, 0) + 1) * np.pi / delta


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
    """Smallest k >= 0 with 2*pi*k >= delta_w * (t1 + t2) (to tolerance)."""
    phase = frames.delta_w * (float(t1) + float(t2))
    if not np.isfinite(phase) or frames.delta_w <= 0.0:
        raise ValueError("delta_w must be positive and timings finite")
    return max(0, math.ceil((phase - _phase_tol(phase)) / TWO_PI))


def secure_read_delay(frames: FrameSet, t1: float, t2: float, k: int | None = None) -> float:
    """Read delay t3 >= 0 with delta_w * (t1 + t2 + t3) = 2*pi*k.

    With the total W phase a whole number of turns, the read pulse sees
    the recorded state at its original azimuth and the readout becomes
    deterministic.  ``k=None`` picks the smallest feasible turn count
    (see :func:`smallest_secure_k`); an explicit k whose phase budget is
    already exceeded raises :class:`InfeasibleTimingError`.
    """
    t1, t2 = float(t1), float(t2)
    if t1 < 0.0 or t2 < 0.0 or not np.isfinite(t1 + t2):
        raise ValueError("t1 and t2 must be finite and >= 0")
    phase = frames.delta_w * (t1 + t2)
    if frames.delta_w <= 0.0:
        raise ValueError(f"delta_w must be positive, got {frames.delta_w!r}")
    k = smallest_secure_k(frames, t1, t2) if k is None else _count("k", k, 0)
    t3 = (TWO_PI * k - phase) / frames.delta_w
    if t3 < 0.0:
        if TWO_PI * k >= phase - _phase_tol(phase):
            return 0.0  # rounding residue only
        raise InfeasibleTimingError(
            f"2*pi*k = {TWO_PI * k!r} rad falls short of the {phase!r} rad already accumulated over t1 + t2"
        )
    return t3


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
        for name in ("t1", "t2", "t3"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
            setattr(self, name, value)
        for name in ("scramble_area", "read_area"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            setattr(self, name, value)


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
    if _phase_gap(store_phase, np.pi) > _phase_tol(store_phase):
        return f"delta_s * t2 = {store_phase!r} rad is not an odd multiple of pi; the retrieve pulse will not descramble"
    return None


def validate_secure_config(config: ProtocolConfig) -> None:
    """Check the three phase conditions the deterministic readout needs.

    Raises :class:`ProtocolMisconfigurationError` naming the violated
    condition; tolerances are TIMING_RTOL relative to the checked phase.
    """
    if problem := store_phase_problem(config.frames.delta_s, config.t2):
        raise ProtocolMisconfigurationError(problem)
    total_phase = config.frames.delta_w * (config.t1 + config.t2 + config.t3)
    if _phase_gap(total_phase, 0.0) > _phase_tol(total_phase):
        raise ProtocolMisconfigurationError(
            f"delta_w * (t1 + t2 + t3) = {total_phase!r} rad is not a multiple of 2*pi; the readout is not deterministic"
        )
    if _phase_gap(config.scramble_area, np.pi) > _phase_tol(config.scramble_area):
        raise ProtocolMisconfigurationError(
            f"scramble area {config.scramble_area!r} rad is not pi (mod 2*pi); stored choices would be distinguishable"
        )
    if _phase_gap(config.read_area, np.pi / 2) > _phase_tol(config.read_area):
        raise ProtocolMisconfigurationError(
            f"read area {config.read_area!r} rad is not pi/2 (mod 2*pi)"
        )


def secure_choice_timeline(choice: str, config: ProtocolConfig) -> Timeline:
    """Write/scramble/retrieve/read timeline for one choice."""
    return _secure_choice_timeline(choice, config.t1, config.t2, config.t3, config.scramble_area, config.read_area)


@functools.lru_cache(maxsize=64)
def _secure_choice_timeline(choice: str, t1: float, t2: float, t3: float, scramble_area: float, read_area: float):
    """The timeline of :func:`secure_choice_timeline`, built once per distinct set of values while cached.

    The key is the values, not the mutable config, so a changed config
    gets its own timeline; a Timeline is immutable, so sharing it is safe.
    """
    return Timeline(
        (
            Pulse.wri(encode_choice(choice)),
            Wait(t1),
            Pulse.sri(scramble_area),
            Wait(t2),
            Pulse.sri(scramble_area),
            Wait(t3),
            Pulse.wri(read_area),
        )
    )


def run_secure_choice(choice: str, phi_s: float, config: ProtocolConfig) -> float:
    """Excitation probability read out for ``choice`` at shot phase phi_s.

    With a valid config this is 1.0 for yes and 0.0 for no, independent
    of phi_s.  An array of phases gives an array of readouts.
    """
    validate_secure_config(config)
    frames = FrameSet(config.frames.delta_w, config.frames.delta_s, phi_s)
    return _checked_probability(_walk_z(secure_choice_timeline(choice, config), frames, _GROUND_XYZ))


def decode_choice(p_e: float, threshold: float = 0.5) -> str:
    """Map a readout probability back to a choice.

    Values above the threshold decode to yes, below to no; a value
    exactly on the threshold raises IndeterminateReadoutError rather
    than guessing.
    """
    p_e = float(p_e)
    if not np.isfinite(p_e) or p_e < 0.0 or p_e > 1.0:
        raise ValueError(f"p_e must lie in [0, 1], got {p_e!r}")
    threshold = float(threshold)
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {threshold!r}")
    if p_e > threshold:
        return Choice.YES
    if p_e < threshold:
        return Choice.NO
    raise IndeterminateReadoutError(f"readout {p_e!r} sits exactly on the threshold {threshold!r}")


def secrecy_check(config: ProtocolConfig, phi_samples: int = DEFAULT_PHI_SAMPLES) -> float:
    """Largest gap between the sorted yes and no readout samples.

    Both choices are written, held for t1 and scrambled; an adversary
    then reads immediately with a W pulse of ``config.read_area``.  The
    sorted P_e samples over the phi_s grid are compared elementwise; a
    pi scramble pulse makes the two sample sets identical on the
    shift-closed uniform grid, so the gap vanishes (up to rounding).
    Detuned scramble areas generally leave a detectable gap.  The grid
    needs at least ``SECRECY_MIN_PHI_SAMPLES`` phases.
    """
    frames = replace(config.frames, phi_s=phi_grid(_count("phi_samples", phi_samples, SECRECY_MIN_PHI_SAMPLES)))
    writes = np.array([[encode_choice(Choice.YES)], [encode_choice(Choice.NO)]])  # one row per choice
    timeline = Timeline((Pulse.wri(writes), Wait(config.t1), Pulse.sri(config.scramble_area), Pulse.wri(config.read_area)))
    yes, no = np.sort(_checked_probability(_walk_z(timeline, frames, _GROUND_XYZ)), axis=-1)
    return float(np.abs(yes - no).max())
