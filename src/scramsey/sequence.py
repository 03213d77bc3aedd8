"""Pulse timelines over one ensemble addressed by two rotating frames.

Two interferometers drive the same two-level ensemble: the write/read
frame (W) and the scramble/retrieve frame (S).  Simulation happens in the
W rotating frame:

* ``Wait(dt)`` precesses the state by ``delta_w * dt`` about +z;
* a W pulse of area theta rotates about the azimuth-0 equatorial axis;
* an S pulse of area theta fired at absolute time t rotates about the
  equatorial axis at azimuth ``eta(t) = (delta_w - delta_s) * t + phi_s``.

``phi_s`` is the relative phase of the two frames for one shot.  The
interferometers share no phase reference, so a fresh shot sees a fresh
uniformly random ``phi_s``; within a single timeline every S pulse reads
the same ``phi_s`` and only the deterministic drift
``(delta_w - delta_s) * t`` separates their axes.

Pulses are instantaneous: time advances through ``Wait`` events only.

Pulse areas, wait durations and ``phi_s`` may be arrays that broadcast
together: ``phi_s`` of shape (P, 1) against waits of shape (T,) gives a
(P, T) grid from one ``simulate`` call.  Inputs are checked once: events
and frames when built (a frames field also when set later), the start
state in ``simulate``.  One unchecked event loop (``_advance``) then
carries the state as a component triple ``(x, y, z)`` through the kernel
cores of :mod:`scramsey.bloch`.
``_walk`` checks that the final components are finite; ``simulate`` and
``apply_event`` stack its result into (..., 3) states.  ``_walk_z`` is
the P_e read of the trial and protocol layers: it rotates only ``z``
through a last pulse, checks that ``z`` is finite and never stacks.  The
grid scans of :mod:`scramsey.analysis` advance the events before a
fringe's last wait with ``_advance`` and read the wait and the W read
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bloch import GROUND, _as_state, _components, _freeze, _precess, _real, _reals, _rotate, _stack, validate_state, wrap_angle
from .errors import InvalidTimelineError

#: Reference detunings used throughout the examples and tests, rad/s.
DELTA_W_REF = 2.0 * np.pi * 100.0
DELTA_S_REF = 2.0 * np.pi * 100.0


class Frame(Enum):
    """Which interferometer drives a pulse."""

    W = "W"  # write/read
    S = "S"  # scramble/retrieve


def _event_value(name: str, value, lowest: float = -math.inf):
    """``value`` checked by :func:`_reals` (an array as a read-only float copy of its own); a bad one is an InvalidTimelineError."""
    try:
        v = _reals(name, value, lowest)
    except ValueError as err:
        raise InvalidTimelineError(str(err)) from None
    return _freeze(np.array(v)) if isinstance(v, np.ndarray) else v


def _value_key(value):
    """A hashable key by value, which events compare and hash by: an array by its shape and bits."""
    if isinstance(value, np.ndarray):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return value.shape, (value + 0.0).tobytes()
    return value


@dataclass(frozen=True)
class Pulse:
    """Instantaneous rotation by ``area`` radians (float or array), driven by ``frame``."""

    frame: Frame
    area: float

    def __post_init__(self):
        if not isinstance(self.frame, Frame):
            raise InvalidTimelineError(f"frame must be a Frame member, got {self.frame!r}")
        object.__setattr__(self, "area", _event_value("pulse area", self.area))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.frame is other.frame and _value_key(self.area) == _value_key(other.area)

    def __hash__(self):
        return hash((self.frame, _value_key(self.area)))

    @classmethod
    def wri(cls, area: float) -> "Pulse":
        return cls(Frame.W, area)

    @classmethod
    def sri(cls, area: float) -> "Pulse":
        return cls(Frame.S, area)


@dataclass(frozen=True)
class Wait:
    """Free evolution for ``duration`` seconds (float or array)."""

    duration: float

    def __post_init__(self):
        object.__setattr__(self, "duration", _event_value("wait duration", self.duration, 0.0))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _value_key(self.duration) == _value_key(other.duration)

    def __hash__(self):
        return hash((_value_key(self.duration),))


@dataclass(frozen=True)
class Timeline:
    """Ordered pulse/wait events.  May be empty (identity)."""

    events: tuple = ()

    def __post_init__(self):
        ev = tuple(self.events)
        for e in ev:
            if not isinstance(e, (Pulse, Wait)):
                raise InvalidTimelineError(f"timeline events must be Pulse or Wait, got {e!r}")
        object.__setattr__(self, "events", ev)

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    @property
    def duration(self) -> float:
        """Total wall-clock length: the sum of all wait durations."""
        return sum(e.duration for e in self.events if isinstance(e, Wait))


@dataclass
class FrameSet:
    """Detunings of the two frames and their relative phase for one shot.

    ``phi_s`` may be an array to sweep many shot phases in one simulate
    call; it is reduced to [0, 2*pi).  Each field is checked whenever it
    is set, on construction, by ``replace`` and by assignment alike: the
    detunings by :func:`bloch._real`, the phase by :func:`bloch._reals`
    and then the wrap.
    """

    delta_w: float
    delta_s: float
    phi_s: object = 0.0

    def __setattr__(self, name, value):
        if name == "phi_s":
            value = wrap_angle(_reals(name, value))
        elif name in ("delta_w", "delta_s"):
            value = _real(name, value)
        object.__setattr__(self, name, value)


class _ShotFrames(FrameSet):
    """A FrameSet of values the engine checked already, its fields set without their rules.

    The frames of one secure-choice read and ``run_trials``' private copy,
    whose drawn shot phases lie in [0, 2*pi) already; it never leaves them.
    """

    __setattr__ = object.__setattr__


def default_frames(phi_s: float = 0.0) -> FrameSet:
    """FrameSet at the reference detunings (both 2*pi*100 rad/s)."""
    return FrameSet(DELTA_W_REF, DELTA_S_REF, phi_s)


def _sri_axis(t, frames: FrameSet):
    return wrap_angle((frames.delta_w - frames.delta_s) * t + frames.phi_s)


def sri_axis_angle(t: float, frames: FrameSet):
    """Rotation-axis azimuth of an S pulse fired at absolute time ``t``.

    eta(t) = (delta_w - delta_s) * t + phi_s, reduced to [0, 2*pi).
    """
    return _sri_axis(_real("pulse time", t, 0.0), frames)


def _advance(events, frames: FrameSet, xyz, time):
    """Unchecked event loop: the component triple after ``events`` from ``xyz``, and the time after them."""
    for event in events:
        if isinstance(event, Wait):
            xyz = _precess(*xyz, frames.delta_w * event.duration)
            time = time + event.duration
        else:
            xyz = _rotate(*xyz, _pulse_axis(event, time, frames), event.area)
    return xyz, time


def _pulse_axis(pulse: Pulse, time, frames: FrameSet):
    return 0.0 if pulse.frame is Frame.W else _sri_axis(time, frames)


def _check_finite(components) -> None:
    # a scalar component (a Python or numpy float) skips numpy's reduction machinery
    if not all(math.isfinite(c) if isinstance(c, float) else np.isfinite(c).all() for c in components):
        raise InvalidTimelineError("a timeline phase overflowed: the final state is not finite")


def _walk(events, frames: FrameSet, xyz, time=0.0):
    """Component triple after ``events`` from ``xyz``, the first event at absolute time ``time``.

    Unchecked core of :func:`simulate` and :func:`apply_event`: every
    event must be a Pulse or a Wait, and ``time`` is not checked.  Raises
    :class:`InvalidTimelineError` when a phase overflowed on the way and
    left a final component non-finite.
    """
    xyz = _advance(events, frames, xyz, time)[0]
    _check_finite(xyz)
    return xyz


def _walk_z(events, frames: FrameSet, xyz, time=0.0):
    """``_walk(...)[2]`` broadcast to the shape of the whole triple, without the last pulse's ``x`` and ``y``.

    The P_e read of the trial and protocol layers.  A last pulse rotates
    ``z`` alone, which then has the full shape and is checked to be
    finite: a non-finite ``x`` or ``y`` before it, or a non-finite axis,
    reaches ``z`` there too.  A timeline with no pulse last goes through
    :func:`_walk`, since a last ``Wait`` leaves ``z`` unchanged but may
    overflow ``x`` and ``y``.
    """
    events = tuple(events)
    if not events or isinstance(events[-1], Wait):
        xyz = _walk(events, frames, xyz, time)
        return np.broadcast_to(xyz[2], np.broadcast(*xyz).shape)
    (x, y, z), time = _advance(events[:-1], frames, xyz, time)
    z = _rotate(x, y, z, _pulse_axis(events[-1], time, frames), events[-1].area, z_only=True)
    _check_finite((z,))
    return z


def apply_event(state, event: Pulse | Wait, time: float, frames: FrameSet):
    """Apply one event to ``state`` at absolute time ``time``; an S pulse's time must be finite and >= 0."""
    timeline, xyz = Timeline((event,)), _components(_as_state(state))
    if isinstance(event, Pulse) and event.frame is Frame.S:
        time = _real("pulse time", time, 0.0)
    return _stack(_walk(timeline, frames, xyz, time))


def simulate(timeline: Timeline, frames: FrameSet, state=GROUND):
    """Final state of a timeline: each event applied in order, every S pulse at its fire time."""
    return _stack(_walk(timeline, frames, _components(validate_state(state))))


#: The pi/2 write and read pulse of the builders below, one frozen event they all share.
_HALF_PI_W = Pulse.wri(np.pi / 2)


def ramsey(interval: float) -> Timeline:
    """pi/2 write, free evolution for ``interval`` seconds, pi/2 read.

    The builders may share event objects between timelines and within
    one: events are frozen, and here ``t.events[0] is t.events[-1]``.
    """
    return Timeline((_HALF_PI_W, Wait(interval), _HALF_PI_W))


def scrambled_ramsey(scramble_area: float, t1: float, interval: float) -> Timeline:
    """Write, hold t1, scramble, free evolution, read; the write and the read share one event, as in :func:`ramsey`."""
    return Timeline((_HALF_PI_W, Wait(t1), Pulse.sri(scramble_area), Wait(interval), _HALF_PI_W))


def retrieved_ramsey(scramble_area: float, t1: float, t2: float, interval: float) -> Timeline:
    """Write, hold t1, scramble, store t2, retrieve, free evolution, read.

    The write and the read share one event, as in :func:`ramsey`, and so
    do the scramble and the retrieve pulse: ``t.events[2] is t.events[4]``.
    """
    s = Pulse.sri(scramble_area)
    return Timeline((_HALF_PI_W, Wait(t1), s, Wait(t2), s, Wait(interval), _HALF_PI_W))
