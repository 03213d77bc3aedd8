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
together: ``phi_s`` of shape (P, 1) against waits of shape (B,) gives a
(P, B) grid from one ``simulate`` call; :mod:`scramsey.analysis` feeds
it blocks of about 2**14 states.  Inputs are checked once: events and
frames when built, the start state in ``simulate``.  One unchecked event
loop (``_advance``) then carries the state as a component triple
``(x, y, z)`` through the kernel cores of :mod:`scramsey.bloch`, and two
private reads finish it.  ``_walk`` checks that the final components are
finite; ``simulate`` and ``apply_event`` stack its result into (..., 3)
states.  ``_walk_z`` is the P_e read of the analysis, trial and protocol
layers: it rotates only ``z`` through a last pulse, checks that ``z`` is
finite and never stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .bloch import GROUND, _as_state, _components, _freeze, _precess, _rotate, _stack, validate_state, wrap_angle
from .errors import InvalidTimelineError

#: Reference detunings used throughout the examples and tests, rad/s.
DELTA_W_REF = 2.0 * np.pi * 100.0
DELTA_S_REF = 2.0 * np.pi * 100.0


class Frame(Enum):
    """Which interferometer drives a pulse."""

    W = "W"  # write/read
    S = "S"  # scramble/retrieve


def _event_value(value, lowest: float):
    """``value`` as a float (an array as a read-only float copy), and whether it is all finite and >= ``lowest``."""
    if isinstance(value, np.ndarray) and value.ndim:
        v = _freeze(np.array(value, dtype=float))
        return v, bool(np.isfinite(v).all() and (v >= lowest).all())
    v = float(value)
    return v, math.isfinite(v) and v >= lowest


def _value_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _value_key(value):
    """A hashable key that agrees with :func:`_value_equal`."""
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
        area, ok = _event_value(self.area, -math.inf)
        if not ok:
            raise InvalidTimelineError("pulse area must be finite")
        object.__setattr__(self, "area", area)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.frame is other.frame and _value_equal(self.area, other.area)

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
        d, ok = _event_value(self.duration, 0.0)
        if not ok:
            raise InvalidTimelineError(f"wait duration must be finite and >= 0, got {self.duration!r}")
        object.__setattr__(self, "duration", d)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _value_equal(self.duration, other.duration)

    def __hash__(self):
        return hash((_value_key(self.duration),))


SequenceEvent = Union[Pulse, Wait]


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
    call; it is reduced to [0, 2*pi) on construction.
    """

    delta_w: float
    delta_s: float
    phi_s: object = 0.0

    def __post_init__(self):
        self.delta_w = float(self.delta_w)
        self.delta_s = float(self.delta_s)
        if not math.isfinite(self.delta_w) or not math.isfinite(self.delta_s):
            raise ValueError("detunings must be finite")
        phi = np.asarray(self.phi_s, dtype=float)
        if not (math.isfinite(phi) if phi.ndim == 0 else np.isfinite(phi).all()):
            raise ValueError("phi_s must be finite")
        self.phi_s = wrap_angle(phi) if phi.ndim else wrap_angle(float(phi))


def default_frames(phi_s: float = 0.0) -> FrameSet:
    """FrameSet at the reference detunings (both 2*pi*100 rad/s)."""
    return FrameSet(DELTA_W_REF, DELTA_S_REF, phi_s)


def _sri_axis(t, frames: FrameSet):
    return wrap_angle((frames.delta_w - frames.delta_s) * t + frames.phi_s)


def sri_axis_angle(t: float, frames: FrameSet):
    """Rotation-axis azimuth of an S pulse fired at absolute time ``t``.

    eta(t) = (delta_w - delta_s) * t + phi_s, reduced to [0, 2*pi).
    """
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValueError(f"pulse time must be finite and >= 0, got {t!r}")
    return _sri_axis(t, frames)


def _advance(events, frames: FrameSet, xyz, time, sri_axis):
    """Unchecked event loop: the component triple after ``events`` from ``xyz``, and the time after them."""
    for event in events:
        if isinstance(event, Wait):
            xyz = _precess(*xyz, frames.delta_w * event.duration)
            time = time + event.duration
        else:
            xyz = _rotate(*xyz, _pulse_axis(event, time, frames, sri_axis), event.area)
    return xyz, time


def _pulse_axis(pulse: Pulse, time, frames: FrameSet, sri_axis):
    return 0.0 if pulse.frame is Frame.W else sri_axis(time, frames)


def _check_finite(components) -> None:
    # a scalar component (a Python or numpy float) skips numpy's reduction machinery
    if not all(math.isfinite(c) if isinstance(c, float) else np.isfinite(c).all() for c in components):
        raise InvalidTimelineError("a timeline phase overflowed: the final state is not finite")


def _walk(events, frames: FrameSet, xyz, time=0.0, sri_axis=_sri_axis):
    """Component triple after ``events`` from ``xyz``, the first event at absolute time ``time``.

    Unchecked core of :func:`simulate` and :func:`apply_event`: every
    event must be a Pulse or a Wait.  ``sri_axis`` maps a fire time to an
    S-pulse azimuth.  Raises :class:`InvalidTimelineError` when a phase
    overflowed on the way and left a final component non-finite.
    """
    xyz = _advance(events, frames, xyz, time, sri_axis)[0]
    _check_finite(xyz)
    return xyz


def _walk_z(events, frames: FrameSet, xyz, time=0.0):
    """``_walk(...)[2]`` broadcast to the shape of the whole triple, without the last pulse's ``x`` and ``y``.

    The P_e read of the analysis, trial and protocol layers.  A last pulse
    rotates ``z`` alone, which then has the full shape and is checked to
    be finite: a non-finite ``x`` or ``y`` before it, or a non-finite
    axis, reaches ``z`` there too.  A timeline with no pulse last goes
    through :func:`_walk`, since a last ``Wait`` leaves ``z`` unchanged
    but may overflow ``x`` and ``y``.
    """
    events = tuple(events)
    if events and isinstance(events[-1], Pulse):
        (x, y, z), time = _advance(events[:-1], frames, xyz, time, _sri_axis)
        z = _rotate(x, y, z, _pulse_axis(events[-1], time, frames, _sri_axis), events[-1].area, z_only=True)
        _check_finite((z,))
        return z
    xyz = _walk(events, frames, xyz, time)
    return np.broadcast_to(xyz[2], np.broadcast(*xyz).shape)


def apply_event(state, event: SequenceEvent, time: float, frames: FrameSet):
    """Apply one event to ``state`` at absolute time ``time``."""
    return _stack(_walk(Timeline((event,)), frames, _components(_as_state(state)), time, sri_axis_angle))


def simulate(timeline: Timeline, frames: FrameSet, state=GROUND):
    """Final state of a timeline: each event applied in order, every S pulse at its fire time."""
    return _stack(_walk(timeline, frames, _components(validate_state(state))))


def ramsey(interval: float) -> Timeline:
    """pi/2 write, free evolution for ``interval`` seconds, pi/2 read."""
    return Timeline((Pulse.wri(np.pi / 2), Wait(interval), Pulse.wri(np.pi / 2)))


def scrambled_ramsey(scramble_area: float, t1: float, interval: float) -> Timeline:
    """Write, hold t1, scramble, free evolution, read."""
    return Timeline(
        (
            Pulse.wri(np.pi / 2),
            Wait(t1),
            Pulse.sri(scramble_area),
            Wait(interval),
            Pulse.wri(np.pi / 2),
        )
    )


def retrieved_ramsey(scramble_area: float, t1: float, t2: float, interval: float) -> Timeline:
    """Write, hold t1, scramble, store t2, retrieve, free evolution, read."""
    return Timeline(
        (
            Pulse.wri(np.pi / 2),
            Wait(t1),
            Pulse.sri(scramble_area),
            Wait(t2),
            Pulse.sri(scramble_area),
            Wait(interval),
            Pulse.wri(np.pi / 2),
        )
    )
