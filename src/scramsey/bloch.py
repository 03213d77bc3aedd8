"""Geometric kernel for a two-level ensemble on the unit Bloch sphere.

Conventions, fixed across the package:

* states are real 3-vectors on (or inside) the unit sphere, with the
  ground state |g> at (0, 0, +1) and the excited state |e> at (0, 0, -1);
* the excitation probability of a state is P_e = (1 - z) / 2;
* all rotations follow the right-hand rule.  Resonant pulses rotate about
  an axis in the equatorial plane, free evolution precesses about +z.

Note on radii: some texts draw the Bloch sphere with radius 1/2 (the spin
expectation value).  Lengths there are half of the lengths here; a circle
of diameter 0.5 in that convention has radius 0.5 on this unit sphere.

Every operation broadcasts over leading axes, so a stack of states with
shape (n, 3), or a single state paired with an (n,) stack of axis
azimuths, is processed in one call.

The public functions check their inputs, split the state into its
components, call an unchecked private core (``_rotate``, ``_precess``)
and stack the result once, broadcast to the full (..., 3) shape.  The
cores take and return component triples ``(x, y, z)`` that need not share
a shape: a precession leaves ``z`` as it was.  The timeline engine checks
its inputs once and carries the triple through the cores on whole blocks
of a grid, stacking only when a caller asks for states.  A caller that
only reads P_e asks ``_rotate`` for the last pulse's ``z`` alone
(``z_only``), so that pulse's ``x`` and ``y`` are never computed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError

#: Tolerance on the norm of a valid Bloch vector.
NORM_TOL = 1e-12

#: Tolerance on |z| accepted by :func:`excitation_probability`.
Z_TOL = 1e-9

TWO_PI = 2.0 * np.pi


def _freeze(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


GROUND = _freeze([0.0, 0.0, 1.0])
EXCITED = _freeze([0.0, 0.0, -1.0])

#: GROUND as a component triple of scalars, the start of every shot.
_GROUND_XYZ = tuple(GROUND)


def wrap_angle(angle):
    """Reduce an angle (or array of angles) to [0, 2*pi)."""
    if isinstance(angle, float):
        # Python's float % is np.mod's rule (fmod, then add the divisor to a remainder of the other
        # sign, +0.0 for a zero one) without numpy's per-call cost
        a = float(angle) % TWO_PI
        return 0.0 if a >= TWO_PI else a
    a = np.mod(angle, TWO_PI)
    # np.mod can round tiny negatives up to 2*pi itself
    return np.where(a >= TWO_PI, 0.0, a) if np.ndim(a) else (0.0 if a >= TWO_PI else float(a))


def _wrap_centred(angle):
    """Reduce an angle to [-pi, pi)."""
    return (angle + np.pi) % TWO_PI - np.pi


def _count(name: str, value, lowest: int) -> int:
    """``value`` as an int, checked to be an integer >= ``lowest``; the error names ``name``."""
    if int(value) != value or value < lowest:
        raise ValueError(f"{name} must be an integer >= {lowest}, got {value!r}")
    return int(value)


def _as_state(state) -> np.ndarray:
    v = np.asarray(state, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"state must have shape (..., 3), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state components must be finite")
    return v


def _as_angle(angle, name: str) -> np.ndarray:
    a = np.asarray(angle, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def validate_state(state) -> np.ndarray:
    """Return ``state`` as a float array after checking it is a Bloch vector.

    Parameters
    ----------
    state : array_like, shape (..., 3)
        Candidate Bloch vector(s).

    Returns
    -------
    ndarray
        The validated array.

    Raises
    ------
    ValueError
        If the shape is wrong or a component is not finite.
    InvalidStateError
        If any vector norm exceeds 1 + NORM_TOL.
    """
    v = _as_state(state)
    norm = np.linalg.norm(v, axis=-1)
    if np.any(norm > 1.0 + NORM_TOL):
        raise InvalidStateError(f"state norm {float(np.max(norm))!r} exceeds 1")
    return v


def _components(v):
    """The (x, y, z) triple of a (..., 3) state array, as views."""
    return v[..., 0], v[..., 1], v[..., 2]


def _stack(xyz):
    """A component triple as one (..., 3) array, every component broadcast to the full shape."""
    return np.stack(np.broadcast_arrays(*xyz), axis=-1)


def rotate_inplane(state, axis_azimuth, angle):
    """Rotate Bloch vectors about an equatorial axis.

    The axis is (cos(axis_azimuth), sin(axis_azimuth), 0); the rotation is
    by ``angle`` with the right-hand rule (Rodrigues formula).  A resonant
    pulse of area theta is exactly this operation.

    Parameters
    ----------
    state : array_like, shape (..., 3)
    axis_azimuth : float or array_like
        Azimuth of the rotation axis in the equatorial plane, radians.
    angle : float or array_like
        Rotation angle (pulse area), radians.  Any finite real; the
        trigonometric evaluation reduces it internally.

    Returns
    -------
    ndarray, shape broadcast(state, axis_azimuth, angle) x (3,)

    Raises
    ------
    ValueError
        On non-finite input or a state of the wrong shape.
    """
    xyz = _components(_as_state(state))
    return _stack(_rotate(*xyz, _as_angle(axis_azimuth, "axis_azimuth"), _as_angle(angle, "angle")))


def _rotate(x, y, z, axis_azimuth, angle, z_only=False):
    """Unchecked core of :func:`rotate_inplane` on the components; returns the rotated triple.

    With ``z_only`` it returns the rotated ``z`` alone, the same array the
    triple would hold, and never computes ``x`` or ``y``.
    """
    ax, ay = np.cos(axis_azimuth), np.sin(axis_azimuth)
    ct, st = np.cos(angle), np.sin(angle)
    rz = z * ct + (ax * y - ay * x) * st
    if z_only:
        return rz
    along = ax * x + ay * y
    rise = 1.0 - ct
    rx = x * ct + ay * z * st + ax * along * rise
    ry = y * ct - ax * z * st + ay * along * rise
    return rx, ry, rz


def precess(state, phase):
    """Rotate Bloch vectors about +z by ``phase`` (right-hand rule).

    Free evolution for a time dt in a frame detuned by delta is
    ``precess(v, delta * dt)``.

    Parameters
    ----------
    state : array_like, shape (..., 3)
    phase : float or array_like
        Accumulated phase in radians, any finite real.

    Returns
    -------
    ndarray of the broadcast shape, trailing axis 3.
    """
    return _stack(_precess(*_components(_as_state(state)), _as_angle(phase, "phase")))


def _precess(x, y, z, phase):
    """Unchecked core of :func:`precess` on the components; returns the precessed triple, ``z`` as it was."""
    cb, sb = np.cos(phase), np.sin(phase)
    return x * cb - y * sb, x * sb + y * cb, z


def excitation_probability(state):
    """Excited-state population P_e = (1 - z) / 2, clipped to [0, 1].

    Raises
    ------
    InvalidStateError
        If |z| exceeds 1 + Z_TOL; small numerical overshoot inside that
        band is clipped instead.
    """
    return _checked_probability(_as_state(state)[..., 2])


def _checked_probability(z):
    """Checked core of :func:`excitation_probability` on ``z`` components: a float for one state."""
    if (np.abs(z) > 1.0 + Z_TOL).any():
        raise InvalidStateError(f"z component {float(np.max(np.abs(z)))!r} outside [-1, 1]")
    p = _excitation_probability(z)
    return float(p) if np.ndim(p) == 0 else p


def _excitation_probability(z):
    return np.clip((1.0 - z) / 2.0, 0.0, 1.0)
