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
its inputs once and carries the triple through the cores, stacking only
when a caller asks for states.  A caller that only reads P_e asks
``_rotate`` for the last pulse's ``z`` alone (``z_only``), so that
pulse's ``x`` and ``y`` are never computed.  The grid scans need less
still for the W pi/2 read (azimuth 0) that ends every fringe, right after
its wait: ``_precess_rotate_x_z`` takes the wait's ``y`` alone and the
read's ``z`` as ``y + z * cos(pi/2)`` (the read's sine is exactly 1.0),
written into a block of the scan's output.

Scalar inputs stay Python floats through the cores, which take the
cosine and sine of a finite float from :mod:`math` (numpy's bits on every
value the tests sample), so a scalar walk never pays numpy's per-call cost.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from .errors import InvalidStateError

#: Tolerance on the norm of a valid Bloch vector.
NORM_TOL = 1e-12

#: Tolerance on |z| accepted by :func:`excitation_probability`.
Z_TOL = 1e-9

TWO_PI = 2.0 * np.pi


def _freeze(a) -> np.ndarray:
    """A read-only float view of ``a``: a float array's own memory, which its owner can still write."""
    a = np.asarray(a, dtype=float).view()
    a.setflags(write=False)
    return a


def _record(record, **fields):
    """Frozen dataclass ``record`` with ``fields`` set, arrays as :func:`_freeze` views; given a class, a new one, unchecked."""
    record = object.__new__(record) if isinstance(record, type) else record
    for name, value in fields.items():
        object.__setattr__(record, name, _freeze(value) if isinstance(value, np.ndarray) else value)
    return record


GROUND = _freeze([0.0, 0.0, 1.0])
EXCITED = _freeze([0.0, 0.0, -1.0])

#: GROUND as a component triple of Python floats, the start of every shot.
_GROUND_XYZ = tuple(GROUND.tolist())


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


def _shown(value) -> str:
    """``repr(value)`` for an error message; an integer too long for Python to write out is named by that limit."""
    try:
        return repr(value)
    except ValueError:  # the int-to-str digit limit
        return f"an integer of more than {sys.get_int_max_str_digits()} digits"


def _count(name: str, value, lowest: int, highest: float = math.inf) -> int:
    """``value`` as an int, checked to be an integer in [``lowest``, ``highest``] and not a bool; the error names ``name``.

    A non-finite float fails the rule like any other bad value, not with
    ``int``'s own OverflowError or ValueError.
    """
    try:
        ok = not isinstance(value, (bool, np.bool_)) and int(value) == value and lowest <= value <= highest
    except (OverflowError, ValueError):
        ok = False
    if not ok:
        bound = f">= {lowest}" if highest == math.inf else f"in [{lowest}, {highest}]"
        raise ValueError(f"{name} must be an integer {bound}, got {_shown(value)}")
    return int(value)


def _blocks(shape, budget: int):
    """Slice tuples that cut a grid of ``shape`` into C-order blocks of at most ``budget`` states (one at least).

    A block is a run of whole rows of the first axis.  A row that alone
    holds more than ``budget`` is cut along its own first axis, and so on
    inward, so every block is one contiguous stretch of the grid.  The
    grid scans read their grids in these blocks, and the table writers
    write their tables in them.
    """
    k = len(shape) - 1
    while k and math.prod(shape[k:]) <= budget:
        k -= 1
    step = max(1, budget // math.prod(shape[k + 1 :]))
    for outer in itertools.product(*map(range, shape[:k])):
        for i in range(0, shape[k], step):
            yield (*(slice(j, j + 1) for j in outer), slice(i, min(i + step, shape[k])), *(slice(0, n) for n in shape[k + 1 :]))


def _float(value) -> float:
    """``float(value)``, NaN for an integer beyond the float range, which ``float`` refuses with OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _must(name: str, lowest: float, strict: bool) -> str:
    """The rule's message without the value: ``name`` must be finite, and >= ``lowest`` or positive."""
    bound = "" if lowest == -math.inf else " and positive" if strict else f" and >= {lowest:g}"
    return f"{name} must be finite{bound}"


def _real(name: str, value, lowest: float = -math.inf, strict: bool = False) -> float:
    """``value`` as a float, checked to be finite and >= ``lowest`` (> it if ``strict``); the error names ``name``.

    The real-valued twin of :func:`_count`, the one rule for every scalar
    real input; an array fails ``float()``.  An integer beyond the float
    range fails it like any other bad value.  ``strict`` is meant for
    ``lowest`` 0: the message says "positive".
    """
    v = _float(value)
    if not (math.isfinite(v) and (v > lowest if strict else v >= lowest)):
        raise ValueError(f"{_must(name, lowest, strict)}, got {_shown(value)}")
    return v


def _reals(name: str, value, lowest: float = -math.inf, strict: bool = False):
    """:func:`_real` for an input that may also be an array: a scalar goes to :func:`_real`.

    An array_like of one or more dimensions (a list included) comes back
    as a float array, checked in one pass for finiteness and one for the
    bound (none when ``lowest`` is -inf); its message does not quote it.
    """
    if isinstance(value, float) or isinstance(value, int) or not np.ndim(value):  # a Python scalar skips np.ndim's cost
        return _real(name, value, lowest, strict)
    try:
        v = np.asarray(value, dtype=float)
    except OverflowError:  # an integer beyond the float range, which fails the rule like NaN
        v = np.array(math.nan)
    if not (np.isfinite(v).all() and (lowest == -math.inf or (v > lowest if strict else v >= lowest).all())):
        raise ValueError(_must(name, lowest, strict))
    return v


def _as_state(state) -> np.ndarray:
    v = np.asarray(state, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"state must have shape (..., 3), got {v.shape}")
    return _reals("state components", v)


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
    return _stack(_rotate(*xyz, _reals("axis_azimuth", axis_azimuth), _reals("angle", angle)))


def _rotate(x, y, z, axis_azimuth, angle, z_only=False):
    """Unchecked core of :func:`rotate_inplane` on the components; returns the rotated triple.

    With ``z_only`` it returns the rotated ``z`` alone, the same array the
    triple would hold, and never computes ``x`` or ``y``.
    """
    ax, ay = _cos_sin(axis_azimuth)
    ct, st = _cos_sin(angle)
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
    return _stack(_precess(*_components(_as_state(state)), _reals("phase", phase)))


def _precess(x, y, z, phase):
    """Unchecked core of :func:`precess` on the components; returns the precessed triple, ``z`` as it was."""
    cb, sb = _cos_sin(phase)
    return x * cb - y * sb, x * sb + y * cb, z


def _cos_sin(angle):
    """``(cos, sin)`` of ``angle``: math's for a finite float (numpy's bits), else numpy's, whose NaN math would raise.

    A ``(cos, sin)`` pair the caller took itself passes through, so a
    private caller can hand :func:`_rotate` a row of angles whose trig it
    took from :mod:`math` one at a time, with each angle's scalar bits.
    """
    if isinstance(angle, float) and math.isfinite(angle):
        return math.cos(angle), math.sin(angle)
    if isinstance(angle, tuple):
        return angle
    return np.cos(angle), np.sin(angle)


#: Cosine of the W read's area pi/2, as :func:`_cos_sin` takes it; its sine is exactly 1.0.
_HALF_PI_COS = math.cos(np.pi / 2)


def _precess_rotate_x_z(x, y, z_cos, cb, sb, out):
    """The ``z`` of a W pi/2 read (azimuth 0) right after a precession with cosine ``cb`` and sine ``sb``.

    :func:`_precess`'s ``y``, ``x * sb + y * cb``, then :func:`_rotate`'s
    ``z`` with ``ax = 1``, ``ay = 0`` and the read's area folded in:
    ``sin(pi/2)`` is exactly 1.0, so the rotation's ``y * sin`` is ``y``
    itself, and ``z_cos`` is the read's other term, ``z * _HALF_PI_COS``,
    which the caller takes on its column.  Neither the precession's ``x``
    nor an ``x`` term of the rotation is computed.  The steps write into
    ``out``, of the broadcast shape, in the order ``x * sb``, ``+= y *
    cb``, ``+= z_cos``, so ``y * cb`` is the only temporary of that shape;
    IEEE addition commutes, so the bits are those of the two expressions.
    For finite ``x`` the result equals the full rotation's ``z`` except in
    the sign of an exact zero: ``y - 0.0 * x`` turns a ``y`` of ``-0.0``
    into ``+0.0`` when ``x`` is negative, and that zero reaches the result
    only where ``z_cos`` is zero too.  The grid scans call it with a small
    ufunc buffer, none at all for a row of 64 intervals or more
    (``analysis._read_z``): three of the steps broadcast columns against a
    row shorter than numpy's default buffer, and numpy would copy those
    operands into iterator buffers of that size.  Nothing here is summed,
    so buffering changes no bits, only time and memory.
    """
    r = np.multiply(x, sb, out=out)
    r += y * cb
    r += z_cos
    return r


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
    if isinstance(z, float):
        # a scalar (a Python or numpy float) skips numpy's reductions; the comparisons are np.clip's
        # (a NaN passes both, a -0.0 stays), so both paths give the same bits and the same message
        if abs(z) > 1.0 + Z_TOL:
            raise InvalidStateError(f"z component {float(abs(z))!r} outside [-1, 1]")
        p = (1.0 - z) / 2.0
        return 0.0 if p < 0.0 else 1.0 if p > 1.0 else float(p)
    if (np.abs(z) > 1.0 + Z_TOL).any():
        raise InvalidStateError(f"z component {float(np.max(np.abs(z)))!r} outside [-1, 1]")
    p = _excitation_probability(z)
    return float(p) if np.ndim(p) == 0 else p


def _excitation_probability(z, out=None):
    """P_e = (1 - z) / 2 clipped to [0, 1]; with ``out`` every step writes there, so no temporary is made.

    The halving is ``* 0.5``, which costs a third of ``/ 2.0``: scaling by a
    power of two rounds the same real value either way, so the bits match.
    """
    p = np.subtract(1.0, z, out=out)
    return np.clip(np.multiply(p, 0.5, out=out), 0.0, 1.0, out=out)
