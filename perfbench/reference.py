"""Independent 3x3 rotation-matrix model of the scramble/retrieve timelines.

The benchmark checks the program against this model and against closed
forms, never against the program itself.  Conventions follow the package
documentation: ground state (0, 0, 1), P_e = (1 - z) / 2, W pulses about
the azimuth-0 equatorial axis, S pulses about azimuth
(delta_w - delta_s) * t + phi_s, waits precess about +z by delta_w * dt.

A timeline is a list of ("W", area), ("S", area) and ("T", seconds)
events.  Every number may be an array; all arrays broadcast together.
"""

from __future__ import annotations

import numpy as np

HALF_PI = np.pi / 2


def _stack(rows):
    """(3, 3) nested lists of broadcastable arrays -> array (..., 3, 3)."""
    flat = np.broadcast_arrays(*[np.asarray(v, dtype=float) for row in rows for v in row])
    return np.stack(flat, axis=-1).reshape(flat[0].shape + (3, 3))


def equatorial_rotation(azimuth, angle):
    """Rodrigues matrix of a rotation by ``angle`` about (cos az, sin az, 0)."""
    c, s = np.cos(angle), np.sin(angle)
    kx, ky = np.cos(azimuth), np.sin(azimuth)
    r = 1.0 - c
    return _stack(
        [
            [c + kx * kx * r, kx * ky * r, ky * s],
            [kx * ky * r, c + ky * ky * r, -kx * s],
            [-ky * s, kx * s, c + 0.0 * kx],
        ]
    )


def z_rotation(phase):
    c, s = np.cos(phase), np.sin(phase)
    zero = 0.0 * c
    return _stack([[c, -s, zero], [s, c, zero], [zero, zero, 1.0 + zero]])


def final_state(events, delta_w, delta_s, phi_s, start=(0.0, 0.0, 1.0)):
    """Bloch vector after ``events``; shape broadcast(...) + (3,)."""
    m = np.eye(3)
    t = 0.0
    for kind, value in events:
        if kind == "T":
            m = z_rotation(delta_w * np.asarray(value, dtype=float)) @ m
            t = t + np.asarray(value, dtype=float)
        elif kind == "W":
            m = equatorial_rotation(0.0, value) @ m
        else:
            m = equatorial_rotation((delta_w - delta_s) * t + phi_s, value) @ m
    return (m @ np.asarray(start, dtype=float)[:, None])[..., 0]


def p_e(events, delta_w, delta_s, phi_s, start=(0.0, 0.0, 1.0)):
    return (1.0 - final_state(events, delta_w, delta_s, phi_s, start)[..., 2]) / 2.0


def ramsey(interval):
    return [("W", HALF_PI), ("T", interval), ("W", HALF_PI)]


def scrambled(area, t1, interval):
    return [("W", HALF_PI), ("T", t1), ("S", area), ("T", interval), ("W", HALF_PI)]


def retrieved(area, t1, t2, interval):
    return [("W", HALF_PI), ("T", t1), ("S", area), ("T", t2), ("S", area), ("T", interval), ("W", HALF_PI)]


def read_after_scramble(area, interval):
    """Scramble a given record at t = 0, evolve, read (ambiguity timeline)."""
    return [("S", area), ("T", interval), ("W", HALF_PI)]


def normal_fringe(delta_w, interval):
    """Closed form of the unscrambled fringe, (1 + cos(delta_w T)) / 2."""
    return (1.0 + np.cos(delta_w * np.asarray(interval, dtype=float))) / 2.0
