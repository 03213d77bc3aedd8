"""Fringe families, scrambled Bloch-vector distributions, ambiguity metrics.

The central objects:

* a flop curve: excitation probability versus the free-evolution interval
  of a write/read pair;
* the stochastic distribution of the Bloch vector (SDBV): the set of
  states a scramble pulse can produce as the unknown shot phase phi_s
  sweeps a uniform grid;
* the ambiguity of a readout: per interval, the spread of P_e over the
  phi_s grid; aggregated as the minimum spread over the interval grid.

Everything is computed through the timeline engine; closed forms appear
only in the tests as independent checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bloch import (
    GROUND, TWO_PI, _components, _count, _excitation_probability, _freeze, _precess, _rotate, _stack, validate_state
)
from .sequence import (
    FrameSet,
    Pulse,
    Wait,
    _advance,
    _sri_axis,
    _walk_z,
    default_frames,
    ramsey,
    retrieved_ramsey,
    scrambled_ramsey,
)

DEFAULT_INTERVAL_POINTS = 201
DEFAULT_PHI_SAMPLES = 256
DEFAULT_PERIODS = 2.0
DEFAULT_COARSE_POINTS = 181
DEFAULT_AREA_TOLERANCE = 1e-6

P_TOL = 1e-12

#: Most final states one engine evaluation of a grid holds; bounds peak memory.
_BLOCK_STATES = 2**14

#: Coarse-scan ambiguities within this of the optimum form the reported plateau.
_PLATEAU_TOL = 1e-9


def default_intervals(delta_w: float, periods: float = DEFAULT_PERIODS, count: int = DEFAULT_INTERVAL_POINTS) -> np.ndarray:
    """Uniform interval grid covering ``periods`` fringe periods of delta_w."""
    if not np.isfinite(delta_w) or delta_w <= 0.0:
        raise ValueError(f"delta_w must be finite and positive, got {delta_w!r}")
    if not np.isfinite(periods) or periods <= 0.0:
        raise ValueError(f"periods must be finite and positive, got {periods!r}")
    return np.linspace(0.0, periods * TWO_PI / delta_w, _count("count", count, 2))


def phi_grid(count: int) -> np.ndarray:
    """Uniform shot-phase grid phi_k = 2*pi*k/count, k = 0..count-1."""
    count = _count("phi sample count", count, 1)
    return TWO_PI * np.arange(count) / count


def _as_intervals(intervals) -> np.ndarray:
    t = np.asarray(intervals, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("interval grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ValueError("intervals must be finite and >= 0")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("intervals must be strictly increasing")
    return t


def _outside_unit(p: np.ndarray) -> bool:
    """Whether a value of ``p`` (NaN aside) lies more than P_TOL outside [0, 1]; makes no temporary the size of ``p``."""
    return bool(np.fmin.reduce(p, axis=None) < -P_TOL or np.fmax.reduce(p, axis=None) > 1.0 + P_TOL)


def _as_area(area: float) -> float:
    area = float(area)
    if not np.isfinite(area):
        raise ValueError("pulse area must be finite")
    return area


def _phi_rows(frames: FrameSet | None, phis: np.ndarray) -> FrameSet:
    """``frames`` (None: reference frames) with the phi grid as a column, one row per phase."""
    return replace(frames if frames is not None else default_frames(), phi_s=phis[:, None])


def _scan(out: np.ndarray, build, frames: FrameSet, state=GROUND, reduce=lambda p: p, head=()) -> np.ndarray:
    """Fill ``out[..., b]`` with ``reduce`` of P_e of ``head`` then ``build(b)`` from ``state``; ``b`` slices <= _BLOCK_STATES states.

    ``head`` holds the events that do not depend on the block: in a
    fringe, every event before the last wait.  They are walked once per
    grid, and each block's events go on from the triple and the time they
    leave, which is the same arithmetic in the same order as walking the
    whole timeline per block.  P_e is read from the final ``z`` alone
    (``sequence._walk_z``), which has the block shape ``simulate`` would
    have returned; the last pulse's ``x`` and ``y`` are never computed.
    P_e is written over ``z`` itself, which makes no block-sized
    temporary, unless ``z`` is the read-only view a timeline ending in a
    ``Wait`` returns.  Writing P_e straight into a (P, T) ``out`` would
    run each step over rows of only ``_BLOCK_STATES // P`` values: about
    twice as slow as one contiguous pass and a copy.
    """
    step = max(1, _BLOCK_STATES // np.size(frames.phi_s))
    start, time = _advance(head, frames, _components(validate_state(state)), 0.0, _sri_axis)
    for i in range(0, out.shape[-1], step):
        z = _walk_z(build(slice(i, i + step)), frames, start, time)
        out[..., i : i + step] = reduce(_excitation_probability(z, z if z.flags.writeable else None))
        del z  # not held through the next block's walk
    return out


def _recorded(state) -> np.ndarray:
    """``state`` checked to be one Bloch vector: a stack of records would pair record i with interval i."""
    rec = validate_state(state)
    if rec.shape != (3,):
        raise ValueError("recorded state must be a single 3-vector")
    return rec


def _readout_ranges(recorded, frames: FrameSet, areas, intervals: np.ndarray) -> np.ndarray:
    """P_e spread over the phi rows of ``frames`` after a t = 0 scramble of ``recorded``, a wait and a pi/2 read.

    One float area gives shape (intervals,): the scramble is the scan's
    head, which rotates the phi column once per grid, and the interval
    axis first appears at the wait.  An array of areas gives shape
    (areas, intervals); the pairs form one axis, so blocks cut across
    areas too, and the scan has no head.
    """
    read = Pulse.wri(np.pi / 2)
    if np.ndim(areas) == 0:
        build = lambda b: (Wait(intervals[b]), read)
        return _scan(np.empty(intervals.size), build, frames, recorded, lambda p: np.ptp(p, axis=0), head=(Pulse.sri(areas),))
    pair_areas, pair_intervals = np.repeat(areas, intervals.size), np.tile(intervals, areas.size)
    build = lambda b: (Pulse.sri(pair_areas[b]), Wait(pair_intervals[b]), read)
    return _scan(np.empty(pair_intervals.size), build, frames, recorded, lambda p: np.ptp(p, axis=0)).reshape(areas.size, -1)


@dataclass(frozen=True)
class FlopCurve:
    """P_e versus free-evolution interval for one readout sequence."""

    intervals: np.ndarray
    p_e: np.ndarray

    def __post_init__(self):
        t = _as_intervals(self.intervals)
        p = np.asarray(self.p_e, dtype=float)
        if p.shape != t.shape:
            raise ValueError(f"p_e shape {p.shape} does not match intervals {t.shape}")
        if _outside_unit(p):
            raise ValueError("p_e values must lie in [0, 1]")
        object.__setattr__(self, "intervals", _freeze(t))
        object.__setattr__(self, "p_e", _freeze(p))


@dataclass(frozen=True)
class FlopFamily:
    """One flop curve per shot phase on a uniform phi_s grid."""

    intervals: np.ndarray
    phis: np.ndarray
    p_e: np.ndarray  # shape (len(phis), len(intervals))

    def __post_init__(self):
        t = _as_intervals(self.intervals)
        phis = np.asarray(self.phis, dtype=float)
        p = np.asarray(self.p_e, dtype=float)
        if phis.ndim != 1 or phis.size == 0:
            raise ValueError("phi grid must be a non-empty 1-D array")
        if p.shape != (phis.size, t.size):
            raise ValueError(f"p_e shape {p.shape} does not match (phis, intervals) = ({phis.size}, {t.size})")
        if _outside_unit(p):
            raise ValueError("p_e values must lie in [0, 1]")
        object.__setattr__(self, "intervals", _freeze(t))
        object.__setattr__(self, "phis", _freeze(phis))
        object.__setattr__(self, "p_e", _freeze(p))

    def curve(self, k: int) -> FlopCurve:
        """The flop curve at phi grid index ``k``."""
        return FlopCurve(self.intervals, np.clip(self.p_e[k], 0.0, 1.0))

    def ranges(self) -> np.ndarray:
        """Per-interval spread max - min of P_e over the phi grid."""
        return self.p_e.max(axis=0) - self.p_e.min(axis=0)


@dataclass(frozen=True)
class SDBV:
    """States a scramble pulse reaches as phi_s sweeps a uniform grid."""

    recorded: np.ndarray
    scramble_area: float
    phis: np.ndarray
    points: np.ndarray  # shape (len(phis), 3)

    def __post_init__(self):
        rec = _recorded(self.recorded)
        pts = validate_state(self.points)
        phis = np.asarray(self.phis, dtype=float)
        if pts.shape != (phis.size, 3):
            raise ValueError(f"points shape {pts.shape} does not match phi grid {phis.shape}")
        object.__setattr__(self, "recorded", _freeze(rec))
        object.__setattr__(self, "scramble_area", _as_area(self.scramble_area))
        object.__setattr__(self, "phis", _freeze(phis))
        object.__setattr__(self, "points", _freeze(pts))


@dataclass(frozen=True)
class AmbiguityReport:
    """Per-interval P_e spread over phi_s, and its minimum over intervals.

    ``ambiguity`` is this library's aggregate: the spread an eavesdropper
    sees at the most favorable interval, i.e. min over the interval grid.
    """

    scramble_area: float
    intervals: np.ndarray
    ranges: np.ndarray
    ambiguity: float

    def __post_init__(self):
        t = _as_intervals(self.intervals)
        r = np.asarray(self.ranges, dtype=float)
        if r.shape != t.shape:
            raise ValueError(f"ranges shape {r.shape} does not match intervals {t.shape}")
        if _outside_unit(r):
            raise ValueError("ranges must lie in [0, 1]")
        if float(self.ambiguity) != float(r.min()):
            raise ValueError("ambiguity must equal min(ranges)")
        object.__setattr__(self, "scramble_area", _as_area(self.scramble_area))
        object.__setattr__(self, "intervals", _freeze(t))
        object.__setattr__(self, "ranges", _freeze(r))
        object.__setattr__(self, "ambiguity", float(self.ambiguity))


@dataclass(frozen=True)
class ScrambleAreaResult:
    """Outcome of the scramble-area search."""

    theta_star: float
    ambiguity: float
    plateau: tuple


def normal_flop(delta_w: float, intervals) -> FlopCurve:
    """Unscrambled write/read fringe, P_e(T) = (1 + cos(delta_w T)) / 2."""
    t = _as_intervals(intervals)
    frames = FrameSet(delta_w, delta_w, 0.0)
    *head, _, read = ramsey(0.0).events  # each block brings its own wait
    return FlopCurve(t, _scan(np.empty(t.size), lambda b: (Wait(t[b]), read), frames, head=head))


def sdbv(recorded, scramble_area: float, phi_samples: int = DEFAULT_PHI_SAMPLES) -> SDBV:
    """Scramble ``recorded`` once for every phi_s on a uniform grid.

    The pulse fires at t = 0, where its axis azimuth is phi_s itself, so
    the distribution does not depend on the detunings.
    """
    rec = _recorded(recorded)
    phis = phi_grid(phi_samples)
    points = _stack(_rotate(*_components(rec), phis, _as_area(scramble_area)))
    return SDBV(rec, scramble_area, phis, points)


def sdbv_projection_xz(recorded, scramble_area: float, wait_phase: float, phi_samples: int = DEFAULT_PHI_SAMPLES) -> np.ndarray:
    """xz-projection of the SDBV after a wait and a pi/2 read pulse.

    Each scrambled state precesses by ``wait_phase`` and is read with a
    W pi/2 pulse; the (x, z) pairs returned are what a fringe readout
    can distinguish.  Shape (phi_samples, 2).
    """
    wait_phase = float(wait_phase)
    if not np.isfinite(wait_phase):
        raise ValueError("wait_phase must be finite")
    cloud = sdbv(recorded, scramble_area, phi_samples).points
    return np.column_stack(_rotate(*_precess(*_components(cloud), wait_phase), 0.0, np.pi / 2)[::2])  # x and z


def _flop_family(build, scramble_area: float, intervals, phi_samples: int, frames: FrameSet | None) -> FlopFamily:
    """P_e of ``build(area, T)`` on the interval grid, one row per phi_s on a uniform grid.

    ``build``'s events before the last wait are the scan's head, the same
    for every interval; each block adds its own wait before the read.
    """
    t = _as_intervals(intervals)
    phis = phi_grid(phi_samples)
    area = _as_area(scramble_area)
    fr = _phi_rows(frames, phis)
    *head, _, read = build(area, 0.0).events  # each block brings its own wait
    p = _scan(np.empty((phis.size, t.size)), lambda b: (Wait(t[b]), read), fr, head=head)
    return FlopFamily(t, phis, p)


def scrambled_flop(
    scramble_area: float,
    t1: float,
    intervals,
    phi_samples: int = DEFAULT_PHI_SAMPLES,
    frames: FrameSet | None = None,
) -> FlopFamily:
    """Write, hold t1, scramble, evolve, read, for every phi_s on a grid.

    ``frames.phi_s`` is ignored; the family sweeps the uniform grid.
    """
    return _flop_family(lambda area, t: scrambled_ramsey(area, t1, t), scramble_area, intervals, phi_samples, frames)


def retrieved_flop(
    scramble_area: float,
    t1: float,
    t2: float,
    intervals,
    phi_samples: int = DEFAULT_PHI_SAMPLES,
    frames: FrameSet | None = None,
) -> FlopFamily:
    """Scramble then retrieve after ``t2``, for every phi_s on a grid.

    The curves collapse onto the unscrambled fringe when delta_s * t2 is
    an odd multiple of pi; no condition is enforced here so detuned
    stores can be studied.
    """
    return _flop_family(lambda area, t: retrieved_ramsey(area, t1, t2, t), scramble_area, intervals, phi_samples, frames)


def ambiguity_report(
    recorded,
    scramble_area: float,
    intervals,
    phi_samples: int = DEFAULT_PHI_SAMPLES,
    frames: FrameSet | None = None,
) -> AmbiguityReport:
    """Spread of P_e over phi_s, per interval, for a recorded state.

    The recorded state is scrambled at t = 0, evolves for each interval,
    and is read with a W pi/2 pulse.  Per-interval P_e values are kept as
    a grid and the extrema are taken over that grid, so the result does
    not depend on evaluation order.
    """
    rec = _recorded(recorded)
    t = _as_intervals(intervals)
    area = _as_area(scramble_area)
    ranges = _readout_ranges(rec, _phi_rows(frames, phi_grid(phi_samples)), area, t)
    return AmbiguityReport(area, t, ranges, float(ranges.min()))


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi]; ties keep the left end.

    Stops at ``tol`` or once no float lies strictly inside the bracket,
    so a tolerance below the float spacing there cannot loop forever.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol and math.nextafter(lo, hi) < hi:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def optimize_scramble_area(
    recorded,
    intervals,
    phi_samples: int = DEFAULT_PHI_SAMPLES,
    frames: FrameSet | None = None,
    tolerance: float = DEFAULT_AREA_TOLERANCE,
    coarse_points: int = DEFAULT_COARSE_POINTS,
) -> ScrambleAreaResult:
    """Scramble area on [0, 2*pi] that maximizes the readout ambiguity.

    A coarse scan of ``coarse_points`` areas (``DEFAULT_COARSE_POINTS`` by
    default) locates the best candidate, a golden-section refinement
    narrows it to ``tolerance`` (``DEFAULT_AREA_TOLERANCE`` by default).
    Coarse values within 1e-12 of the best are treated as exact ties and
    resolved toward the smaller area.  ``plateau`` is the contiguous
    coarse-scan interval whose ambiguity stays within 1e-9 of the
    optimum (degenerate when only the winning point qualifies).
    """
    rec = _recorded(recorded)
    if not np.isfinite(tolerance) or tolerance <= 0.0:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    coarse_points = _count("coarse_points", coarse_points, 3)

    t = _as_intervals(intervals)
    fr = _phi_rows(frames, phi_grid(phi_samples))

    def objective(theta: float) -> float:
        return float(_readout_ranges(rec, fr, theta, t).min())

    thetas = np.linspace(0.0, TWO_PI, coarse_points)
    values = _readout_ranges(rec, fr, thetas, t).min(axis=1)
    best = values.max()
    idx = int(np.argmax(values >= best - 1e-12))  # first tie wins: smaller theta

    lo = thetas[max(idx - 1, 0)]
    hi = thetas[min(idx + 1, thetas.size - 1)]
    theta_star, a_star = _golden_max(objective, float(lo), float(hi), tolerance)

    mask = values >= a_star - _PLATEAU_TOL
    if mask[idx]:
        gaps = np.flatnonzero(~mask)  # the plateau is the run of True around idx
        left = gaps[gaps < idx].max(initial=-1) + 1
        right = gaps[gaps > idx].min(initial=thetas.size) - 1
        plateau = (min(float(thetas[left]), theta_star), max(float(thetas[right]), theta_star))
    else:
        plateau = (theta_star, theta_star)
    return ScrambleAreaResult(theta_star=theta_star, ambiguity=a_star, plateau=plateau)
