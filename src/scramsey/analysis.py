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
only in the tests as independent checks.  The entry points check their
inputs once and skip the record constructors' checks (:func:`bloch._record`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bloch import (
    _HALF_PI_COS, GROUND, TWO_PI, _blocks, _components, _count, _excitation_probability, _precess, _precess_rotate_x_z, _real, _reals,
    _record, _rotate, _stack, validate_state,
)
from .sequence import FrameSet, _advance, _check_finite, _sri_axis, default_frames, ramsey, retrieved_ramsey, scrambled_ramsey

DEFAULT_INTERVAL_POINTS = 201
DEFAULT_PHI_SAMPLES = 256
DEFAULT_PERIODS = 2.0
DEFAULT_COARSE_POINTS = 181
DEFAULT_AREA_TOLERANCE = 1e-6

P_TOL = 1e-12

#: Most final states one block of a grid scan (:func:`_scan`) holds.  The
#: size that reads fastest: in-process replays of ``grid-sweep`` rounds read
#: 2**15 +11 %, 2**16 +14 %, 2**17 +12 % and 2**18 +3 % against 2**14 (2 MiB
#: L2, numpy 2.4).  A scan's extra memory grows with it, to about 1.3 MB.
_BLOCK_STATES = 2**16

#: Area of the W read that ends every fringe, right after its wait.
_READ_AREA = np.pi / 2

#: Coarse-scan ambiguities within this of the optimum form the reported plateau.
_PLATEAU_TOL = 1e-9


def default_intervals(delta_w: float, periods: float = DEFAULT_PERIODS, count: int = DEFAULT_INTERVAL_POINTS) -> np.ndarray:
    """Uniform interval grid covering ``periods`` fringe periods of delta_w."""
    delta_w, periods = _real("delta_w", delta_w, 0.0, strict=True), _real("periods", periods, 0.0, strict=True)
    return np.linspace(0.0, periods * TWO_PI / delta_w, _count("count", count, 2))


def phi_grid(count: int) -> np.ndarray:
    """Uniform shot-phase grid phi_k = 2*pi*k/count, k = 0..count-1."""
    count = _count("phi sample count", count, 1)
    return TWO_PI * np.arange(count) / count


def _as_intervals(intervals) -> np.ndarray:
    t = np.asarray(intervals, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("interval grid must be a non-empty 1-D array")
    t = _reals("intervals", t, 0.0)
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("intervals must be strictly increasing")
    return t


def _outside_unit(p: np.ndarray) -> bool:
    """Whether a value of ``p`` (NaN aside) lies more than P_TOL outside [0, 1]; makes no temporary the size of ``p``."""
    return bool(np.fmin.reduce(p, axis=None) < -P_TOL or np.fmax.reduce(p, axis=None) > 1.0 + P_TOL)


def _phi_rows(frames: FrameSet | None, phis: np.ndarray) -> FrameSet:
    """``frames`` (None: reference frames) with the phi grid as a column, one row per phase."""
    return replace(frames if frames is not None else default_frames(), phi_s=phis[:, None])


def _wait_trig(frames: FrameSet, intervals: np.ndarray):
    """Cosine and sine of the wait phase ``delta_w * T`` of each interval, taken once per grid."""
    phase = frames.delta_w * intervals
    return np.cos(phase), np.sin(phase)


def _read_z(xyz, frames: FrameSet, intervals: np.ndarray, trig, out) -> np.ndarray:
    """The ``z`` after a wait of each of ``intervals`` and a W pi/2 read, from ``xyz``, written into ``out``.

    ``xyz`` holds columns of ``out``'s shape less its interval axis.  The
    read needs only ``y`` from the wait and no ``x`` term
    (:func:`bloch._precess_rotate_x_z`): the wait precesses ``y`` alone,
    with the cosine and sine of its phase from ``trig``, and the read adds
    ``y`` and ``z * cos(pi/2)``.  On the components of a Bloch vector, which
    keep the skipped ``x`` finite, this is the general read's ``z`` except
    in the sign of an exact zero, where both terms are zero.  So only the
    rows whose ``z * cos(pi/2)`` is zero are searched for a zero, and a
    block in which one holds one is read again the general way.  Nothing
    is checked finite here: :func:`_scan` checks the inputs once per grid.

    The shortcut runs with a small ufunc buffer: its (rows, 1, 1) columns
    meet a (T,) row of intervals, and where that row is shorter than the
    buffer numpy copies each broadcast operand into iterator buffers, on a
    (65, 1, 994) block (numpy 2.4) a quarter of the block's memory and 2.7
    times the kernel's time at the default 8192 elements.  A row of 64
    intervals or more is read unbuffered, at numpy's smallest legal size,
    16.  A shorter row, such as the optimizer's coarse scan's 17-33 on
    (P, C) columns, ran up to 2.2 times slower so (a (40, 91, 18) block),
    and is read through 1024-element buffers, as fast as the default with
    an eighth of its buffers.  The operands,
    operations and their order are the same at any size, and nothing is
    summed, so the bits are too.  The scope is the kernel alone: the zero
    test, a float-to-bool reduction, runs ten times slower under a small
    buffer, and the general re-read keeps numpy's default.  The size is
    restored in a ``finally`` (``np.errstate`` restores it only on numpy
    2), and the scope holds no ``yield``, so the caller of :func:`_scan`
    never sees it.
    """
    x, y, z = xyz
    z_cos = z * _HALF_PI_COS
    old = np.setbufsize(16 if intervals.size >= 64 else 1024)
    try:
        _precess_rotate_x_z(x, y, z_cos, *trig, out)
    finally:
        np.setbufsize(old)
    if np.count_nonzero(z_cos) < z_cos.size:
        rows = z_cos[..., 0] == 0
        if not (out if rows.all() else out[rows]).all():
            out[...] = _rotate(*_precess(x, y, z, frames.delta_w * intervals), 0.0, _READ_AREA, z_only=True)
    return out


def _scan(frames: FrameSet, head, intervals: np.ndarray, trig, state=GROUND, out=None):
    """Yield ``(index, z)`` block by block: ``z`` after ``head``, a wait of each interval and a W pi/2 read.

    ``head`` holds the events before the wait, which do not depend on the
    interval.  They are walked once from ``state``, three components (a
    Bloch vector its caller checked, :func:`_recorded` or GROUND, or a
    triple of columns), over the column of the phi rows of ``frames`` (P,
    1), or (P, C) when a head pulse or the state has a row of C areas; the
    grid is that column by the intervals, which first appear at the wait,
    whose cosine and sine ``trig`` holds (:func:`_wait_trig`).  The head's
    components and ``trig`` are checked finite once, before the first
    block: every one is bounded by 1 when finite, so the read is finite
    exactly when they are, and a non-finite one leaves a non-finite ``z``
    on its whole row or column of the grid.  Each block (:func:`bloch._blocks`)
    is a run of whole phi rows of at most ``_BLOCK_STATES`` states (2**16,
    the size that reads fastest), and :func:`_read_z` reads its ``z`` from
    the head's state on those rows, with little or no buffering by numpy's
    iterator: the same arithmetic in the same order as walking the whole
    timeline, and the same bits.  The buffer size is set and restored
    inside each read, never across a ``yield``, so an abandoned scan
    leaves it as it was.  With ``out``, the whole grid, ``z`` is written
    straight into the block's contiguous slice of it; without, into one
    scratch array that every block reuses.  ``index`` places the block in
    the grid without its phi axis, where a reduction over phi lands.
    """
    xyz = _advance(head, frames, tuple(state), 0.0)[0]
    _check_finite((*xyz, *trig))
    column = np.broadcast(*xyz, frames.phi_s).shape
    xyz = [(c if np.shape(c) == column else np.broadcast_to(c, column))[..., None] for c in xyz]
    cb, sb = trig
    scratch = None
    for block in _blocks(column + intervals.shape, _BLOCK_STATES):
        if out is None:
            extent = [s.stop - s.start for s in block]
            scratch = np.empty(extent) if scratch is None else scratch  # the first block is the largest
            dest = scratch[tuple(map(slice, extent))]
        else:
            dest = out[block]
        rows, cols = block[:-1], block[-1]
        yield block[1:], _read_z([c[rows] for c in xyz], frames, intervals[cols], (cb[cols], sb[cols]), dest)


def _fringes(shape, frames: FrameSet, head, intervals: np.ndarray) -> np.ndarray:
    """P_e on the scan's whole grid, of ``shape``, each block's written over its ``z``.

    The wait's cosine and sine are taken before the grid is made.  Taken
    after it, they left the heap of a process that runs many grids in turn
    more fragmented, and its peak RSS higher by up to a grid's size
    (measured in replays of the ``grid-sweep`` benchmark; see CHANGES.md).
    """
    trig = _wait_trig(frames, intervals)
    out = np.empty(shape)
    for _, z in _scan(frames, head, intervals, trig, out=out):
        _excitation_probability(z, z)
    return out


def _recorded(state) -> np.ndarray:
    """``state`` checked to be one Bloch vector: a stack of records would pair record i with interval i."""
    rec = validate_state(state)
    if rec.shape != (3,):
        raise ValueError("recorded state must be a single 3-vector")
    return rec


def _readout_ranges(recorded, frames: FrameSet, areas, intervals: np.ndarray, trig=None) -> np.ndarray:
    """P_e spread over the phi rows of ``frames`` after a t = 0 scramble of ``recorded``, a wait and a pi/2 read.

    ``areas`` is one area, a 1-D array of C, or the ``(cos, sin)`` pair of
    such a row, taken by the caller (:func:`bloch._cos_sin`); the result
    has shape (1, T) or (C, T).  The scramble is the scan's starting
    column: it rotates the recorded state once per (phi, area), with the
    areas as a row against the phi column, about the S axis at t = 0, as
    walking ``Pulse.sri(areas)`` would.  ``trig`` is the wait's cosine and
    sine (:func:`_wait_trig`), taken here if not given.  The spread comes
    from a running ``fmin`` and ``fmax`` of ``z`` over the row blocks, and
    only those two extremes are mapped to P_e: ``(1 - z) / 2`` and the
    clip are monotone, so ``P_e(min z) - P_e(max z)`` is ``np.ptp`` of P_e
    over phi, bit for bit.
    """
    scrambled = _rotate(*_components(recorded), _sri_axis(0.0, frames), areas)
    lo = np.full((np.shape(scrambled[2])[-1], intervals.size), np.inf)
    hi = np.full_like(lo, -np.inf)
    for index, z in _scan(frames, (), intervals, _wait_trig(frames, intervals) if trig is None else trig, scrambled):
        np.fmin(lo[index], z.min(axis=0), out=lo[index])
        np.fmax(hi[index], z.max(axis=0), out=hi[index])
    return _excitation_probability(lo, lo) - _excitation_probability(hi, hi)


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
        _record(self, intervals=t, p_e=p)


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
        _record(self, intervals=t, phis=phis, p_e=p)

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
        _record(self, recorded=rec, scramble_area=_real("pulse area", self.scramble_area), phis=phis, points=pts)


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
        area = _real("pulse area", self.scramble_area)
        _record(self, scramble_area=area, intervals=t, ranges=r, ambiguity=float(self.ambiguity))


@dataclass(frozen=True)
class ScrambleAreaResult:
    """Outcome of the scramble-area search."""

    theta_star: float
    ambiguity: float
    plateau: tuple


def normal_flop(delta_w: float, intervals) -> FlopCurve:
    """Unscrambled write/read fringe, P_e(T) = (1 + cos(delta_w T)) / 2."""
    t = _as_intervals(intervals)
    *head, _, _ = ramsey(0.0).events  # the scan brings the wait and the read
    return _record(FlopCurve, intervals=t, p_e=_fringes(t.shape, FrameSet(delta_w, delta_w, 0.0), head, t))


def sdbv(recorded, scramble_area: float, phi_samples: int = DEFAULT_PHI_SAMPLES) -> SDBV:
    """Scramble ``recorded`` once for every phi_s on a uniform grid.

    The pulse fires at t = 0, where its axis azimuth is phi_s itself, so
    the distribution does not depend on the detunings.
    """
    rec = _recorded(recorded)
    phis = phi_grid(phi_samples)
    area = _real("pulse area", scramble_area)
    return _record(SDBV, recorded=rec, scramble_area=area, phis=phis, points=_stack(_rotate(*_components(rec), phis, area)))


def sdbv_projection_xz(recorded, scramble_area: float, wait_phase: float, phi_samples: int = DEFAULT_PHI_SAMPLES) -> np.ndarray:
    """xz-projection of the SDBV after a wait and a pi/2 read pulse.

    Each scrambled state precesses by ``wait_phase`` and is read with a
    W pi/2 pulse; the (x, z) pairs returned are what a fringe readout
    can distinguish.  Shape (phi_samples, 2).
    """
    wait_phase = _real("wait_phase", wait_phase)
    cloud = sdbv(recorded, scramble_area, phi_samples).points
    return np.column_stack(_rotate(*_precess(*_components(cloud), wait_phase), 0.0, np.pi / 2)[::2])  # x and z


def _flop_family(build, scramble_area: float, intervals, phi_samples: int, frames: FrameSet | None) -> FlopFamily:
    """P_e of ``build(area, T)`` on the interval grid, one row per phi_s on a uniform grid.

    ``build``'s events before the last wait are the scan's head, the same
    for every interval; the scan brings the wait and the read.
    """
    t = _as_intervals(intervals)
    phis = phi_grid(phi_samples)
    area = _real("pulse area", scramble_area)
    fr = _phi_rows(frames, phis)
    *head, _, _ = build(area, 0.0).events
    p = _fringes((phis.size, 1, t.size), fr, head, t)  # the head's (P, 1) column by the intervals
    return _record(FlopFamily, intervals=t, phis=phis, p_e=p[:, 0])


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
    and is read with a W pi/2 pulse.  Per interval, the least and the
    greatest final ``z`` over the phi grid are kept and mapped to P_e;
    both extremes are exact, so the result does not depend on evaluation
    order.
    """
    rec = _recorded(recorded)
    t = _as_intervals(intervals)
    area = _real("pulse area", scramble_area)
    ranges = _readout_ranges(rec, _phi_rows(frames, phi_grid(phi_samples)), area, t)[0]
    return _record(AmbiguityReport, scramble_area=area, intervals=t, ranges=ranges, ambiguity=float(ranges.min()))


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

#: Golden-section steps taken from one call of the objective, on the 2**depth - 1 areas they may ask for.
_GOLDEN_DEPTH = 3


def _golden_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi]; ties keep the left end.

    Stops at ``tol`` or once no float lies strictly inside the bracket,
    so a tolerance below the float spacing there cannot loop forever.
    ``f`` takes a list of areas and returns a list of their values, each
    what it returns for that area alone.  The search asks it for the next
    ``_GOLDEN_DEPTH`` steps at once: the first step's side is known, and
    each later one waits for the value before it, so the steps can ask
    for 2**depth - 1 new areas, which one call evaluates (Kiefer's search,
    evaluated speculatively).  The steps are then taken one at a time,
    each with the scalar search's condition, comparison and arithmetic,
    so the result has its bits; areas a stopped search never reaches are
    evaluated for nothing.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f([c, d])
    tree, k = [], 0
    while hi - lo > tol and math.nextafter(lo, hi) < hi:
        if k >= len(tree):
            # the brackets after the next steps as a heap: node n keeps the left part ([lo, d]) if it is the first
            # step and fc >= fd, or if n is odd; its successors are 2n + 1 (left) and 2n + 2, and its new area is the
            # c or the d it makes
            tree, k = [], 0
            for n in range(2**_GOLDEN_DEPTH - 1):
                blo, bhi, bc, bd, _ = tree[(n - 1) // 2] if n else (lo, hi, c, d, None)
                if (n % 2 == 1) if n else (fc >= fd):
                    tree.append((blo, bd, bd - _INV_PHI * (bd - blo), bc, True))
                else:
                    tree.append((bc, bhi, bd, bc + _INV_PHI * (bhi - bc), False))
            values = f([bc if left else bd for _, _, bc, bd, left in tree])
        lo, hi, c, d, left = tree[k]
        fc, fd = (values[k], fc) if left else (fd, values[k])
        k = 2 * k + (1 if fc >= fd else 2)
    x = 0.5 * (lo + hi)
    return x, f([x])[0]


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
    tolerance = _real("tolerance", tolerance, 0.0, strict=True)
    coarse_points = _count("coarse_points", coarse_points, 3)

    t = _as_intervals(intervals)
    fr = _phi_rows(frames, phi_grid(phi_samples))
    trig = _wait_trig(fr, t)

    def objective(thetas: list) -> list:
        # each area's cosine and sine from math, as a scalar area's (bloch._cos_sin): each value has its own call's bits
        pair = np.array([math.cos(th) for th in thetas]), np.array([math.sin(th) for th in thetas])
        return _readout_ranges(rec, fr, pair, t, trig).min(axis=1).tolist()

    thetas = np.linspace(0.0, TWO_PI, coarse_points)
    # runs of areas whose scrambled (phi, area) states, and the temporaries of the rotation making them, fit in a block
    step = max(1, _BLOCK_STATES // (8 * fr.phi_s.size))
    values = np.concatenate([_readout_ranges(rec, fr, thetas[i : i + step], t, trig).min(axis=1) for i in range(0, thetas.size, step)])
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
