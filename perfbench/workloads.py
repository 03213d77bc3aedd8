"""The three workloads: seeded op generators, op execution, correctness checks.

Every workload is a closed loop of ops grouped in rounds.  A round holds
the workload's whole op mix (every size band and op kind a fixed number of
times), and the seed draws the values inside each band and the order.  A
run measures whole rounds, so each run times the same mix and only the
drawn values differ between seeds.

Ops look the package functions up through their modules at call time
(``scramsey.analysis.normal_flop``), so the traced run's wrappers apply.
Checks run outside the timed region and compare against ``reference``
(3x3 rotation matrices and closed forms), never against the package.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

TWO_PI = 2.0 * np.pi
TOL = 1e-12  # agreement with the matrix reference and the closed forms
FIT_RTOL = 1e-6  # noiseless Ramsey fit must recover delta_w this closely

HERE = Path(__file__).resolve().parent
CHECKSUMS = HERE / "checksums.json"

# grid-sweep size bands: interval counts, phi counts, and the optimizer's
# (coarse thetas, intervals, phis).  Small bands fit in L2, large ones do not.
T_BANDS = ((65, 81), (241, 273), (961, 1025))
PHI_BANDS = ((64, 80), (240, 272), (960, 1024))
OPT_BANDS = (((61, 91), (17, 21), (32, 40)), ((151, 181), (29, 33), (56, 64)))

# shot-emulation size bands: (trials, intervals, secure-choice shots)
SHOT_BANDS = (((5, 7), (31, 41), (50, 70)), ((10, 13), (61, 71), (110, 140)), ((17, 20), (91, 101), (180, 200)))
BUILDERS = ("ramsey", "scrambled_ramsey", "retrieved_ramsey")

# scenario file stem -> CLI subcommand
SCENARIOS = {
    "ambiguity": "ambiguity",
    "fit": "fit",
    "normal": "flop",
    "normal_noisy": "flop",
    "optimize": "optimize",
    "retrieved": "flop",
    "scrambled": "flop",
    "sdbv": "sdbv",
    "secure_choice": "secure-choice",
}
FORMATS = ("csv", "json")


class CheckFailed(Exception):
    """An op's output disagrees with the reference."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got, want, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    _require(err <= TOL, f"{what}: deviation {err:.3e} > {TOL:g}")


@dataclass
class Op:
    kind: str
    args: dict
    states: int  # final Bloch states, counted from the inputs


# ------------------------------------------------------------ draw helpers


def _hz(rng) -> float:
    return TWO_PI * float(rng.uniform(50.0, 200.0))


def _count(rng, band) -> int:
    return int(rng.integers(band[0], band[1] + 1))


def _intervals(rng, delta_w: float, count: int) -> np.ndarray:
    return np.linspace(0.0, float(rng.uniform(1.0, 4.0)) * TWO_PI / delta_w, count)


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _area(rng) -> float:
    return float(rng.uniform(0.1, 1.9)) * np.pi


def _phis(count: int) -> np.ndarray:
    return TWO_PI * np.arange(count) / count


# ------------------------------------------------------------- grid-sweep


def _grid_op(rng, kind: str, t_band, phi_band) -> Op:
    dw, ds = _hz(rng), _hz(rng)
    T = _intervals(rng, dw, _count(rng, t_band))
    P = _count(rng, phi_band)
    args = {"delta_w": dw, "delta_s": ds, "intervals": T, "phi_samples": P, "area": _area(rng)}
    if kind == "scrambled_flop":
        args["t1"] = float(rng.uniform(1e-3, 1e-2))
    elif kind == "retrieved_flop":
        args["t1"] = float(rng.uniform(1e-3, 1e-2))
        # half the stores sit on delta_s * t2 = (2m + 1) pi, where the
        # family must collapse onto the shifted fringe
        args["descrambles"] = bool(rng.random() < 0.5)
        if args["descrambles"]:
            args["t2"] = (2 * int(rng.integers(0, 4)) + 1) * np.pi / ds
        else:
            args["t2"] = float(rng.uniform(1e-3, 1e-2))
    elif kind == "ambiguity_report":
        args["record"] = _unit(rng)
    return Op(kind, args, T.size * P)


def grid_round(rng, bands=None) -> list:
    """35 ops: 3 fringes, 3 x 3 x 3 families/ambiguity grids, 3 SDBVs, 2 optimizer runs."""
    t_bands, phi_bands, opt_bands = bands or (T_BANDS, PHI_BANDS, OPT_BANDS)
    ops = []
    for band in t_bands:
        dw = _hz(rng)
        T = _intervals(rng, dw, _count(rng, band))
        ops.append(Op("normal_flop", {"delta_w": dw, "intervals": T}, T.size))
    for t_band in t_bands:
        for phi_band in phi_bands:
            for kind in ("scrambled_flop", "retrieved_flop", "ambiguity_report"):
                ops.append(_grid_op(rng, kind, t_band, phi_band))
    for band in phi_bands:
        P = _count(rng, band)
        args = {"record": _unit(rng), "area": _area(rng), "wait_phase": float(rng.uniform(0.0, TWO_PI)), "phi_samples": P}
        ops.append(Op("sdbv", args, 2 * P))
    for theta_band, t_band, phi_band in opt_bands:
        dw, ds = _hz(rng), _hz(rng)
        C, P = _count(rng, theta_band), _count(rng, phi_band)
        T = _intervals(rng, dw, _count(rng, t_band))
        args = {"delta_w": dw, "delta_s": ds, "intervals": T, "phi_samples": P, "record": _unit(rng), "coarse_points": C}
        ops.append(Op("optimize_scramble_area", args, C * T.size * P))
    return [ops[i] for i in rng.permutation(len(ops))]


def grid_warmup() -> list:
    """One op of every kind at the smallest sizes, independent of the seed."""
    small = (((65, 65),), ((64, 64),), (((61, 61), (17, 17), (32, 32)),))
    ops = grid_round(np.random.default_rng(0), small)
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


def run_grid(op: Op, scramsey):
    a = op.args
    an = scramsey.analysis
    if op.kind == "normal_flop":
        return an.normal_flop(a["delta_w"], a["intervals"])
    if op.kind == "sdbv":
        return (
            an.sdbv(a["record"], a["area"], a["phi_samples"]),
            an.sdbv_projection_xz(a["record"], a["area"], a["wait_phase"], a["phi_samples"]),
        )
    frames = scramsey.sequence.FrameSet(a["delta_w"], a["delta_s"])
    if op.kind == "scrambled_flop":
        return an.scrambled_flop(a["area"], a["t1"], a["intervals"], a["phi_samples"], frames)
    if op.kind == "retrieved_flop":
        return an.retrieved_flop(a["area"], a["t1"], a["t2"], a["intervals"], a["phi_samples"], frames)
    if op.kind == "ambiguity_report":
        return an.ambiguity_report(a["record"], a["area"], a["intervals"], a["phi_samples"], frames)
    return an.optimize_scramble_area(
        a["record"], a["intervals"], a["phi_samples"], frames, coarse_points=a["coarse_points"]
    )


def check_grid(op: Op, out, rng) -> None:
    """Seeded sample of grid points against the matrix model, plus closed forms."""
    a = op.args
    if op.kind == "normal_flop":
        _require(out.p_e.shape == a["intervals"].shape, "normal_flop shape")
        _close(out.p_e, ref.normal_fringe(a["delta_w"], a["intervals"]), "normal_flop closed form")
        j = rng.integers(0, a["intervals"].size, 8)
        _close(out.p_e[j], ref.p_e(ref.ramsey(a["intervals"][j]), a["delta_w"], a["delta_w"], 0.0), "normal_flop matrix")
        return
    if op.kind == "sdbv":
        cloud, projection = out
        P = a["phi_samples"]
        phis = _phis(P)
        _require(cloud.points.shape == (P, 3) and projection.shape == (P, 2), "sdbv shape")
        k = rng.integers(0, P, 8)
        # the pulse fires at t = 0, so its axis is phi itself; with delta_w = 1
        # a ("T", phase) event precesses by that phase
        want = ref.final_state([("S", a["area"])], 1.0, 1.0, phis[k], a["record"])
        _close(cloud.points[k], want, "sdbv matrix")
        read = ref.final_state([("S", a["area"]), ("T", a["wait_phase"]), ("W", ref.HALF_PI)], 1.0, 1.0, phis[k], a["record"])
        _close(projection[k], read[:, [0, 2]], "sdbv projection matrix")
        return
    T, P = a["intervals"], a["phi_samples"]
    phis = _phis(P)
    dw, ds = a["delta_w"], a["delta_s"]
    if op.kind in ("scrambled_flop", "retrieved_flop"):
        _require(out.p_e.shape == (P, T.size), f"{op.kind} shape")
        k, j = rng.integers(0, P, 8), rng.integers(0, T.size, 8)
        if op.kind == "scrambled_flop":
            events = ref.scrambled(a["area"], a["t1"], T[j])
        else:
            events = ref.retrieved(a["area"], a["t1"], a["t2"], T[j])
        _close(out.p_e[k, j], ref.p_e(events, dw, ds, phis[k]), f"{op.kind} matrix")
        if op.kind == "retrieved_flop" and a["descrambles"]:
            shifted = ref.normal_fringe(dw, a["t1"] + a["t2"] + T)
            _close(out.p_e[k], np.broadcast_to(shifted, (k.size, T.size)), "retrieved_flop collapse onto the shifted fringe")
        return
    if op.kind == "ambiguity_report":
        _require(out.ranges.shape == T.shape, "ambiguity_report shape")
        j = rng.integers(0, T.size, 2)
        p = ref.p_e(ref.read_after_scramble(a["area"], T[j][None, :]), dw, ds, phis[:, None], a["record"])
        _close(out.ranges[j], np.ptp(p, axis=0), "ambiguity_report matrix")
        _require(out.ambiguity == float(out.ranges.min()), "ambiguity is min(ranges)")
        return
    theta = out.theta_star
    _require(0.0 <= theta <= TWO_PI and out.plateau[0] <= theta <= out.plateau[1], "optimizer theta* and plateau")
    p = ref.p_e(ref.read_after_scramble(theta, T[None, :]), dw, ds, phis[:, None], a["record"])
    _close(out.ambiguity, np.ptp(p, axis=0).min(), "optimizer ambiguity at theta* vs matrix")


# --------------------------------------------------------- shot-emulation


def _shot_op(rng, builder: str, band, noise_class: int) -> Op:
    (trial_band, interval_band, read_band) = band
    dw, ds = _hz(rng), _hz(rng)
    trials = _count(rng, trial_band)
    T = _intervals(rng, dw, _count(rng, interval_band))
    noise = {"seed": int(rng.integers(0, 2**32))}
    if noise_class == 1:  # projection noise and contrast decay
        noise.update(atom_count=int(rng.integers(50, 1001)), contrast_decay_tau=float(rng.uniform(0.01, 0.1)))
    elif noise_class == 2:  # phase jitter and projection noise
        noise.update(atom_count=int(rng.integers(50, 1001)), phase_jitter_sigma=float(rng.uniform(0.01, 0.2)))
    reads = _count(rng, read_band)
    args = {
        "builder": builder,
        "delta_w": dw,
        "delta_s": ds,
        "area": _area(rng),
        "t1": float(rng.uniform(1e-3, 1e-2)),
        "t2": (2 * int(rng.integers(0, 3)) + 1) * np.pi / ds,
        "noise": noise,
        "trials": trials,
        "intervals": T,
        # secure-choice shots on a protocol config of their own
        "sc_delta_w": _hz(rng),
        "sc_delta_s": _hz(rng),
        "sc_t1": float(rng.uniform(1e-3, 1e-2)),
        "sc_m": int(rng.integers(0, 3)),
        "choices": ["yes" if c else "no" for c in rng.random(reads) < 0.5],
        "phis": rng.uniform(0.0, TWO_PI, reads),
        # a multiple of 4: the yes and no readouts differ by a shot-phase
        # shift of pi/2, and only such grids are closed under it
        "secrecy_phi_samples": 4 * _count(rng, (16, 64)),
    }
    return Op("shot", args, trials * T.size + reads + 2 * args["secrecy_phi_samples"])


def shot_round(rng, bands=SHOT_BANDS) -> list:
    """9 ops: 3 builders x 3 size bands, each builder and band once per noise class.

    The (builder, band) -> noise class square is fixed, so every round costs
    about the same; the seed draws the values and the order.
    """
    ops = [
        _shot_op(rng, builder, band, (b + s) % 3)
        for b, builder in enumerate(BUILDERS)
        for s, band in enumerate(bands)
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def shot_warmup() -> list:
    """One smallest op per builder, independent of the seed."""
    small = (((5, 5), (31, 31), (50, 50)),)
    return shot_round(np.random.default_rng(0), small)


def run_shot(op: Op, scramsey):
    a = op.args
    seq, expsim, protocol = scramsey.sequence, scramsey.expsim, scramsey.protocol
    area, t1, t2 = a["area"], a["t1"], a["t2"]
    builder = {
        "ramsey": seq.ramsey,
        "scrambled_ramsey": lambda T: seq.scrambled_ramsey(area, t1, T),
        "retrieved_ramsey": lambda T: seq.retrieved_ramsey(area, t1, t2, T),
    }[a["builder"]]
    frames = seq.FrameSet(a["delta_w"], a["delta_s"])
    stats = expsim.run_trials(builder, frames, expsim.NoiseModel(**a["noise"]), a["trials"], a["intervals"])
    fit = expsim.fit_damped_sinusoid(a["intervals"], stats.mean)
    sc_frames = seq.FrameSet(a["sc_delta_w"], a["sc_delta_s"])
    sc_t2 = protocol.retrieve_delay(a["sc_delta_s"], a["sc_m"])
    sc_t3 = protocol.secure_read_delay(sc_frames, a["sc_t1"], sc_t2)
    config = protocol.ProtocolConfig(frames=sc_frames, t1=a["sc_t1"], t2=sc_t2, t3=sc_t3)
    reads = [protocol.run_secure_choice(c, phi, config) for c, phi in zip(a["choices"], a["phis"])]
    decoded = [protocol.decode_choice(p) for p in reads]
    gap = protocol.secrecy_check(config, a["secrecy_phi_samples"])
    return stats, fit, reads, decoded, gap


def _noiseless_trials(a) -> np.ndarray:
    """Reference samples, drawing the shot phases in the documented order."""
    T = a["intervals"]
    out = np.empty((a["trials"], T.size))
    for i, stream in enumerate(np.random.SeedSequence(a["noise"]["seed"]).spawn(a["trials"])):
        if a["builder"] == "ramsey":
            out[i] = ref.p_e(ref.ramsey(T), a["delta_w"], a["delta_s"], 0.0)
            continue
        phis = np.random.default_rng(stream).uniform(0.0, TWO_PI, T.size)
        if a["builder"] == "scrambled_ramsey":
            events = ref.scrambled(a["area"], a["t1"], T)
        else:
            events = ref.retrieved(a["area"], a["t1"], a["t2"], T)
        out[i] = ref.p_e(events, a["delta_w"], a["delta_s"], phis)
    return out


def check_shot(op: Op, out, rng) -> None:
    a = op.args
    stats, fit, reads, decoded, gap = out
    _require(stats.samples.shape == (a["trials"], a["intervals"].size), "run_trials shape")
    atoms = a["noise"].get("atom_count")
    if atoms is None:
        _close(stats.samples, _noiseless_trials(a), f"noiseless {a['builder']} shots vs matrix")
        if a["builder"] == "ramsey":
            rel = abs(fit.angular_frequency - a["delta_w"]) / a["delta_w"]
            _require(rel <= FIT_RTOL, f"noiseless Ramsey fit recovers delta_w to {rel:.2e} > {FIT_RTOL:g}")
    else:
        s = stats.samples
        counts = s * atoms
        _require(np.all((s >= 0.0) & (s <= 1.0)), "noisy samples outside [0, 1]")
        _require(np.all(np.abs(counts - np.round(counts)) <= 1e-9), "noisy samples off the 1/atom_count lattice")
    want = np.array([1.0 if c == "yes" else 0.0 for c in a["choices"]])
    _close(reads, want, "secure-choice readout vs closed form")
    _require(decoded == a["choices"], "secure-choice decode")
    _require(0.0 <= gap <= TOL, f"secrecy gap {gap!r} > {TOL:g}")


# ---------------------------------------------------------- cli-scenarios


def scenario_states(root: Path, stem: str) -> int:
    """Final Bloch states a shipped scenario computes, from its inputs."""
    s = json.loads((root / "scenarios" / f"{stem}.json").read_text("utf-8"))
    count = s.get("intervals", {}).get("count", 201)
    phis = s.get("phi_samples", 256)
    mode = s["mode"]
    if mode == "normal":
        return count * (1 + s.get("trials", {}).get("count", 0))
    if mode in ("scrambled", "retrieved", "ambiguity-sweep"):
        return count * phis
    if mode == "sdbv":
        return 2 * phis
    if mode == "optimize":
        return s.get("optimizer", {}).get("coarse_points", 181) * count * phis
    if mode == "secure-choice":
        return 3 * phis  # readout sweep plus the two-choice secrecy sweep
    return 0  # fit: no Bloch states


def cli_round(rng, root: Path) -> list:
    """18 ops: every shipped scenario in both table formats, seeded order."""
    ops = [
        Op("cli", {"scenario": stem, "format": fmt}, scenario_states(root, stem))
        for stem in sorted(SCENARIOS)
        for fmt in FORMATS
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def cli_argv(op: Op, out_dir: Path) -> list:
    stem = op.args["scenario"]
    return [
        SCENARIOS[stem],
        "--config",
        f"scenarios/{stem}.json",
        "--out",
        str(out_dir),
        "--format",
        op.args["format"],
    ]


def artifact_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


class CliRunner:
    """Runs one CLI op as a fresh interpreter and checks its artifacts."""

    def __init__(self, root: Path, work: Path, env: dict, pinned: dict):
        self.root, self.work, self.env, self.pinned = root, work, env, pinned
        self.n = 0

    def run(self, op: Op, prefix: list) -> tuple:
        """Returns (wall seconds, output dir, completed process); untimed parts excluded."""
        self.n += 1
        out_dir = self.work / f"cli-{self.n}"
        cmd = [sys.executable, *prefix, *cli_argv(op, out_dir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        return time.perf_counter() - t0, out_dir, proc

    def check(self, op: Op, out_dir: Path, proc) -> None:
        try:
            key = f"{op.args['scenario']}-{op.args['format']}"
            _require(proc.returncode == 0, f"{key} exit code {proc.returncode}: {proc.stderr.decode()[-300:]}")
            _require(artifact_digests(out_dir) == self.pinned[key], f"{key} artifacts differ from the pinned checksums")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def load_pinned() -> dict:
    return json.loads(CHECKSUMS.read_text("utf-8"))
