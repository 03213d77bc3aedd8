"""Traced-run probes: kernel micro-timings and the import-time breakdown.

Kernel probes time the public ``rotate_inplane``, ``precess`` and
``simulate`` (7-event retrieved Ramsey timeline) at 1, 256 and 257 x 256
states.  One state shows per-call overhead; the larger sizes show the
per-state cost.  The import breakdown comes from ``python -X importtime``
in fresh interpreters, read from outside the package.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

SIZES = (1, 256, 257 * 256)
BATCH_S = 0.02
BATCHES = 5
IMPORT_RUNS = 3


def _per_call(fn) -> float:
    """Median over batches of the seconds one call takes."""
    fn()
    reps, t = 1, 0.0
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        t = time.perf_counter() - t0
        if t >= BATCH_S:
            break
        reps *= 2
    times = [t / reps]
    for _ in range(BATCHES - 1):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def kernel_probes(scramsey) -> dict:
    bloch, seq = scramsey.bloch, scramsey.sequence
    rng = np.random.default_rng(12345)
    timeline = seq.retrieved_ramsey(np.pi, 5e-3, 5e-3, 3e-3)
    out = {}
    for n in SIZES:
        states = rng.normal(size=(n, 3))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        azimuths = rng.uniform(0.0, 2.0 * np.pi, n)
        if n == 1:
            states, azimuths = states[0], float(azimuths[0])
        frames = seq.FrameSet(seq.DELTA_W_REF, 0.9 * seq.DELTA_S_REF, azimuths)
        calls = {
            "bloch.rotate_inplane": lambda: bloch.rotate_inplane(states, azimuths, 1.3),
            "bloch.precess": lambda: bloch.precess(states, 0.7),
            "sequence.simulate": lambda: seq.simulate(timeline, frames),
        }
        for name, fn in calls.items():
            seconds = _per_call(fn)
            if n == 1:
                out[f"{name}.call_us.n1"] = seconds * 1e6
            else:
                out[f"{name}.ns_per_state.n{n}"] = seconds * 1e9 / n
    return out


def _parse_importtime(stderr: str) -> dict:
    self_us, cumulative_us = {}, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, name = line.split(":", 1)[1].split("|")
        name = name.strip()
        self_us[name] = int(own)
        cumulative_us[name] = int(cumulative)
    package_self = sum(v for k, v in self_us.items() if k == "scramsey" or k.startswith("scramsey."))
    return {
        "import.total_s": cumulative_us["scramsey"] / 1e6,
        "import.numpy_s": cumulative_us.get("numpy", 0) / 1e6,
        "import.scipy_optimize_s": cumulative_us.get("scipy.optimize", 0) / 1e6,
        "import.jsonschema_s": cumulative_us.get("jsonschema", 0) / 1e6,
        "import.scramsey_self_s": package_self / 1e6,
    }


def import_breakdown(root, env) -> dict:
    """Median over fresh interpreters of ``-X importtime`` for ``import scramsey``."""
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import scramsey"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        runs.append(_parse_importtime(proc.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
