"""What a result was measured on: versions, CPU, SIMD, threads, filesystem."""

from __future__ import annotations

import os
import platform
from importlib import metadata
from pathlib import Path


def simd() -> dict:
    """numpy's SIMD baseline and the dispatch targets found on this CPU (as numpy.show_runtime lists them)."""
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    return {
        "baseline": list(__cpu_baseline__),
        "found": [name for name in __cpu_dispatch__ if __cpu_features__.get(name)],
    }


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    path = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4]
        if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
            best, fstype = mount, right.split()[0]
    return f"{fstype} at {best}" if best else fstype


THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env(root: Path) -> dict:
    """Environment of every benchmark process: one thread per library, the checkout's src first."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(out_dir: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "jsonschema": _version("jsonschema"),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "numpy_simd": simd(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "out_filesystem": _filesystem(out_dir),
    }
