"""scramsey benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {cli-scenarios,grid-sweep,shot-emulation} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is taken from ``src/``.
With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json,
with ``--trace 1`` every per-layer metric.  The last line of standard
output is the result as JSON; the lines before it name the environment,
the sample counts and every metric with its unit.  Set-up time is the
median over SETUP_RUNS fresh worker interpreters, each timed from launch
to the end of its warm-up op.  Every timing is in adjusted seconds (see
``hostspeed.py``); the ``info`` line holds the raw ones.  Every process
of a run is kept on one CPU.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import envinfo
import hostspeed

SETUP_RUNS = 5
DEADLINE_S = 170.0
HERE = Path(__file__).resolve().parent


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _launch(argv: list, root: Path, env: dict, deadline: float):
    """Start a worker; returns (process, seconds until READY, killer timer)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], cwd=root, env=env, stdout=subprocess.PIPE, text=True
    )
    killer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    killer.start()
    ready = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if ready.strip() != "READY":
        killer.cancel()
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ended before its warm-up op finished")
    return proc, setup, killer


def _finish(proc, killer) -> dict | None:
    try:
        out, _ = proc.communicate()
    finally:
        killer.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    for line in out.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT ") :])
    return None


def measure(args, root: Path, work: Path) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    env = envinfo.child_env(root)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    argv += ["--trace", str(args.trace), "--work", str(work)]
    setups, raw_setups = [], []
    for _ in range(0 if args.trace else SETUP_RUNS - 1):
        before = hostspeed.reference_s()
        proc, setup, killer = _launch(argv + ["--setup-only"], root, env, deadline)
        _finish(proc, killer)
        setups.append(setup * hostspeed.scale(before, hostspeed.reference_s()))
        raw_setups.append(setup)
    # the last worker goes on to the timed run, so only the reference before it scales it
    before = hostspeed.reference_s()
    proc, setup, killer = _launch(argv, root, env, deadline)
    try:
        result = _finish(proc, killer)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if result is None:
        raise RuntimeError("worker printed no result")
    setups.append(setup * hostspeed.scale(before, before))
    raw_setups.append(setup)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["info"]["setup_runs_s"] = setups
        result["info"]["raw"]["setup_s"] = statistics.median(raw_setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "scramsey" / "__init__.py").is_file() or not (root / "scenarios").is_dir():
        return _fail("run from the root of a scramsey checkout (src/scramsey and scenarios/ not found)")
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return _fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    hostspeed.pin_to_one_cpu()
    work = root / ".perfbench_tmp" / f"run-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, root, work)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as err:
        return _fail(str(err))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        return _fail(f"worker did not report {missing}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("info " + json.dumps(result["info"], sort_keys=True))
    for m in wanted:
        print(f"  {m['name']:<48} {result['metrics'][m['name']]:>16.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {failed} of {attempted} ops failed, error_rate {failed / attempted:.6g}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
