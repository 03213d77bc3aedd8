"""One benchmark worker: a fresh interpreter that imports scramsey, warms up and runs a workload.

Started by ``run.py``, never by hand.  It prints ``READY`` once the
warm-up op has finished (``run.py`` times set-up up to that line), stops
there with ``--setup-only``, and otherwise ends with one ``RESULT <json>``
line.  ``--trace 1`` first runs the workload untraced, then probes the
kernels and the imports, then replays the same rounds with spans on.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import envinfo
import hostspeed

# The tail is the sample with ten beyond it; at 30 ops or more that is p66 or
# higher, so a run keeps going past --seconds until it has 30 ops.
MIN_OPS = 30


def _log(message: str) -> None:
    print(f"worker: {message}", file=sys.stderr, flush=True)


class Stats:
    """Op latencies in adjusted seconds (see ``hostspeed``), and the raw ones beside them."""

    def __init__(self):
        self.latencies, self.raw_latencies, self.attempted, self.failed = [], [], 0, 0
        self.rounds = []
        self.per_round = []  # (ops completed, states, adjusted busy s, raw busy s) of each round

    def busy(self, raw: bool = False) -> float:
        return sum(r[3 if raw else 2] for r in self.per_round)

    def _median_rate(self, index: int, raw: bool) -> float:
        """Median over rounds, so a burst of interference in one round does not move it."""
        busy = 3 if raw else 2
        rates = [r[index] / r[busy] for r in self.per_round if r[busy] > 0]
        return statistics.median(rates) if rates else 0.0

    def ops_per_s(self, raw: bool = False) -> float:
        return self._median_rate(0, raw)

    def states_per_s(self, raw: bool = False) -> float:
        return self._median_rate(1, raw)


def run_rounds(rounds, execute, check, seconds: float, min_ops: int) -> Stats:
    """Closed loop over whole rounds until ``seconds`` have passed and ``min_ops`` ops ran.

    ``execute(op)`` returns (seconds, payload) with only the op itself timed;
    ``check(op, payload)`` raises on a wrong result.  Either raising fails the op.
    The host-speed reference runs before the first op of a round and after
    every op; an op is scaled by the two references around it.
    """
    stats = Stats()
    start = time.perf_counter()
    for ops in rounds:
        if time.perf_counter() - start >= seconds and stats.attempted >= min_ops:
            break
        stats.rounds.append(ops)
        done, states, busy, raw_busy = 0, 0, 0.0, 0.0
        before = hostspeed.reference_s()
        for op in ops:
            stats.attempted += 1
            seconds_taken, payload, error = 0.0, None, None
            try:
                seconds_taken, payload = execute(op)
            except Exception as err:
                error = err
            after = hostspeed.reference_s()
            adjusted = seconds_taken * hostspeed.scale(before, after)
            before = after
            busy += adjusted  # a failed check still spent its time
            raw_busy += seconds_taken
            if error is None:
                try:
                    check(op, payload)
                except Exception as err:
                    error = err
            payload = None  # free the result first, so peak memory is one op's
            if error is not None:  # any failure counts against error_rate
                stats.failed += 1
                if stats.failed <= 5:
                    _log(f"{op.kind} failed: {type(error).__name__}: {error}")
                continue
            stats.latencies.append(adjusted)
            stats.raw_latencies.append(seconds_taken)
            done += 1
            states += op.states
        stats.per_round.append((done, states, busy, raw_busy))
    return stats


def _p50_tail(latencies: list) -> tuple:
    lat = sorted(latencies)
    if not lat:
        return 0.0, 0.0
    return statistics.median(lat), lat[max(len(lat) - 11, 0)]  # the sample with ten beyond it


def end_to_end(stats: Stats, peak_rss_mb: float) -> tuple:
    n = len(stats.latencies)
    p50, tail = _p50_tail(stats.latencies)
    raw_p50, raw_tail = _p50_tail(stats.raw_latencies)
    metrics = {
        "op_s.p50": p50,
        "op_s.tail": tail,
        "ops_per_s": stats.ops_per_s(),
        "states_per_s": stats.states_per_s(),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {"op_s.p50": raw_p50, "op_s.tail": raw_tail, "ops_per_s": stats.ops_per_s(True), "states_per_s": stats.states_per_s(True)}
    info = {
        "samples": n,
        "tail_percentile": math.floor(100.0 * (max(n - 11, 0) + 1) / n) if n else 0,
        "rounds": len(stats.rounds),
        "timed_s": stats.busy(),
        "raw_timed_s": stats.busy(True),
        "host_factor": stats.busy() / stats.busy(True) if stats.busy(True) else 0.0,
        "raw": raw,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "error_rate": stats.failed / stats.attempted if stats.attempted else 0.0,
    }
    return metrics, info


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


# ----------------------------------------------------------------- workloads


class InProcess:
    """grid-sweep and shot-emulation: ops are calls into the imported package."""

    def __init__(self, scramsey, w, name: str, check_rng):
        self.scramsey, self.check_rng = scramsey, check_rng
        grid = name == "grid-sweep"
        self.make_round = w.grid_round if grid else w.shot_round
        self.warmup_ops = w.grid_warmup() if grid else w.shot_warmup()
        self.run_op = w.run_grid if grid else w.run_shot
        self.check_op = w.check_grid if grid else w.check_shot
        self.tracer = None

    def warmup(self) -> None:
        for op in self.warmup_ops:
            self.check(op, self.run_op(op, self.scramsey))

    def execute(self, op):
        if self.tracer is not None:
            self.tracer.op_id += 1
        t0 = time.perf_counter()
        out = self.run_op(op, self.scramsey)
        return time.perf_counter() - t0, out

    def check(self, op, payload) -> None:
        self.check_op(op, payload, self.check_rng)

    def start_tracing(self, spans) -> None:
        self.tracer = spans.Tracer()
        self.tracer.install()

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_SELF)

    def traced_summary(self) -> dict:
        return self.tracer.summary()


class Cli:
    """cli-scenarios: every op is a fresh ``python -m scramsey`` interpreter."""

    def __init__(self, scramsey, w, root: Path, work: Path):
        self.scramsey, self.w, self.root, self.work = scramsey, w, root, work
        self.runner = w.CliRunner(root, work, envinfo.child_env(root), w.load_pinned()["artifacts"])
        self.prefix = ["-m", "scramsey"]
        self.walls = {}
        self.spans = {}
        self.merge = None

    def make_round(self, rng):
        return self.w.cli_round(rng, self.root)

    def warmup(self) -> None:
        out = self.work / "warmup"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.scramsey.cli.main(["sdbv", "--config", str(self.root / "scenarios" / "sdbv.json"), "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"warm-up CLI run exited {code}")

    def execute(self, op):
        seconds, out_dir, proc = self.runner.run(op, self.prefix)
        self.walls.setdefault(f"{op.args['scenario']}-{op.args['format']}", []).append(seconds)
        return seconds, (out_dir, proc)

    def check(self, op, payload) -> None:
        out_dir, proc = payload
        self.runner.check(op, out_dir, proc)
        if self.merge is not None:
            path = out_dir.with_suffix(".spans.json")
            self.merge(self.spans, json.loads(path.read_text("utf-8")))
            path.unlink()

    def start_tracing(self, spans) -> None:
        """Later ops run through tracechild.py, which wraps the package inside each child."""
        self.merge = spans.merge
        self.prefix = [str(Path(__file__).resolve().parent / "tracechild.py")]

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)

    def traced_summary(self) -> dict:
        return self.spans


# ------------------------------------------------------------------- traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, summary: dict, base: dict, error_rate: float) -> dict:
    """Per-layer metrics from the span summary (zeros where a layer was not called)."""
    zero = {"calls": 0.0, "self_s": 0.0, "errors": 0.0, "a": 0.0, "b": 0.0}
    get = lambda name: summary.get(name, zero)
    m = dict(base)
    for module, functions in spans.TARGETS.items():
        for fn in functions:
            s = get(f"{module}.{fn}")
            m[f"{module}.{fn}.calls"] = s["calls"]
            m[f"{module}.{fn}.self_s"] = s["self_s"]
        m[f"{module}.errors"] = sum(get(f"{module}.{fn}")["errors"] for fn in functions)
    writes = [get("harness.write_csv"), get("harness.write_json")]
    m["harness.write.self_s"] = sum(s["self_s"] for s in writes)
    m["harness.write.bytes"] = sum(s["b"] for s in writes)
    m["harness.write.mb_per_s"] = _ratio(m["harness.write.bytes"] / 1e6, m["harness.write.self_s"])
    simulate = get("sequence.simulate")
    m["sequence.states_per_simulate"] = _ratio(simulate["a"], simulate["calls"])
    kernels = [get(f"bloch.{fn}") for fn in spans.TARGETS["bloch"]]
    m["bloch.states_per_call"] = _ratio(sum(s["a"] for s in kernels), sum(s["calls"] for s in kernels))
    m["bloch.bytes_computed"] = sum(s["b"] for s in kernels)
    m["expsim.shots"] = get("expsim.run_trials")["a"]
    fit = get("expsim.fit_damped_sinusoid")
    m["expsim.fit.converged_ratio"] = _ratio(fit["a"], fit["calls"])
    m["error_rate"] = error_rate
    return m


def traced_run(args, scramsey, w, runner, rng, root: Path) -> dict:
    import probes
    import spans

    untraced = run_rounds(iter(lambda: runner.make_round(rng), None), runner.execute, runner.check, args.seconds / 2, 1)
    base = {}
    if isinstance(runner, Cli):
        for stem in w.SCENARIOS:
            for fmt in w.FORMATS:
                base[f"cli.{stem}-{fmt}.wall_s"] = statistics.median(runner.walls[f"{stem}-{fmt}"])
    else:
        base.update({f"cli.{stem}-{fmt}.wall_s": 0.0 for stem in w.SCENARIOS for fmt in w.FORMATS})
    base.update(probes.kernel_probes(scramsey))
    base.update(probes.import_breakdown(root, envinfo.child_env(root)))

    runner.start_tracing(spans)
    traced = run_rounds(untraced.rounds, runner.execute, runner.check, float("inf"), 0)
    base["trace.overhead_ratio"] = _ratio(untraced.ops_per_s(), traced.ops_per_s())
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    metrics = layer_metrics(spans, runner.traced_summary(), base, failed / attempted)
    info = {"untraced_ops": untraced.attempted, "traced_ops": traced.attempted, "rounds": len(untraced.rounds)}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "info": info}


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("cli-scenarios", "grid-sweep", "shot-emulation"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()

    import scramsey
    import scramsey.cli

    if Path(scramsey.__file__).resolve().parent != (root / "src" / "scramsey").resolve():
        _log(f"imported scramsey from {scramsey.__file__}, not from this checkout")
        return 2
    import numpy as np

    import workloads as w

    check_rng = np.random.default_rng([args.seed, 1])
    if args.workload == "cli-scenarios":
        runner = Cli(scramsey, w, root, args.work)
    else:
        runner = InProcess(scramsey, w, args.workload, check_rng)
    runner.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rng = np.random.default_rng(args.seed)
    if args.trace:
        result = traced_run(args, scramsey, w, runner, rng, root)
    else:
        stats = run_rounds(iter(lambda: runner.make_round(rng), None), runner.execute, runner.check, args.seconds, MIN_OPS)
        metrics, info = end_to_end(stats, runner.peak_rss_mb())
        result = {"metrics": metrics, "attempted": stats.attempted, "failed": stats.failed, "info": info}
    result["env"] = envinfo.environment(args.work)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
