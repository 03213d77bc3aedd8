"""Span tracer for the traced run, wrapped around the package from outside.

Only the traced run imports this module.  ``install`` replaces each public
function named in ``TARGETS`` with a wrapper in every loaded ``scramsey``
module that holds it, which is where calling modules look it up.  Each
call records one span (name, parent span, op id, start, end, error flag
and two counters) in flat arrays kept in memory; ``summary`` turns them
into per-function calls, self time (span minus child spans), errors and
counter sums when the run ends.  The package's files are never touched.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# module -> public functions to wrap
TARGETS = {
    "bloch": ("rotate_inplane", "precess", "excitation_probability"),
    "sequence": ("simulate",),
    "analysis": (
        "normal_flop",
        "scrambled_flop",
        "retrieved_flop",
        "ambiguity_report",
        "sdbv",
        "sdbv_projection_xz",
        "optimize_scramble_area",
    ),
    "protocol": ("run_secure_choice", "secrecy_check", "validate_secure_config"),
    "expsim": ("run_trials", "fit_damped_sinusoid"),
    "harness": ("load_scenario", "validate_scenario", "run_scenario", "write_csv", "write_json"),
}


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 8 * np.size(x)))


def _bloch_counts(args, kwargs, out):
    """(states produced, bytes computed: state in + state out)."""
    states = np.size(out) // 3 if np.ndim(out) and np.shape(out)[-1:] == (3,) else np.size(out)
    return states, _nbytes(args[0] if args else kwargs["state"]) + _nbytes(out)


COUNTERS = {
    "bloch.rotate_inplane": _bloch_counts,
    "bloch.precess": _bloch_counts,
    "bloch.excitation_probability": _bloch_counts,
    "sequence.simulate": lambda args, kwargs, out: (np.size(out) // 3, 0),
    "expsim.run_trials": lambda args, kwargs, out: (out.samples.size, 0),
    "expsim.fit_damped_sinusoid": lambda args, kwargs, out: (int(out.converged), 0),
    "harness.write_csv": lambda args, kwargs, out: (0, os.path.getsize(args[0])),
    "harness.write_json": lambda args, kwargs, out: (0, os.path.getsize(args[0])),
}


class Tracer:
    """Spans in flat arrays; one op id groups the spans of one op."""

    def __init__(self):
        self.names: list = []
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.err = array("b")
        self.count_a = array("d")
        self.count_b = array("d")
        self.stack: list = []
        self.op_id = -1

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.t0)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.err.append(0)
            self.count_a.append(0.0)
            self.count_b.append(0.0)
            self.t1.append(0.0)
            self.stack.append(i)
            self.t0.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.t1[i] = time.perf_counter()
                self.err[i] = 1
                self.stack.pop()
                raise
            self.t1[i] = time.perf_counter()
            self.stack.pop()
            if count is not None:
                self.count_a[i], self.count_b[i] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target wherever a loaded scramsey module refers to it."""
        modules = [m for key, m in list(sys.modules.items()) if key == "scramsey" or key.startswith("scramsey.")]
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"scramsey.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """name -> {calls, self_s, errors, a, b} from the recorded spans."""
        names = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.t1) - np.array(self.t0)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        sums = {
            "calls": np.bincount(names, minlength=k),
            "self_s": np.bincount(names, weights=self_time, minlength=k),
            "errors": np.bincount(names, weights=np.asarray(self.err, dtype=float), minlength=k),
            "a": np.bincount(names, weights=np.asarray(self.count_a), minlength=k),
            "b": np.bincount(names, weights=np.asarray(self.count_b), minlength=k),
        }
        return {name: {key: float(v[i]) for key, v in sums.items()} for i, name in enumerate(self.names)}


def merge(total: dict, part: dict) -> dict:
    for name, stats in part.items():
        into = total.setdefault(name, dict.fromkeys(stats, 0.0))
        for key, value in stats.items():
            into[key] += value
    return total
