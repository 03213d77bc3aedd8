"""Write checksums.json: sha256 of every artifact of every shipped scenario, both table formats.

    python3 perfbench/pin_checksums.py    # from the root of a checkout

The cli-scenarios workload fails any op whose artifacts differ from these
pins.  Re-pin only for a deliberate, documented change of the artifacts;
the numpy version and SIMD targets of the pinning machine are recorded,
because a different vector path may round the last bit differently.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import envinfo
import workloads as w


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_tmp" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = w.CliRunner(root, work, envinfo.child_env(root), pinned={})
    artifacts = {}
    try:
        for stem in sorted(w.SCENARIOS):
            for fmt in w.FORMATS:
                op = w.Op("cli", {"scenario": stem, "format": fmt}, 0)
                _, out_dir, proc = runner.run(op, ["-m", "scramsey"])
                if proc.returncode != 0:
                    print(proc.stderr.decode(), file=sys.stderr)
                    return 1
                artifacts[f"{stem}-{fmt}"] = w.artifact_digests(out_dir)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    env = envinfo.environment(root)
    pins = {
        "produced_with": {key: env[key] for key in ("python", "numpy", "numpy_simd", "cpu_model")},
        "artifacts": artifacts,
    }
    w.CHECKSUMS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
