"""Regenerate the committed reference outputs for every bank config.

    python3 bench/make_reference.py [workload ...]

Run this only on a commit whose outputs are known good: the benchmark
counts any later curve that drifts from these files as failed.
"""

from __future__ import annotations

import sys
import tempfile
import time

import harness

harness.require_source()

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    harness.OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        refs = {}
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as tmp:
            path = f"{tmp}/curve.csv"
            for key in workload.bank():
                harness.run_curve(workload.config(key), path)
                x, y = reference.read_curve(path)
                problem = reference.check_curve(x, y, {
                    "x": reference.fingerprint(x),
                    "y": reference.fingerprint(y)})
                if problem:
                    raise SystemExit(f"{name} {key}: {problem}")
                refs[key] = {"x": reference.fingerprint(x),
                             "y": reference.fingerprint(y)}
        reference.save(name, refs)
        print(f"{name}: {len(refs)} configs in "
              f"{time.perf_counter() - started:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
