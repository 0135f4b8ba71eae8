"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that
  * the reference check passes a curve moved by rounding-sized amounts
    and fails one with a single block off by 1e-6 or a dropped row;
  * every workload, run at its smallest size (--seconds 1) untraced and
    traced, prints the metric names and units BENCHMARK.json lists, and
    its curves pass the reference check;
  * without the package source next to it, run.py exits non-zero and
    prints no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import harness

harness.require_source()

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIMEOUT_S = 300


def check_tolerance() -> list[str]:
    errors = []
    name = "spectrum-smooth"
    refs = reference.load(name)
    ref = refs[sorted(refs)[0]]["y"]
    rng = np.random.default_rng(0)
    close = ref * (1.0 + 1e-12 * rng.standard_normal(ref.size))
    if reference.mismatch(close, ref):
        errors.append("tolerance: a 1e-12 relative wobble was rejected")
    off = ref.copy()
    off[int(np.argmax(ref))] *= 1.0 + 1e-6
    if not reference.mismatch(off, ref):
        errors.append("tolerance: a block off by 1e-6 was accepted")
    y = np.repeat(ref / 64.0, 64)
    if not reference.mismatch(reference.fingerprint(np.delete(y, y.size // 2)),
                              ref):
        errors.append("tolerance: a curve missing one row was accepted")
    return errors


def run_bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workloads(spec: dict) -> list[str]:
    errors = []
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            proc = run_bench(harness.ROOT, workload, trace)
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                errors.append(f"{where}: reference check failed: "
                              + " | ".join(line for line in
                                           proc.stdout.splitlines()
                                           if "FAILED" in line))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = expected[trace]
            if got != want:
                differ = sorted(set(got.items()) ^ set(want.items()))
                errors.append(f"{where}: metrics/units differ from "
                              f"BENCHMARK.json: {differ}")
            print(f"ok   {where}", flush=True)
    return errors


def check_without_source() -> list[str]:
    harness.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as tmp:
        shutil.copy(harness.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(harness.BENCH_DIR, f"{tmp}/bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(tmp, "lines-coherent", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without package source: expected a non-zero exit and no "
                f"output, got exit {proc.returncode}"]
    return []


def main() -> int:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = check_tolerance() + check_without_source()
    errors += check_workloads(spec)
    for err in errors:
        print(f"FAIL {err}")
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
