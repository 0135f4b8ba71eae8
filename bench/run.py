"""End-to-end and per-layer benchmark of the qcompton CLI path.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with one client: curves one
after another, each through cli.validate_config -> cli.run_config, which
writes the CSV and its .report.json under bench/out/.  Every curve is
checked (no exception, finite and non-negative ordinates, within tolerance
of its committed reference) and counts as failed otherwise.

--trace 0 measures the end-to-end metrics:
  curve_s      mean wall time of one run_config call (one finished curve)
               over whole passes of the drawn configs
  setup_s      median over SETUP_REPEATS fresh interpreters of importing
               qcompton.cli, validating the config and building the scenario
  peak_rss_mb  peak resident memory of this process
Both times are scaled to a reference machine speed measured by
calibration.py between curves; the unscaled times are printed too.
--trace 1 measures the per-layer metrics: each round runs one config
untraced at workers=1, untraced at workers=2 and traced at workers=1; see
tracing.py for the spans.  Spans are written to bench/out/ when the run ends.

The last line of stdout is the result as one JSON object; the lines before
it give the machine, the configs drawn and every metric in words.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.util
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import harness

harness.require_source()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibration  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SETUP_CODE = ("import json, sys\n"
              "from qcompton import cli\n"
              "with open(sys.argv[1], encoding='utf-8') as fh:\n"
              "    cli._build_scenario(cli.validate_config(json.load(fh)))\n")

END_TO_END = {"curve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "special_functions.self_s": "s",
    "special_functions.bessel_j_triple.calls": "count",
    "special_functions.bessel_j_triple.elements": "count",
    "special_functions.bessel_j_triple.order_elements": "count",
    "special_functions.bessel_j_triple.max_order": "count",
    "special_functions.bessel_j_triple.self_frac": "frac",
    "photon_statistics.self_s": "s",
    "photon_statistics.log_r.calls": "count",
    "photon_statistics.log_r.elements": "count",
    "photon_statistics.log_r.self_frac": "frac",
    "photon_statistics.moments.self_frac": "frac",
    "emission.self_s": "s",
    "emission.spectral_density_points.calls": "count",
    "emission.spectral_density_points.points": "count",
    "emission.spectral_density_points.self_frac": "frac",
    "emission.bessel_bracket.calls": "count",
    "emission.bessel_bracket.self_frac": "frac",
    "emission.coherent_peaks.calls": "count",
    "emission.coherent_peaks.orders": "count",
    "emission.coherent_peaks.self_frac": "frac",
    "emission.orders_scanned": "count",
    "emission.edge_guarded": "count",
    "pipeline.self_s": "s",
    "pipeline._gaussian_convolve_linear.calls": "count",
    "pipeline._gaussian_convolve_linear.segments": "count",
    "pipeline._gaussian_convolve_linear.self_frac": "frac",
    "pipeline._ladder.calls": "count",
    "pipeline._ladder.lines": "count",
    "pipeline._ladder.kept_frac": "frac",
    "pipeline._ladder.self_frac": "frac",
    "pipeline.energy_spectrum.self_frac": "frac",
    "pipeline.band_integrate.self_frac": "frac",
    "pipeline.angular_distribution.self_frac": "frac",
    "pipeline.angular_distribution.threads2_speedup": "ratio",
    "cli.self_s": "s",
    "cli.validate_config.self_frac": "frac",
    "cli._build_scenario.self_frac": "frac",
    "cli._moment_check.self_frac": "frac",
    "cli._write_curve.self_frac": "frac",
    "cli._write_curve.bytes": "bytes",
    "cli.run_config.self_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.curves": "count",
}


def machine_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None}


class CurveRunner:
    """Runs and checks the curves of one workload run."""

    def __init__(self, workload, workdir: str):
        self.workload = workload
        self.refs = reference.load(workload.name)
        self.path = os.path.join(workdir, "curve.csv")
        self.attempted = 0
        self.problems: list[str] = []
        self.last_report: dict | None = None
        self.used: list[str] = []                # config keys, in run order

    def curve(self, key: str, workers: int = 1) -> float:
        """Run and check one curve; returns its run_config wall time."""
        self.used.append(key)
        self.attempted += 1
        self.last_report = None
        started = time.perf_counter()
        try:
            seconds = harness.run_curve(self.workload.config(key), self.path,
                                        workers)
        except Exception as exc:  # a failed curve is counted, not fatal
            self.problems.append(f"{key}: raised {exc!r}")
            return time.perf_counter() - started
        x, y = reference.read_curve(self.path)
        problem = reference.check_curve(x, y, self.refs.get(key))
        if problem:
            self.problems.append(f"{key}: {problem}")
        with open(self.path + ".report.json", encoding="utf-8") as fh:
            self.last_report = json.load(fh)["diagnostics"]
        return seconds


def measure_setup(cfg: dict, workdir: str) -> list[tuple[float, float]]:
    """(wall, scaled) seconds of SETUP_REPEATS fresh-interpreter set-ups."""
    cfg_path = os.path.join(workdir, "setup.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    out = []
    cal = calibration.measure()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, cfg_path], env=env,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - started
        after = calibration.measure()
        out.append((wall, calibration.scaled([wall], [cal, after])))
        cal = after
    return out


def run_passes(passes, seconds: float, one_pass) -> None:
    """one_pass(keys) for whole passes while another one still fits.

    At least one pass runs.  Whole passes keep every stratum equally
    weighted whatever the machine's speed.
    """
    started = time.perf_counter()
    for keys in passes:
        pass_started = time.perf_counter()
        one_pass(keys)
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return


def timed_run(runner: CurveRunner, passes, seconds: float,
              workdir: str) -> dict:
    """End-to-end metrics, untraced.

    The configs of a pass differ in cost by design (strata of angle), so
    curve_s is taken over whole passes as a ratio of sums: every stratum
    counts equally, and noise averages over all samples instead of resting
    on the one middle curve a median would pick.  Times are scaled to the
    reference machine speed by calibration runs between curves.
    """
    first = next(passes)
    setup = measure_setup(runner.workload.config(first[0]), workdir)
    runner.curve(first[-1])                      # warm-up, not timed
    times, cals = [], [calibration.measure()]

    def one_pass(keys):
        for key in keys:
            times.append(runner.curve(key))
            cals.append(calibration.measure())

    run_passes(itertools.chain([first], passes), seconds, one_pass)
    print(f"# curve wall times ({len(times)}): "
          + " ".join(f"{t:.3f}" for t in times))
    print("# calibration times: " + " ".join(f"{c:.4f}" for c in cals))
    print(f"# setup wall times ({len(setup)}): "
          + " ".join(f"{w:.3f}" for w, _ in setup))
    print(f"# unscaled: curve_s {statistics.fmean(times):.4f} s, "
          f"setup_s {statistics.median(w for w, _ in setup):.4f} s")
    return {
        "curve_s": calibration.scaled(times, cals),
        "setup_s": statistics.median(s for _, s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def traced_run(runner: CurveRunner, passes, seconds: float,
               trace_path: str) -> dict:
    """Per-layer metrics: each config runs untraced at workers=1, untraced
    at workers=2, then traced at workers=1."""
    tracer = Tracer()
    workers2 = min(2, len(os.sched_getaffinity(0)))
    first = next(passes)
    runner.curve(first[-1])                      # warm-up, not timed
    plain, threaded, traced, diags = [], [], [], []

    def one_pass(keys):
        for key in keys:
            plain.append(runner.curve(key))
            threaded.append(runner.curve(key, workers2))
            with tracer.installed(len(traced)):
                traced.append(runner.curve(key))
            diags.append(runner.last_report or {})

    run_passes(itertools.chain([first], passes), seconds, one_pass)
    metrics = tracer.layer_metrics()
    for name in ("orders_scanned", "edge_guarded"):
        metrics[f"emission.{name}"] = (sum(d.get(name, 0) for d in diags)
                                       / len(diags))
    # paired sums over the same configs, so the curve mix cancels
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    metrics["pipeline.angular_distribution.threads2_speedup"] = (
        sum(plain) / sum(threaded))
    with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
        json.dump({"machine": machine_info(), "configs": runner.used,
                   "fields": ["name", "start", "end", "parent", "curve",
                              "counts", "self_s"],
                   "spans": tracer.dump(), "metrics": metrics}, fh)
    print(f"# traced curves: {len(traced)}; spans: {len(tracer.spans)}; "
          f"written to {os.path.relpath(trace_path, harness.ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    passes = workload.passes(args.seed)
    print("# " + json.dumps({"machine": machine_info(),
                             "workload": workload.name, "seed": args.seed}))
    harness.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as workdir:
        runner = CurveRunner(workload, workdir)
        if args.trace:
            trace_path = os.path.join(
                harness.OUT_DIR,
                f"trace-{workload.name}-seed{args.seed}.json.gz")
            values = traced_run(runner, passes, args.seconds, trace_path)
            units = PER_LAYER
        else:
            values = timed_run(runner, passes, args.seconds, workdir)
            units = END_TO_END
    failed = len(runner.problems)
    print(f"# configs run: {' '.join(runner.used)}")
    for problem in runner.problems:
        print(f"# FAILED {problem}")
    print(f"# fail_frac: {failed} / {runner.attempted}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
