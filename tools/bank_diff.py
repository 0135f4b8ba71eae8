"""Compare two source trees' outputs on every benchmark bank config.

    python3 tools/bank_diff.py PARENT [CHANGE] [--workload W ...]

PARENT and CHANGE are checkouts of this repository (CHANGE defaults to
the one holding this script).  For each tree, one subprocess puts the
tree's src/ and bench/ first on sys.path and runs every bank config of
its bench/workloads.py (or of the named workloads) through
cli.validate_config -> cli.run_config into a temporary directory, as
the benchmark does.  The two trees' CSV bytes and report "diagnostics"
are then compared config by config.

Prints, per workload, how many configs are identical; for each CSV that
differs, the largest change in each column relative to that column's
peak |value| in PARENT.  Exits 0 when every config matches, 1 when any
differs, and 2 when a tree cannot be run.  Nothing is written inside
either tree: bytecode is not cached and all outputs go to a temporary
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# Run inside one tree: argv is the tree, the output directory and the
# workload names (all workloads when none are given).  Writes
# OUT/W/KEY.csv with its .report.json, and OUT/manifest.json mapping
# each workload's keys to the error a config raised, or None.
_CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path

tree, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
from qcompton import cli
from workloads import WORKLOADS

manifest = {}
for name in sys.argv[3:] or list(WORKLOADS):
    workload = WORKLOADS[name]
    (out / name).mkdir(parents=True)
    errors = manifest[name] = {}
    for key in workload.bank():
        path = str(out / name / f"{key}.csv")
        try:
            resolved = cli.validate_config(workload.config(key))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run_config(resolved, path, "csv")
            errors[key] = None
        except Exception as exc:
            errors[key] = f"{type(exc).__name__}: {exc}"
(out / "manifest.json").write_text(json.dumps(manifest))
"""


def run_tree(tree: Path, out: Path, workloads) -> subprocess.Popen:
    """Start the subprocess that runs the bank configs of `tree`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(tree), str(out), *workloads],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def read_table(path: Path):
    """(column names, float rows) of a curve CSV."""
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    columns = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return columns, rows.reshape(-1, len(columns))


def column_changes(a: Path, b: Path) -> str:
    """The largest change per column of two curve CSVs, each relative to
    the column's peak |value| in `a`."""
    cols_a, rows_a = read_table(a)
    cols_b, rows_b = read_table(b)
    if cols_a != cols_b or rows_a.shape != rows_b.shape:
        return (f"shape {cols_a} x {len(rows_a)} vs "
                f"{cols_b} x {len(rows_b)}")
    parts = []
    for name, x, y in zip(cols_a, rows_a.T, rows_b.T):
        peak = float(np.abs(x).max())
        change = float(np.abs(y - x).max())
        parts.append(f"{name} {change / peak if peak else change:.3g}")
    return ", ".join(parts)


def diagnostics(csv: Path):
    report = csv.with_name(csv.name + ".report.json")
    if not report.is_file():
        return None
    return json.loads(report.read_text()).get("diagnostics")


def differences(csv_a: Path, csv_b: Path, error_a, error_b) -> list[str]:
    """What differs between one config's outputs in the two trees."""
    if error_a != error_b:
        return [f"error {error_a!r} vs {error_b!r}"]
    notes = []
    if csv_a.is_file() != csv_b.is_file():
        notes.append("CSV written on one side only")
    elif csv_a.is_file() and csv_a.read_bytes() != csv_b.read_bytes():
        notes.append(f"CSV differs: {column_changes(csv_a, csv_b)}")
    diag_a, diag_b = diagnostics(csv_a), diagnostics(csv_b)
    if diag_a != diag_b:
        notes.append(f"diagnostics {diag_a} vs {diag_b}")
    return notes


def compare(out_a: Path, out_b: Path, manifest_a: dict,
            manifest_b: dict) -> bool:
    """Print the per-workload comparison; True when everything matches."""
    same = True
    for name, errors_a in manifest_a.items():
        errors_b = manifest_b[name]
        keys = sorted(errors_a.keys() | errors_b.keys())
        notes = {key: differences(out_a / name / f"{key}.csv",
                                  out_b / name / f"{key}.csv",
                                  errors_a.get(key, "not run"),
                                  errors_b.get(key, "not run"))
                 for key in keys}
        differing = [key for key in keys if notes[key]]
        print(f"{name}: {len(keys) - len(differing)}/{len(keys)} identical")
        for key in differing:
            for note in notes[key]:
                print(f"  {key}: {note}")
        same = same and not differing
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two trees' CSV bytes and report diagnostics "
                    "on the benchmark bank configs.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--workload", action="append", default=[],
                        help="a workload of bench/workloads.py (repeatable; "
                             "default: all)")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "bench" / "workloads.py").is_file():
            print(f"bank_diff: no bench/workloads.py under {tree}",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / side for side in ("parent", "change")]
        children = [run_tree(tree, out, args.workload)
                    for tree, out in zip(trees, outs)]
        logs = [child.communicate()[0] for child in children]
        for tree, child, log in zip(trees, children, logs):
            if child.returncode != 0:
                print(f"bank_diff: running {tree} failed:\n{log}",
                      file=sys.stderr)
                return 2
        manifests = [json.loads((out / "manifest.json").read_text())
                     for out in outs]
        return 0 if compare(*outs, *manifests) else 1


if __name__ == "__main__":
    sys.exit(main())
