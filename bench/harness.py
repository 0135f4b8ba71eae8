"""Shared by the benchmark's scripts: find the source, run one curve."""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def require_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit with status 1."""
    if not (SRC / "qcompton" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'qcompton'}; run from "
                 "a checkout of the repository")
    sys.path.insert(0, str(SRC))


def run_curve(cfg: dict, path: str, workers: int = 1) -> float:
    """One curve through the CLI path; returns the run_config wall time.

    validate_config runs outside the timed region, as a user's config is
    validated once before the curve is computed.
    """
    from qcompton import cli
    os.environ["QCOMPTON_THREADS"] = str(workers)
    resolved = cli.validate_config(cfg)
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        cli.run_config(resolved, path, "csv")
        return time.perf_counter() - started
