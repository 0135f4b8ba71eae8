"""Reference outputs: curve fingerprints, their files, and the tolerance.

A curve's fingerprint is each CSV column cut into at most FINGERPRINT_BLOCKS
contiguous blocks and summed per block, so every row counts and a 32 000-row
spectrum is kept as 500 numbers.  Short curves (angular scans) are kept
row by row.

Tolerance: a block passes when |got - ref| <= RTOL |ref| + ATOL_FRAC max|ref|.
RTOL = 1e-8 leaves room for numerics changes of order 1e-13 (reordered
sums, a Bessel evaluation switched to an asymptotic form).  Measured at
the commit that made the references, random relative noise of 1e-13 on
every bessel_j_triple value moved blocks by at most 1.2e-12; noise of
1e-10, the Bessel layer's contract in its asymptotic overlap region, by
at most 1.0e-9 (lines-coherent, where the bracket's near-cancellation
amplifies it tenfold).  Real faults are far larger: dropping the grid node
at a spectrum's peak before convolution moved 17 blocks, the worst by 42%,
and a wrong harmonic order moves a line by many blocks.  The ATOL_FRAC
floor stops deep-tail blocks, many decades below the curve's peak, from
failing on rounding alone.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

FINGERPRINT_BLOCKS = 500
RTOL = 1e-8
ATOL_FRAC = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_curve(path) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a curve CSV written by the qcompton CLI."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    data = np.loadtxt(rows[1:], delimiter=",", ndmin=2)   # rows[0]: header
    return data[:, 0], data[:, 1]


def fingerprint(column: np.ndarray) -> np.ndarray:
    if column.size <= FINGERPRINT_BLOCKS:
        return column.astype(float)
    size = math.ceil(column.size / FINGERPRINT_BLOCKS)
    padded = np.zeros(size * math.ceil(column.size / size))
    padded[:column.size] = column
    return padded.reshape(-1, size).sum(axis=1)


def mismatch(got: np.ndarray, ref: np.ndarray) -> str | None:
    """None when got matches ref within tolerance, else why not."""
    if got.shape != ref.shape:
        return f"fingerprint shape {got.shape} != reference {ref.shape}"
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    err = np.abs(got - ref)
    allowed = RTOL * np.abs(ref) + ATOL_FRAC * scale
    bad = np.nonzero(~(err <= allowed))[0]
    if bad.size:
        i = int(bad[0])
        return (f"{bad.size} block(s) off the reference, first #{i}: "
                f"{float(got[i])!r} vs {float(ref[i])!r}")
    return None


def check_curve(x: np.ndarray, y: np.ndarray, ref: dict | None) -> str | None:
    """None when the curve is valid and matches its reference."""
    if x.size == 0:
        return "empty curve"
    if not np.all(np.isfinite(y)):
        return "non-finite ordinate"
    if np.any(y < 0.0):
        return "negative ordinate"
    if ref is None:
        return "no reference for this config"
    return mismatch(fingerprint(x), ref["x"]) or mismatch(fingerprint(y),
                                                          ref["y"])


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npz"


def load(workload: str) -> dict[str, dict]:
    """{config key: {"x": fingerprint, "y": fingerprint}} for a workload."""
    with np.load(reference_path(workload), allow_pickle=False) as data:
        out: dict[str, dict] = {}
        for name in data.files:
            key, col = name.rsplit("_", 1)
            out.setdefault(key, {})[col] = data[name]
    return out


def save(workload: str, refs: dict[str, dict]) -> None:
    arrays = {f"{key}_{col}": arr for key, cols in refs.items()
              for col, arr in cols.items()}
    REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(reference_path(workload), **arrays)
