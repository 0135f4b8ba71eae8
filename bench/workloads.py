"""The benchmark's four workloads: what each curve is and how seeds draw them.

Every config a seed can produce comes from a finite bank per workload, so
each one has a committed reference output under bench/reference/.  A run
is a sequence of passes; each pass takes one bank entry per stratum, drawn
from the seed.  The strata are fixed, so a pass costs nearly the same for
every seed while its inputs differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from qcompton import cli

# spectrum workloads: theta' on a 0.5-degree grid over (140, 175) degrees,
# 7 strata of 5 degrees with 10 grid points each
SPECTRUM_STRATA = 7
SPECTRUM_SUBSTEPS = 10
SPECTRUM_THETA0 = 140.25
SPECTRUM_STEP = 0.5

# angular workloads: each curve has one angle per 22.5-degree sub-range of
# [90, 180] (a common offset u).  A pass's two curves put u in the two
# halves of [0, 1); a seed moves each u by up to 0.1 of a half, in 5
# steps.  Per-angle cost falls about 80-fold from 90 to 180 degrees and
# jumps by up to 30% between angles 1 degree apart, so a wider draw would
# make a pass's cost depend on the seed.
ANGLES_PER_CURVE = 4
ANGULAR_STRATA = 2
ANGULAR_JITTERS = 5
ANGULAR_JITTER_STEP = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "spectrum" or "angular"
    state: str
    intensity_index: int
    broadening: str = "literal"

    def bank(self) -> list[str]:
        """Every config key any seed can draw."""
        if self.kind == "spectrum":
            return [f"t{m:02d}"
                    for m in range(SPECTRUM_STRATA * SPECTRUM_SUBSTEPS)]
        return [f"k{k}d{d}" for k in range(ANGULAR_STRATA)
                for d in range(ANGULAR_JITTERS)]

    def passes(self, seed: int):
        """Endless passes of config keys for a seed, each in run order."""
        rng = random.Random(seed)
        if self.kind == "spectrum":
            strata, substeps = SPECTRUM_STRATA, SPECTRUM_SUBSTEPS
        else:
            strata, substeps = ANGULAR_STRATA, ANGULAR_JITTERS
        while True:
            picks = [(k, rng.randrange(substeps)) for k in range(strata)]
            if self.kind == "spectrum":
                yield [f"t{substeps * k + j:02d}" for k, j in picks]
            else:
                yield [f"k{k}d{j}" for k, j in picks]

    def config(self, key: str) -> dict:
        """The raw CLI config for one bank key."""
        if self.kind == "spectrum":
            cfg = cli.make_preset("fig2", state=self.state,
                                  intensity_index=self.intensity_index)
            theta = SPECTRUM_THETA0 + SPECTRUM_STEP * int(key[1:])
            cfg["scan"]["theta_prime_deg"] = theta
        else:
            cfg = cli.make_preset("fig3", state=self.state,
                                  intensity_index=self.intensity_index)
            k, d = (int(v) for v in key[1:].split("d"))
            jitter = (d - ANGULAR_JITTERS // 2) * ANGULAR_JITTER_STEP
            u = (k + 0.5 + jitter) / ANGULAR_STRATA
            width = 90.0 / ANGLES_PER_CURVE
            lo = 90.0 + width * u
            cfg["scan"]["theta_range_deg"] = [
                lo, lo + width * (ANGLES_PER_CURVE - 1), ANGLES_PER_CURVE]
        cfg["numerics"] = {"broadening": self.broadening}
        cfg["output"] = {"format": "csv"}
        return cfg


WORKLOADS = {w.name: w for w in (
    Workload("spectrum-smooth", "spectrum", "bsv", 1),
    Workload("angular-thermal", "angular", "thermal", 3),
    Workload("lines-coherent", "angular", "coherent", 3),
    Workload("spectrum-driveavg", "spectrum", "mixed_diagonal", 4,
             broadening="drive_average"),
)}
