"""Command-line front end: configs in, plot-ready curves out.

Two subcommands:

  qcompton run --config scenario.json [--out curve.csv] [--format csv|json]
  qcompton preset fig2 [--state bsv] [--intensity-index 4]
                       [--emit-config scenario.json]

Configs are single JSON files with all physical inputs in laboratory
units; conversion to natural units happens in exactly one place.  Every
run writes the requested curve plus a JSON report holding truncation
diagnostics, the statistics moment check, wall time and the fully
resolved config, so a run can be reproduced bit for bit.

Exit codes: 1 config schema error (the message names the offending
path), 2 kinematic or physics error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict

from . import __version__
from .minkowski import EmissionGeometry, electron_momentum
from .units import LabDriveSpec, natural_drive
from . import photon_statistics as ps
from .emission import (DEFAULT_REL_TOL, DEFAULT_S_MAX, Diagnostics,
                       TruncationNotConverged)
from .pipeline import (OmegaGrid, Scenario, angular_distribution,
                       energy_spectrum)

EXIT_SCHEMA = 1
EXIT_PHYSICS = 2
EXIT_NONCONVERGENCE = 3

STATE_NAMES = tuple(ps.FAMILIES)


class SchemaError(ValueError):
    """Config validation failure, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# schema validation

def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise SchemaError(name, "required section is missing")
    if not isinstance(cfg[name], dict):
        raise SchemaError(name, "must be an object")
    return cfg[name]


def _finite(x) -> bool:
    """A JSON number that is a finite float; json.load admits NaN and
    Infinity, and an integer literal may lie beyond the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _finite_list(v, n: int) -> bool:
    return (isinstance(v, (list, tuple)) and len(v) == n
            and all(_finite(x) for x in v))


def _field(obj: dict, path: str, key: str, default):
    """obj[key], else `default`, which the caller checks like a given
    value; a field without a default is required."""
    if key in obj:
        return obj[key]
    if default is None:
        raise SchemaError(f"{path}.{key}", "required field is missing")
    return default


def _number(obj: dict, path: str, key: str, *, lo=None, hi=None,
            lo_open=False, default=None):
    v = _field(obj, path, key, default)
    if not _finite(v):
        raise SchemaError(f"{path}.{key}",
                          f"must be a finite number, got {v!r}")
    v = float(v)
    if lo is not None and (v <= lo if lo_open else v < lo):
        op = ">" if lo_open else ">="
        raise SchemaError(f"{path}.{key}", f"must be {op} {lo}, got {v}")
    if hi is not None and v > hi:
        raise SchemaError(f"{path}.{key}", f"must be <= {hi}, got {v}")
    return v


def _integer(obj: dict, path: str, key: str, *, lo=1, hi=None, default=None):
    v = _field(obj, path, key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}.{key}", f"must be an integer, got {v!r}")
    if v < lo:
        raise SchemaError(f"{path}.{key}", f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise SchemaError(f"{path}.{key}", f"must be <= {hi}, got {v}")
    return v


def _choice(obj: dict, path: str, key: str, options, *, default=None):
    v = _field(obj, path, key, default)
    if v not in options:
        raise SchemaError(f"{path}.{key}",
                          f"must be one of {list(options)}, got {v!r}")
    return v


def _number_pair(obj: dict, path: str, key: str):
    v = _field(obj, path, key, None)
    if not _finite_list(v, 2):
        raise SchemaError(f"{path}.{key}",
                          f"must be a [lo, hi] finite number pair, got {v!r}")
    lo, hi = float(v[0]), float(v[1])
    if not hi > lo:
        raise SchemaError(f"{path}.{key}", f"needs lo < hi, got [{lo}, {hi}]")
    return [lo, hi]


def validate_config(cfg: dict) -> dict:
    """Check a raw config dict and return it with defaults filled in.

    Raises SchemaError naming the offending path on the first problem.
    """
    if not isinstance(cfg, dict):
        raise SchemaError("(root)", "config must be a JSON object")
    out: dict = {}

    el = _section(cfg, "electron")
    kinds = [k for k in ("gamma", "beta", "kinetic_energy_eV") if k in el]
    if len(kinds) != 1:
        raise SchemaError("electron", "exactly one of gamma, beta or "
                          f"kinetic_energy_eV is required, found {kinds}")
    if "gamma" in el:
        gamma = _number(el, "electron", "gamma", lo=1.0)
    elif "beta" in el:
        beta = _number(el, "electron", "beta", lo=0.0, hi=1.0)
        if beta >= 1.0:
            raise SchemaError("electron.beta", f"must be < 1, got {beta}")
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    else:
        ke = _number(el, "electron", "kinetic_energy_eV", lo=0.0)
        from .constants import ELECTRON_MASS_EV
        gamma = 1.0 + ke / ELECTRON_MASS_EV
    direction = el.get("direction")
    if not _finite_list(direction, 3):
        raise SchemaError("electron.direction", "must be a 3-vector of "
                          f"finite numbers, got {direction!r}")
    norm = math.hypot(*direction)     # no overflow for huge components
    if norm == 0.0:
        raise SchemaError("electron.direction", "must be a nonzero vector")
    out["electron"] = {"gamma": gamma,
                       "direction": [float(x) / norm for x in direction]}

    dr = _section(cfg, "drive")
    out["drive"] = {
        "photon_energy_eV": _number(dr, "drive", "photon_energy_eV",
                                    lo=0.0, lo_open=True),
        "intensity_W_cm2": _number(dr, "drive", "intensity_W_cm2",
                                   lo=0.0, lo_open=True),
        "relative_bandwidth": _number(dr, "drive", "relative_bandwidth",
                                      lo=0.0, lo_open=True),
        "state": _choice(dr, "drive", "state", STATE_NAMES),
    }
    if out["drive"]["state"] == "custom":
        table = dr.get("custom_table")
        if not isinstance(table, str) or not table:
            raise SchemaError("drive.custom_table",
                              "custom state needs a table file path")
        out["drive"]["custom_table"] = table

    sc = _section(cfg, "scan")
    mode = _choice(sc, "scan", "mode", ("spectrum", "angular"))
    phi = _number(sc, "scan", "phi_prime_deg", default=0.0)
    if not 0.0 <= math.radians(phi) < 2.0 * math.pi:   # as EmissionGeometry
        raise SchemaError("scan.phi_prime_deg",
                          f"must lie in [0, 360), got {phi}")
    out["scan"] = {"mode": mode, "phi_prime_deg": phi}
    if mode == "spectrum":
        out["scan"]["theta_prime_deg"] = _number(
            sc, "scan", "theta_prime_deg", lo=0.0, hi=180.0)
        rng = _number_pair(sc, "scan", "omega_prime_range_eV")
        if rng[0] <= 0.0:
            raise SchemaError("scan.omega_prime_range_eV",
                              f"lower edge must be > 0, got {rng[0]}")
        out["scan"]["omega_prime_range_eV"] = rng
        out["scan"]["samples"] = _integer(sc, "scan", "samples", lo=2)
        out["scan"]["grid"] = _choice(sc, "scan", "grid", ("linear", "log"),
                                      default="linear")
    else:
        v = sc.get("theta_range_deg")
        if not _finite_list(v, 3):
            raise SchemaError("scan.theta_range_deg", "must be [lo_deg, "
                              "hi_deg, count] finite numbers, got %r" % (v,))
        lo, hi, cnt = float(v[0]), float(v[1]), v[2]
        if not (0.0 <= lo < hi <= 180.0):
            raise SchemaError("scan.theta_range_deg",
                              f"needs 0 <= lo < hi <= 180, got [{lo}, {hi}]")
        if not isinstance(cnt, int) or cnt < 2:
            raise SchemaError("scan.theta_range_deg",
                              f"count must be an integer >= 2, got {cnt!r}")
        out["scan"]["theta_range_deg"] = [lo, hi, cnt]
        band = _number_pair(sc, "scan", "band_eV")
        if band[0] <= 0.0:
            raise SchemaError("scan.band_eV",
                              f"lower edge must be > 0, got {band[0]}")
        out["scan"]["band_eV"] = band
        out["scan"]["samples"] = _integer(sc, "scan", "samples", lo=2,
                                          default=512)
        jacobian = _field(sc, "scan", "jacobian", False)
        if not isinstance(jacobian, bool):
            raise SchemaError("scan.jacobian",
                              f"must be true or false, got {jacobian!r}")
        out["scan"]["jacobian"] = jacobian

    nm = cfg.get("numerics", {})
    if not isinstance(nm, dict):
        raise SchemaError("numerics", "must be an object")
    out["numerics"] = {
        "broadening": _choice(nm, "numerics", "broadening",
                              ("literal", "drive_average"), default="literal"),
        "rel_tol": _number(nm, "numerics", "rel_tol", lo=0.0, lo_open=True,
                           default=DEFAULT_REL_TOL),
        "s_max": _integer(nm, "numerics", "s_max", lo=1, hi=DEFAULT_S_MAX,
                          default=DEFAULT_S_MAX),
    }

    ou = cfg.get("output", {})
    if not isinstance(ou, dict):
        raise SchemaError("output", "must be an object")
    out["output"] = {
        "format": _choice(ou, "output", "format", ("csv", "json"),
                          default="csv"),
        "path": ou.get("path"),
    }
    if out["output"]["path"] is not None and not isinstance(
            out["output"]["path"], str):
        raise SchemaError("output.path", "must be a string")

    if isinstance(cfg.get("notes"), list):
        out["notes"] = [str(n) for n in cfg["notes"]]
    return out


# ---------------------------------------------------------------------------
# scenario assembly and execution

def _build_stats(resolved: dict):
    drv = resolved["drive"]
    nat = natural_drive(LabDriveSpec(
        intensity_W_cm2=drv["intensity_W_cm2"],
        photon_energy_eV=drv["photon_energy_eV"],
        relative_bandwidth=drv["relative_bandwidth"]))
    state = drv["state"]
    if state == "custom":
        stats = ps.tabulated_stats_from_file(drv["custom_table"],
                                             nat.omega, nat.rho)
    else:
        stats = ps.FAMILIES[state](nat.omega, nat.rho)
    return nat, stats


def _build_scenario(resolved: dict) -> Scenario:
    nat, stats = _build_stats(resolved)
    el = resolved["electron"]
    electron = electron_momentum(el["gamma"], tuple(el["direction"]))
    scan = resolved["scan"]
    if scan["mode"] == "spectrum":
        rng = scan["omega_prime_range_eV"]
        grid = OmegaGrid(rng[0], rng[1], scan["samples"], scan["grid"])
        thetas = ()
    else:
        lo, hi, cnt = scan["theta_range_deg"]
        band = scan["band_eV"]
        grid = OmegaGrid(band[0], band[1], scan["samples"])
        step = (hi - lo) / (cnt - 1)
        thetas = tuple(math.radians(lo + i * step) for i in range(cnt))
    return Scenario(
        electron=electron, drive=nat, stats=stats, omega_grid=grid,
        thetas=thetas, phi=math.radians(scan["phi_prime_deg"]),
        broadening=resolved["numerics"]["broadening"],
        rel_tol=resolved["numerics"]["rel_tol"],
        s_max=resolved["numerics"]["s_max"])


def _metadata_lines(resolved: dict) -> list[str]:
    el, drv, scan = (resolved["electron"], resolved["drive"],
                     resolved["scan"])
    lines = [
        f"qcompton {__version__}",
        f"state: {drv['state']}",
        f"intensity_W_cm2: {drv['intensity_W_cm2']:.17g}",
        f"photon_energy_eV: {drv['photon_energy_eV']:.17g}",
        f"relative_bandwidth: {drv['relative_bandwidth']:.17g}",
        f"electron_gamma: {el['gamma']:.17g}",
        "electron_direction: %s" % " ".join(
            format(x, ".17g") for x in el["direction"]),
        f"broadening: {resolved['numerics']['broadening']}",
    ]
    if scan["mode"] == "spectrum":
        lines.append(f"theta_prime_deg: {scan['theta_prime_deg']:.17g}")
        lines.append(f"phi_prime_deg: {scan['phi_prime_deg']:.17g}")
    else:
        lines.append("theta_range_deg: %s" % " ".join(
            format(x, ".17g") for x in scan["theta_range_deg"]))
        lines.append("band_eV: %s" % " ".join(
            format(x, ".17g") for x in scan["band_eV"]))
        lines.append(f"jacobian: {scan['jacobian']}")
    return lines


def _write_curve(path: str, fmt: str, columns, rows, meta_lines):
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in meta_lines:
                fh.write(f"# {line}\n")
            fh.write(",".join(columns) + "\n")
            row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
            fh.write("".join([row_fmt % tuple(row) for row in rows]))
    else:
        doc = {"meta": meta_lines, "columns": list(columns),
               "rows": [list(map(float, row)) for row in rows]}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def _moment_check(stats) -> dict:
    m1, m2 = ps.moments(stats)
    expected = 2.0 * stats.energy_density
    check = {"m1": m1, "m2": m2, "m2_expected": expected,
             "m1_rel_err": abs(m1 - 1.0)}
    check["m2_rel_err"] = (abs(m2 - expected) / expected
                           if expected > 0.0 else 0.0)
    return check


def _scan_rows(scenario: Scenario, scan: dict, diagnostics: Diagnostics):
    """The curve's CSV columns and rows for the configured scan."""
    if scan["mode"] == "spectrum":
        geometry = EmissionGeometry(
            theta=math.radians(scan["theta_prime_deg"]),
            phi=math.radians(scan["phi_prime_deg"]))
        curve = energy_spectrum(scenario, geometry, diagnostics=diagnostics)
        columns = ("omega_prime_eV", "energy_per_eV_sr")
        rows = list(zip(curve.omega.tolist(), curve.values.tolist()))
    else:
        ang = angular_distribution(scenario, tuple(scan["band_eV"]),
                                   jacobian=scan["jacobian"],
                                   diagnostics=diagnostics)
        columns = ("theta_prime_deg", "band_energy_per_sr")
        rows = list(zip([math.degrees(t) for t in ang.theta.tolist()],
                        ang.values.tolist()))
    return columns, rows


def _write_report(path: str, wall: float, diagnostics: Diagnostics, stats,
                  resolved: dict, **outcome) -> str:
    """Write `path`.report.json; `outcome` is output_path, or error and
    failure (the failing point an exception carries, or None).

    A failed run's report records a moment check that fails too (its
    statistics may be what failed) under the check's "error"."""
    try:
        moment_check = _moment_check(stats)
    except ValueError as exc:
        if "error" not in outcome:
            raise
        moment_check = {"error": str(exc)}
    report = {
        "code_version": __version__,
        "wall_time_s": wall,
        "diagnostics": asdict(diagnostics),
        "moment_check": moment_check,
        **outcome,
        "config": resolved,
    }
    report_path = path + ".report.json"
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report_path


def run_config(resolved: dict, out_path: str | None,
               out_format: str | None) -> int:
    """Run one resolved config; a run that fails in its scan (no
    convergence, or a ValueError such as a NaN term, OutOfContract or
    NonNormalizable) still writes its report, with the failure under
    "error" and the diagnostics gathered so far, and re-raises."""
    scenario = _build_scenario(resolved)
    fmt = out_format or resolved["output"]["format"]
    path = out_path or resolved["output"]["path"] or f"qcompton_run.{fmt}"
    resolved["output"] = {"format": fmt, "path": path}

    diagnostics = Diagnostics()
    started = time.perf_counter()
    try:
        columns, rows = _scan_rows(scenario, resolved["scan"], diagnostics)
    except (TruncationNotConverged, ValueError) as exc:
        _write_report(path, time.perf_counter() - started, diagnostics,
                      scenario.stats, resolved, error=str(exc),
                      failure=getattr(exc, "failure", None))
        raise
    wall = time.perf_counter() - started

    _write_curve(path, fmt, columns, rows, _metadata_lines(resolved))
    report_path = _write_report(path, wall, diagnostics, scenario.stats,
                                resolved, output_path=path)
    print(f"wrote {path} and {report_path} ({wall:.2f} s)")
    return 0


# ---------------------------------------------------------------------------
# presets

FIG_INTENSITIES = (9e14, 9e15, 9e16, 9e17)

# spectrum windows per intensity index: smooth-state features narrow as
# the square of the field amplitude, so lower intensities need finer
# sampling to resolve the slivers below each harmonic edge
_FIG2_WINDOWS = {
    1: ([0.02, 8.0], 32000),
    2: ([0.02, 10.0], 24000),
    3: ([0.02, 12.0], 12000),
    4: ([0.02, 16.0], 8000),
}

# high-frequency comparison bands, [1.1, 2.2] x the measured extent of
# the coherent line spectrum over the 90-180 degree scan ("reach"); the
# source figure's shaded regions are not quantified, so these are this
# package's documented choice
_FIG3_BANDS = {
    1: [970.4, 1940.8],
    2: [1299.9, 2599.7],
    3: [1719.4, 3438.8],
    4: [2698.5, 5397.0],
}


def make_preset(name: str, state: str = "coherent",
                intensity_index: int | None = None) -> dict:
    """Assemble one of the built-in figure configs.

    intensity_index is 1-based into 9e14..9e17 W/cm2; when omitted it
    defaults to the index each figure is best known for (fig2 -> 4,
    fig3 -> 3, fig1 -> 3).
    """
    if name not in ("fig1", "fig2", "fig3"):
        raise ValueError(f"unknown preset {name!r}; choose fig1, fig2 or fig3")
    if state not in STATE_NAMES or state == "custom":
        raise ValueError(f"preset state must be a built-in state, got {state!r}")
    if intensity_index is None:
        intensity_index = {"fig1": 3, "fig2": 4, "fig3": 3}[name]
    if intensity_index not in (1, 2, 3, 4):
        raise ValueError(f"intensity index must be 1..4, got {intensity_index}")
    intensity = FIG_INTENSITIES[intensity_index - 1]
    drive = {"photon_energy_eV": 2.25, "intensity_W_cm2": intensity,
             "relative_bandwidth": 8e-3, "state": state}

    if name == "fig2":
        rng, samples = _FIG2_WINDOWS[intensity_index]
        return {
            "electron": {"gamma": 1.0, "direction": [0.0, 0.0, 1.0]},
            "drive": drive,
            "scan": {"mode": "spectrum", "theta_prime_deg": 159.9,
                     "phi_prime_deg": 0.0, "omega_prime_range_eV": rng,
                     "samples": samples, "grid": "linear"},
            "numerics": {"broadening": "literal"},
            "output": {"format": "csv",
                       "path": f"fig2_{state}_i{intensity_index}.csv"},
        }
    if name == "fig3":
        return {
            "electron": {"gamma": 7.09, "direction": [0.0, 0.0, -1.0]},
            "drive": drive,
            "scan": {"mode": "angular",
                     "theta_range_deg": [90.0, 180.0, 91],
                     "band_eV": _FIG3_BANDS[intensity_index],
                     "samples": 512, "phi_prime_deg": 0.0},
            "numerics": {"broadening": "literal"},
            "output": {"format": "csv",
                       "path": f"fig3_{state}_i{intensity_index}.csv"},
        }
    # fig1: the source figure quotes the angle and electron speed but
    # neither the intensity nor the shaded band; both are guesses here
    return {
        "electron": {"beta": 0.99, "direction": [0.0, 0.0, -1.0]},
        "drive": drive,
        "scan": {"mode": "spectrum", "theta_prime_deg": 159.9,
                 "phi_prime_deg": 0.0,
                 "omega_prime_range_eV": [1.0, 900.0],
                 "samples": 18000, "grid": "linear"},
        "numerics": {"broadening": "literal"},
        "output": {"format": "csv", "path": f"fig1_{state}.csv"},
        "notes": [
            "the source figure does not state its intensity; default here "
            "is 9e16 W/cm2 (index 3)",
            "angular companion: switch scan.mode to angular with "
            "theta_range_deg [90, 180, 91] and band_eV %s; that band is "
            "an unverified guess placed just beyond the coherent line "
            "spectrum's extent" % (_FIG3_BANDS[intensity_index],),
        ],
    }


# ---------------------------------------------------------------------------
# entry point

def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        resolved = validate_config(raw)
    except SchemaError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        return run_config(resolved, args.out, args.format)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as exc:       # every physics error subclasses it
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except TruncationNotConverged as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def _cmd_preset(args) -> int:
    try:
        cfg = make_preset(args.name, state=args.state,
                          intensity_index=args.intensity_index)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA
    text = json.dumps(cfg, indent=1) + "\n"
    if args.emit_config:
        with open(args.emit_config, "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.emit_config}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcompton",
        description="Compton emission spectra for drives with arbitrary "
                    "photon statistics")
    parser.add_argument("--version", action="version",
                        version=f"qcompton {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", default=None, help="output curve path")
    p_run.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (overrides the config)")
    p_run.set_defaults(func=_cmd_run)

    p_pre = sub.add_parser("preset", help="emit a built-in figure config")
    p_pre.add_argument("name", choices=("fig1", "fig2", "fig3"))
    p_pre.add_argument("--state", default="coherent",
                       choices=[s for s in STATE_NAMES if s != "custom"])
    p_pre.add_argument("--intensity-index", type=int, default=None,
                       choices=(1, 2, 3, 4),
                       help="1-based index into 9e14..9e17 W/cm2 "
                            "(default: the figure's headline panel)")
    p_pre.add_argument("--emit-config", default=None,
                       help="write the config here instead of stdout")
    p_pre.set_defaults(func=_cmd_preset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
