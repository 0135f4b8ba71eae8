"""Command-line interface: schema, exit codes, outputs, presets."""

import ast
import csv
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from qcompton import cli, emission, special_functions
from qcompton import photon_statistics as ps
from qcompton.minkowski import EmissionGeometry, electron_momentum


def _base_config(**overrides):
    cfg = {
        "electron": {"gamma": 1.0, "direction": [0, 0, 1]},
        "drive": {"photon_energy_eV": 2.25, "intensity_W_cm2": 9e16,
                  "relative_bandwidth": 8e-3, "state": "coherent"},
        "scan": {"mode": "spectrum", "theta_prime_deg": 159.9,
                 "omega_prime_range_eV": [0.5, 12.0], "samples": 200},
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------- schema

def test_validate_fills_defaults():
    out = cli.validate_config(_base_config())
    assert out["numerics"] == {"broadening": "literal",
                               "rel_tol": 1e-10, "s_max": 9_999}
    assert out["output"]["format"] == "csv"
    assert out["scan"]["grid"] == "linear"
    assert out["scan"]["phi_prime_deg"] == 0.0


def test_validate_electron_forms():
    cfg = _base_config()
    cfg["electron"] = {"beta": 0.99, "direction": [0, 0, -1]}
    out = cli.validate_config(cfg)
    assert out["electron"]["gamma"] == pytest.approx(
        1.0 / math.sqrt(1.0 - 0.99 ** 2))
    cfg["electron"] = {"kinetic_energy_eV": 511e3, "direction": [0, 0, -2]}
    out = cli.validate_config(cfg)
    assert out["electron"]["gamma"] == pytest.approx(1.0 + 511e3 / 510998.95)
    assert np.linalg.norm(out["electron"]["direction"]) == pytest.approx(1.0)
    for scale in (1e200, 1e-200):     # squared components over/underflow
        cfg["electron"]["direction"] = [0, scale, 0]
        assert cli.validate_config(cfg)["electron"]["direction"] == [0, 1, 0]


@pytest.mark.parametrize("mutate, path", [
    (lambda c: c.pop("electron"), "electron"),
    (lambda c: c["electron"].update(beta=0.5), "electron"),
    (lambda c: c["electron"].update(gamma=0.5), "electron.gamma"),
    (lambda c: c["electron"].update({"direction": [0, 0, 0]}),
     "electron.direction"),
    (lambda c: c["drive"].update(state="squeezed"), "drive.state"),
    (lambda c: c["drive"].update(intensity_W_cm2=0.0),
     "drive.intensity_W_cm2"),
    (lambda c: c["scan"].update(theta_prime_deg=200.0),
     "scan.theta_prime_deg"),
    (lambda c: c["scan"].update(phi_prime_deg=400.0), "scan.phi_prime_deg"),
    (lambda c: c["scan"].update(phi_prime_deg=-10.0), "scan.phi_prime_deg"),
    (lambda c: c["scan"].update(phi_prime_deg=360.0), "scan.phi_prime_deg"),
    (lambda c: c["scan"].update(omega_prime_range_eV=[0.0, 5.0]),
     "scan.omega_prime_range_eV"),
    (lambda c: c["scan"].update(omega_prime_range_eV=[5.0, 1.0]),
     "scan.omega_prime_range_eV"),
    (lambda c: c["scan"].update(samples=1), "scan.samples"),
    (lambda c: c.update(numerics={"broadening": "somehow"}),
     "numerics.broadening"),
    (lambda c: c.update(output={"format": "xml"}), "output.format"),
])
def test_validate_rejects_with_named_path(mutate, path):
    cfg = _base_config()
    mutate(cfg)
    with pytest.raises(cli.SchemaError) as err:
        cli.validate_config(cfg)
    assert err.value.path == path


def test_validate_angular_schema():
    cfg = _base_config()
    cfg["scan"] = {"mode": "angular", "theta_range_deg": [90, 180, 10],
                   "band_eV": [100.0, 200.0]}
    out = cli.validate_config(cfg)
    assert out["scan"]["samples"] == 512
    assert out["scan"]["jacobian"] is False
    cfg["scan"]["jacobian"] = True
    assert cli.validate_config(cfg)["scan"]["jacobian"] is True
    for bad, path in [
            ({"theta_range_deg": [90, 80, 10]}, "scan.theta_range_deg"),
            ({"theta_range_deg": [90, 180, 2.5]}, "scan.theta_range_deg"),
            ({"band_eV": [0.0, 5.0]}, "scan.band_eV")]:
        broken = _base_config()
        broken["scan"] = {"mode": "angular", "theta_range_deg": [90, 180, 10],
                          "band_eV": [100.0, 200.0], **bad}
        with pytest.raises(cli.SchemaError) as err:
            cli.validate_config(broken)
        assert err.value.path == path


def test_validate_custom_state_needs_table():
    cfg = _base_config()
    cfg["drive"]["state"] = "custom"
    with pytest.raises(cli.SchemaError) as err:
        cli.validate_config(cfg)
    assert err.value.path == "drive.custom_table"


def _angular_config():
    cfg = _base_config()
    cfg["scan"] = {"mode": "angular", "theta_range_deg": [90, 180, 10],
                   "band_eV": [100.0, 200.0]}
    return cfg


_ELECTRON_FORMS = ("gamma", "beta", "kinetic_energy_eV")

# values of the wrong JSON type, per kind of field
_WRONG_TYPES = {
    "number": ["text", [1.0], {"x": 1}, True, None],
    "integer": ["text", [1], {"x": 1}, True, None, 8.0],
    "list": ["text", 1.0, {"x": 1}, True, None],
    "choice": [5, [1.0], {"x": 1}, True, None],
    "string": [5, [1.0], {"x": 1}, True],
    "boolean": ["false", 0, 1.0, [True], {"x": 1}, None],
    "section": ["text", 1.0, [1.0], True, None],
}

# (base config, dotted field path, kind, required, out-of-range values)
_FUZZ_FIELDS = [
    (_base_config, "electron", "section", True, []),
    (_base_config, "electron.gamma", "number", True, [0.5, -3.0]),
    (lambda: _base_config(electron={"beta": 0.5, "direction": [0, 0, 1]}),
     "electron.beta", "number", True, [1.0, -0.1]),
    (lambda: _base_config(electron={"kinetic_energy_eV": 1e3,
                                    "direction": [0, 0, 1]}),
     "electron.kinetic_energy_eV", "number", True, [-1.0]),
    (_base_config, "electron.direction", "list", True, [[0, 0, 0], [0, 1]]),
    (_base_config, "drive", "section", True, []),
    (_base_config, "drive.photon_energy_eV", "number", True, [0.0, -2.25]),
    (_base_config, "drive.intensity_W_cm2", "number", True, [0.0, -1e16]),
    (_base_config, "drive.relative_bandwidth", "number", True, [0.0]),
    (_base_config, "drive.state", "choice", True, ["squeezed"]),
    (_base_config, "scan", "section", True, []),
    (_base_config, "scan.mode", "choice", True, ["polar"]),
    (_base_config, "scan.theta_prime_deg", "number", True, [-1.0, 180.5]),
    (_base_config, "scan.phi_prime_deg", "number", False, []),
    (_base_config, "scan.omega_prime_range_eV", "list", True,
     [[0.0, 5.0], [5.0, 1.0], [1.0, 2.0, 3.0]]),
    (_base_config, "scan.samples", "integer", True, [1, 0]),
    (_base_config, "scan.grid", "choice", False, ["cubic"]),
    (_angular_config, "scan.theta_range_deg", "list", True,
     [[90, 80, 10], [-1, 180, 10], [90, 181, 10], [90, 180, 1],
      [90, 180, 2.5]]),
    (_angular_config, "scan.band_eV", "list", True,
     [[0.0, 5.0], [5.0, 1.0]]),
    (_angular_config, "scan.samples", "integer", False, [1]),
    (_angular_config, "scan.jacobian", "boolean", False, []),
    (_base_config, "numerics", "section", False, []),
    (_base_config, "numerics.broadening", "choice", False, ["somehow"]),
    (_base_config, "numerics.rel_tol", "number", False, [0.0, -1e-10]),
    (_base_config, "numerics.s_max", "integer", False, [0, 10_000]),
    (_base_config, "output", "section", False, []),
    (_base_config, "output.format", "choice", False, ["xml"]),
    (_base_config, "output.path", "string", False, []),
]


def _fuzz_cases(rng):
    """(config, expected key path) for every malformed variant of each
    field: wrong type, missing, NaN, +-Infinity and out of range.  NaN
    and Infinity go into one seeded element of a list-valued field."""
    for make, path, kind, required, out_of_range in _FUZZ_FIELDS:
        *parents, key = path.split(".")

        def variant(*value):
            cfg = make()
            obj = cfg
            for name in parents:
                obj = obj.setdefault(name, {})
            if value:
                obj[key] = value[0]
            else:
                obj.pop(key, None)
            return cfg

        if required:
            # the electron energy forms exclude one another, so a missing
            # one is reported on the section
            yield variant(), "electron" if key in _ELECTRON_FORMS else path
        for value in _WRONG_TYPES[kind] + out_of_range:
            yield variant(value), path
        for special in (math.nan, math.inf, -math.inf):
            if kind == "list":
                value = list(make()[parents[0]][key])
                value[rng.randrange(len(value))] = special
            else:
                value = special
            yield variant(value), path


@pytest.mark.parametrize("seed", [1, 104729])
def test_validate_config_fuzz_exits_1_with_key_path(tmp_path, capsys, seed):
    rng = random.Random(seed)
    cases = list(_fuzz_cases(rng))
    rng.shuffle(cases)
    assert len(cases) > 150
    for i, (cfg, path) in enumerate(cases):
        config = tmp_path / f"fuzz{i}.json"
        config.write_text(json.dumps(cfg))
        code = cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / f"fuzz{i}.csv")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_SCHEMA, (path, cfg, err)
        assert f"config error at {path}" in err, (path, cfg, err)
        assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv*"))


def test_cli_import_leaves_scipy_integrate_out():
    # every CLI start pays for what qcompton.cli imports; scipy.integrate
    # alone costs about a third of a second, and nothing in the package
    # needs it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qcompton.cli; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_setup_imports_no_scipy():
    # every CLI start pays for what it imports before the first curve;
    # scipy.special alone cost about 0.3 s.  This is the benchmark's
    # set-up: import, validate and build the fig2 and fig3 scenarios
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from qcompton import cli\n"
            "for name, state in (('fig2', 'bsv'), ('fig2', 'coherent'),\n"
            "                    ('fig3', 'thermal')):\n"
            "    cli._build_scenario(cli.validate_config(\n"
            "        cli.make_preset(name, state=state)))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# One process's curves and diagnostics as JSON (repr floats, so exact):
# the enabled numpy dispatch targets it ran with, then a small fig2 bsv
# spectrum and two 4-angle fig3 scans (thermal, coherent)
_DISPATCH_RUN = """
import dataclasses, json
from qcompton import cli
from qcompton.emission import Diagnostics
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:                     # numpy < 2
    from numpy.core import _multiarray_umath as umath
out = {"targets": [t for t in umath.__cpu_dispatch__
                   if umath.__cpu_features__.get(t)]}
for name, state, index, scan in (
        ("fig2", "bsv", 1, {"omega_prime_range_eV": [2.0, 2.5],
                            "samples": 2001}),
        ("fig3", "thermal", 3, {"theta_range_deg": [95.625, 163.125, 4]}),
        ("fig3", "coherent", 3, {"theta_range_deg": [95.625, 163.125, 4]})):
    cfg = cli.make_preset(name, state=state, intensity_index=index)
    cfg["scan"].update(scan)
    resolved = cli.validate_config(cfg)
    diagnostics = Diagnostics()
    _, table = cli._scan_rows(cli._build_scenario(resolved), resolved["scan"],
                              diagnostics)
    out[name + " " + state] = {"values": table[:, 1].tolist(),
                               "diagnostics": dataclasses.asdict(diagnostics)}
print(json.dumps(out))
"""


def test_curves_agree_across_numpy_dispatch_targets():
    # numpy picks its exp, log and pow loops by CPU.  One process runs
    # with every dispatch target it would use, the other with all of them
    # disabled (NPY_DISABLE_CPU_FEATURES, read per process), so on the
    # baseline loops alone.  Integer decisions must not move: the
    # diagnostics are identical.  Values may move in their last bits: on
    # an AVX-512 CPU (numpy 2.4.6) 436 of the spectrum's 2 001 values
    # differ, by up to 4.8e-16 relative; the thermal scan is identical and
    # one coherent value moves by 1.4e-16.  rtol 5e-15 leaves a tenfold
    # margin.  The closed-form convolution taps, which cancel to about
    # 2|u| / w, amplified the same change to 8.1e-13
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = src

    def run(extra):
        out = subprocess.run([sys.executable, "-c", _DISPATCH_RUN],
                             env={**env, **extra}, capture_output=True,
                             text=True, check=True)
        return json.loads(out.stdout)

    full = run({})
    if not full["targets"]:
        pytest.skip("numpy runs only its baseline loops on this CPU: one "
                    "dispatch target, nothing to compare")
    base = run({"NPY_DISABLE_CPU_FEATURES": " ".join(full["targets"])})
    assert base.pop("targets") == []
    full.pop("targets")
    assert full.keys() == base.keys()
    for name, got in base.items():
        assert got["diagnostics"] == full[name]["diagnostics"], name
        np.testing.assert_allclose(got["values"], full[name]["values"],
                                   rtol=5e-15, atol=0.0, err_msg=name)


def test_package_source_imports_no_scipy():
    # the tests keep scipy as an oracle; the package needs numpy alone
    package = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            assert all(m.partition(".")[0] != "scipy" for m in modules), (
                name, node.lineno)


# ------------------------------------------------------------- exit codes

def test_exit_code_on_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_SCHEMA
    assert "invalid JSON" in capsys.readouterr().err


def test_exit_code_on_schema_error(tmp_path, capsys):
    cfg = _base_config()
    cfg["scan"]["samples"] = 1
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg)])
    assert code == cli.EXIT_SCHEMA
    assert "scan.samples" in capsys.readouterr().err


def test_validate_bounds_the_scan_size():
    # a spectrum's grid points are its samples, an angular scan's count x
    # max(samples, 64); 2^20 is allowed and one more point is not
    spectrum = _base_config()
    spectrum["scan"]["samples"] = 1 << 20
    cli.validate_config(spectrum)
    spectrum["scan"]["samples"] += 1
    with pytest.raises(cli.SchemaError) as err:
        cli.validate_config(spectrum)
    assert err.value.path == "scan.samples"
    angular = _angular_config()
    angular["scan"]["theta_range_deg"] = [90, 180, 1 << 14]
    for samples in (2, 64):
        angular["scan"]["samples"] = samples
        cli.validate_config(angular)
    angular["scan"]["samples"] = 65
    with pytest.raises(cli.SchemaError) as err:
        cli.validate_config(angular)
    assert err.value.path == "scan.theta_range_deg"


@pytest.mark.parametrize("scan, path", [
    ({"mode": "spectrum", "theta_prime_deg": 159.9,
      "omega_prime_range_eV": [0.5, 12.0], "samples": 10 ** 13},
     "scan.samples"),
    ({"mode": "angular", "theta_range_deg": [90.0, 180.0, 10 ** 12],
      "band_eV": [100.0, 200.0]}, "scan.theta_range_deg"),
], ids=["spectrum", "angular"])
def test_exit_code_on_oversized_scan(tmp_path, capsys, scan, path):
    # 10^13 samples ended in a numpy allocation traceback (72.8 TiB) with
    # no report, and 10^12 angles would have been built as one tuple
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--config",
                     _write_config(tmp_path, _base_config(scan=scan)),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SCHEMA
    assert f"config error at {path}" in err and "Traceback" not in err
    assert not list(tmp_path.glob("x.csv*"))


def test_exit_code_on_kinematically_dead_grid(tmp_path, capsys):
    cfg = _base_config()
    cfg["scan"]["omega_prime_range_eV"] = [1.0, 3.0e5]   # above the ceiling
    out = str(tmp_path / "x.csv")
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", out])
    assert code == cli.EXIT_PHYSICS
    assert "physics error" in capsys.readouterr().err


# a log grid over [3.2e-12, 3.3e-11] eV beside sigma = 0.042 eV (a draw of
# test_smoke_runs_over_valid_configs at seed 0), and a 2-sample linear
# window 1e-12 eV wide: unbounded wings of grid steps over 9 sigma would
# ask for 2.97 TiB and 1.18 TiB
OVERSIZED_WINGS = [
    {"electron": {"gamma": 324259.2, "direction": [0.0, 0.0, 1.0]},
     "drive": {"photon_energy_eV": 2.933098, "intensity_W_cm2": 1.824859e13,
               "relative_bandwidth": 0.01417163, "state": "bsv"},
     "numerics": {"s_max": 189},
     "scan": {"mode": "spectrum", "theta_prime_deg": 90.77025,
              "phi_prime_deg": 214.8449,
              "omega_prime_range_eV": [3.184392e-12, 3.278428e-11],
              "samples": 27, "grid": "log"}},
    _base_config(
        drive={"photon_energy_eV": 2.25, "intensity_W_cm2": 9e16,
               "relative_bandwidth": 8e-3, "state": "bsv"},
        scan={"mode": "spectrum", "theta_prime_deg": 159.9,
              "omega_prime_range_eV": [1e-12, 2e-12], "samples": 2}),
]


@pytest.mark.parametrize("cfg", OVERSIZED_WINGS, ids=["log", "linear"])
def test_exit_code_on_oversized_convolution_wings(tmp_path, capsys, cfg):
    # refused before any wing node is built or any point reaches the
    # engine: by the clock, and by the engine's own count of points
    started = time.perf_counter()
    code, report = _run_report(tmp_path, cfg)
    assert time.perf_counter() - started < 1.0
    assert report["diagnostics"]["points"] == 0
    assert code == cli.EXIT_PHYSICS
    err = capsys.readouterr().err
    assert "Traceback" not in err and "convolution wings need" in err
    assert report["error"].startswith("convolution wings need")
    assert "output_path" not in report


def test_exit_code_on_oversized_scan_pass(tmp_path, capsys, monkeypatch):
    # every angle's wings stay under their cap, but the fig3 scan's one
    # engine pass would take 91 x (512 + 2 x 827 821) = 150 710 014
    # points; the pass is refused before the engine is called
    calls = []
    monkeypatch.setattr(emission, "spectral_density_points",
                        lambda *args, **kwargs: calls.append(args))
    cfg = cli.make_preset("fig3", state="thermal")
    cfg["scan"]["band_eV"] = [1719.0, 1719.0001]
    code, report = _run_report(tmp_path, cfg)
    assert code == cli.EXIT_PHYSICS
    err = capsys.readouterr().err
    assert "Traceback" not in err and "150710014 grid and wing nodes" in err
    assert report["error"].startswith("convolution needs 150710014 grid")
    assert "output_path" not in report
    assert calls == []


@pytest.mark.parametrize("bandwidth, scan", [
    (1e-16, {"mode": "spectrum", "theta_prime_deg": 159.9,
             "omega_prime_range_eV": [0.5, 4.0], "samples": 50}),
    (1e-17, {"mode": "angular", "theta_range_deg": [150.0, 170.0, 3],
             "band_eV": [1.0, 4.0]}),
], ids=["spectrum", "angular"])
def test_exit_code_on_sub_ulp_bandwidth(tmp_path, capsys, bandwidth, scan):
    # sigma / 2, the wing step, below the float spacing at the window's
    # end: wing nodes fall on each other, and their zero-width segments
    # would put NaN into the convolution
    cfg = _base_config(scan=scan)
    cfg["drive"].update(state="thermal", relative_bandwidth=bandwidth)
    code, report = _run_report(tmp_path, cfg)
    assert code == cli.EXIT_PHYSICS
    err = capsys.readouterr().err
    assert "Traceback" not in err and "not strictly increasing" in err
    assert report["error"].startswith(
        "convolution nodes are not strictly increasing")
    assert "output_path" not in report


@pytest.mark.parametrize("state, broadening, bandwidth, limit", [
    ("thermal", "drive_average", 0.2, "0.127399"),
    ("coherent", "drive_average", 1.5, "1"),
    ("thermal", "drive_average", 0.12, None),
    ("thermal", "literal", 0.2, None),
])
def test_drive_average_bandwidth_limit(tmp_path, capsys, state, broadening,
                                       bandwidth, limit):
    # drive_average evaluates the drive at omega + sqrt(2) delta_omega x
    # over the Hermite nodes (|x| <= 5.55) and line widths at omega -
    # delta_omega; a bandwidth that makes one of them negative is refused
    # up front instead of failing on a drive energy the config never gave
    cfg = _base_config(numerics={"broadening": broadening})
    cfg["drive"].update(state=state, relative_bandwidth=bandwidth)
    cfg["scan"].update(omega_prime_range_eV=[0.5, 4.0], samples=60)
    with pytest.warns(UserWarning, match="exceeds 0.1"):
        code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    if limit is None:
        assert code == 0, err
    else:
        assert code == cli.EXIT_PHYSICS
        assert (f"relative bandwidth below {limit} for this drive, "
                f"got {bandwidth:g}") in err
        assert "photon energy" not in err


def test_exit_code_on_nonconvergence(tmp_path, capsys):
    cfg = _base_config()
    cfg["drive"]["state"] = "thermal"
    cfg["scan"] = {"mode": "angular", "theta_range_deg": [30.0, 31.0, 2],
                   "band_eV": [1.0e6, 2.0e6], "samples": 64}
    out = str(tmp_path / "x.csv")
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", out])
    assert code == cli.EXIT_NONCONVERGENCE
    assert "non-convergence" in capsys.readouterr().err


def test_nonconvergence_still_writes_report(tmp_path, capsys):
    cfg = _base_config(numerics={"s_max": 2})
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)])
    assert code == cli.EXIT_NONCONVERGENCE
    assert "theta'=159.9 deg" in capsys.readouterr().err
    assert not out.exists()
    report = json.loads((tmp_path / "x.csv.report.json").read_text())
    assert "theta'=159.9 deg" in report["error"]
    assert "output_path" not in report
    for key in ("code_version", "wall_time_s", "diagnostics",
                "moment_check", "config"):
        assert key in report
    assert report["config"]["numerics"]["s_max"] == 2


DIAGNOSTICS_KEYS = ["points", "highest_order", "orders_scanned",
                    "edge_guarded", "overcomputed"]


def _run_report(tmp_path, cfg):
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)])
    return code, json.loads((tmp_path / "x.csv.report.json").read_text())


FAILURE_KEYS = ["theta_prime_deg", "omega_prime_eV", "order", "e_field_eV2",
                "last_term_ratio"]


def test_nonconvergence_report_counts_thermal_pass(tmp_path, capsys):
    # below 4 eV every point's first allowed order is at most 2, so the
    # pass scans up to the cap
    cfg = _base_config(numerics={"s_max": 2})
    cfg["drive"]["state"] = "thermal"
    cfg["scan"]["omega_prime_range_eV"] = [0.5, 4.0]
    code, report = _run_report(tmp_path, cfg)
    assert code == cli.EXIT_NONCONVERGENCE
    assert report["diagnostics"]["points"] > 0
    assert report["diagnostics"]["orders_scanned"] == 2
    # the engine's cap names its point: the angle and frequency the
    # message gives, the cap as the order reached, and no field
    failure = report["failure"]
    assert list(failure) == FAILURE_KEYS
    assert failure["theta_prime_deg"] == pytest.approx(159.9, rel=1e-12)
    assert f"omega'={failure['omega_prime_eV']:.6g} eV" in report["error"]
    assert failure["order"] == 2
    assert failure["e_field_eV2"] is None
    # the ratio the stop rule last compared with rel_tol, at the cap
    assert math.isfinite(failure["last_term_ratio"])
    assert failure["last_term_ratio"] > 0.0


def test_nonconvergence_report_names_first_point_past_the_cap(tmp_path,
                                                             capsys):
    # points above the order-2 cutoff cannot start below the cap: the pass
    # fails before it scans an order, naming the lowest such frequency
    cfg = _base_config(numerics={"s_max": 2})
    cfg["drive"]["state"] = "thermal"
    code, report = _run_report(tmp_path, cfg)
    assert code == cli.EXIT_NONCONVERGENCE
    assert "start above the order cap s_max=2" in report["error"]
    assert report["diagnostics"]["points"] > 0
    assert report["diagnostics"]["orders_scanned"] == 0
    failure = report["failure"]
    assert list(failure) == FAILURE_KEYS
    assert failure["theta_prime_deg"] == pytest.approx(159.9, rel=1e-12)
    assert f"omega'={failure['omega_prime_eV']:.6g} eV" in report["error"]
    assert failure["order"] == 2
    assert failure["e_field_eV2"] is None
    assert failure["last_term_ratio"] is None       # it summed no term
    geometry = EmissionGeometry(math.radians(159.9))
    cutoff = emission.kinematic_max_frequency(
        2, electron_momentum(1.0, [0, 0, 1]).p, 2.25, geometry)
    grid = np.linspace(0.5, 12.0, 200)
    assert failure["omega_prime_eV"] == pytest.approx(grid[grid > cutoff][0],
                                                      rel=1e-12)


def test_nonconvergence_report_counts_coherent_ladder(tmp_path, capsys):
    code, report = _run_report(tmp_path, _base_config(numerics={"s_max": 2}))
    assert code == cli.EXIT_NONCONVERGENCE
    assert report["diagnostics"]["points"] == 200
    assert report["diagnostics"]["highest_order"] >= 1
    # the ladder names its angle and the highest line it reached
    failure = report["failure"]
    assert list(failure) == FAILURE_KEYS
    assert failure["theta_prime_deg"] == pytest.approx(159.9, rel=1e-12)
    assert failure["order"] == 2 and failure["omega_prime_eV"] > 0.0
    assert failure["e_field_eV2"] is None
    # the last batch's weight over the running total, above rel_tol
    assert failure["last_term_ratio"] > emission.DEFAULT_REL_TOL


@pytest.mark.parametrize("s_max", [9999, 2])
@pytest.mark.parametrize("state", ["thermal", "coherent"])
@pytest.mark.parametrize("mode", ["spectrum", "angular"])
def test_report_diagnostics_schema(tmp_path, capsys, mode, state, s_max):
    cfg = _base_config(numerics={"s_max": s_max})
    cfg["drive"]["state"] = state
    if mode == "angular":
        cfg["scan"] = {"mode": "angular", "theta_range_deg": [150.0, 170.0, 3],
                       "band_eV": [1.0, 4.0], "samples": 64}
    code, report = _run_report(tmp_path, cfg)
    assert code == (0 if s_max == 9999 else cli.EXIT_NONCONVERGENCE)
    assert list(report["diagnostics"]) == DIAGNOSTICS_KEYS
    assert all(type(v) is int and v >= 0
               for v in report["diagnostics"].values())
    assert report["diagnostics"]["points"] > 0


def test_nan_log_r_exits_2_and_writes_report(tmp_path, capsys, monkeypatch):
    # statistics whose log R(E) is NaN in the upper half of their support:
    # the engine's NaN-term ValueError must reach the user as exit 2,
    # with a report holding the message and the counts gathered so far
    family = ps.FAMILIES["mixed_diagonal"]

    def nan_upper_half(omega, rho):
        stats = family(omega, rho)

        def log_r(e):
            return np.where(e > stats.support_max / 2.0, np.nan,
                            stats.log_r_fn(e))
        return dataclasses.replace(stats, log_r_fn=log_r)

    monkeypatch.setitem(ps.FAMILIES, "mixed_diagonal", nan_upper_half)
    cfg = _base_config()
    cfg["drive"]["state"] = "mixed_diagonal"
    code, report = _run_report(tmp_path, cfg)
    assert code == cli.EXIT_PHYSICS
    assert "emission term is NaN" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert report["error"].startswith("emission term is NaN at order ")
    assert "output_path" not in report
    assert report["diagnostics"]["points"] > 0
    assert report["diagnostics"]["orders_scanned"] >= 1
    # the failing term's point, as the message names it
    failure = report["failure"]
    assert list(failure) == FAILURE_KEYS
    assert report["error"].startswith(
        f"emission term is NaN at order {failure['order']}, theta'="
        f"{failure['theta_prime_deg']:.6g} deg, omega'="
        f"{failure['omega_prime_eV']:.6g} eV, E="
        f"{failure['e_field_eV2']:.6g} eV^2")
    assert failure["last_term_ratio"] is None
    # the moment check meets the same NaN; it is recorded, not raised
    assert "NaN" in report["moment_check"]["error"]


def test_exit_code_on_s_max_beyond_bessel_contract(tmp_path, capsys):
    cfg = _base_config(numerics={"s_max": 10000})
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_SCHEMA
    assert "numerics.s_max" in capsys.readouterr().err
    cfg["numerics"]["s_max"] = 9999
    assert cli.validate_config(cfg)["numerics"]["s_max"] == 9999


@pytest.mark.parametrize("electron", [{"gamma": 1e155},
                                      {"kinetic_energy_eV": 1e300}])
def test_exit_code_on_overflowing_lorentz_factor(tmp_path, capsys, electron):
    # gamma^2 overflows to inf; the run must refuse, not write zeros
    cfg = _base_config()
    cfg["electron"] = {**electron, "direction": [0, 0, 1]}
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)])
    assert code == cli.EXIT_PHYSICS
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_on_missing_custom_table(tmp_path, capsys):
    cfg = _base_config()
    cfg["drive"]["state"] = "custom"
    cfg["drive"]["custom_table"] = str(tmp_path / "nowhere.txt")
    out = str(tmp_path / "x.csv")
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", out])
    assert code == cli.EXIT_SCHEMA


def test_exit_code_on_degenerate_custom_table(tmp_path, capsys):
    table = tmp_path / "zeros.txt"
    table.write_text("0.1 0.0\n0.2 0.0\n0.3 0.0\n")
    cfg = _base_config()
    cfg["drive"]["state"] = "custom"
    cfg["drive"]["custom_table"] = str(table)
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_PHYSICS


def test_exit_code_on_non_finite_custom_table(tmp_path, capsys):
    table = tmp_path / "nan.txt"
    table.write_text("0.1 1.0\n0.2 nan\n0.3 1.0\n")
    cfg = _base_config()
    cfg["drive"]["state"] = "custom"
    cfg["drive"]["custom_table"] = str(table)
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)])
    assert code == cli.EXIT_PHYSICS
    assert "E and R values must be finite" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------- run outputs

def test_spectrum_run_writes_curve_and_report(tmp_path):
    out = tmp_path / "curve.csv"
    cfg = _write_config(tmp_path, _base_config())
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0

    lines = out.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any("state: coherent" in ln for ln in meta)
    assert any("theta_prime_deg: 159.9" in ln for ln in meta)
    header_idx = len(meta)
    assert lines[header_idx] == "omega_prime_eV,energy_per_eV_sr"
    assert len(lines) - header_idx - 1 == 200

    report = json.loads((tmp_path / "curve.csv.report.json").read_text())
    for key in ("code_version", "wall_time_s", "diagnostics",
                "moment_check", "output_path", "config"):
        assert key in report
    assert report["moment_check"]["m1_rel_err"] < 1e-8
    assert report["diagnostics"]["highest_order"] >= 1
    assert report["config"]["scan"]["samples"] == 200


def test_csv_json_round_trip(tmp_path):
    cfg = _write_config(tmp_path, _base_config())
    out_csv = tmp_path / "c.csv"
    out_json = tmp_path / "c.json"
    assert cli.main(["run", "--config", cfg, "--out", str(out_csv),
                     "--format", "csv"]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out_json),
                     "--format", "json"]) == 0

    with open(out_csv, newline="") as fh:
        rows_csv = [r for r in csv.reader(
            ln for ln in fh if not ln.startswith("#"))]
    assert rows_csv[0] == ["omega_prime_eV", "energy_per_eV_sr"]
    data_csv = np.array([[float(v) for v in r] for r in rows_csv[1:]])

    doc = json.loads(out_json.read_text())
    data_json = np.array(doc["rows"])
    # %.17g round-trips doubles exactly, so the two encodings must agree
    # bit for bit
    assert np.array_equal(data_csv, data_json)


def test_csv_rows_keep_the_digits_of_format_17g(tmp_path):
    # the body is written in one piece from an (n, 2) float table; each
    # value must read exactly as format(v, ".17g") spells it, down to
    # zeros and subnormals, and the JSON rows read back bit for bit
    tiny = 5e-324
    values = [0.0, -0.0, tiny, 2.2250738585072014e-308, 1e-310, 1.0,
              0.1, 1.0 / 3.0, 123456789.123, 1.7976931348623157e308,
              -2.5e300, 1e16, 12345678901234567890.0]
    rows = [(a, b) for a, b in zip(values, reversed(values))]
    path = tmp_path / "rows.csv"
    cli._write_curve(str(path), "csv", ("a", "b"), np.array(rows), ["meta"])
    want = "# meta\na,b\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")

    path = tmp_path / "rows.json"
    cli._write_curve(str(path), "json", ("a", "b"), np.array(rows), ["meta"])
    doc = json.loads(path.read_text())
    assert doc["meta"] == ["meta"] and doc["columns"] == ["a", "b"]
    got = np.array(doc["rows"])
    assert got.shape == (len(rows), 2)
    assert got.tobytes() == np.array(rows).tobytes()   # -0.0 keeps its sign

    # an angular scan's degree column is built per element with
    # math.degrees, so each angle reads as format(math.degrees(theta), ".17g")
    cfg = cli.make_preset("fig3", state="coherent", intensity_index=1)
    cfg["scan"]["theta_range_deg"] = [95.625, 163.125, 5]
    resolved = cli.validate_config(cfg)
    scenario = cli._build_scenario(resolved)
    columns, table = cli._scan_rows(scenario, resolved["scan"],
                                    emission.Diagnostics())
    assert columns == ("theta_prime_deg", "band_energy_per_sr")
    assert table.shape == (5, 2) and table.dtype == np.float64
    path = tmp_path / "ang.csv"
    cli._write_curve(str(path), "csv", columns, table, [])
    body = path.read_text().splitlines()[1:]
    assert [ln.split(",")[0] for ln in body] == [
        format(math.degrees(t), ".17g") for t in scenario.thetas]


def test_rerun_is_bitwise_reproducible(tmp_path):
    cfg = _base_config()
    cfg["drive"]["state"] = "bsv"
    cfg["scan"]["samples"] = 150
    path = _write_config(tmp_path, cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["run", "--config", path, "--out", str(a)]) == 0
    assert cli.main(["run", "--config", path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_coherent_spectrum_at_low_intensity_keeps_its_line(tmp_path):
    # at 100 W/cm^2 the intensity redshift of the s = 1 line is lost to
    # rounding, so the line sits on its linear Compton cutoff (2.25 eV
    # scattered at 159.9 degrees from an electron at rest)
    cfg = cli.make_preset("fig2", state="coherent", intensity_index=1)
    cfg["drive"]["intensity_W_cm2"] = 100.0
    cfg["scan"]["omega_prime_range_eV"] = [2.0, 2.5]
    cfg["scan"]["samples"] = 400
    code, report = _run_report(tmp_path, cfg)
    assert code == 0
    lines = (tmp_path / "x.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 400
    assert max(float(value) for _, value in rows) > 0.0
    assert report["diagnostics"]["highest_order"] == 1


def test_angular_run_writes_csv_header(tmp_path):
    cfg = _base_config()
    cfg["drive"]["state"] = "thermal"
    cfg["scan"] = {"mode": "angular", "theta_range_deg": [150.0, 170.0, 3],
                   "band_eV": [1.0, 4.0], "samples": 64}
    out = tmp_path / "angular.csv"
    assert cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "theta_prime_deg,band_energy_per_sr"


def test_custom_state_run(tmp_path):
    e = np.linspace(0.001, 1.0, 300)
    r = np.exp(-((e - 0.3) ** 2) / 0.02)
    table = tmp_path / "table.txt"
    table.write_text("\n".join(f"{a} {b}" for a, b in zip(e, r)) + "\n")
    cfg = _base_config()
    cfg["drive"]["state"] = "custom"
    cfg["drive"]["custom_table"] = str(table)
    cfg["scan"]["samples"] = 120
    out = tmp_path / "custom.csv"
    code = cli.main(["run", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)])
    assert code == 0
    report = json.loads((tmp_path / "custom.csv.report.json").read_text())
    assert report["moment_check"]["m1_rel_err"] < 1e-6
    assert report["moment_check"]["m2_rel_err"] < 1e-6


# ------------------------------------------------------------- presets

def test_preset_fig2_defaults_and_windows():
    cfg = cli.make_preset("fig2", state="bsv")
    assert cfg["drive"]["intensity_W_cm2"] == 9e17      # headline panel
    assert cfg["drive"]["photon_energy_eV"] == 2.25
    assert cfg["drive"]["relative_bandwidth"] == 8e-3
    assert cfg["scan"]["theta_prime_deg"] == 159.9
    assert cfg["electron"]["gamma"] == 1.0
    cli.validate_config(cfg)
    low = cli.make_preset("fig2", intensity_index=1)
    assert low["drive"]["intensity_W_cm2"] == 9e14
    assert low["scan"]["samples"] > cfg["scan"]["samples"]


def test_preset_fig3_geometry():
    cfg = cli.make_preset("fig3", state="thermal")
    assert cfg["electron"] == {"gamma": 7.09, "direction": [0.0, 0.0, -1.0]}
    assert cfg["scan"]["mode"] == "angular"
    assert cfg["scan"]["theta_range_deg"] == [90.0, 180.0, 91]
    assert cfg["scan"]["band_eV"] == [1719.4, 3438.8]
    assert cli.make_preset("fig3", intensity_index=4)["scan"]["band_eV"] \
        == [2698.5, 5397.0]
    cli.validate_config(cfg)


def test_preset_fig1_flags_guesses():
    cfg = cli.make_preset("fig1")
    assert cfg["electron"]["beta"] == 0.99
    assert cfg["scan"]["theta_prime_deg"] == 159.9
    notes = " ".join(cfg["notes"])
    assert "does not state its intensity" in notes
    assert "unverified" in notes
    cli.validate_config(cfg)


def test_preset_rejections():
    with pytest.raises(ValueError):
        cli.make_preset("fig9")
    with pytest.raises(ValueError):
        cli.make_preset("fig2", state="custom")
    with pytest.raises(ValueError):
        cli.make_preset("fig2", intensity_index=7)


def test_preset_emit_config_round_trip(tmp_path, capsys):
    target = tmp_path / "scenario.json"
    assert cli.main(["preset", "fig3", "--state", "bsv",
                     "--emit-config", str(target)]) == 0
    cfg = json.loads(target.read_text())
    assert cfg["drive"]["state"] == "bsv"
    cli.validate_config(cfg)
    capsys.readouterr()               # drop the "wrote ..." notice
    # stdout mode prints the same document
    assert cli.main(["preset", "fig3", "--state", "bsv"]) == 0
    assert json.loads(capsys.readouterr().out) == cfg


def test_preset_emit_config_unwritable_path_exits_1(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "scenario.json"
    assert cli.main(["preset", "fig2", "--emit-config",
                     str(target)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(target) in err
    assert "Traceback" not in err
    assert not target.exists()


def test_huge_direction_components_scale_instead_of_overflowing(tmp_path,
                                                                 capsys):
    # |d| of these components lies above the float range, so math.hypot
    # returns inf; the direction must still resolve to (1, 1, 0)/sqrt(2)
    cfg = _base_config()
    cfg["electron"]["direction"] = [1.7e308, 1.7e308, 0.0]
    cfg["scan"]["samples"] = 20
    code, report = _run_report(tmp_path, cfg)
    assert code == 0, capsys.readouterr().err
    assert report["config"]["electron"]["direction"] == pytest.approx(
        [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0], rel=1e-15)


# ------------------------------------------------------------- smoke runs

REPORT_KEYS = {"code_version", "wall_time_s", "diagnostics", "moment_check",
               "config"}


def _smoke_direction(rng):
    """An axis direction, or a random one with transverse momentum."""
    if rng.random() < 0.3:
        return [0.0, 0.0, rng.choice((1.0, -1.0))]
    return [rng.gauss(0.0, 1.0) for _ in range(3)]


def _smoke_config(rng, state, mode, table):
    """A valid config with small grids: electron (gamma 1 to 1e6), drive,
    direction, s_max (log-uniform over 50 to 9 999, or 3 in one config
    in eight) and broadening drawn from rng, frequencies placed in units
    of the first harmonic's cutoff; one spectrum in five reaches past the
    direction's frequency ceiling, which it refuses with exit 2 (an
    angular band is clipped to each angle's ceiling instead)."""
    gamma = 10.0 ** rng.uniform(0.0, 6.0)
    direction = _smoke_direction(rng)
    norm = math.hypot(*direction)
    p = electron_momentum(gamma, [x / norm for x in direction]).p
    cfg = {
        "electron": {"gamma": gamma, "direction": direction},
        "drive": {"photon_energy_eV": rng.uniform(1.0, 3.0),
                  "intensity_W_cm2": 10.0 ** rng.uniform(13.0, 17.5),
                  "relative_bandwidth": rng.uniform(2e-3, 2e-2),
                  "state": state},
        "numerics": {"broadening": rng.choice(("literal", "drive_average")),
                     "s_max": 3 if rng.random() < 0.125 else min(9_999, round(
                         10.0 ** rng.uniform(math.log10(50.0), 4.0)))},
    }
    if table is not None:
        cfg["drive"]["custom_table"] = table
    omega = cfg["drive"]["photon_energy_eV"]
    phi = rng.uniform(0.0, 360.0)
    theta = rng.uniform(20.0, 180.0)
    geometry = EmissionGeometry(math.radians(theta), math.radians(phi))
    first = emission.kinematic_max_frequency(1, p, omega, geometry)
    ceiling = emission.absolute_frequency_ceiling(p, omega, geometry)
    lo = min(10.0 ** rng.uniform(-1.3, 2.5) * first, 0.8 * ceiling)
    hi = min(lo + rng.uniform(0.5, 4.0) * first, 0.9 * ceiling)
    if mode == "spectrum":
        if rng.random() < 0.2:
            hi = 1.2 * ceiling
        cfg["scan"] = {"mode": "spectrum", "theta_prime_deg": theta,
                       "phi_prime_deg": phi,
                       "omega_prime_range_eV": [lo, max(hi, 1.01 * lo)],
                       "samples": rng.randrange(8, 40),
                       "grid": rng.choice(("linear", "log"))}
    else:
        spread = rng.uniform(2.0, 20.0)
        cfg["scan"] = {"mode": "angular", "phi_prime_deg": phi,
                       "theta_range_deg": [max(theta - spread, 0.0),
                                           min(theta + spread, 180.0),
                                           rng.randrange(2, 5)],
                       "band_eV": [lo, max(hi, 1.01 * lo)],
                       "samples": rng.randrange(8, 24),
                       "jacobian": rng.random() < 0.5}
    return cfg


def _thermal_table(path):
    """The thermal R(E) as a custom table; the loader rescales E."""
    stats = ps.thermal_stats(2.25, 1.0)
    e = np.linspace(0.0, stats.support_max, 200)
    path.write_text("".join(f"{a!r} {b!r}\n" for a, b in zip(
        e.tolist(), np.exp(stats.log_r(e)).tolist())))
    return str(path)


@pytest.mark.parametrize("seed", [0, 7, 29, 2_718])
def test_smoke_runs_over_valid_configs(tmp_path, capsys, monkeypatch, seed):
    # two seeded runs of every state (custom: the thermal table) in both
    # scan modes; each ends in a curve or a reported physics failure, and
    # the draws reach the Bessel layer's Debye regime
    debye = []
    anchor = special_functions._debye_j
    monkeypatch.setattr(special_functions, "_debye_j",
                        lambda nu, x: debye.append(x.size) or anchor(nu, x))
    rng = random.Random(seed)
    table = _thermal_table(tmp_path / "thermal_table.txt")
    codes = []
    for i, (state, mode) in enumerate(
            (state, mode) for state in cli.STATE_NAMES
            for mode in ("spectrum", "angular") for _ in range(2)):
        cfg = _smoke_config(rng, state, mode,
                            table if state == "custom" else None)
        out = tmp_path / f"run{i}.csv"
        code = cli.main(["run", "--config",
                         _write_config(tmp_path, cfg, f"run{i}.json"),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, cli.EXIT_PHYSICS, cli.EXIT_NONCONVERGENCE), (
            cfg, err)
        assert "Traceback" not in err, (cfg, err)
        report = json.loads((tmp_path / f"run{i}.csv.report.json")
                            .read_text())
        assert set(report) == REPORT_KEYS | (
            {"output_path"} if code == 0 else {"error", "failure"}), cfg
        assert list(report["diagnostics"]) == DIAGNOSTICS_KEYS
        if code == 0:
            rows = [ln for ln in out.read_text().splitlines()
                    if not ln.startswith("#")][1:]
            values = np.array([[float(v) for v in ln.split(",")]
                               for ln in rows])
            scan = report["config"]["scan"]
            assert values.shape == (scan["samples"] if mode == "spectrum"
                                    else scan["theta_range_deg"][2], 2)
            assert np.all(np.isfinite(values)) and np.all(values >= 0.0), cfg
        else:
            assert report["error"], cfg
        # a failure that names its point carries it as an object
        error = report.get("error", "")
        if code == cli.EXIT_NONCONVERGENCE or "theta'=" in error:
            assert list(report["failure"]) == FAILURE_KEYS, cfg
        codes.append(code)
    assert codes.count(0) >= len(codes) // 2
    assert debye


def test_custom_thermal_table_gives_the_thermal_curve(tmp_path, capsys,
                                                      monkeypatch):
    # metamorphic: the thermal R(E) tabulated and loaded as a custom state
    # gives the thermal curve within the table's interpolation error.  log
    # R is quadratic in E, so log-linear interpolation on a step h errs by
    # at most h^2 / (8 omega rho) in log R (1 % for _thermal_table), and a
    # curve weighs R with positive kernels.  fig3's angles from 130 deg on
    # reach harmonic orders past 160, so both runs cross the Bessel
    # layer's Debye regime
    table = _thermal_table(tmp_path / "thermal_table.txt")
    e = np.loadtxt(table)[:, 0]
    tolerance = np.diff(e).max() ** 2 / (8.0 * 2.25)
    anchored = []
    anchor = special_functions._debye_j
    monkeypatch.setattr(special_functions, "_debye_j",
                        lambda nu, x: anchored.append(x.size) or anchor(nu, x))
    curves = {}
    for state in ("thermal", "custom"):
        cfg = cli.make_preset("fig3", state="thermal", intensity_index=3)
        del cfg["output"]
        cfg["drive"]["state"] = state
        if state == "custom":
            cfg["drive"]["custom_table"] = table
        cfg["scan"].update(theta_range_deg=[130.0, 170.0, 5], samples=64)
        out = tmp_path / f"{state}.csv"
        anchored.clear()
        assert cli.main(["run", "--config",
                         _write_config(tmp_path, cfg, f"{state}.json"),
                         "--out", str(out)]) == 0, capsys.readouterr().err
        assert anchored, state
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        curves[state] = np.array([float(ln.split(",")[1]) for ln in rows])
    want = curves["thermal"]
    assert np.all(want > 0.0)
    assert np.all(np.abs(curves["custom"] - want) <= tolerance * want)
