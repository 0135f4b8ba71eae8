"""The benchmark's tracer must keep finding what it wraps.

bench/tracing.py wraps package functions by attribute name and reads
their arguments by position (len(a[4]) for coherent_peaks, np.size(a[3])
for spectral_density_points, int(a[0]) for bessel_j_triple) and the
len() of _ladder's result, one row per line, so a refactor that renames
a function, moves an argument or changes what the ladder returns breaks
`bench/run.py --trace 1`.  These tests load the tracer from bench/
without changing anything there, trace two small curves and hold the
counts to what the package reports itself.
"""

import importlib.util
import json
from pathlib import Path

from qcompton import cli, emission

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing",
    Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _resolved(state, scan):
    return cli.validate_config({
        "electron": {"gamma": 1.0, "direction": [0, 0, 1]},
        "drive": {"photon_energy_eV": 2.25, "intensity_W_cm2": 9e16,
                  "relative_bandwidth": 8e-3, "state": state},
        "scan": scan,
    })


def test_tracer_targets_exist():
    for owner, attr, name, _ in tracing._targets():
        assert hasattr(owner, attr), name


def _traced(resolved, path):
    tracer = tracing.Tracer()
    with tracer.installed(0):
        cli.run_config(resolved, path, "csv")
    return tracer.layer_metrics()


def test_traced_curves_count_every_layer(tmp_path, capsys):
    # one tracer per curve, so each count is that curve's total; a count
    # read from a shifted argument still comes out non-zero (np.size of a
    # float is 1), so the counts are held to the package's own figures
    coherent = _traced(
        _resolved("coherent", {"mode": "angular",
                               "theta_range_deg": [150.0, 170.0, 2],
                               "band_eV": [1.0, 4.0], "samples": 64}),
        str(tmp_path / "coherent.csv"))
    path = str(tmp_path / "thermal.csv")
    thermal = _traced(
        _resolved("thermal", {"mode": "spectrum", "theta_prime_deg": 159.9,
                              "omega_prime_range_eV": [0.5, 4.0],
                              "samples": 200}),
        path)
    with open(path + ".report.json", encoding="utf-8") as fh:
        points = json.load(fh)["diagnostics"]["points"]
    assert coherent["trace.curves"] == thermal["trace.curves"] == 1
    assert (coherent["emission.coherent_peaks.orders"]
            == coherent["pipeline._ladder.lines"] > 0)
    assert thermal["emission.spectral_density_points.points"] == points > 0
    for key in ("special_functions.bessel_j_triple.elements",
                "pipeline._gaussian_convolve_linear.segments"):
        assert thermal[key] > 0, key


def test_engine_blocks_go_through_the_traced_triple(tmp_path, capsys):
    # an angular scan of at most BLOCK_ELEMENTS / 2 points takes its
    # orders in blocks of B > 1 rows; every block's bracket must reach
    # the Bessel layer through the name the tracer wraps, or its time and
    # counts go missing
    resolved = _resolved("thermal", {"mode": "angular",
                                     "theta_range_deg": [150.0, 170.0, 2],
                                     "band_eV": [1.0, 4.0], "samples": 64})
    path = str(tmp_path / "blocks.csv")
    thermal = _traced(resolved, path)
    with open(path + ".report.json", encoding="utf-8") as fh:
        diag = json.load(fh)["diagnostics"]
    assert 0 < diag["points"] <= emission.BLOCK_ELEMENTS // 2
    calls = thermal["special_functions.bessel_j_triple.calls"]
    assert calls == thermal["emission.bessel_bracket.calls"] > 0
    # fewer calls than orders scanned: blocks of several orders each
    assert calls < diag["orders_scanned"]
