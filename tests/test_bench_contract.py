"""The benchmark's tracer must keep finding what it wraps.

bench/tracing.py wraps package functions by attribute name and reads
their arguments by position (len(a[4]) for coherent_peaks, int(a[0]) for
bessel_j_triple), so a refactor that renames a function or moves an
argument breaks `bench/run.py --trace 1`.  These tests load the tracer
from bench/ without changing anything there and trace two small curves.
"""

import importlib.util
from pathlib import Path

from qcompton import cli

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


def test_traced_curves_count_every_layer(tmp_path, capsys):
    runs = [
        _resolved("coherent", {"mode": "angular",
                               "theta_range_deg": [150.0, 170.0, 2],
                               "band_eV": [1.0, 4.0], "samples": 64}),
        _resolved("thermal", {"mode": "spectrum", "theta_prime_deg": 159.9,
                              "omega_prime_range_eV": [0.5, 4.0],
                              "samples": 200}),
    ]
    tracer = tracing.Tracer()
    for i, resolved in enumerate(runs):
        with tracer.installed(i):
            cli.run_config(resolved, str(tmp_path / f"curve{i}.csv"), "csv")
    metrics = tracer.layer_metrics()
    assert metrics["trace.curves"] == 2
    for key in ("emission.coherent_peaks.orders",
                "special_functions.bessel_j_triple.elements",
                "emission.spectral_density_points.points",
                "pipeline._gaussian_convolve_linear.segments"):
        assert metrics[key] > 0, key
