"""Spans around the package's layer boundaries, recorded from outside it.

Each wrapped call becomes one in-memory span [name, start, end, parent,
curve, counts].  The wrappers replace the module attributes that callers
look up at call time: emission imports bessel_j_triple by name, so the
wrapper goes on emission.bessel_j_triple, and cli imports energy_spectrum
and angular_distribution by name, so those are wrapped in cli as well as
in pipeline.  The package source is not touched, and the originals are
restored as soon as a traced curve ends.

Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

import numpy as np

from qcompton import cli, emission, pipeline
from qcompton import photon_statistics as ps

ROOT_SPAN = "cli.run_config"


def _targets():
    """(owner, attribute, span name, counter(args, result) or None)."""
    size = np.size
    return [
        (emission, "bessel_j_triple", "special_functions.bessel_j_triple",
         lambda a, out: {"elements": int(size(a[1])), "order": int(a[0])}),
        (ps.PhaseAveragedStatistics, "log_r", "photon_statistics.log_r",
         lambda a, out: {"elements": int(size(a[1]))}),
        (ps, "moments", "photon_statistics.moments", None),
        (emission, "spectral_density_points",
         "emission.spectral_density_points",
         lambda a, out: {"points": int(size(a[3]))}),
        (emission, "bessel_bracket", "emission.bessel_bracket", None),
        (emission, "coherent_peaks", "emission.coherent_peaks",
         lambda a, out: {"orders": len(a[4])}),
        (pipeline, "_gaussian_convolve_linear",
         "pipeline._gaussian_convolve_linear",
         lambda a, out: {"segments": int(size(a[0])) - 1}),
        (pipeline, "_ladder", "pipeline._ladder",
         lambda a, out: {"lines": len(out)}),
        (pipeline, "energy_spectrum", "pipeline.energy_spectrum", None),
        (cli, "energy_spectrum", "pipeline.energy_spectrum", None),
        (pipeline, "band_integrate", "pipeline.band_integrate", None),
        (cli, "angular_distribution", "pipeline.angular_distribution", None),
        (cli, "validate_config", "cli.validate_config", None),
        (cli, "_build_scenario", "cli._build_scenario", None),
        (cli, "_moment_check", "cli._moment_check", None),
        (cli, "_write_curve", "cli._write_curve",
         lambda a, out: {"bytes": os.path.getsize(a[0])}),
        (cli, "run_config", ROOT_SPAN, None),
    ]


COUNTED = ("special_functions.bessel_j_triple.elements",
           "photon_statistics.log_r.elements",
           "emission.spectral_density_points.points",
           "emission.coherent_peaks.orders",
           "pipeline._gaussian_convolve_linear.segments",
           "pipeline._ladder.lines",
           "cli._write_curve.bytes")
FUNCTIONS = tuple(dict.fromkeys(name for _, _, name, _ in _targets()))
LAYERS = ("special_functions", "photon_statistics", "emission", "pipeline",
          "cli")


class Tracer:
    """Spans of every traced curve, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._curve = -1

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self._curve, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self, curve: int):
        """Trace every wrapped call made inside the block as `curve`."""
        saved, wrappers = [], {}
        for owner, attr, name, count in _targets():
            original = getattr(owner, attr)
            if name not in wrappers:
                wrappers[name] = self._wrap(name, original, count)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[name])
        self._curve = curve
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._curve = -1

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c
                in zip(self.spans, covered)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values averaged per traced curve.

        Function self times are given as a share of the traced run_config
        time; a function a workload never calls then reads 0 as a share
        rather than as a constant 0 s.  Layer (module) self times, in s
        per curve, are non-zero on every workload.
        """
        selfs = self.self_times()
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        counts = dict.fromkeys(COUNTED, 0)
        max_order = 0
        order_elements = 0
        ladder_orders = 0
        root_total = 0.0
        curves = set()
        for (name, start, end, parent, curve, cnt), own in zip(self.spans,
                                                               selfs):
            calls[name] += 1
            self_s[name] += own
            if name == ROOT_SPAN:
                root_total += end - start
                curves.add(curve)
            if not cnt:
                continue
            for key, value in cnt.items():
                if f"{name}.{key}" in counts:
                    counts[f"{name}.{key}"] += value
            if name == "special_functions.bessel_j_triple":
                max_order = max(max_order, cnt["order"])
                order_elements += cnt["order"] * cnt["elements"]
            elif (name == "emission.coherent_peaks" and parent >= 0
                  and self.spans[parent][0] == "pipeline._ladder"):
                ladder_orders += cnt["orders"]
        n = max(len(curves), 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")) / n
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.self_frac"] = (self_s[name] / root_total
                                        if root_total > 0.0 else 0.0)
        for key, value in counts.items():
            out[key] = value / n
        out["special_functions.bessel_j_triple.order_elements"] = (
            order_elements / n)
        out["special_functions.bessel_j_triple.max_order"] = max_order
        lines = counts["pipeline._ladder.lines"]
        out["pipeline._ladder.kept_frac"] = (lines / ladder_orders
                                             if ladder_orders else 0.0)
        out["trace.curves"] = len(curves)
        return out

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows, with self time appended."""
        return [[name, start, end, parent, curve, cnt, own]
                for (name, start, end, parent, curve, cnt), own
                in zip(self.spans, self.self_times())]
