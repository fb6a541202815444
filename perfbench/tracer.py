"""Span tracing of the mvpb layers from outside the package.

``Tracer`` replaces each public layer function or method with a wrapper
that records one span per call (name, start, end, parent span, run id) and
passes arguments and results through unchanged.  Every name is patched
where callers look it up, e.g. ``mvpb.cli.build_gamma`` as well as
``mvpb.nonlinear.build_gamma``.  Spans stay in memory until ``write``.
Leaving the ``with`` block restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict


def _grid_modes(args, result):
    return {"modes": args[1].nh}


def _gamma_hit(args, result):
    return {"hit": result.build_seconds == 0,
            "bytes": result.tensor.shape[0] ** 3 * 8}


def _gamma_flops(args, result):
    gamma, f, g = args
    n = gamma.tensor.shape[0]
    rows = result.size // n
    orders = 1 if f is g else 2
    return {"gflop": 2.0 * rows * n ** 3 * orders / 1e9}


def _props_bytes(args, result):
    stepper = args[0]
    nh, n, _ = stepper.props.shape
    return {"bytes": nh * n * n * 16}


def _csv_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _manifest_bytes(args, result):
    return {"bytes": os.path.getsize(result)}


# span name -> (places the callable is looked up, per-call extra fields)
# A place is (module, attribute) or (module, class, method).
LAYERS = {
    "velocity.basis": ([("mvpb.velocity", "VelocityBasis", "__init__")],
                       None),
    "collision.reduced_kernel": ([("mvpb.collision", "reduced_kernel")],
                                 None),
    "collision.operator": ([("mvpb.collision", "CollisionOperator",
                             "__init__")], None),
    "collision.micro_gap": ([("mvpb.collision", "CollisionOperator",
                              "micro_gap")], None),
    "collision.solve_micro": ([("mvpb.collision", "CollisionOperator",
                                "solve_micro")], None),
    "collision.transport": ([("mvpb.collision", "transport_coefficients"),
                             ("mvpb.cli", "transport_coefficients")], None),
    "spectral.eigen_branches": ([("mvpb.spectral", "eigen_branches_at"),
                                 ("mvpb.green", "eigen_branches_at")], None),
    "spectral.mode_matrix": ([("mvpb.spectral", "mode_matrix"),
                              ("mvpb.green", "mode_matrix"),
                              ("mvpb.moments", "mode_matrix"),
                              ("mvpb.nonlinear", "mode_matrix")], None),
    "green.green_action": ([("mvpb.green", "green_action")], _grid_modes),
    "green.kinetic_waves": ([("mvpb.green", "KineticWaves", "__init__")],
                            None),
    "green.fft": ([("mvpb.green", "SpaceGrid", "to_physical"),
                   ("mvpb.green", "SpaceGrid", "to_coefficients")], None),
    "moments.kinetic_trajectory": (
        [("mvpb.moments", "kinetic_moment_trajectory"),
         ("mvpb.cli", "kinetic_moment_trajectory")], None),
    "moments.nsp_evolve": ([("mvpb.moments", "NSPEvolver", "evolve")], None),
    "nonlinear.build_gamma": ([("mvpb.nonlinear", "build_gamma"),
                               ("mvpb.cli", "build_gamma")], _gamma_hit),
    "nonlinear.apply_gamma": ([("mvpb.nonlinear", "apply_gamma")],
                              _gamma_flops),
    "nonlinear.stepper_init": ([("mvpb.nonlinear", "NonlinearStepper",
                                 "__init__")], _props_bytes),
    "nonlinear.step": ([("mvpb.nonlinear", "NonlinearStepper", "step")],
                       None),
    "nonlinear.poisson_newton": ([("mvpb.nonlinear", "poisson_newton")],
                                 None),
    "nonlinear.diagnostics": ([("mvpb.nonlinear", "state_diagnostics")],
                              None),
    "cli.write_csv": ([("mvpb.cli", "write_csv")], _csv_bytes),
    "cli.write_manifest": ([("mvpb.manifest", "RunManifest", "write")],
                           _manifest_bytes),
}


class Tracer:
    """Context manager that records spans of the mvpb layer calls."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans = []
        self.run_id = None
        self._stack = []
        self._saved = []

    def __enter__(self):
        for name, (places, extra) in self.layers.items():
            for place in places:
                owner = importlib.import_module(place[0])
                if len(place) == 3:
                    owner = getattr(owner, place[1])
                attr = place[-1]
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, extra))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span.update(extra(args, result))
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans):
    """Per span id: duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def summarize(spans, run=None):
    """name -> {"s": self time, "calls": count, extra field -> sum}."""
    own = self_times(spans)
    out = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if run is not None and s["run"] != run:
            continue
        agg = out[s["name"]]
        agg["s"] += own[s["id"]]
        agg["calls"] += 1
        for key in ("modes", "gflop", "bytes", "hit"):
            if key in s:
                agg[key] += float(s[key])
    return out
