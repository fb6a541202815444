"""Run manifests: reproducible records of every study's outputs.

A manifest is a JSON document holding the configuration echo, library
versions, wall-clock time, every produced file with its SHA-256 digest,
and all fitted constants.  CSV writers emit 17-significant-digit floats so
that identical configurations reproduce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time

import numpy as np
import scipy


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def format_float(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    """Write rows of floats/strings with full-precision decimal floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else format_float(c)
                     for c in row]
            fh.write(",".join(cells) + "\n")


class RunManifest:
    """Accumulates constants, timings and produced files during a study run.

    constants are the fitted results that reports compare; timings hold
    where the time went, which caches hit and the peak memory, and
    warnings the category and message of each warning the study raised;
    no report checks these.
    """

    def __init__(self, config, out_dir):
        self.config = config
        self.out_dir = out_dir
        self.t0 = time.perf_counter()
        self.constants = {}
        self.timings = {}
        self.files = []
        self.warnings = []
        self.partial = False
        self.error = None

    def add_constant(self, name, value):
        if isinstance(value, (list, tuple, np.ndarray)):
            self.constants[name] = [float(v) for v in np.ravel(value)]
        else:
            self.constants[name] = float(value)

    def add_file(self, path):
        self.files.append({"path": os.path.relpath(path, self.out_dir),
                           "sha256": sha256_file(path)})

    def write(self, name="manifest.json"):
        doc = {
            "study": self.config.study,
            "config": dict(self.config.values),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "wall_clock_seconds": time.perf_counter() - self.t0,
            "constants": self.constants,
            "timings": self.timings,
            "files": self.files,
            "warnings": self.warnings,
            "partial": self.partial,
            "error": self.error,
        }
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def load_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
