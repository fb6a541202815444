"""Flat key=value run configuration.

The format is a plain text file with one ``key = value`` pair per line and
``#`` comments, deliberately nesting-free so any tool can parse it.  Every
known key carries a type, a default, and a validation range; unknown keys
are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

STUDIES = ("coeffs", "dispersion", "green", "waves",
           "nsp-compare", "nonlinear", "report")


def _positive(x):
    return x > 0


def parse_times(s):
    """Comma-separated sample times as floats; ValueError on a bad entry."""
    return [float(t) for t in s.split(",")]


def _times(s):
    parse_times(s)
    return s


def _bool(s):
    s = s.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# key -> (parser, default, validator, doc)
SCHEMA = {
    "study": (str, "coeffs", lambda s: s in STUDIES,
              "one of " + ", ".join(STUDIES)),
    "n1": (int, 24, lambda n: n >= 3,
           "longitudinal velocity nodes per sector, at least 3"),
    "nr": (int, 12, _positive, "transverse speed nodes"),
    "vmax": (float, 8.0, lambda x: x >= 6.0,
             "velocity box half-width, at least 6"),
    "nphi": (int, 128, _positive, "azimuthal quadrature size for the kernel"),
    "nx": (int, 1024, lambda n: n > 0 and n % 2 == 0,
           "spatial grid points, even"),
    "box_half_length": (float, 200.0, _positive, "spatial half-box"),
    "eta_max": (float, 0.5, _positive, "branch-continuation frequency cap"),
    "steps": (int, 33, lambda n: n >= 2, "continuation steps"),
    "r0_hat": (float, 1.0, _positive, "fluid/kinetic frequency split"),
    "t_end": (float, 20.0, _positive, "final time"),
    "dt": (float, 0.1, _positive, "time step"),
    "times": (_times, "1,2,4,8",
              lambda s: all(math.isfinite(t) and t >= 0 for t in parse_times(s)),
              "comma-separated finite sample times >= 0"),
    "levels": (int, 7, lambda n: n >= 2,
               "Picard wave-front levels J_0..J_{levels-1}, at least 2: the "
               "wave sum leaves out the top level"),
    "delta0": (float, 1e-3, _positive, "initial-data amplitude"),
    "gamma0": (float, 1.0, lambda x: x > 0.5, "initial-data spatial decay"),
    "collisions": (_bool, True, lambda b: True, "bilinear collision toggle"),
    "out": (str, "out", lambda s: len(s) > 0, "output directory"),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key)

    def sample_times(self):
        return parse_times(self.values["times"])


def default_config(**overrides):
    vals = {k: spec[1] for k, spec in SCHEMA.items()}
    cfg = RunConfig(vals)
    apply_overrides(cfg, overrides)
    return cfg


def apply_overrides(cfg: RunConfig, overrides):
    for key, raw in overrides.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key: {key!r}")
        parser, _, check, doc = SCHEMA[key]
        try:
            val = parser(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})")
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{key} = {val!r} is not finite ({doc})")
        if not check(val):
            raise ConfigError(f"{key} = {val!r} out of range ({doc})")
        cfg.values[key] = val
    # sector 0 has three invariants: n = n1 * nr >= 4 leaves it a micro
    # spectrum (n1 >= 3 is the three-point d/dv1 stencil)
    if cfg.n1 * cfg.nr < 4:
        raise ConfigError(f"n1 * nr = {cfg.n1 * cfg.nr} out of range "
                          f"(n1 = {cfg.n1}, nr = {cfg.nr}; at least 4)")


def parse_config(path):
    """Parse a flat key=value file into a validated RunConfig."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key in overrides:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            overrides[key] = raw
    return default_config(**overrides)


def schema_text():
    """Human-readable schema listing shipped alongside the artifact."""
    lines = ["# configuration schema: key = default  (description)"]
    for key, (_, default, _, doc) in SCHEMA.items():
        lines.append(f"{key} = {default}  # {doc}")
    return "\n".join(lines) + "\n"
