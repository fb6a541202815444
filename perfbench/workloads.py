"""The benchmark's workloads: fixed, deterministic study sequences.

Each workload is a list of ``mvpb`` studies run one after another against a
warm kernel cache, with config overrides passed as ``--set KEY=VALUE``.
The workloads take no random input: the ``--seed`` argument is recorded in
the result and changes nothing.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    studies: tuple
    settings: dict
    needs_gamma: bool

    def set_args(self):
        out = []
        for key, value in self.settings.items():
            out += ["--set", f"{key}={value}"]
        return out


WORKLOADS = {
    w.name: w for w in (
        # default config: n1=24, nr=12 (n=288), 33 continuation steps
        Workload("spectrum", ("coeffs", "dispersion"), {},
                 needs_gamma=False),
        # n=128; nx=256 on a half-length-100 box keeps the default dx
        Workload("green", ("green", "waves", "nsp-compare"),
                 {"n1": 16, "nr": 8, "nx": 256, "box_half_length": 100.0,
                  "times": "1,2,4,8"},
                 needs_gamma=False),
        # n=32 so that the cold Gamma build fits a run; 200 Strang steps
        Workload("nonlinear", ("nonlinear",),
                 {"n1": 8, "nr": 4, "nx": 1024, "t_end": 20.0, "dt": 0.1},
                 needs_gamma=True),
    )
}
