"""Benchmark of the mvpb studies: one command, one result line per workload.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh child process (``harness.py``), started and
waited for by this process: a closed loop with one client.  The child
pins BLAS to one thread, fills an empty cache (``setup_s``) and repeats the
workload's studies against the warm cache for ``--seconds`` (``wall_s``).
With ``--trace 0`` the last line is the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass.  NOTES.md says what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
CHILD_TIMEOUT_S = 175
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

STUDIES = ("coeffs", "dispersion", "green", "waves", "nsp-compare",
           "nonlinear")


def study_metric(study):
    return study.replace("-", "_") + "_s"


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(res):
    s = res["samples"]
    return {
        "setup_s": (median(s["setup_s"]), "s"),
        "wall_s": (median(s["wall_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res):
    every, warm = res["layers"]["all"], res["layers"]["warm"]
    s = res["samples"]

    def get(name, key="s", src=every):
        return src.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    wall = median(s["wall_s"])
    cpu = median(s["cpu_s"])
    m = {
        "velocity.basis_s": (get("velocity.basis"), "s"),
        "velocity.basis_calls": (get("velocity.basis", "calls"), "count"),
        "collision.reduced_kernel_s": (get("collision.reduced_kernel"), "s"),
        "collision.reduced_kernel_calls": (
            get("collision.reduced_kernel", "calls"), "count"),
        "collision.operator_s": (get("collision.operator"), "s"),
        "collision.operator_calls": (get("collision.operator", "calls"),
                                     "count"),
        "collision.kernel_cache_hit_ratio": (1.0 - ratio(
            get("collision.reduced_kernel", "calls", warm),
            get("collision.operator", "calls", warm))
            if get("collision.operator", "calls", warm) else 0.0, "ratio"),
        "collision.micro_gap_s": (get("collision.micro_gap"), "s"),
        "collision.micro_gap_calls": (get("collision.micro_gap", "calls"),
                                      "count"),
        "collision.solve_micro_calls": (get("collision.solve_micro", "calls"),
                                        "count"),
        "collision.transport_s": (get("collision.transport"), "s"),
        "spectral.eigen_branches_s": (get("spectral.eigen_branches"), "s"),
        "spectral.eigen_branches_calls": (
            get("spectral.eigen_branches", "calls"), "count"),
        "spectral.mode_matrix_s": (get("spectral.mode_matrix"), "s"),
        "spectral.mode_matrix_calls": (get("spectral.mode_matrix", "calls"),
                                       "count"),
        "green.green_action_s": (get("green.green_action"), "s"),
        "green.green_action_modes_per_s": (ratio(
            get("green.green_action", "modes"), get("green.green_action")),
            "1/s"),
        "green.kinetic_waves_s": (get("green.kinetic_waves"), "s"),
        "green.fft_s": (get("green.fft"), "s"),
        "green.fft_calls": (get("green.fft", "calls"), "count"),
        "green.aliasing_warnings": (res["aliasing_warnings"], "count"),
        "moments.kinetic_trajectory_s": (get("moments.kinetic_trajectory"),
                                         "s"),
        "moments.nsp_evolve_s": (get("moments.nsp_evolve"), "s"),
        "nonlinear.build_gamma_s": (get("nonlinear.build_gamma"), "s"),
        "nonlinear.build_gamma_calls": (get("nonlinear.build_gamma", "calls"),
                                        "count"),
        "nonlinear.gamma_cache_hit_ratio": (ratio(
            get("nonlinear.build_gamma", "hit", warm),
            get("nonlinear.build_gamma", "calls", warm)), "ratio"),
        "nonlinear.apply_gamma_s": (get("nonlinear.apply_gamma"), "s"),
        "nonlinear.apply_gamma_calls": (get("nonlinear.apply_gamma", "calls"),
                                        "count"),
        "nonlinear.apply_gamma_gflop": (get("nonlinear.apply_gamma", "gflop"),
                                        "GFLOP"),
        "nonlinear.apply_gamma_gflops": (ratio(
            get("nonlinear.apply_gamma", "gflop"),
            get("nonlinear.apply_gamma")), "GFLOP/s"),
        "nonlinear.stepper_init_s": (get("nonlinear.stepper_init"), "s"),
        "nonlinear.step_s": (get("nonlinear.step"), "s"),
        "nonlinear.steps": (get("nonlinear.step", "calls"), "count"),
        "nonlinear.poisson_newton_s": (get("nonlinear.poisson_newton"), "s"),
        "nonlinear.poisson_newton_calls": (
            get("nonlinear.poisson_newton", "calls"), "count"),
        "nonlinear.diagnostics_s": (get("nonlinear.diagnostics"), "s"),
        "nonlinear.gamma_bytes": (ratio(
            get("nonlinear.build_gamma", "bytes"),
            get("nonlinear.build_gamma", "calls")), "B"),
        "nonlinear.props_bytes": (ratio(
            get("nonlinear.stepper_init", "bytes"),
            get("nonlinear.stepper_init", "calls")), "B"),
        "cli.write_csv_s": (get("cli.write_csv"), "s"),
        "cli.bytes_written": (get("cli.write_csv", "bytes")
                              + get("cli.write_manifest", "bytes"), "B"),
        "proc.cpu_s": (cpu, "s"),
        "proc.cpu_util": (ratio(cpu, wall), "ratio"),
        "trace.overhead_s": (res["traced"]["wall_s"][0] - wall, "s"),
        "trace.spans": (res["spans"], "count"),
    }
    for study in STUDIES:
        m["cli." + study_metric(study)] = (
            median(s["study_s"].get(study, [])), "s")
    return m


def run_child(name, args):
    os.makedirs(WORK, exist_ok=True)
    fd, result_path = tempfile.mkstemp(prefix=f"{name}-", suffix=".json",
                                       dir=WORK)
    os.close(fd)
    env = dict(os.environ)
    env.pop("MVPB_CACHE", None)
    cmd = [sys.executable, os.path.join(HERE, "harness.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", result_path]
    try:
        # the studies' own output goes to stderr; stdout carries the result
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{name}: harness exited {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.remove(result_path)


def report(name, res, trace):
    s = res["samples"]
    attempted, failed = res["attempted"], res["failed"]
    metrics = per_layer(res) if trace else end_to_end(res)
    print(f"# {name}: {len(s['wall_s'])} warm sequences, "
          f"{len(s['setup_s'])} cold set-ups, seed {res['record']['seed']}")
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    if not trace:
        for key in ("setup_s", "wall_s"):
            print(f"{name} {key} samples = "
                  + " ".join(f"{v:.4f}" for v in s[key]))
        for study, values in s["study_s"].items():
            print(f"{name} {study_metric(study)} = {median(values):.6g} s"
                  f" (min {min(values):.6g}, max {max(values):.6g},"
                  f" n={len(values)})")
    print(f"{name} fail_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} study invocations)")
    print(f"{name} csv digests match reference: {res['digests_match']}")
    for problem in res["problems"]:
        print(f"{name} FAILED {problem}")
    print(f"{name} record: {json.dumps(res['record'], sort_keys=True)}")
    if trace:
        print(f"{name} spans: {res['spans_file']}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    print(json.dumps(line), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="a workload, a comma-separated list, or 'all'")
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the workloads are deterministic")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" \
        else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; known: {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "mvpb", "cli.py")):
        sys.stderr.write(f"error: no mvpb sources under {ROOT}/src\n")
        return 2
    for name in names:
        report(name, run_child(name, args), bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
