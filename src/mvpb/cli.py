"""Command-line orchestration of the numerical studies.

Each subcommand runs one study in one process (only the branch eigensolves,
the node sweep of the Gamma build, at large n the Gamma apply, and the
mode blocks of the kinetic waves use more than one thread, see
spectral.eig_workers) and writes its outputs plus a
manifest into the output directory.  Exit codes: 0 success, 2 invalid
configuration, 3 numerical failure (a manifest is still written in that
case, flagged as partial).  The cache directory for expensive kernels and
tensors is taken from the MVPB_CACHE environment variable.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import warnings

import numpy as np

from . import config as cfgmod
from .collision import CollisionOperator, transport_coefficients
from .config import ConfigError, RunConfig, default_config, parse_config
from .errors import (BranchSwap, CFLViolation, IllConditioned, Instability,
                     MemoryBudget, MissingStudy, NoConvergence)
from .green import KineticWaves, SpaceGrid, linear_log_fit
from .manifest import RunManifest, load_manifest, write_csv
from .moments import (NSPEvolver, kinetic_moment_trajectory,
                      nsp_acoustic_speeds, nsp_damping_coefficients)
from .nonlinear import build_gamma, decay_study
from .spectral import blas_threads, eig_workers, eigen_branches
from .velocity import VelocityBasis

NUMERICAL_ERRORS = (BranchSwap, NoConvergence, Instability, CFLViolation,
                    IllConditioned, MemoryBudget)

#: studies that drop t = 0 and fit or march over the remaining times
POSITIVE_TIME_STUDIES = ("waves", "nsp-compare")


def cache_dir():
    return os.environ.get("MVPB_CACHE") or None


def _operator(cfg: RunConfig, sector):
    """Collision operator of one azimuthal sector."""
    basis = VelocityBasis(cfg.n1, cfg.nr, cfg.vmax, sector)
    return CollisionOperator(basis, nphi=cfg.nphi, cache_dir=cache_dir())


# ---------------------------------------------------------------------- #
# studies
# ---------------------------------------------------------------------- #

def study_coeffs(cfg, man):
    op0, op1 = _operator(cfg, 0), _operator(cfg, 1)
    tc = transport_coefficients(op0, op1)
    for key in ("sound_speed", "a_plus", "a_minus", "a_zero", "a_shear",
                "kappa1", "kappa2", "mu_hat"):
        man.add_constant(key, tc[key])
    b = op0.basis
    path = os.path.join(man.out_dir, "basis_nodes.csv")
    write_csv(path, ["v1", "vr", "weight"],
              list(zip(b.v1, b.vr, b.w)))
    man.add_file(path)


def study_dispersion(cfg, man):
    op0, op1 = _operator(cfg, 0), _operator(cfg, 1)
    man.timings["eig_workers"] = eig_workers()
    man.timings["blas_threads"] = blas_threads()
    rows = []
    for op in (op0, op1):
        bs = eigen_branches(op, eta_max=cfg.eta_max, steps=cfg.steps)
        for j, label in enumerate(bs.labels):
            man.add_constant(f"beta_{int(label)}", bs.beta[j])
            man.add_constant(f"a_{int(label)}", bs.damping[j])
            for e, lam in zip(bs.etas, bs.lam[j]):
                rows.append((float(label), e, lam.real, lam.imag))
    path = os.path.join(man.out_dir, "branches.csv")
    write_csv(path, ["label", "eta", "re_lambda", "im_lambda"], rows)
    man.add_file(path)


def study_green(cfg, man):
    from .green import synthesize_green
    op0 = _operator(cfg, 0)
    grid = SpaceGrid(cfg.box_half_length, cfg.nx)
    ts = cfg.sample_times()
    b = op0.basis
    seeds = [b.invariants[0]]
    syn = synthesize_green(op0, grid, seeds, ts, cfg.r0_hat)
    rows = []
    for part, field in (("full", syn["coef"]), ("low", syn["low"]),
                        ("high", syn["high"])):
        phys = grid.to_physical(field, axis=2)
        sup = b.norm(phys).max(axis=-1)[0]
        for t, s in zip(ts, sup):
            rows.append((part, t, s))
    path = os.path.join(man.out_dir, "green_norms.csv")
    write_csv(path, ["part", "t", "sup_x_norm_v"], rows)
    man.add_file(path)
    evolved = [(t, s) for p, t, s in rows if p == "full" and t > 0]
    if len(evolved) >= 3:
        p, _, r2 = linear_log_fit(np.log1p([t for t, _ in evolved]),
                                  [s for _, s in evolved])
        man.add_constant("green_decay_exponent", p)
        man.add_constant("green_decay_r2", r2)


def study_waves(cfg, man):
    op0 = _operator(cfg, 0)
    grid = SpaceGrid(cfg.box_half_length, cfg.nx)
    ts = [t for t in cfg.sample_times() if t > 0]
    b = op0.basis
    man.timings["eig_workers"] = eig_workers()
    man.timings["blas_threads"] = blas_threads()
    kw = KineticWaves(op0, grid, [b.invariants[0]], ts, levels=cfg.levels)
    rows = []
    amps = []
    for it, t in enumerate(ts):
        phys = grid.to_physical(kw.wave_sum[:, it], axis=1)
        sup = float(b.norm(phys).max())
        rows.append((t, sup))
        amps.append(sup)
    slope, _, r2 = linear_log_fit(ts, amps)
    man.add_constant("wave_sum_log_slope", slope)
    man.add_constant("wave_sum_fit_r2", r2)
    path = os.path.join(man.out_dir, "wave_norms.csv")
    write_csv(path, ["t", "sup_x_norm_v"], rows)
    man.add_file(path)


def study_nsp_compare(cfg, man):
    op0, op1 = _operator(cfg, 0), _operator(cfg, 1)
    grid = SpaceGrid(cfg.box_half_length, cfg.nx)
    tc = transport_coefficients(op0, op1)
    k1, k2 = tc["kappa1"], tc["kappa2"]
    speeds = nsp_acoustic_speeds(k1, k2, coupled=True)
    damp = nsp_damping_coefficients(k1, k2, coupled=True)
    man.add_constant("nsp_speeds", speeds)
    man.add_constant("nsp_damping", damp)

    ts = [t for t in cfg.sample_times() if t > 0]
    # low-frequency data: the fluid closure is only valid for eta << r0
    profile = np.exp(-grid.x ** 2 / 200.0)
    kin = kinetic_moment_trajectory(op0, grid, profile, [0.0] + ts)
    # linear-to-linear comparison: the kinetic reference is the linearized
    # propagator, and the closure is linear too
    ev = NSPEvolver(grid, k1, k2)
    fluid = ev.evolve(kin[0], max(ts), cfg.dt, out_ts=ts)
    rows = []
    for t, k, f in zip(ts, kin[1:], fluid):
        err = np.sqrt(np.mean((k.n - f.n) ** 2) + np.mean((k.m1 - f.m1) ** 2)
                      + np.mean((k.q - f.q) ** 2))
        ref = np.sqrt(np.mean(k.n ** 2) + np.mean(k.m1 ** 2)
                      + np.mean(k.q ** 2))
        rows.append((t, err / max(ref, 1e-300)))
    path = os.path.join(man.out_dir, "nsp_compare.csv")
    write_csv(path, ["t", "rel_l2_error"], rows)
    man.add_file(path)
    man.add_constant("nsp_final_rel_error", rows[int(np.argmax(ts))][1])


def study_nonlinear(cfg, man):
    op0 = _operator(cfg, 0)
    grid = SpaceGrid(cfg.box_half_length, cfg.nx)
    gamma = None
    if cfg.collisions:
        gamma = build_gamma(op0.basis, cache_dir=cache_dir())
        man.timings["gamma_build_s"] = gamma.build_seconds
        if gamma.build_seconds == 0.0:
            man.timings["gamma_cache"] = "hit"
        else:
            # threads of the node sweep; a cache hit sweeps nothing
            man.timings["gamma_cache"] = "miss"
            man.timings["gamma_workers"] = eig_workers()
    rep = decay_study(op0, grid, gamma, t_end=cfg.t_end, dt=cfg.dt,
                      delta0=cfg.delta0, gamma0=cfg.gamma0)
    if gamma is not None:
        # threads of the apply on the stepper's (nx, n) fields
        man.timings["gamma_apply_workers"] = gamma.apply_workers
    rows = [(r["t"], r["sup_f"], r["sup_dvf"], r["sup_phi"], r["sup_dphi"],
             r["sup_phit"], r["ratio_f"], r["ratio_field"])
            for r in rep["rows"]]
    path = os.path.join(man.out_dir, "decay.csv")
    write_csv(path, ["t", "sup_f", "sup_dvf", "sup_phi", "sup_dphi",
                     "sup_phit", "ratio_f", "ratio_field"], rows)
    man.add_file(path)
    for key in ("exponent_f", "r2_f", "exponent_dvf", "r2_dvf",
                "exponent_field", "r2_field", "q_log_slope"):
        man.add_constant(key, rep[key])


STUDY_FUNCS = {
    "coeffs": study_coeffs,
    "dispersion": study_dispersion,
    "green": study_green,
    "waves": study_waves,
    "nsp-compare": study_nsp_compare,
    "nonlinear": study_nonlinear,
}


# ---------------------------------------------------------------------- #
# acceptance report
# ---------------------------------------------------------------------- #

def _near(x, target, tol):
    return abs(x - target) <= tol


def report_rows(manifests):
    """Cross-check table: (criterion, status, measured, expected)."""
    by_study = {}
    for doc in manifests:
        by_study[doc["study"]] = doc

    def const(study, key):
        doc = by_study.get(study)
        if doc is None or key not in doc["constants"]:
            raise MissingStudy(f"{study}:{key}")
        return doc["constants"][key]

    # (criterion, required sign: +1 for > 0, -1 for < 0, None for a
    #  tolerance check, () -> (measured, expected, tol))
    checks = [
        ("sound speed |beta_+1| = sqrt(8/3) +- 2e-3", None,
         lambda: (abs(const("dispersion", "beta_1")),
                  float(np.sqrt(8.0 / 3.0)), 2e-3)),
        ("acoustic damping a_+1 > 0", +1,
         lambda: (const("dispersion", "a_1"), None, None)),
        ("coefficient positivity a_plus > 0", +1,
         lambda: (const("coeffs", "a_plus"), None, None)),
        ("shear identity a_shear = kappa1", None,
         lambda: (const("coeffs", "a_shear"),
                  const("coeffs", "kappa1"), 1e-12)),
        ("fluid comparison rel error <= 0.1", None,
         lambda: (const("nsp-compare", "nsp_final_rel_error"), 0.0, 0.1)),
        ("wave-front exponential decay slope < 0", -1,
         lambda: (const("waves", "wave_sum_log_slope"), None, None)),
        ("pointwise decay exponent -0.5 +- 0.1", None,
         lambda: (const("nonlinear", "exponent_f"), -0.5, 0.1)),
    ]
    rows = []
    for name, sign, fn in checks:
        try:
            measured, expected, tol = fn()
        except MissingStudy:
            rows.append((name, "MissingStudy", "", ""))
            continue
        if sign is not None:
            ok = sign * measured > 0
            rows.append((name, "pass" if ok else "FAIL",
                         repr(measured), "sign"))
        else:
            ok = _near(measured, expected, tol)
            rows.append((name, "pass" if ok else "FAIL",
                         repr(measured), f"{expected} +- {tol}"))
    return rows


def run_report(paths, out):
    docs = [load_manifest(p) for p in paths]
    rows = report_rows(docs)
    lines = ["criterion,status,measured,expected"]
    for r in rows:
        lines.append(",".join(str(c) for c in r))
    text = "\n".join(lines) + "\n"
    path = os.path.join(out, "acceptance_report.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0 if all(r[1] != "FAIL" for r in rows) else 3


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #

def build_parser():
    ap = argparse.ArgumentParser(
        prog="mvpb", description="kinetic/fluid study orchestrator")
    sub = ap.add_subparsers(dest="study", required=True)
    for name in STUDY_FUNCS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    rp = sub.add_parser("report")
    rp.add_argument("manifests", nargs="+")
    rp.add_argument("--out", default=".")
    sp = sub.add_parser("schema")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.study == "schema":
        sys.stdout.write(cfgmod.schema_text())
        return 0
    if args.study == "report":
        try:
            return run_report(args.manifests, args.out)
        except (OSError, ValueError, KeyError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2

    try:
        cfg = parse_config(args.config) if args.config else default_config()
        overrides = {"study": args.study}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, raw = item.partition("=")
            key = key.strip()
            if key == "study":
                raise ConfigError("study is set by the subcommand, not by "
                                  f"--set (got {item!r})")
            overrides[key] = raw.strip()
        if args.out is not None:
            overrides["out"] = args.out
        cfgmod.apply_overrides(cfg, overrides)
        if (cfg.study in POSITIVE_TIME_STUDIES
                and not any(t > 0 for t in cfg.sample_times())):
            raise ConfigError(
                f"{cfg.study} needs at least one positive time "
                f"(times = {cfg.times})")
        if cfg.study == "nsp-compare" and any(
                abs(t - round(t / cfg.dt) * cfg.dt) > 1e-9 * t
                for t in cfg.sample_times()):
            raise ConfigError(
                f"nsp-compare samples at whole steps: every time must be a "
                f"multiple of dt = {cfg.dt} (times = {cfg.times})")
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    os.makedirs(cfg.out, exist_ok=True)
    man = RunManifest(cfg, cfg.out)
    caught = []
    try:
        # the warnings the caller's filters let through are recorded, then
        # re-emitted after the study, so the caller still sees each once
        with warnings.catch_warnings(record=True) as caught:
            STUDY_FUNCS[cfg.study](cfg, man)
        status = 0
    except NUMERICAL_ERRORS as exc:
        man.partial = True
        man.error = f"{type(exc).__name__}: {exc}"
        sys.stderr.write(f"numerical failure: {man.error}\n")
        status = 3
    finally:
        for w in caught:
            man.warnings.append({"category": w.category.__name__,
                                 "message": str(w.message)})
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno, source=w.source)
    # ru_maxrss is in KiB on Linux
    man.timings["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    man.write()
    return status


if __name__ == "__main__":
    sys.exit(main())
