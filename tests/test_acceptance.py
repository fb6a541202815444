"""End-to-end acceptance suite: one test per headline numerical claim.

Each test prints a single PASS/FAIL line (visible via -v or on failure)
with the measured values next to the stated tolerance.  Criterion 6's
acoustic-hump center sub-check fails by design of the measurement: the
field coupling makes the sound dispersive (cubic phase), so the peak is
skewed and sits inward by an offset that tends to 3 c3 / (2 a) ~ 2.33,
beyond the 2-cell tolerance at every usable frequency cutoff; see the
test body.
"""

import numpy as np
import pytest

from mvpb.collision import quadratic_form, transport_coefficients
from mvpb.green import (FluidPart, KineticWaves, SpaceGrid, hump_centers,
                        linear_log_fit, synthesize_green)
from mvpb.moments import (NSPEvolver, kinetic_moment_trajectory,
                          nsp_acoustic_speeds, nsp_damping_coefficients)
from mvpb.nonlinear import (NonlinearStepper, apply_gamma, decay_study,
                            gamma_direct, initial_state)
from mvpb.spectral import (_from_pairs, _to_pairs, dispersion_roots,
                           eigen_branches, macro_flux_matrix, mode_matrix,
                           semigroup_split, spectral_gap_scan,
                           zero_mode_count)

SOUND = np.sqrt(8.0 / 3.0)


def _line(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------- #
# shared expensive artifacts
# ---------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def branches(ops24):
    op0, op1 = ops24
    bs0 = eigen_branches(op0, eta_max=1.0, steps=41)
    bs1 = eigen_branches(op1, eta_max=1.0, steps=41)
    return bs0, bs1


@pytest.fixture(scope="module")
def tc24(ops24):
    return transport_coefficients(*ops24)


# ---------------------------------------------------------------------- #

def test_criterion_01_sound_speed(branches):
    bs0, _ = branches
    errs = {}
    for lab in (-1, 1):
        j = int(np.where(bs0.labels == lab)[0][0])
        errs[lab] = abs(abs(bs0.beta[j]) - SOUND)
    ok = all(e <= 2e-3 for e in errs.values())
    assert _line(1, ok, f"| |beta_+-1| - sqrt(8/3) | = "
                 f"{errs[-1]:.2e}, {errs[1]:.2e} (tol 2e-3)")


def test_criterion_02_transport_cross_validation(branches, tc24):
    bs0, bs1 = branches
    direct = {-1: tc24["a_minus"], 0: tc24["a_zero"], 1: tc24["a_plus"]}
    rel = {}
    for lab, val in direct.items():
        j = int(np.where(bs0.labels == lab)[0][0])
        rel[lab] = abs(bs0.damping[j] - val) / val
    rel[2] = abs(bs1.damping[0] - tc24["kappa1"]) / tc24["kappa1"]
    positive = all(v > 0 for v in list(direct.values())
                   + [tc24["kappa1"], tc24["kappa2"]])
    ok = max(rel.values()) <= 0.01 and positive
    assert _line(2, ok, "branch-vs-quadratic-form rel err max "
                 f"{max(rel.values()):.2e} (tol 1e-2), "
                 f"all positive = {positive}")


def test_criterion_03_spectral_structure(ops24):
    nzero = zero_mode_count(ops24, tol=1e-6)
    etas, gap = spectral_gap_scan(ops24, np.linspace(0.0, 10.0, 41))
    stable = float(gap.max()) <= 1e-10
    r0 = 2.625
    alpha_hat = -float(gap[etas >= r0].max())
    # the degenerate transverse pair is represented by the single stored
    # radial profile, so its eigenvalues coincide identically
    degenerate = zero_mode_count([ops24[1]], tol=1e-6) == 2
    ok = nzero == 5 and stable and alpha_hat > 0 and degenerate
    assert _line(3, ok, f"zero modes {nzero} (want 5), max Re sigma = "
                 f"{gap.max():.2e} <= 0, alpha_hat = {alpha_hat:.4f} > 0 for "
                 f"eta >= {r0}, exact pair degeneracy = {degenerate}")


def test_criterion_04_dispersion_determinant(ops24, branches):
    op0, op1 = ops24
    bs0, bs1 = branches
    _, lam_roots = dispersion_roots(op0, op1, bs0.etas)
    worst = 0.0
    for lab in (-1, 0, 1):
        j = int(np.where(bs0.labels == lab)[0][0])
        worst = max(worst, float(np.abs(lam_roots[lab] - bs0.lam[j]).max()))
    worst = max(worst, float(np.abs(lam_roots[2] - bs1.lam[0]).max()))
    etas = np.linspace(0.0, 1.0, 21)
    closed = 0.0
    for eta in etas:
        u = np.sort(np.linalg.eigvals(macro_flux_matrix(eta)).real)
        c = np.sqrt(5.0 / 3.0 + 1.0 / (1.0 + eta ** 2))
        want = np.concatenate([[-c], np.zeros(len(u) - 2), [c]])
        closed = max(closed, float(np.abs(u - want).max()))
    ok = worst <= 1e-6 and closed <= 1e-12
    assert _line(4, ok, f"max |lambda_root - lambda_branch| = {worst:.2e} "
                 f"(tol 1e-6), closed-form speeds err {closed:.2e} "
                 "(tol 1e-12)")


def test_criterion_05_semigroup_split(ops24):
    op0, _ = ops24
    ts = np.linspace(1.0, 20.0, 20)
    worst_r2, min_alpha = 1.0, np.inf
    for eta in np.linspace(0.1, 0.8, 8):
        sp = semigroup_split(op0, eta, ts, r0_hat=1.0)
        slope, _, r2 = linear_log_fit(ts, sp["norm_S2"])
        alpha = -slope
        worst_r2 = min(worst_r2, r2)
        min_alpha = min(min_alpha, alpha)
    ok = min_alpha > 0 and worst_r2 >= 0.97
    assert _line(5, ok, f"min alpha0 = {min_alpha:.4f} > 0, min R^2 = "
                 f"{worst_r2:.4f} >= 0.97 over 8 sampled frequencies")


@pytest.fixture(scope="module")
def fluid24(ops24):
    op0, _ = ops24
    grid = SpaceGrid(box_half_length=200.0, nx=4096)
    return grid, FluidPart(op0, grid, r0_hat=2.56)


def test_criterion_06_fluid_wave_structure(ops24, fluid24):
    op0, _ = ops24
    b = op0.basis
    grid, fp = fluid24
    chi0 = b.invariants[0]
    g_micro = b.project(b.v1 * b.v1 * chi0, "micro")
    g_micro /= b.norm(g_micro)
    dx = grid.x[1] - grid.x[0]

    # hump centers of the macro density at t = 40, 80
    worst_cells = 0.0
    for t in (40.0, 80.0):
        n_x = np.real(fp.action(t, chi0) @ (chi0 * b.w))
        expected = np.array([-SOUND * t, 0.0, SOUND * t])
        found = hump_centers(grid.x, np.abs(n_x), expected, window=8.0)
        worst_cells = max(worst_cells,
                          float(np.abs(found - expected).max() / dx))
    centers_ok = worst_cells <= 2.0

    # peak-decay exponents of the four projection blocks
    ts = np.linspace(10.0, 80.0, 15)
    cases = {
        "P0.P0": (chi0, "hydro", -0.5, 0.05),
        "P1.G": (chi0, "micro", -1.0, 0.10),
        "G.P1": (g_micro, "hydro", -1.0, 0.10),
        "P1.G.P1": (g_micro, "micro", -1.5, 0.10),
    }
    fitted = {}
    exps_ok = True
    for name, (seed, left, target, tol) in cases.items():
        right = "micro" if seed is g_micro else None
        sups = []
        for t in ts:
            f = fp.action(t, seed, left=left, right=right)
            sups.append(float(b.norm(f).max()))
        p, _, _ = linear_log_fit(np.log1p(ts), sups)
        fitted[name] = p
        exps_ok = exps_ok and abs(p - target) <= tol
    ok = centers_ok and exps_ok
    detail = (f"exponents {({k: round(v, 3) for k, v in fitted.items()})} "
              f"(targets -0.5/-1/-1/-1.5), hump-center error "
              f"{worst_cells:.1f} cells (tol 2)")
    # the exponent block passes; the center block fails because the sound
    # is dispersive (Im lambda has a cubic term), making the acoustic peak
    # an inward-drifting caustic -- asserted faithfully, not worked around
    assert _line(6, ok, detail)


@pytest.fixture(scope="module")
def wave_grid():
    return SpaceGrid(box_half_length=50.0, nx=512)


@pytest.fixture(scope="module")
def waves16(ops16, wave_grid):
    op0, _ = ops16
    b = op0.basis
    ts = np.linspace(1.0, 12.0, 12)
    kw = KineticWaves(op0, wave_grid, [b.invariants[0]], ts, levels=7)
    return ts, kw


def test_criterion_07_kinetic_waves(ops16, wave_grid, waves16):
    op0, _ = ops16
    b = op0.basis
    grid = wave_grid
    ts, kw7 = waves16
    nu0 = float(op0.nu.min())

    # level-0 front against its closed form
    kw0 = KineticWaves(op0, grid, [b.invariants[0]], [1.0, 2.0], levels=1)
    err0 = max(float(np.abs(kw0.top[0, i] -
                            kw0.free_flow_coefficients(t)[0]).max())
               for i, t in enumerate([1.0, 2.0]))

    # time-quadrature resolvability: the source oscillates like
    # exp(-i v1 eta s), so only eta below nodes*pi/(vmax*interval) is
    # trustworthy at the default collocation density
    eta_res = 4.0 * np.pi / (np.abs(b.v1).max() * 0.5)
    sel = grid.eta <= eta_res

    # top front: nu0/2-exponential and (1+eta)^-2 frequency weights stay
    # bounded, and decay has set in by the end of the window
    qt = []
    for i, t in enumerate(ts):
        nrm = b.norm(kw7.top[0, i])
        qt.append(float((nrm[sel] * np.exp(nu0 * t / 2.0)
                         * (1.0 + grid.eta[sel]) ** 2).max()))
    qt = np.array(qt)
    top_ok = np.all(np.isfinite(qt)) and qt[-1] < qt.max() and qt[-1] < qt[0]

    # remainder R2 = G - W2 keeps the (1+eta)^-2 frequency decay in time
    kw3 = KineticWaves(op0, grid, [b.invariants[0]], ts, levels=3)
    syn = synthesize_green(op0, grid, [b.invariants[0]], ts, r0_hat=1.0)
    r2 = syn["coef"][0] - kw3.wave_sum[0]
    qr = []
    for i in range(len(ts)):
        nrm = b.norm(r2[i])
        qr.append(float((nrm[sel] * (1.0 + grid.eta[sel]) ** 2).max()))
    qr = np.array(qr)
    rem_ok = np.all(np.isfinite(qr)) and qr.max() <= 3.0 * qr[0]

    ok = err0 <= 1e-12 and top_ok and rem_ok
    assert _line(7, ok, f"free-flow closed form err {err0:.1e} (tol 1e-12), "
                 f"weighted top front range [{qt.min():.3g}, {qt.max():.3g}] "
                 f"bounded+decaying = {top_ok}, weighted remainder range "
                 f"[{qr.min():.3g}, {qr.max():.3g}] uniform = {rem_ok}")


def test_criterion_08_exponential_remainder(ops16, wave_grid, waves16):
    op0, _ = ops16
    b = op0.basis
    grid = wave_grid
    ts = [1.0, 2.0, 3.0, 4.0]
    kw = KineticWaves(op0, grid, [b.invariants[0]], ts, levels=3)
    syn = synthesize_green(op0, grid, [b.invariants[0]], ts, r0_hat=1.0)
    wave_x = grid.to_physical(kw.wave_sum[0], axis=1)
    full_x = grid.to_physical(syn["coef"][0], axis=1)
    high_x = grid.to_physical(syn["high"][0], axis=1)
    r2_x = full_x - wave_x

    # outside the Mach cone: exponential decay in |x| + t; sample between
    # 6t and the fastest transport front (vmax t), above the ringing floor
    pts_u, pts_v = [], []
    for i, t in enumerate(ts):
        nrm = b.norm(r2_x[i])
        sel = (np.abs(grid.x) > 6.0 * t) & (np.abs(grid.x) <= 8.0 * t)
        pts_u.extend(np.abs(grid.x[sel]) + t)
        pts_v.extend(nrm[sel])
    slope_out, _, r2_out = linear_log_fit(pts_u, pts_v)

    # inside the cone: the non-fluid part minus the wave sum decays in t
    sups = []
    for i, t in enumerate(ts):
        nrm = b.norm(high_x[i] - wave_x[i])
        sel = np.abs(grid.x) <= 6.0 * t
        sups.append(float(nrm[sel].max()))
    slope_in, _, _ = linear_log_fit(ts, sups)

    ok = slope_out < 0 and r2_out >= 0.9 and slope_in < 0
    assert _line(8, ok, f"outside-cone slope {slope_out:.3f} < 0 with R^2 "
                 f"{r2_out:.3f} >= 0.9, inside-cone slope {slope_in:.3f} < 0")


def test_criterion_09_nsp_closure(ops16, tc24):
    k1, k2 = tc24["kappa1"], tc24["kappa2"]
    sp_c = nsp_acoustic_speeds(k1, k2, coupled=True)
    sp_u = nsp_acoustic_speeds(k1, k2, coupled=False)
    speed_err = max(abs(max(sp_c) - SOUND),
                    abs(max(sp_u) - np.sqrt(5.0 / 3.0)))
    damp = nsp_damping_coefficients(k1, k2, coupled=True)
    kin = np.array([tc24["a_minus"], tc24["a_zero"], tc24["a_plus"]])
    damp_rel = float(np.abs((np.array(damp) - kin) / kin).max())

    op0, _ = ops16
    grid = SpaceGrid(box_half_length=200.0, nx=1024)
    profile = np.exp(-grid.x ** 2 / 200.0)
    out_ts = [20.0, 30.0]
    kin_states = kinetic_moment_trajectory(op0, grid, profile, [0.0] + out_ts)
    ev = NSPEvolver(grid, k1, k2)
    fluid = ev.evolve(kin_states[0], max(out_ts), 0.05, out_ts=out_ts)
    rel = 0.0
    for k, f in zip(kin_states[1:], fluid):
        err = np.sqrt(np.mean((k.n - f.n) ** 2) + np.mean((k.m1 - f.m1) ** 2)
                      + np.mean((k.q - f.q) ** 2))
        ref = np.sqrt(np.mean(k.n ** 2) + np.mean(k.m1 ** 2)
                      + np.mean(k.q ** 2))
        rel = max(rel, err / ref)
    ok = speed_err <= 1e-6 and damp_rel <= 0.05 and rel <= 0.10
    assert _line(9, ok, f"closed-form speed err {speed_err:.1e} (tol 1e-6), "
                 f"damping vs kinetic rel err {damp_rel:.4f} (tol 0.05), "
                 f"moment-trajectory rel L2 err {rel:.4f} (tol 0.10)")


def test_criterion_10_nonlinear_decay(ops16, gamma16):
    op0, _ = ops16
    grid = SpaceGrid(box_half_length=200.0, nx=1024)
    rep = decay_study(op0, grid, gamma16, t_end=60.0, dt=0.1,
                      delta0=1e-3, gamma0=1.0)
    e_f = rep["exponent_f"]
    e_field = rep["exponent_field"]
    q_slope = rep["q_log_slope"]
    ok = (abs(e_f + 0.5) <= 0.1 and abs(e_field + 1.0) <= 0.15
          and abs(q_slope) <= 0.05)
    # this fails by design of the measurement: the (1+x^2)^{-1} datum has
    # a kinked spectrum ~e^{-|eta|}, so self-similarity carries an
    # O((a0 t)^{-1/2}) correction (~20% at t = 60) and the [10, 60] window
    # fit undershoots the asymptotic -1/2 and -1 rates; a t = 200 run
    # shows the local slopes climbing monotonically to -0.444 and -0.919
    # with the deficit halving per 4x in t -- asserted faithfully
    assert _line(10, ok, f"sup-norm exponent {e_f:.3f} (-0.5 +- 0.1), field "
                 f"exponent {e_field:.3f} (-1 +- 0.15), profile-ratio log "
                 f"slope {q_slope:.3f} (|.| <= 0.05)")


def test_criterion_11_oracle_equivalences(ops16, gamma16, rng):
    import scipy.linalg
    op0, _ = ops16
    b = op0.basis

    # linear-mode stepper against the per-mode matrix exponential
    grid = SpaceGrid(box_half_length=100.0, nx=256)
    stepper = NonlinearStepper(op0, grid, 0.1, gamma=None, field_terms=False)
    state = initial_state(op0, grid)
    out = stepper.step(state)
    step_err = 0.0
    for k in (0, 7, 63, grid.nh - 1):
        P = scipy.linalg.expm(mode_matrix(op0, grid.eta[k]) * 0.1)
        step_err = max(step_err,
                       float(np.abs(out.coef[k] - P @ state.coef[k]).max()))

    # bilinear tensor against direct quadrature on 5 random pairs, and on
    # two of them with g = f: apply_gamma(f, f) is the stepper's call, and
    # it takes its own path when f is g
    fs = rng.standard_normal((5, b.n))
    gs = rng.standard_normal((5, b.n))
    ff = fs[:2]
    F, G = np.vstack([fs, ff]), np.vstack([gs, ff])
    direct = gamma_direct(b, F, G)
    # apply_gamma acts on pair coordinates: map the node fields in and out
    perm = b.reflection
    pf, pg, pff = (_to_pairs(x, perm) for x in (fs, gs, ff))
    tens = _from_pairs(np.vstack([apply_gamma(gamma16, pf, pg),
                                  apply_gamma(gamma16, pff, pff)]), perm)
    scale = np.linalg.norm(F, axis=1) * np.linalg.norm(G, axis=1)
    gam_err = float((np.abs(tens - direct).max(axis=1) / scale).max())

    # field inverse against the exponential kernel (fine grid: the kernel
    # has a cusp at the origin, so the error is resolution-limited there)
    kgrid = SpaceGrid(box_half_length=50.0, nx=2048)
    kernel = kgrid.poisson_kernel()
    exact = 0.5 * np.exp(-np.abs(kgrid.x))
    sel = np.abs(kgrid.x) <= 5.0
    ker_err = float(np.abs(kernel[sel] - exact[sel]).max() / exact[sel].max())

    # projection algebra and coercivity on 1000 random vectors
    mu = op0.micro_gap()
    proj_err, coercive = 0.0, True
    for _ in range(1000):
        f = rng.standard_normal(b.n)
        h, m = b.project(f, "hydro"), b.project(f, "micro")
        proj_err = max(proj_err, b.norm(h + m - f),
                       b.norm(b.project(h, "hydro") - h),
                       b.norm(b.project(m, "hydro")),
                       abs(b.inner(h, m)))
        diss = b.inner(op0.apply_L(f), f)
        coercive = coercive and diss <= -mu * b.norm(m) ** 2 + 1e-10
    ok = (step_err <= 1e-10 and gam_err <= 1e-6 and ker_err <= 0.02
          and proj_err <= 1e-10 and coercive)
    assert _line(11, ok, f"stepper-vs-exponential {step_err:.1e} (1e-10), "
                 f"tensor-vs-direct {gam_err:.1e} (1e-6), field kernel "
                 f"{ker_err:.1e} (2e-2), projection algebra {proj_err:.1e}, "
                 f"coercive on 1000 vectors = {coercive}")
