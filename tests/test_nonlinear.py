"""Bilinear collision tensor, nonlinear field solve, and the split-step
integrator for the perturbation system."""

import os

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.legendre import leggauss

from mvpb import collision, nonlinear, spectral
from mvpb.errors import NoConvergence
from mvpb.green import SpaceGrid
from mvpb.nonlinear import (GammaTensor, KineticState, NonlinearStepper,
                            apply_gamma, build_gamma, diffusive_profile,
                            field_time_derivative, gamma_direct,
                            initial_state, poisson_newton,
                            state_diagnostics)
from mvpb.velocity import VelocityBasis, maxwellian


@pytest.fixture(scope="module")
def grid():
    return SpaceGrid(box_half_length=100.0, nx=256)


# --------------------------------------------------------------------- #
# gamma tensor
# --------------------------------------------------------------------- #

def test_gamma_symmetry(gamma16):
    T = gamma16.tensor
    err = np.abs(T - T.transpose(0, 2, 1)).max()
    assert err <= 1e-12 * np.abs(T).max()


def test_gamma_equilibrium(bases16, gamma16):
    b0, _ = bases16
    chi0 = b0.invariants[0]
    out = apply_gamma(gamma16, chi0, chi0)
    assert b0.norm(out) <= 1e-6


def test_gamma_collision_invariance(bases16, gamma16, rng):
    b0, _ = bases16
    for _ in range(10):
        f = rng.standard_normal(b0.n)
        g = rng.standard_normal(b0.n)
        out = apply_gamma(gamma16, f, g)
        p0 = out @ b0.P0.T
        assert b0.norm(p0) <= 1e-6 * b0.norm(f) * b0.norm(g)


def test_gamma_bilinear_symmetry_exact(bases16, gamma16, rng):
    b0, _ = bases16
    f = rng.standard_normal((7, b0.n))
    g = rng.standard_normal((7, b0.n))
    assert np.array_equal(apply_gamma(gamma16, f, g),
                          apply_gamma(gamma16, g, f))


def test_gamma_cache_roundtrip(bases16, gamma16, cache_dir):
    b0, _ = bases16
    again = build_gamma(b0, cache_dir=cache_dir)
    assert np.array_equal(again.tensor, gamma16.tensor)
    assert again.tag == gamma16.tag


# --------------------------------------------------------------------- #
# nonlinear field solve
# --------------------------------------------------------------------- #

def test_poisson_newton_zero(grid):
    phi = poisson_newton(grid, np.zeros(grid.nx))
    assert np.max(np.abs(phi)) == 0.0


def test_poisson_newton_linearization(grid):
    n = 1e-6 * np.exp(-grid.x ** 2 / 20.0)
    phi = poisson_newton(grid, n)
    lin = grid.to_physical(grid.to_coefficients(-n) / (1.0 + grid.eta ** 2))
    assert np.max(np.abs(phi - lin)) <= 1e-9


def test_poisson_newton_residual(grid):
    n = 0.2 * np.exp(-grid.x ** 2 / 20.0)
    phi = poisson_newton(grid, n)
    lap = grid.to_physical(grid.to_coefficients(phi) * (1.0 + grid.eta ** 2))
    res = lap - (np.exp(-phi) + phi - 1.0) + n
    assert np.max(np.abs(res)) <= 1e-12


@pytest.mark.parametrize("profile, box", [
    pytest.param("flat", (100.0, 256), id="flat"),
    pytest.param("wide_gaussian", (100.0, 256), id="wide_gaussian"),
    pytest.param("flat", (400.0, 8192), id="flat-L400-nx8192"),
])
def test_poisson_newton_guard_edge_inexact_steps(profile, box):
    # at the 0.5 amplitude guard the field sweep contracts by 1/2 per
    # sweep, its slowest rate: about 40 of its FIELD_MAXIT sweeps
    grid = SpaceGrid(*box)
    n = np.full(grid.nx, 0.5) if profile == "flat" \
        else 0.5 * np.exp(-grid.x ** 2 / 2000.0)
    phi = poisson_newton(grid, n)
    lap = grid.to_physical(grid.to_coefficients(phi) * (1.0 + grid.eta ** 2))
    res = lap - (np.exp(-phi) + phi - 1.0) + n
    assert np.max(np.abs(res)) <= 1e-12


def test_poisson_newton_large_data_rejected(grid):
    with pytest.raises(NoConvergence):
        poisson_newton(grid, 0.8 * np.exp(-grid.x ** 2 / 20.0))


def test_field_time_derivative_linear_limit(grid):
    dn_dt = np.exp(-grid.x ** 2 / 30.0) * np.sin(grid.x / 5.0)
    out = field_time_derivative(grid, np.zeros(grid.nx), dn_dt)
    lin = grid.to_physical(grid.to_coefficients(-dn_dt) / (1.0 + grid.eta ** 2))
    assert np.max(np.abs(out - lin)) <= 1e-12


def test_field_time_derivative_divergent_sweep_raises(grid):
    # |exp(-phi) - 1| = e - 1 > 1: the fixed-point sweep diverges
    with pytest.raises(NoConvergence):
        field_time_derivative(grid, np.full(grid.nx, -1.0),
                              np.exp(-grid.x ** 2 / 30.0))


# --------------------------------------------------------------------- #
# split-step integrator
# --------------------------------------------------------------------- #

def test_step_linear_mode_exact(ops16, grid):
    op0, _ = ops16
    b = op0.basis
    dt = 0.1
    stepper = NonlinearStepper(op0, grid, dt, gamma=None, field_terms=False)
    state = initial_state(op0, grid)
    out = stepper.step(state)
    for k in (0, 5, 50, grid.nh - 1):
        P = scipy.linalg.expm(spectral.mode_matrix(op0, grid.eta[k]) * dt)
        exact = P @ state.coef[k]
        assert np.max(np.abs(out.coef[k] - exact)) <= 1e-10


def test_half_step_real_form_matches_expm(ops16, grid):
    op0, _ = ops16
    rng = np.random.default_rng(7)
    b = op0.basis
    dt = 0.1
    stepper = NonlinearStepper(op0, grid, dt, gamma=None, field_terms=False)
    assert stepper.props.dtype == np.float64
    assert stepper.props.shape == (grid.nh, b.n, b.n)
    coef = rng.standard_normal((grid.nh, b.n)) \
        + 1j * rng.standard_normal((grid.nh, b.n))
    out = stepper._half_linear(coef)
    for k in (0, 5, 50, grid.nh - 1):
        P = scipy.linalg.expm(spectral.mode_matrix(op0, grid.eta[k]) * dt / 2)
        exact = P @ coef[k]
        assert np.max(np.abs(out[k] - exact)) <= 1e-12 * np.abs(exact).max()


def test_step_mass_conservation(ops16, grid, gamma16):
    op0, _ = ops16
    b = op0.basis
    dt = 0.1
    stepper = NonlinearStepper(op0, grid, dt, gamma=gamma16)
    state = initial_state(op0, grid, delta0=1e-3)
    mass = lambda st: float(np.real(st.coef[0] @ stepper.mass_w) * 2 * grid.L)
    m0 = mass(state)
    for _ in range(10):
        state = stepper.step(state)
    assert abs(mass(state) - m0) <= 1e-8 * (state.t + 1.0)


def test_step_state_consistency(ops16, grid, gamma16):
    # after full nonlinear steps the zero/Nyquist modes remain real
    op0, _ = ops16
    stepper = NonlinearStepper(op0, grid, 0.1, gamma=gamma16)
    state = initial_state(op0, grid, delta0=1e-3)
    for _ in range(5):
        state = stepper.step(state)
    # the zero mode evolves under a real operator and stays real (the
    # Nyquist bin is allowed a complex phase; only its real part matters)
    scale = np.abs(state.coef).max()
    assert np.abs(state.coef[0].imag).max() <= 1e-10 * scale


@pytest.mark.parametrize("with_gamma, field_terms, solves", [
    (True, True, 2), (True, False, 0), (False, False, 0)])
def test_step_solves_field_only_where_read(ops16, grid, gamma16, monkeypatch,
                                           with_gamma, field_terms, solves):
    # one field solve per quadratic stage with field terms on, none after
    # the step: state_diagnostics solves the field it reads
    op0, _ = ops16
    calls = []
    solve = nonlinear.poisson_newton

    def counted(g, n):
        calls.append(1)
        return solve(g, n)

    monkeypatch.setattr(nonlinear, "poisson_newton", counted)
    stepper = NonlinearStepper(op0, grid, 0.1, field_terms=field_terms,
                               gamma=gamma16 if with_gamma else None)
    stepper.step(initial_state(op0, grid))
    assert len(calls) == solves


def test_step_second_order(ops16, grid, gamma16):
    # Richardson self-convergence: successive halvings shrink the
    # difference by ~4 for a second-order split (asymptotic below dt=0.1)
    op0, _ = ops16
    t_end = 0.8
    finals = []
    for dt in (0.1, 0.05, 0.025):
        stepper = NonlinearStepper(op0, grid, dt, gamma=gamma16)
        state = initial_state(op0, grid, delta0=1e-3)
        for _ in range(int(round(t_end / dt))):
            state = stepper.step(state)
        finals.append(state.coef.copy())
    e1 = np.abs(finals[0] - finals[1]).max()
    e2 = np.abs(finals[1] - finals[2]).max()
    assert 3.4 <= e1 / e2 <= 4.6


def test_diffusive_profile_shape():
    x = np.linspace(-200, 200, 2001)
    t = 30.0
    prof = diffusive_profile(t, x)
    c = np.sqrt(8.0 / 3.0)
    for center in (-c * t, 0.0, c * t):
        i = int(np.argmin(np.abs(x - center)))
        assert prof[i] >= 0.9 * prof.max()
    # far field decays like the algebraic envelope
    assert prof[0] <= 0.2 * prof.max()


def test_state_diagnostics_finite(ops16, grid, gamma16):
    op0, _ = ops16
    stepper = NonlinearStepper(op0, grid, 0.1, gamma=gamma16)
    state = initial_state(op0, grid, delta0=1e-3)
    for _ in range(3):
        state = stepper.step(state)
    diag = state_diagnostics(stepper, state)
    for key, val in diag.items():
        assert np.isfinite(val), key
    assert diag["t"] == pytest.approx(0.3)
    assert diag["sup_f"] > 0


# --------------------------------------------------------------------- #
# gamma cache files
# --------------------------------------------------------------------- #

def _tiny_gamma(cache_dir):
    return build_gamma(VelocityBasis(4, 2, 8.0, 0), cache_dir=str(cache_dir))


def test_gamma_cache_write_failure_leaves_no_file(tmp_path, monkeypatch):
    write_atomic = collision.write_atomic

    def disk_full_before_rename(path, write):
        def half_written(fh):
            write(fh)
            raise OSError("disk full")
        write_atomic(path, half_written)

    monkeypatch.setattr(collision, "write_atomic", disk_full_before_rename)
    with pytest.raises(OSError):
        _tiny_gamma(tmp_path)
    assert os.listdir(tmp_path) == []


def test_gamma_cache_file_named_by_grid(tmp_path, monkeypatch):
    # another quadrature on the same grid overwrites the grid's one file
    # instead of leaving a file that no build reads again
    first = _tiny_gamma(tmp_path)
    monkeypatch.setattr(nonlinear, "OMEGA_PHI_NODES", 16)
    again = _tiny_gamma(tmp_path)
    assert again.tag != first.tag and again.build_seconds > 0
    assert len(os.listdir(tmp_path)) == 1
    loaded = _tiny_gamma(tmp_path)
    assert loaded.build_seconds == 0.0
    assert np.array_equal(loaded.tensor, again.tensor)


@pytest.mark.parametrize("damage", ["wrong_shape", "truncated", "wrong_dtype"])
def test_gamma_cache_damaged_file_rebuilt(tmp_path, damage):
    first = _tiny_gamma(tmp_path)
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    if damage == "wrong_shape":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros((2, 2)))
    elif damage == "wrong_dtype":
        with open(path, "wb") as fh:
            np.save(fh, first.tensor.astype(np.float32))
    else:
        with open(path, "rb") as fh:
            head = fh.read(200)
        with open(path, "wb") as fh:
            fh.write(head)
    again = _tiny_gamma(tmp_path)
    assert again.build_seconds > 0
    assert np.array_equal(again.tensor, first.tensor)
    # the rebuild replaced the damaged file with a loadable one
    assert np.array_equal(_tiny_gamma(tmp_path).tensor, first.tensor)


def test_gamma_cache_other_tag_rebuilt(tmp_path):
    # a well-formed file at the cache path whose header names another
    # quadrature is not this tensor
    first = _tiny_gamma(tmp_path)
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    other = list(first.tag)
    other[-1] += 1
    collision.store_array(path, other, np.ones_like(first.tensor))
    again = _tiny_gamma(tmp_path)
    assert again.build_seconds > 0
    assert np.array_equal(again.tensor, first.tensor)
    assert np.array_equal(_tiny_gamma(tmp_path).tensor, first.tensor)


def test_gamma_cache_payload_is_three_blocks(tmp_path):
    # n1 even: EEE, EOO and OEO hold 3 (n/2)^3 entries, 3/8 of n^3
    gamma = _tiny_gamma(tmp_path)
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    payload = os.path.getsize(path) - len(collision._cache_prefix(gamma.tag))
    n = len(gamma.perm)
    assert payload == 8 * (3 * n ** 3 // 8)


def test_gamma_cache_dense_rule3_file_rebuilt(tmp_path):
    # a dense tensor of the previous storage at the grid's path is not
    # read as blocks
    first = _tiny_gamma(tmp_path)
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    collision.store_array(path, first.tag[:-1] + (3,), first.tensor)
    again = _tiny_gamma(tmp_path)
    assert again.build_seconds > 0
    assert np.array_equal(again.tensor, first.tensor)
    assert _tiny_gamma(tmp_path).build_seconds == 0.0


@pytest.fixture(scope="module")
def gamma32(cache_dir):
    b = VelocityBasis(8, 4, 8.0, 0)
    return b, build_gamma(b, cache_dir=cache_dir)


def test_gamma_reflection_equivariant(gamma32):
    b, gamma = gamma32
    P = b.reflection
    rng = np.random.default_rng(3)
    f = rng.standard_normal((6, b.n))
    g = rng.standard_normal((6, b.n))
    fP, gP = f[..., P], g[..., P]
    # both the f != g path and the f is g path
    for (x, y), (xP, yP) in (((f, g), (fP, gP)), ((f, f), (fP, fP))):
        want = apply_gamma(gamma, x, y)[..., P]
        got = apply_gamma(gamma, xP, yP)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    T = gamma.tensor
    assert np.array_equal(T[P][:, P][:, :, P], T)


def test_gamma_rule_mirror_exact_at_corner(bases16):
    # the corner rows, where |T| is largest, amplify any mirror asymmetry
    # of the rule about 1e5-fold (1.2e-10 of max |T| with v1 nodes mirrored
    # only to round-off); the reflected half sweep relies on the rule being
    # exact
    b = bases16[0]
    P = b.reflection
    quad = nonlinear._gamma_quadrature(b)
    rows = {0: 0.0, P[0]: 0.0}
    for i, star, cw, Ap, As in nonlinear._gamma_sweep(b, quad, list(rows)):
        rows[i] = rows[i] + (As * cw[:, None]).T @ Ap
    mirrored = rows[0][P][:, P]
    assert np.abs(rows[P[0]] - mirrored).max() <= 1e-13 * np.abs(mirrored).max()


def test_gamma_odd_n1_half_sweep_matches_full_sweep(monkeypatch):
    # n1 = 5 puts nodes on v1 = 0, which P fixes: they are even-only
    b = VelocityBasis(5, 2, 8.0, 0)
    assert np.any(b.reflection == np.arange(b.n))
    gamma = build_gamma(b)
    T = gamma.tensor
    P = b.reflection
    assert np.array_equal(T[P][:, P][:, :, P], T)
    monkeypatch.setattr(nonlinear, "_mirror_half",
                        lambda basis: np.arange(basis.n))
    full = nonlinear._gamma_node_tensor(b)
    assert np.abs(T - full).max() <= 1e-13 * np.abs(full).max()
    rng = np.random.default_rng(5)
    fs = rng.standard_normal((5, b.n))
    gs = rng.standard_normal((5, b.n))
    direct = gamma_direct(b, fs, gs)
    scale = np.linalg.norm(fs, axis=1) * np.linalg.norm(gs, axis=1)
    err = np.abs(apply_gamma(gamma, fs, gs) - direct).max(axis=1) / scale
    assert err.max() <= 1e-6


def test_gamma_tensor_matches_direct_quadrature(tmp_path):
    # the tensor assembly against the direct sum over the same sweep
    b = VelocityBasis(4, 2, 8.0, 0)
    gamma = _tiny_gamma(tmp_path)
    rng = np.random.default_rng(6)
    fs = rng.standard_normal((3, b.n))
    gs = rng.standard_normal((3, b.n))
    direct = gamma_direct(b, fs, gs)
    tens = apply_gamma(gamma, fs, gs)
    assert np.abs(tens - direct).max() <= 1e-10 * np.abs(direct).max()


def _full_quadrature(basis):
    """The collision rule before its symmetry reduction: every phi* in
    (0, 2 pi) and every Gauss cos(theta) in (-1, 1), at their plain weights."""
    phis = (np.arange(nonlinear.PHI_STAR_NODES) + 0.5) * 2.0 * np.pi \
        / nonlinear.PHI_STAR_NODES
    ct, wt = leggauss(nonlinear.OMEGA_THETA_NODES)
    n_pho = nonlinear.OMEGA_PHI_NODES
    pho = (np.arange(n_pho) + 0.5) * 2.0 * np.pi / n_pho
    st = np.sqrt(1.0 - ct ** 2)
    omega = np.stack([np.repeat(ct, n_pho), np.outer(st, np.cos(pho)).ravel(),
                      np.outer(st, np.sin(pho)).ravel()], axis=1)
    w_omega = np.repeat(wt, n_pho) * (2.0 * np.pi / n_pho)
    vrs = np.repeat(basis.vr, len(phis))
    phs = np.tile(phis, basis.n)
    vstar = np.stack([np.repeat(basis.v1, len(phis)), vrs * np.cos(phs),
                      vrs * np.sin(phs)], axis=1)
    w_star = np.repeat(basis.w / (2.0 * np.pi), len(phis)) \
        * (2.0 * np.pi / len(phis))
    interp = nonlinear._TensorInterp(basis)
    return {"vstar": vstar, "w_star": w_star,
            "sqm_star": np.sqrt(maxwellian(vstar[:, 0], vrs)),
            "omega": omega, "w_omega": w_omega, "interp": interp,
            "ell_star": interp.matrix(vstar[:, 0], vrs,
                                      np.empty((len(vstar), basis.n)))}


def test_gamma_quarter_rule_matches_full_rule(monkeypatch):
    # the tensor-vs-direct checks share the rule, so only an independent
    # copy of the full rule can see a wrong reduction or weight
    b = VelocityBasis(4, 2, 8.0, 0)
    rng = np.random.default_rng(11)
    fs = rng.standard_normal((3, b.n))
    gs = rng.standard_normal((3, b.n))
    quarter = build_gamma(b).tensor
    quarter_direct = gamma_direct(b, fs, gs)
    monkeypatch.setattr(nonlinear, "_gamma_quadrature", _full_quadrature)
    full = build_gamma(b).tensor
    full_direct = gamma_direct(b, fs, gs)
    assert np.abs(quarter - full).max() <= 1e-13 * np.abs(full).max()
    assert np.abs(quarter_direct - full_direct).max() \
        <= 1e-13 * np.abs(full_direct).max()


def test_gamma_quadrature_keeps_one_quarter():
    # an odd Gauss count would put a node at cos(theta) = 0, and an odd
    # midpoint count one at phi* = pi, that the halving cannot split
    assert nonlinear.PHI_STAR_NODES % 2 == 0
    assert nonlinear.OMEGA_THETA_NODES % 2 == 0
    b = VelocityBasis(4, 2, 8.0, 0)
    quad = nonlinear._gamma_quadrature(b)
    assert abs(quad["w_omega"].sum() - 4.0 * np.pi) <= 1e-13
    assert abs(quad["w_star"].sum() - b.w.sum()) <= 1e-13
    vstar = quad["vstar"]
    phi_star = np.mod(np.arctan2(vstar[:, 2], vstar[:, 1]), 2.0 * np.pi)
    assert not np.any(phi_star >= np.pi)
    assert np.all(quad["omega"][:, 0] > 0)
    assert len(vstar) == b.n * nonlinear.PHI_STAR_NODES // 2
    assert len(quad["omega"]) == nonlinear.OMEGA_THETA_NODES \
        * nonlinear.OMEGA_PHI_NODES // 2
