"""Moment extraction, the Navier-Stokes-Poisson closure, and the v1
derivative."""

import numpy as np
import pytest

from mvpb import moments, spectral
from mvpb.collision import transport_coefficients
from mvpb.errors import CFLViolation, Instability
from mvpb.green import SpaceGrid
from mvpb.moments import (ROOT23, MomentState, NSPEvolver,
                          apply_v1_derivative, extract_moments,
                          kinetic_moment_trajectory, nsp_acoustic_speeds,
                          nsp_damping_coefficients, nsp_symbol, solve_field)


@pytest.fixture(scope="module")
def grid():
    return SpaceGrid(box_half_length=100.0, nx=512)


def bump(x):
    return np.exp(-x ** 2 / 50.0)


def test_extract_moments_pure_profiles(bases16, grid):
    b0, _ = bases16
    prof = bump(grid.x)
    for idx, names in ((0, "n"), (1, "m1"), (2, "q")):
        f = np.outer(prof, b0.invariants[idx])
        st = extract_moments(b0, f)
        for nm in ("n", "m1", "q"):
            val = getattr(st, nm)
            if nm == names:
                assert np.max(np.abs(val - prof)) <= 1e-12
            else:
                assert np.max(np.abs(val)) <= 1e-12


def test_continuity_residual(ops16, grid):
    # the evolved linear solution satisfies d_t n + d_x m1 = 0; checked
    # per mode through the generator, which avoids time-difference bias
    op0, _ = ops16
    b = op0.basis
    for eta in (0.1, 0.5, 2.0):
        B = spectral.mode_matrix(op0, eta)
        f = np.exp(-np.arange(b.n) / 30.0) + 0j
        dndt = (B @ f) @ (b.invariants[0] * b.w)
        flux = 1j * eta * (f @ (b.v1 * b.invariants[0] * b.w))
        assert abs(dndt + flux) <= 1e-10 * max(abs(flux), 1.0)


def test_continuity_in_time(ops16, grid):
    op0, _ = ops16
    ts = np.linspace(0.0, 5.0, 26)
    states = kinetic_moment_trajectory(op0, grid, bump(grid.x), ts)
    dt = ts[1] - ts[0]
    # second-order centered difference against the spectral flux divergence
    worst = 0.0
    for i in range(1, len(ts) - 1):
        dn = (states[i + 1].n - states[i - 1].n) / (2 * dt)
        dm = grid.derivative(states[i].m1)
        worst = max(worst, np.max(np.abs(dn + dm)))
    assert worst <= 1e-3   # limited by the O(dt^2) time difference
    # mass itself is conserved to much higher accuracy
    masses = [s.n.sum() * grid.dx for s in states]
    assert np.max(np.abs(np.diff(masses))) <= 1e-8


def test_nsp_speeds():
    speeds = nsp_acoustic_speeds(0.18, 0.45, coupled=True)
    c = np.sqrt(8.0 / 3.0)
    assert abs(speeds[0] + c) <= 1e-6
    assert abs(speeds[-1] - c) <= 1e-6
    assert abs(speeds[1]) <= 1e-6
    free = nsp_acoustic_speeds(0.18, 0.45, coupled=False)
    cf = np.sqrt(5.0 / 3.0)
    assert abs(free[0] + cf) <= 1e-6
    assert abs(free[-1] - cf) <= 1e-6


def test_nsp_symbol_stability():
    for eta in np.linspace(0.01, 10.0, 40):
        lam = np.linalg.eigvals(nsp_symbol(eta, 0.18, 0.45))
        assert np.max(lam.real) <= 1e-12


def test_nsp_damping_matches_kinetic(ops24):
    tc = transport_coefficients(*ops24)
    damp = nsp_damping_coefficients(tc["kappa1"], tc["kappa2"])
    # order: (-c, 0, +c)
    assert abs(damp[0] - tc["a_minus"]) <= 0.05 * tc["a_minus"]
    assert abs(damp[1] - tc["a_zero"]) <= 0.05 * tc["a_zero"]
    assert abs(damp[2] - tc["a_plus"]) <= 0.05 * tc["a_plus"]


def test_nsp_mass_conservation(grid):
    ev = NSPEvolver(grid, 0.18, 0.45)
    st = MomentState(bump(grid.x), 0 * grid.x, 0 * grid.x)
    mass0 = st.n.sum() * grid.dx
    snaps = ev.evolve(st, 10.0, 0.05, out_ts=[5.0, 10.0])
    for s in snaps:
        assert abs(s.n.sum() * grid.dx - mass0) <= 1e-10


def _physical_imex_step(grid, kappa1, kappa2, n, m1, q, dt):
    """Reference step in physical space: exact half-step diffusion of m1
    and q around an explicit midpoint step of transport and field coupling,
    every derivative and field solve an FFT round trip."""
    def rhs(n, m1, q):
        dphi = grid.derivative(solve_field(grid, n))
        dm1_x = grid.derivative(m1)
        return (-dm1_x,
                -grid.derivative(n) - ROOT23 * grid.derivative(q) + dphi,
                -ROOT23 * dm1_x)

    def diffuse(u, kap):
        return grid.to_physical(grid.to_coefficients(u)
                                * np.exp(-kap * grid.eta ** 2 * dt / 2.0))

    m1, q = diffuse(m1, 4.0 * kappa1 / 3.0), diffuse(q, kappa2)
    dn, dm1, dq = rhs(n, m1, q)
    dn, dm1, dq = rhs(n + dt / 2.0 * dn, m1 + dt / 2.0 * dm1,
                      q + dt / 2.0 * dq)
    n, m1, q = n + dt * dn, m1 + dt * dm1, q + dt * dq
    return n, diffuse(m1, 4.0 * kappa1 / 3.0), diffuse(q, kappa2)


def test_nsp_evolver_matches_physical_imex(grid):
    x = grid.x
    n, m1, q = bump(x), 0.5 * bump(x - 5.0), -0.2 * bump(x + 3.0)
    dt, steps = 0.05, (50, 200)
    ev = NSPEvolver(grid, 0.18, 0.45)
    snaps = ev.evolve(MomentState(n, m1, q), steps[-1] * dt, dt,
                      out_ts=[k * dt for k in steps])
    ref, refs = (n, m1, q), []
    for k in range(1, steps[-1] + 1):
        ref = _physical_imex_step(grid, 0.18, 0.45, *ref, dt)
        if k in steps:
            refs.append(ref)
    for s, r in zip(snaps, refs, strict=True):
        num = np.linalg.norm(np.concatenate(
            [s.n - r[0], s.m1 - r[1], s.q - r[2]]))
        assert num <= 1e-12 * np.linalg.norm(np.concatenate(r))


def test_nsp_evolve_solves_no_field(grid, monkeypatch):
    calls = []
    real = moments.solve_field
    monkeypatch.setattr(moments, "solve_field",
                        lambda *a: calls.append(1) or real(*a))
    ev = NSPEvolver(grid, 0.18, 0.45)
    ev.evolve(MomentState(bump(grid.x), 0 * grid.x, 0 * grid.x), 1.0, 0.05)
    assert calls == []


def test_nsp_cfl_violation(grid):
    ev = NSPEvolver(grid, 0.18, 0.45)
    st = MomentState(bump(grid.x), 0 * grid.x, 0 * grid.x)
    with pytest.raises(CFLViolation):
        ev.evolve(st, 1.0, 1.0)


def test_nsp_instability_detected(grid):
    # negative diffusion blows up and is caught
    ev = NSPEvolver(grid, -0.5, -0.5)
    st = MomentState(bump(grid.x), 0 * grid.x, 0 * grid.x)
    with pytest.raises(Instability):
        ev.evolve(st, 20.0, 0.05)


def test_kinetic_vs_nsp_trajectory(ops16, ops24):
    # linear kinetic vs linear closure on low-frequency data at t >= 20
    op0, _ = ops16
    grid = SpaceGrid(box_half_length=200.0, nx=1024)
    prof = np.exp(-grid.x ** 2 / 200.0)
    ts = [20.0, 30.0]
    kin = kinetic_moment_trajectory(op0, grid, prof, ts)
    tc = transport_coefficients(*ops16)
    ev = NSPEvolver(grid, tc["kappa1"], tc["kappa2"])
    st = MomentState(prof, 0 * grid.x, 0 * grid.x)
    fluid = ev.evolve(st, 30.0, 0.05, out_ts=ts)
    for k, f in zip(kin, fluid):
        num = np.linalg.norm(np.concatenate(
            [k.n - f.n, k.m1 - f.m1, k.q - f.q]))
        den = np.linalg.norm(np.concatenate([k.n, k.m1, k.q]))
        assert num <= 0.10 * den


def test_apply_v1_derivative_quadratic(bases16):
    b0, _ = bases16
    f = 3.0 + 2.0 * b0.v1 - 1.5 * b0.v1 ** 2
    df = apply_v1_derivative(b0, f[None, :])[0]
    assert np.max(np.abs(df - (2.0 - 3.0 * b0.v1))) <= 1e-9
    d2 = apply_v1_derivative(b0, apply_v1_derivative(b0, f[None, :]))[0]
    assert np.max(np.abs(d2 + 3.0)) <= 1e-8

