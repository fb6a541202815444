"""Fluid moments, the Navier-Stokes-Poisson closure, and the v1 derivative.

The closure evolves density, momentum and heat moments with viscosity and
heat-conduction coefficients taken from the kinetic quadratic forms, the
field coupling solved each step, and an IMEX arrangement: diffusion exactly
in frequency space, transport and coupling with an explicit midpoint step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import green
from .collision import CollisionOperator
from .errors import CFLViolation, Instability
from .green import SpaceGrid
# not called here: perfbench/tracer.py wraps mvpb.moments.mode_matrix
from .spectral import mode_matrix  # noqa: F401
from .velocity import VelocityBasis, macro_speeds

ROOT23 = np.sqrt(2.0 / 3.0)
#: Courant number of the explicit steps (NSPEvolver, NonlinearStepper)
CFL = 0.9


@dataclass
class MomentState:
    """Macroscopic fields on one spatial grid."""

    grid: SpaceGrid
    n: np.ndarray
    m1: np.ndarray
    q: np.ndarray
    phi: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.phi is None:
            self.phi = solve_field(self.grid, self.n)

    def copy(self):
        return MomentState(self.grid, self.n.copy(), self.m1.copy(),
                           self.q.copy(), self.phi.copy())


def solve_field(grid: SpaceGrid, n):
    """Linearized field equation: (I - d_xx) phi = -n.

    The package's only linear field solve; the nonlinear field iterations
    call it for each frequency-diagonal sweep.
    """
    return grid.to_physical(grid.poisson_coefficients(grid.to_coefficients(-np.asarray(n))))


def extract_moments(basis: VelocityBasis, grid: SpaceGrid, f_field):
    """Project a sector-0 velocity field (nx, n) onto the invariants."""
    f = np.asarray(f_field)
    chi = basis.invariants            # rows: mass, momentum, energy
    n = np.real(f @ (chi[0] * basis.w))
    m1 = np.real(f @ (chi[1] * basis.w))
    q = np.real(f @ (chi[2] * basis.w))
    return MomentState(grid, n, m1, q)


# ---------------------------------------------------------------------- #
# Navier-Stokes-Poisson closure
# ---------------------------------------------------------------------- #

def nsp_symbol(eta, kappa1, kappa2, coupled=True):
    """3x3 frequency symbol of the closure on (n, m1, q)."""
    s = 1.0 / (1.0 + eta ** 2) if coupled else 0.0
    ie = 1j * eta
    return np.array([
        [0.0, -ie, 0.0],
        [-ie * (1.0 + s), -(4.0 / 3.0) * kappa1 * eta ** 2, -ie * ROOT23],
        [0.0, -ie * ROOT23, -kappa2 * eta ** 2],
    ], dtype=complex)


def nsp_acoustic_speeds(kappa1, kappa2, coupled=True, eta=1e-4):
    """Long-wave signal speeds from the symbol eigenvalues."""
    lam = np.linalg.eigvals(nsp_symbol(eta, kappa1, kappa2, coupled))
    return np.sort(-np.imag(lam) / eta)


def nsp_damping_coefficients(kappa1, kappa2, coupled=True, eta=1e-3):
    """Quadratic damping rates a_j of the symbol branches.

    Returns the rates sorted by branch speed (-c, 0, +c).
    """
    lam = np.linalg.eigvals(nsp_symbol(eta, kappa1, kappa2, coupled))
    order = np.argsort(-np.imag(lam) / eta)
    return -np.real(lam[order]) / eta ** 2


class NSPEvolver:
    """IMEX Strang stepper for the moment closure on a periodic grid.

    Diffusion is applied exactly in frequency space over half steps; the
    hyperbolic transport and the field coupling use an explicit midpoint
    rule in between.  The closure is linear (small perturbations): the
    field solve is linearized and the quadratic field products are left out.
    """

    def __init__(self, grid: SpaceGrid, kappa1, kappa2):
        self.grid = grid
        self.kappa1 = float(kappa1)
        self.kappa2 = float(kappa2)
        self.max_speed = float(macro_speeds(0.0).max())

    def _rhs(self, st: MomentState):
        g = self.grid
        dphi = g.derivative(solve_field(g, st.n))
        dm1_x = g.derivative(st.m1)
        dn = -dm1_x
        dm1 = -g.derivative(st.n) - ROOT23 * g.derivative(st.q) + dphi
        dq = -ROOT23 * dm1_x
        return dn, dm1, dq

    def _diffuse(self, st: MomentState, dt):
        g = self.grid
        for name, kap in (("m1", 4.0 * self.kappa1 / 3.0), ("q", self.kappa2)):
            u = getattr(st, name)
            c = g.to_coefficients(u) * np.exp(-kap * g.eta ** 2 * dt)
            setattr(st, name, g.to_physical(c))

    def step(self, st: MomentState, dt):
        self._diffuse(st, dt / 2.0)
        dn, dm1, dq = self._rhs(st)
        mid = MomentState(self.grid, st.n + dt / 2.0 * dn,
                          st.m1 + dt / 2.0 * dm1, st.q + dt / 2.0 * dq)
        dn, dm1, dq = self._rhs(mid)
        st.n = st.n + dt * dn
        st.m1 = st.m1 + dt * dm1
        st.q = st.q + dt * dq
        self._diffuse(st, dt / 2.0)
        st.phi = solve_field(self.grid, st.n)
        return st

    def evolve(self, state0: MomentState, t_end, dt, out_ts=None):
        """March to t_end; returns (times, list of MomentState snapshots)."""
        if dt > CFL * self.grid.dx / self.max_speed:
            raise CFLViolation(
                "dt=%g exceeds advective limit %g"
                % (dt, CFL * self.grid.dx / self.max_speed))
        nsteps = int(round(t_end / dt))
        out_ts = np.asarray(out_ts if out_ts is not None else [t_end], dtype=float)
        st = state0.copy()
        norm0 = float(np.linalg.norm(np.concatenate([st.n, st.m1, st.q])))
        times, snaps = [], []
        for k in range(nsteps + 1):
            t = k * dt
            if np.any(np.abs(out_ts - t) < dt / 2.0 + 1e-12):
                times.append(t)
                snaps.append(st.copy())
            if k == nsteps:
                break
            st = self.step(st, dt)
            norm = float(np.linalg.norm(np.concatenate([st.n, st.m1, st.q])))
            if not np.isfinite(norm) or norm > 1e3 * (norm0 + 1e-300):
                raise Instability("norm grew to %.3e at t=%g" % (norm, t))
        return np.array(times), snaps


def kinetic_moment_trajectory(op: CollisionOperator, grid: SpaceGrid,
                              profile, ts):
    """Exact linear kinetic moments for initial data profile(x) * chi0(v).

    MomentState snapshots (sector 0 only) of green.green_action on the
    datum, called through the module, where perfbench/tracer.py wraps it.
    """
    b = op.basis
    phat = grid.to_coefficients(np.asarray(profile, dtype=float))
    coef = green.green_action(op, grid, b.invariants[0], ts, phat)[0]
    return [extract_moments(b, grid, grid.to_physical(c, axis=0))
            for c in coef]


# ---------------------------------------------------------------------- #
# velocity derivative
# ---------------------------------------------------------------------- #

def _v1_derivative_matrix(basis: VelocityBasis):
    """Second-order finite-difference d/dv1 on the tensor velocity grid.

    The v1 nodes are a nonuniform quadrature grid; per vr column a
    three-point Lagrange stencil is used, one-sided at the ends.
    """
    n1, nr = basis.n1, basis.nr
    v1 = basis.v1.reshape(n1, nr)[:, 0]
    D1 = np.zeros((n1, n1))
    for i in range(n1):
        j = min(max(i - 1, 0), n1 - 3)
        x0, x1, x2 = v1[j], v1[j + 1], v1[j + 2]
        t = v1[i]
        D1[i, j] = (2 * t - x1 - x2) / ((x0 - x1) * (x0 - x2))
        D1[i, j + 1] = (2 * t - x0 - x2) / ((x1 - x0) * (x1 - x2))
        D1[i, j + 2] = (2 * t - x0 - x1) / ((x2 - x0) * (x2 - x1))
    return D1


def apply_v1_derivative(basis: VelocityBasis, f_field, order=1):
    """d^order/dv1^order of an (..., n) velocity field."""
    D1 = _v1_derivative_matrix(basis)
    shape = f_field.shape
    f = np.asarray(f_field).reshape(-1, basis.n1, basis.nr)
    for _ in range(order):
        f = D1 @ f
    return f.reshape(shape)
