"""Fluid moments, the Navier-Stokes-Poisson closure, and the v1 derivative.

The closure evolves density, momentum and heat moments with viscosity and
heat-conduction coefficients taken from the kinetic quadratic forms, the
linearized field coupling folded into its frequency symbol, and an IMEX
arrangement per Fourier mode: diffusion exactly, transport and coupling with
an explicit midpoint step.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Density, momentum and heat moments on one spatial grid."""

    n: np.ndarray
    m1: np.ndarray
    q: np.ndarray


def solve_field(grid: SpaceGrid, n):
    """Linearized field equation: (I - d_xx) φ = -n.

    The package's only linear field solve; the nonlinear field iterations
    call it for each frequency-diagonal sweep.  One multiplier,
    -1/(1 + eta^2): the solve commutes with translation, so it needs no
    shift to the grid's origin.
    """
    return grid.apply_multiplier(n, -1.0 / (1.0 + grid.eta ** 2))


def extract_moments(basis: VelocityBasis, f_field):
    """Project a sector-0 velocity field (nx, n) onto the invariants."""
    f = np.asarray(f_field)
    chi = basis.invariants            # rows: mass, momentum, energy
    n = np.real(f @ (chi[0] * basis.w))
    m1 = np.real(f @ (chi[1] * basis.w))
    q = np.real(f @ (chi[2] * basis.w))
    return MomentState(n, m1, q)


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


def nsp_acoustic_speeds(kappa1, kappa2, coupled=True):
    """Long-wave signal speeds from the symbol eigenvalues at eta = 1e-4."""
    eta = 1e-4
    lam = np.linalg.eigvals(nsp_symbol(eta, kappa1, kappa2, coupled))
    return np.sort(-np.imag(lam) / eta)


def nsp_damping_coefficients(kappa1, kappa2, coupled=True):
    """Quadratic damping rates a_j of the symbol branches at eta = 1e-3.

    Returns the rates sorted by branch speed (-c, 0, +c).
    """
    eta = 1e-3
    lam = np.linalg.eigvals(nsp_symbol(eta, kappa1, kappa2, coupled))
    order = np.argsort(-np.imag(lam) / eta)
    return -np.real(lam[order]) / eta ** 2


class NSPEvolver:
    """IMEX Strang stepper for the moment closure on a periodic grid.

    Each Fourier mode of (n, m1, q) advances by one 3x3 step matrix
    G(eta) = D (I + dt A + dt^2/2 A^2) D: exact diffusion D over half steps
    around an explicit midpoint step of the transport and field coupling
    A = nsp_symbol(eta, 0, 0).  The closure is linear (small perturbations):
    the field coupling is the linearized 1/(1 + eta^2) term of A, so no
    field is solved, and the quadratic field products are left out.
    """

    def __init__(self, grid: SpaceGrid, kappa1, kappa2):
        self.grid = grid
        self.kappa1 = float(kappa1)
        self.kappa2 = float(kappa2)
        self.max_speed = float(macro_speeds(0.0).max())

    def evolve(self, state0: MomentState, t_end, dt, out_ts=None):
        """March to t_end; returns the list of MomentState snapshots.

        One snapshot per entry of out_ts (default [t_end]), in the given
        order, taken at step round(t / dt).
        """
        g = self.grid
        if dt > CFL * g.dx / self.max_speed:
            raise CFLViolation(
                "dt=%g exceeds advective limit %g"
                % (dt, CFL * g.dx / self.max_speed))
        nsteps = int(round(t_end / dt))
        out_ts = np.asarray(out_ts if out_ts is not None else [t_end], dtype=float)
        out_steps = np.rint(out_ts / dt).astype(int)
        if out_steps.min() < 0 or out_steps.max() > nsteps:
            raise ValueError("out_ts must lie in [0, t_end]")
        A = np.array([nsp_symbol(e, 0.0, 0.0) for e in g.eta])
        # an odd derivative of a real field has no Nyquist content
        A[-1] = 0.0
        kap = np.array([0.0, 4.0 * self.kappa1 / 3.0, self.kappa2])
        D = np.exp(-np.outer(g.eta ** 2 * dt / 2.0, kap))
        M = np.eye(3) + dt * A + dt ** 2 / 2.0 * (A @ A)
        G = D[:, :, None] * M * D[:, None, :]
        c = g.to_coefficients(np.stack([state0.n, state0.m1, state0.q], axis=1),
                              axis=0)
        # Parseval weights: the physical norm over sqrt(nx)
        w = np.full((g.nh, 1), np.sqrt(2.0))
        w[[0, -1]] = 1.0
        norm0 = float(np.linalg.norm(w * c))
        snaps = [None] * len(out_ts)
        for k in range(nsteps + 1):
            hits = np.flatnonzero(out_steps == k)
            if hits.size:
                n, m1, q = g.to_physical(c.T)
                for i in hits:
                    snaps[i] = MomentState(n, m1, q)
            if k == nsteps:
                break
            c = np.einsum("kij,kj->ki", G, c)
            norm = float(np.linalg.norm(w * c))
            if not np.isfinite(norm) or norm > 1e3 * (norm0 + 1e-300):
                raise Instability("norm grew to %.3e at t=%g" % (norm, k * dt))
        return snaps


def kinetic_moment_trajectory(op: CollisionOperator, grid: SpaceGrid,
                              profile, ts):
    """Exact linear kinetic moments for initial data profile(x) * chi0(v).

    MomentState snapshots (sector 0 only) of green.green_action on the
    datum, called through the module, where perfbench/tracer.py wraps it.
    """
    b = op.basis
    phat = grid.to_coefficients(np.asarray(profile, dtype=float))
    coef = green.green_action(op, grid, b.invariants[0], ts, phat)[0]
    return [extract_moments(b, grid.to_physical(c, axis=0))
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


def apply_v1_derivative(basis: VelocityBasis, f_field):
    """d/dv1 of an (..., n) velocity field."""
    f = np.asarray(f_field).reshape(-1, basis.n1, basis.nr)
    return (_v1_derivative_matrix(basis) @ f).reshape(f_field.shape)
