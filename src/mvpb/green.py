"""Pointwise Green's-function synthesis on a periodic spatial box.

The Green's function of the linearized system is assembled per spatial
frequency from the semigroup exp(t B(eta)) and split into

* a low-frequency fluid part (rank-per-branch synthesis over |eta| < r0/2),
* a family of kinetic wave fronts J_0, J_1, ... built by a Picard
  recursion in frequency space around the damped free streaming flow, and
* exponentially small remainders measured pointwise in (t, x).

All operator-valued objects are evaluated in seed-action mode: fields are
the application of the operator to a fixed family of velocity profiles.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss

from .collision import CollisionOperator
from .errors import AliasingWarning, IllConditioned
from .spectral import (eigen_branches_at, from_real_form, mode_blocks,
                       on_workers, propagate, real_mode_matrices,
                       to_real_form)
# not called here: perfbench/tracer.py wraps mvpb.green.mode_matrix
from .spectral import mode_matrix  # noqa: F401


class SpaceGrid:
    """Periodic grid on [-L, L) with real-field Fourier synthesis.

    Frequency coefficients are stored for the non-negative modes
    eta_k = pi k / L, k = 0..nx/2; fields are real so negative modes follow
    by conjugation.  A point source at x = 0 has the flat coefficient
    profile 1/(2L) (band-limited mollification).

    The grid starts at x = -L, half a period from the FFT origin, so the
    coefficients are the FFT's times the sign (-1)^k on mode k: each
    transform is one real FFT along its axis and one sign pass, with no
    shift of the samples.  Translation-invariant operators (derivative,
    the field solve) need no shift at all: apply_multiplier.
    """

    def __init__(self, box_half_length=200.0, nx=4096):
        self.L = float(box_half_length)
        self.nx = int(nx)
        if self.nx % 2:
            raise ValueError("nx must be even")
        self.dx = 2.0 * self.L / self.nx
        self.x = -self.L + self.dx * np.arange(self.nx)
        self.eta = np.pi * np.arange(self.nx // 2 + 1) / self.L
        self.nh = self.nx // 2 + 1
        self._sign = np.where(np.arange(self.nh) % 2, -1.0, 1.0)

    def _along(self, a, ndim, axis):
        """a, an (nh,) mode array, shaped to broadcast along axis."""
        shape = [1] * ndim
        shape[axis] = self.nh
        return a.reshape(shape)

    def delta_coefficients(self):
        return np.full(self.nh, 1.0 / (2.0 * self.L))

    def to_physical(self, coef, axis=-1):
        """Real field on self.x from non-negative-mode coefficients."""
        coef = np.asarray(coef)
        return np.fft.irfft(coef * self._along(self._sign, coef.ndim, axis),
                            n=self.nx, axis=axis, norm="forward")

    def to_coefficients(self, field, axis=-1):
        field = np.asarray(field)
        c = np.fft.rfft(field, axis=axis, norm="forward")
        c *= self._along(self._sign, field.ndim, axis)
        return c

    def apply_multiplier(self, field, symbol, axis=-1):
        """irfft(symbol * rfft(field)) along axis: the translation-invariant
        operator with the (nh,) symbol on a real field, with no shift."""
        field = np.asarray(field)
        c = np.fft.rfft(field, axis=axis)
        c *= self._along(symbol, field.ndim, axis)
        return np.fft.irfft(c, n=self.nx, axis=axis)

    def derivative(self, field, axis=-1):
        """x-derivative of a real field along axis."""
        return self.apply_multiplier(field, 1j * self.eta, axis)

    def poisson_kernel(self):
        """Physical kernel of (I - d_xx)^{-1}; continuum limit exp(-|x|)/2."""
        return self.to_physical(self.delta_coefficients() / (1.0 + self.eta ** 2))


# ---------------------------------------------------------------------- #
# full Green's function, seed-action mode
# ---------------------------------------------------------------------- #

def green_action(op: CollisionOperator, grid: SpaceGrid, seeds, ts,
                 datum=None):
    """Frequency coefficients of G(t) applied to datum(x) * seed(v).

    datum: (nh,) coefficients of the profile, by default the point source.
    Returns complex array (n_seeds, n_times, grid.nh, n).  The modes with
    |datum| > 1e-14 max split into blocks (spectral.mode_blocks); each
    block builds its real forms R(eta), propagates the seeds through
    them in one call of propagate (to_real_form in, from_real_form out)
    and writes its own modes, on eig_workers() threads (on_workers).
    The other modes stay zero.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=complex))
    ts = np.asarray(ts, dtype=float)
    ns, n = seeds.shape
    datum = grid.delta_coefficients() if datum is None else datum
    active = np.abs(datum) > 1e-14 * np.abs(datum).max()
    Z = to_real_form(seeds.T, op.basis)
    out = np.zeros((ns, len(ts), grid.nh, n), dtype=complex)

    def block(modes):
        Br = real_mode_matrices(op, grid.eta[modes])
        Y = propagate(Br, np.broadcast_to(Z, (len(modes),) + Z.shape), ts)
        Y = from_real_form(Y, op.basis, axis=2)          # (nt, k, n, ns)
        out[:, :, modes, :] = Y.transpose(3, 0, 1, 2) * datum[modes, None]

    on_workers(block, mode_blocks(np.flatnonzero(active), n))
    return out


def synthesize_green(op: CollisionOperator, grid: SpaceGrid, seeds, ts,
                     r0_hat, datum=None):
    """Green's-function coefficients with low/high frequency split.

    Returns a dict with the full coefficient field ``coef`` of green_action
    and the masked split fields ``low`` (|eta| < r0_hat / 2) and ``high``
    (the complement).  Warns when the Nyquist mode carries more than 1e-6
    of the total spectral energy.
    """
    coef = green_action(op, grid, seeds, ts, datum)
    w = op.basis.w
    ts = np.asarray(ts, dtype=float)
    # t = 0 is the band-limited delta itself (flat in eta by construction),
    # so the resolution check only applies to evolved times
    energy = np.einsum("stki,i->tk", np.abs(coef) ** 2, w)[ts > 0]
    if energy.size:
        ratio = energy[:, -1] / np.maximum(energy.sum(axis=1), 1e-300)
        if ratio.max() > 1e-6:
            warnings.warn(
                "Nyquist mode carries %.2e of the spectral energy"
                % float(ratio.max()), AliasingWarning)
    low = np.where((grid.eta < r0_hat / 2.0)[None, None, :, None], coef, 0.0)
    return {"coef": coef, "low": low, "high": coef - low}


# ---------------------------------------------------------------------- #
# fluid (low-frequency) part
# ---------------------------------------------------------------------- #

class FluidPart:
    """Rank-per-branch low-frequency part of the Green's function.

    Synthesizes  sum_j int_{|eta|<r0/2} exp(i x eta + lambda_j t)
    psi_j (psi_j, .)_eta deta  on the discrete mode set of the grid, one
    term per fluid branch of the sector-0 operator.
    """

    def __init__(self, op: CollisionOperator, grid: SpaceGrid, r0_hat):
        self.op = op
        self.grid = grid
        self.cut = r0_hat / 2.0
        self.mode_idx = np.where(grid.eta < self.cut)[0]
        self.etas = grid.eta[self.mode_idx]
        bs = eigen_branches_at(op, self.etas)
        self.lam = bs.lam                       # (nb, nm)
        self.psi = bs.psi                       # (nb, nm, n)
        self.amp = 1.0 / (2.0 * grid.L)

    def mode_coefficients(self, t, g, left=None, right=None):
        """Frequency coefficients of [G1(t) g] on the full grid mode set."""
        b = self.op.basis
        g = np.asarray(g, dtype=complex)
        if right == "micro":
            g = b.project(g, "micro")
        coef = np.zeros((self.grid.nh, b.n), dtype=complex)
        load = b.inner_eta(self.psi, g, self.etas)      # (nb, nm)
        phases = np.exp(self.lam * t)
        psi = self.psi
        if left is not None:
            psi = np.array([[b.project(p, left) for p in row] for row in psi])
        coef[self.mode_idx] = np.einsum("jm,jm,jmk->mk", phases, load, psi) * self.amp
        return coef

    def action(self, t, g, left=None, right=None):
        """Physical field (nx, n) of [P_left G1(t) P_right g](x, v)."""
        return self.grid.to_physical(self.mode_coefficients(t, g, left, right), axis=0)


# ---------------------------------------------------------------------- #
# kinetic wave fronts (Picard recursion in frequency space)
# ---------------------------------------------------------------------- #

#: Picard step length and Gauss collocation nodes per step of KineticWaves
WAVE_INTERVAL = 0.5
WAVE_NODES = 4
#: frequency modes per block of the KineticWaves march
WAVE_BLOCK_MODES = 16


def _exp_moments(c, delta, p):
    """I_m(c) = int_0^delta exp(-c (delta - s)) s^m ds for m = 0..p-1.

    Stable downward-free recurrence I_m = delta^m / c - (m / c) I_{m-1};
    c has positive real part bounded away from zero here.
    """
    out = np.empty((p,) + c.shape, dtype=complex)
    ecd = np.exp(-c * delta)
    out[0] = (1.0 - ecd) / c
    for m in range(1, p):
        out[m] = (delta ** m - m * out[m - 1]) / c
    return out, ecd


def _step_table(c, h):
    """Exact propagation over the node offsets and the end of a step of h.

    Returns (E, W) for the p + 1 targets d (the Gauss nodes, then h):
    E[d] = exp(-c d), and W[d, q] weights the source at node q, so that
    J(t0 + d) = E[d] J(t0) + sum_q W[d, q] F_q for the source F interpolated
    through the nodes (monomials in s/h, exactly integrated).
    """
    p = WAVE_NODES
    tau = (leggauss(p)[0] + 1.0) / 2.0
    targets = np.append(tau, 1.0) * h
    I, E = _exp_moments(np.broadcast_to(c, (p + 1,) + c.shape),
                        targets[:, None, None], p)     # (p, p+1, modes, n)
    I = I / (h ** np.arange(p))[:, None, None, None]
    # source monomial coefficients from its node values
    Vinv = np.linalg.inv(np.vander(tau, p, increasing=True))
    return E, np.einsum("mq,mdkn->dqkn", Vinv, I)


class KineticWaves:
    """Recursive wave-front family J_0 .. J_{levels-1} applied to seeds.

    The recursion (per frequency eta, acting on a seed g, J_{-1} = 0):

        d_t J_k = -(nu + i v1 eta) J_k + K J_{k-1} + i v1 eta chi0 Theta_{k-1}
        (1 + eta^2) Theta_k = -(J_k, chi0),   J_k(0) = g if k = 0 else 0

    integrated step by step (length WAVE_INTERVAL, plus an edge at every
    requested time).  Level 0 is the damped free flow, propagated exactly.
    Every higher level takes the same update: the source from the level
    below at WAVE_NODES Gauss nodes, interpolated by a polynomial and
    integrated exactly against the exponential, so the only error is that
    interpolation.

    The recursion is independent per eta, so eta is the outer loop: the
    modes split into blocks of WAVE_BLOCK_MODES, and each block builds its
    own step tables, marches every level over every edge and writes its
    slice of wave_sum and top.  The blocks run on eig_workers() threads
    (the GEMMs and large ufuncs release the GIL); a worker's working set
    is one block's tables, not the grid's.  Measured on one BLAS thread
    and 2 CPUs at n = 128, nx = 256, levels 7, times 1, 2, 4, 8: blocks of
    8, 16 and 32 took 0.33, 0.26 and 0.24 s at a traced peak of 5.1, 6.7
    and 10.1 MB, and the benchmark's green sequence peaked at 78, 80 and
    80-82 MB resident; one whole-grid block took 0.38-0.48 s, 16.8 MB and
    85 MB.  The blocks depend on the shapes alone, so the result is the
    same bits on any worker count.
    """

    def __init__(self, op: CollisionOperator, grid: SpaceGrid, seeds, out_ts,
                 levels=7):
        self.op = op
        self.grid = grid
        b = op.basis
        self.seeds = np.atleast_2d(np.asarray(seeds, dtype=complex))
        self.out_ts = np.asarray(out_ts, dtype=float)
        self.levels = int(levels)
        ns, n = self.seeds.shape
        eta = grid.eta
        amp = 1.0 / (2.0 * grid.L)

        KeffT = (op.Lmat + np.diag(op.nu)).T.copy()           # real
        chi0 = b.invariants_raw[0]
        mass_w = chi0 * b.w
        c = (op.nu[None, :] + 1j * np.outer(eta, b.v1))        # (nh, n)
        src_field = 1j * np.outer(eta, b.v1 * chi0)            # (nh, n)
        s_eta = 1.0 / (1.0 + eta ** 2)

        T = float(self.out_ts.max())
        nsteps = int(np.ceil(T / WAVE_INTERVAL - 1e-12))
        lattice = np.linspace(0.0, nsteps * WAVE_INTERVAL, nsteps + 1)
        # every requested time is an interval edge, so none falls between
        # two recorded edges; the integrator takes any step length
        edges = list(lattice[lattice <= T + 1e-9])
        for t in np.sort(self.out_ts):
            if np.abs(np.subtract(edges, t)).min() >= 1e-9:
                edges.append(t)
        edges = np.sort(edges)

        # wave_sum excludes the top level: the highest computed front is the
        # leading term of the remainder, not part of the truncated wave sum
        self.wave_sum = np.zeros((ns, len(self.out_ts), grid.nh, n), dtype=complex)
        self.top = np.zeros_like(self.wave_sum)

        def march(modes):
            """Every level over every edge for one block of modes."""
            c_b, field_b, s_b = c[modes], src_field[modes], s_eta[modes]

            def source(J):
                # two real GEMMs: half the flops of one complex GEMM
                out = np.empty(J.shape, dtype=complex)
                np.matmul(J.real, KeffT, out=out.real)
                np.matmul(J.imag, KeffT, out=out.imag)
                theta = -(J @ mass_w) * s_b
                out += theta[..., None] * field_b
                return out

            # running values at the current step start, per level
            J_start = np.zeros((self.levels, ns, len(c_b), n), dtype=complex)
            J_start[0] = amp * self.seeds[:, None, :]
            self._record(0.0, J_start, modes)
            tables = {}
            for t0, t1 in zip(edges[:-1], edges[1:]):
                h = t1 - t0
                if h not in tables:
                    tables[h] = _step_table(c_b, h)
                E, W = tables[h]
                J = J_start[0] * E[:, None]
                J_start[0] = J[-1]
                for Jk in J_start[1:]:
                    J = Jk * E[:, None] + np.einsum("dqkn,qskn->dskn", W,
                                                    source(J[:-1]))
                    Jk[...] = J[-1]
                self._record(t1, J_start, modes)

        on_workers(march, [slice(a, a + WAVE_BLOCK_MODES)
                           for a in range(0, grid.nh, WAVE_BLOCK_MODES)])

    def _record(self, t, J_levels, modes):
        hits = np.abs(self.out_ts - t) < 1e-9
        self.wave_sum[:, hits, modes] = J_levels[:-1].sum(axis=0)[:, None]
        self.top[:, hits, modes] = J_levels[-1][:, None]

    # ------------------------------------------------------------------ #

    def free_flow_coefficients(self, t):
        """Closed form of the level-0 coefficients at time t."""
        b = self.op.basis
        c = (self.op.nu[None, :] + 1j * np.outer(self.grid.eta, b.v1))
        amp = 1.0 / (2.0 * self.grid.L)
        return amp * np.exp(-c * t)[None, :, :] * self.seeds[:, None, :]


# ---------------------------------------------------------------------- #
# fit
# ---------------------------------------------------------------------- #

def linear_log_fit(x, vals):
    """Fit log(vals) = a + b x; returns (b, a, r_squared).

    The one log-linear fit: x = log1p(t) gives the power law
    exp(a) (1+t)^b, x = t the exponential rate -b.  Raises IllConditioned
    on fewer than two distinct abscissae, where the line is not determined.
    """
    x = np.asarray(x, dtype=float)
    if np.unique(x).size < 2:
        raise IllConditioned(
            f"log-linear fit needs two distinct abscissae, got {x.tolist()}")
    y = np.log(np.maximum(np.asarray(vals, dtype=float), 1e-300))
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(coef[1]), float(coef[0]), r2


def hump_centers(x, profile, expected, window):
    """Locations of local maxima of profile near each expected center.

    Returns array of located centers (nan when no local max falls in the
    window around the expected position).
    """
    x = np.asarray(x)
    profile = np.asarray(profile)
    found = []
    for xe in np.atleast_1d(expected):
        sel = np.abs(x - xe) <= window
        if not np.any(sel):
            found.append(np.nan)
            continue
        idx = np.where(sel)[0]
        sub = profile[idx]
        k = int(np.argmax(sub))
        i = idx[k]
        if 0 < i < len(x) - 1:
            # quadratic refinement of the peak position
            y0, y1, y2 = profile[i - 1], profile[i], profile[i + 1]
            denom = (y0 - 2 * y1 + y2)
            shift = 0.5 * (y0 - y2) / denom if abs(denom) > 1e-300 else 0.0
            shift = np.clip(shift, -1.0, 1.0)
            found.append(x[i] + shift * (x[1] - x[0]))
        else:
            found.append(x[i])
    return np.asarray(found)
