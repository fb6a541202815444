"""Full nonlinear evolution: transport, field coupling, bilinear collisions.

The perturbation system is advanced by a Strang split: the stiff linear
part (collisions, streaming, linear field response) uses exact per-mode
propagators; the quadratic terms (field products, bilinear collision
operator, nonlinear field correction) use an explicit midpoint rule in
physical space.  The bilinear collision operator is a third-order tensor
over the velocity nodes, built once by quadrature on half the output nodes
and kept, cached and applied as three parity blocks of the reflection
v1 -> -v1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.polynomial.legendre import leggauss

from .collision import CollisionOperator, cache_path, load_array, store_array
from .errors import CFLViolation, Instability, MemoryBudget, NoConvergence
from .green import SpaceGrid, linear_log_fit
from .moments import CFL, apply_v1_derivative, solve_field
from .spectral import (SQRT2, from_real_form, mode_matrix, real_form,
                       to_real_form)
from .velocity import VelocityBasis, macro_speeds, maxwellian


# ---------------------------------------------------------------------- #
# barycentric interpolation on the tensor velocity grid
# ---------------------------------------------------------------------- #

def _bary_weights(nodes):
    """Barycentric weights; on a node set with nodes = -nodes[::-1] they
    are exactly mirrored, w[n-1-i] = (-1)^(n-1) w[i]."""
    n = len(nodes)
    w = np.ones(n)
    for i in range(n):
        w[i] = 1.0 / np.prod(nodes[i] - np.delete(nodes, i))
    if np.array_equal(nodes, -nodes[::-1]):
        w[n - n // 2:] = (-1) ** (n - 1) * w[:n // 2][::-1]
    return w


def _bary_matrix(nodes, bw, pts):
    """Rows of Lagrange cardinal values at pts; exact at nodes."""
    d = pts[:, None] - nodes[None, :]
    exact = np.abs(d) < 1e-13
    with np.errstate(divide="ignore", invalid="ignore"):
        c = bw[None, :] / d
        s = c.sum(axis=1)
        out = c / s[:, None]
    hit = exact.any(axis=1)
    out[hit] = exact[hit].astype(float)
    return out


class _TensorInterp:
    """Product barycentric interpolation on the (v1, vr) node grid."""

    def __init__(self, basis: VelocityBasis):
        self.n1, self.nr = basis.n1, basis.nr
        self.v1 = basis.v1.reshape(self.n1, self.nr)[:, 0]
        self.vr = basis.vr.reshape(self.n1, self.nr)[0, :]
        self.b1 = _bary_weights(self.v1)
        self.br = _bary_weights(self.vr)
        self.vmax = basis.vmax

    def matrix(self, p1, pr, out):
        """(npts, n) cardinal rows, written into out; zero outside the box."""
        inside = (np.abs(p1) <= self.vmax) & (pr <= self.vmax)
        A1 = _bary_matrix(self.v1, self.b1, np.clip(p1, -self.vmax, self.vmax))
        Ar = _bary_matrix(self.vr, self.br, np.clip(pr, 0.0, self.vmax))
        np.einsum("qa,qb->qab", A1, Ar,
                  out=out.reshape(len(p1), self.n1, self.nr))
        out[~inside] = 0.0
        return out


# ---------------------------------------------------------------------- #
# bilinear collision tensor
# ---------------------------------------------------------------------- #

#: quadrature of the collision integral: midpoint nodes in the azimuth of v*,
#: Gauss nodes in the polar cosine of omega times midpoint nodes in its azimuth
PHI_STAR_NODES, OMEGA_THETA_NODES, OMEGA_PHI_NODES = 16, 12, 24
#: quadrature points per interpolation chunk of one output node
GAMMA_CHUNK = 32768
#: largest Gamma tensor (entries) that build_gamma will allocate
GAMMA_MEMORY_CAP = 512 ** 3


def _gamma_quadrature(basis: VelocityBasis):
    """Quadrature node set over (v*, phi*, omega) shared by both paths.

    v* runs over the basis's own 2-D node set (its quadrature weights
    divided by the azimuthal factor give the (v*1, v*r) measure), phi* is
    a midpoint rule for the azimuth of v*, and omega uses Gauss nodes in
    the polar cosine times a midpoint azimuth.  ell_star interpolates node
    values at the v* points.

    The full rule holds each collision four times, so one quarter of it is
    kept with weight x4.  omega and -omega give the same v', v'* and rate
    |(v - v*).omega|, and the omega rule maps onto itself under the sign
    flip: only cos(theta) > 0 is kept, x2 in w_omega.  The mirror
    v3 -> -v3 fixes every output node (v1, vr, 0), maps (phi*, omega) to
    (2 pi - phi*, mirrored omega) and keeps the radial speeds of v' and
    v'*; the midpoint phi* rule maps onto itself under it: only phi* in
    (0, pi) is kept, x2 in w_star.  PHI_STAR_NODES and OMEGA_THETA_NODES
    must be even: an odd count puts nodes at cos(theta) = 0 or phi* = pi
    that are their own images, which the doubled weight counts twice.

    The reduced rule still maps onto itself under the reflection
    P: v1 -> -v1 of the output node, v* and omega: v* runs over every
    node, and (w1, w2, w3) -> (-w1, w2, w3) is omega -> -omega followed by
    an azimuth shift of pi, which the even OMEGA_PHI_NODES midpoint rule
    maps onto itself.  It does so in floating point too, as the corner
    interpolation amplifies any asymmetry 1e5-fold: the basis v1 rule is
    mirror-exact (velocity.gauss_rule), the shifted azimuths negate cos and
    sin exactly, and the v1 barycentric weights are mirrored exactly.
    build_gamma therefore sweeps only half the output nodes
    (_gamma_node_tensor).
    """
    phis = (np.arange(PHI_STAR_NODES // 2) + 0.5) * 2.0 * np.pi / PHI_STAR_NODES
    ct, wt = leggauss(OMEGA_THETA_NODES)
    ct, wt = ct[OMEGA_THETA_NODES // 2:], 2.0 * wt[OMEGA_THETA_NODES // 2:]
    # the second half of the omega azimuths is the first shifted by pi,
    # with cos and sin negated exactly
    pho = (np.arange(OMEGA_PHI_NODES // 2) + 0.5) * 2.0 * np.pi \
        / OMEGA_PHI_NODES
    cph = np.concatenate([np.cos(pho), -np.cos(pho)])
    sph = np.concatenate([np.sin(pho), -np.sin(pho)])
    st = np.sqrt(1.0 - ct ** 2)
    omega = np.stack([
        np.repeat(ct, OMEGA_PHI_NODES),
        np.outer(st, cph).ravel(),
        np.outer(st, sph).ravel(),
    ], axis=1)                                           # (n_om, 3)
    w_omega = np.repeat(wt, OMEGA_PHI_NODES) * (2.0 * np.pi / OMEGA_PHI_NODES)
    # v* in 3-D for each (node, phi*)
    v1s = np.repeat(basis.v1, len(phis))
    vrs = np.repeat(basis.vr, len(phis))
    phs = np.tile(phis, basis.n)
    vstar = np.stack([v1s, vrs * np.cos(phs), vrs * np.sin(phs)], axis=1)
    # measure: basis.w includes the sector azimuthal factor 2*pi; the
    # explicit phi* rule over (0, pi), doubled by the mirror, replaces it
    w_star = np.repeat(basis.w / (2.0 * np.pi), len(phis)) \
        * 2.0 * (2.0 * np.pi / PHI_STAR_NODES)
    vrstar = np.hypot(vstar[:, 1], vstar[:, 2])
    interp = _TensorInterp(basis)
    return {"vstar": vstar, "w_star": w_star,
            "sqm_star": np.sqrt(maxwellian(vstar[:, 0], vrstar)),
            "omega": omega, "w_omega": w_omega, "interp": interp,
            "ell_star": interp.matrix(vstar[:, 0], vrstar,
                                      np.empty((len(vstar), basis.n)))}


def _gamma_sweep(basis: VelocityBasis, quad, nodes):
    """Chunks of the collision quadrature at the given output nodes.

    Yields (i, star, cw, Ap, As) for output node i and one chunk of its
    (v*, omega) points: star is the v* index of each point, cw its weight
    w |(v - v*).omega| sqrtM(v*), and Ap, As the rows interpolating node
    values at the post-collision velocities v' = v - ((v - v*).omega) omega
    and v'* = v* + ((v - v*).omega) omega.  Ap and As live in two buffers
    that the next chunk overwrites.
    """
    vstar, omega, interp = quad["vstar"], quad["omega"], quad["interp"]
    star_of_q = np.repeat(np.arange(len(vstar)), len(omega))
    nodes3 = np.stack([basis.v1, basis.vr, np.zeros(basis.n)], axis=1)
    buf_p, buf_s = np.empty((2, min(GAMMA_CHUNK, len(star_of_q)), basis.n))
    for i in nodes:
        v = nodes3[i]
        proj = (v[None, :] - vstar) @ omega.T                # (ns, nom)
        vp = (v[None, None, :] - proj[:, :, None] * omega).reshape(-1, 3)
        vps = (vstar[:, None, :] + proj[:, :, None] * omega).reshape(-1, 3)
        cw = (quad["w_star"][:, None] * quad["w_omega"][None, :]
              * np.abs(proj)).ravel() * quad["sqm_star"][star_of_q]
        p1, pr = vp[:, 0], np.hypot(vp[:, 1], vp[:, 2])
        s1, sr = vps[:, 0], np.hypot(vps[:, 1], vps[:, 2])
        for q0 in range(0, len(cw), GAMMA_CHUNK):
            sl = slice(q0, q0 + GAMMA_CHUNK)
            m = len(cw[sl])
            yield (i, star_of_q[sl], cw[sl],
                   interp.matrix(p1[sl], pr[sl], buf_p[:m]),
                   interp.matrix(s1[sl], sr[sl], buf_s[:m]))


def _invariant_cleanup(basis: VelocityBasis, arr):
    """Remove the collision-invariant components along the first axis.

    The continuum bilinear operator is orthogonal to the invariants;
    quadrature breaks this at discretization-error level, so the exact
    identity is restored by projection.
    """
    chi = basis.invariants
    load = np.tensordot(chi * basis.w, arr, axes=(1, 0))
    return arr - np.tensordot(chi.T, load, axes=(1, 0))


def _mirror_half(basis: VelocityBasis):
    """Output nodes that build_gamma sweeps: i <= P[i] for the reflection P.

    One node of each mirror pair, and every node with v1 = 0 (n1 odd).
    """
    return np.flatnonzero(np.arange(basis.n) <= basis.reflection)


def _gamma_node_tensor(basis: VelocityBasis):
    """Dense node tensor T[i, j, k] of the bilinear operator.

    The quadrature runs only at the output nodes _mirror_half(basis); the
    other rows are their reflections.  The reflection P: v1 -> -v1 maps
    the rule onto itself (_gamma_quadrature), so T[Pi, Pj, Pk] =
    T[i, j, k], and the loss row of Pi is that of i with P applied.  The
    symmetrization, the invariant cleanup and the rank-one correction
    below commute with P (every invariant is even or odd in v1).
    """
    n = basis.n
    perm = basis.reflection
    quad = _gamma_quadrature(basis)
    # All square-root-Maxwellian factors reduce in closed form: with
    # F = sqrtM f, G = sqrtM g the gain products carry
    # sqrtM(v') sqrtM(v'*) / sqrtM(v) = sqrtM(v*) by energy conservation
    # (detailed balance), and the loss terms carry the same sqrtM(v*).
    # Only f and g themselves are interpolated, which keeps the tensor
    # entries O(1) and the apply path well conditioned.
    T = np.zeros((n, n, n))
    loss = np.zeros((n, n))
    swept = _mirror_half(basis)
    for i, star, cw, Ap, As in _gamma_sweep(basis, quad, swept):
        T[i] += (As * cw[:, None]).T @ Ap
        loss[i] += cw @ quad["ell_star"][star]
    rest = np.setdiff1d(np.arange(n), swept)
    T[rest] = T[perm[rest]][:, perm][:, :, perm]
    loss[rest] = loss[perm[rest]][:, perm]
    for i in range(n):
        T[i] = 0.5 * (T[i] + T[i].T)
        T[i, :, i] -= 0.5 * loss[i]
        T[i, i, :] -= 0.5 * loss[i]
    T = _invariant_cleanup(basis, T)
    # The Maxwellian pair annihilates the continuum operator; the residual
    # quadrature defect in that single input direction is removed by a
    # rank-one correction (exact at equilibrium, symmetric, and itself
    # invariant-free since the defect vector was already projected).
    e = basis.invariants[0]
    ew = e * basis.w
    r = np.einsum("ijk,j,k->i", T, e, e)
    T -= np.einsum("i,j,k->ijk", r, ew, ew)
    return T


# ---------------------------------------------------------------------- #
# parity pair basis of the reflection
# ---------------------------------------------------------------------- #

def _mirror_pairs(perm):
    """(lo, fix): node i of each mirror pair i < P[i], and nodes with P[i] = i."""
    idx = np.arange(len(perm))
    return idx[idx < perm], idx[idx == perm]


def _to_pairs(x, perm, axis=-1):
    """Coordinates of node vectors along axis in the orthonormal pair basis.

    The coordinates are [even | odd]: e = (x_i + x_Pi)/sqrt2 for each pair
    i < P[i], then e = x_i for each node with P[i] = i, then
    o = (x_i - x_Pi)/sqrt2 for each pair.
    """
    lo, fix = _mirror_pairs(perm)
    a = np.take(x, lo, axis=axis)
    b = np.take(x, perm[lo], axis=axis)
    return np.concatenate([(a + b) / SQRT2, np.take(x, fix, axis=axis),
                           (a - b) / SQRT2], axis=axis)


def _from_pairs(c, perm, axis=-1):
    """Node vectors along axis from their pair coordinates (_to_pairs)."""
    lo, fix = _mirror_pairs(perm)
    npair, ne = len(lo), len(lo) + len(fix)
    out = np.empty_like(c)
    src, dst = np.moveaxis(c, axis, 0), np.moveaxis(out, axis, 0)
    dst[lo] = (src[:npair] + src[ne:]) / SQRT2
    dst[perm[lo]] = (src[:npair] - src[ne:]) / SQRT2
    dst[fix] = src[npair:ne]
    return out


@dataclass
class GammaTensor:
    """Bilinear collision tensor in the parity pair basis of the reflection.

    In the pair coordinates of _to_pairs (ne even, no odd) only the blocks
    with an even number of odd indices survive: EEE, EOO, OEO and OOE, the
    last the transpose of OEO in its two input axes.  blocks holds EEE,
    EOO and OEO, ne^3 + 2 ne no^2 entries (3/8 of n^3 for even n1), each
    input-major: X[b, a, c] for output coordinate a and input pair (b, c),
    so that the first argument contracts in one GEMM.
    """

    blocks: tuple               # (ne, ne, ne), (no, ne, no), (ne, no, no)
    perm: np.ndarray            # the reflection v1 -> -v1 of the nodes
    tag: tuple
    build_seconds: float = 0.0  # 0.0 when loaded from the cache

    @property
    def tensor(self):
        """The dense (n, n, n) node tensor, assembled from the blocks;
        exactly invariant under (P, P, P)."""
        eee, eoo, oeo = (X.transpose(1, 0, 2) for X in self.blocks)
        E, O = slice(None, len(eee)), slice(len(eee), None)
        T = np.zeros((len(self.perm),) * 3)
        T[E, E, E], T[E, O, O], T[O, E, O] = eee, eoo, oeo
        T[O, O, E] = oeo.transpose(0, 2, 1)
        for axis in range(3):
            T = _from_pairs(T, self.perm, axis)
        return T


def _parity_blocks(T, perm):
    """GammaTensor.blocks of a dense (n, n, n) tensor; its other blocks,
    zero up to round-off, are dropped."""
    for axis in range(3):
        T = _to_pairs(T, perm, axis)
    ne = len(perm) - len(_mirror_pairs(perm)[0])
    E, O = slice(None, ne), slice(ne, None)
    return tuple(np.ascontiguousarray(T[a, b, c].transpose(1, 0, 2))
                 for a, b, c in ((E, E, E), (E, O, O), (O, E, O)))


def build_gamma(basis: VelocityBasis, cache_dir=None):
    """Bilinear collision tensor of sector m=0, as parity blocks.

    T[i, j, k] is the coefficient of node i in the operator applied to the
    (j, k) node pair, symmetrized in (j, k) and projected off the
    invariants (_gamma_node_tensor); it is kept as the three blocks of
    GammaTensor.  With cache_dir, the blocks are stored there, flat and in
    order, under their tag (grid and quadrature sizes, rule version) in a
    file named by the grid alone, and loaded when the file's tag matches;
    a file with another tag (an older quadrature or layout) or a damaged
    file is rebuilt in place.
    Raises MemoryBudget when n^3 exceeds GAMMA_MEMORY_CAP: the build holds
    the dense tensor.
    """
    n = basis.n
    if n ** 3 > GAMMA_MEMORY_CAP:
        raise MemoryBudget("gamma tensor would need %d entries (cap %d)"
                           % (n ** 3, GAMMA_MEMORY_CAP))
    # the last entry is the rule version: change it with the quadrature, the
    # nodes or the stored layout
    tag = (basis.n1, basis.nr, basis.vmax, PHI_STAR_NODES,
           OMEGA_THETA_NODES, OMEGA_PHI_NODES, 5)
    perm = basis.reflection
    path = cache_path(cache_dir, "gamma", tag[:3]) if cache_dir else None
    if path:
        no = len(_mirror_pairs(perm)[0])
        ne = n - no
        shapes = ((ne, ne, ne), (no, ne, no), (ne, no, no))
        sizes = [int(np.prod(s)) for s in shapes]
        flat = load_array(path, tag, (sum(sizes),))
        if flat is not None:
            parts = np.split(flat, np.cumsum(sizes)[:-1])
            return GammaTensor(tuple(p.reshape(s)
                                     for p, s in zip(parts, shapes)),
                               perm, tag)

    t_start = time.time()
    blocks = _parity_blocks(_gamma_node_tensor(basis), perm)
    built = time.time() - t_start
    if path:
        store_array(path, tag, np.concatenate([X.ravel() for X in blocks]))
    return GammaTensor(blocks, perm, tag, built)


#: entries of the largest per-chunk apply intermediate (rows x ne^2)
GAMMA_APPLY_ENTRIES = 1 << 20


def _block(X, x, y):
    """sum_{bc} X[b, a, c] x[r, b] y[r, c] for every row r."""
    nb, na, nc = X.shape
    A = (x @ X.reshape(nb, na * nc)).reshape(len(x), na, nc)
    return (A @ y[:, :, None])[:, :, 0]


def _apply_pairs(blocks, cf, cg):
    """Pair coordinates of Gamma(f, g) from those of f and g (cg None: g = f)."""
    eee, eoo, oeo = blocks
    ne = len(eee)
    ef, of = cf[:, :ne], cf[:, ne:]
    if cg is None:
        even = _block(eee, ef, ef) + _block(eoo, of, of)
        odd = 2.0 * _block(oeo, ef, of)
    else:
        eg, og = cg[:, :ne], cg[:, ne:]
        # the even part averages both argument orders and the odd part sums
        # both cross terms, so Gamma(f, g) and Gamma(g, f) agree exactly
        even = 0.5 * ((_block(eee, ef, eg) + _block(eoo, of, og))
                      + (_block(eee, eg, ef) + _block(eoo, og, of)))
        odd = _block(oeo, ef, og) + _block(oeo, eg, of)
    return np.concatenate([even, odd], axis=1)


def apply_gamma(gamma: GammaTensor, f, g):
    """Symmetric bilinear application on (..., n) node fields.

    f and g map to their pair coordinates, each parity block contracts in
    one GEMM and one batched mat-vec over row chunks of at most
    GAMMA_APPLY_ENTRIES intermediate entries, and the result maps back.
    Gamma(f, g) and Gamma(g, f) agree exactly in floating point.
    """
    perm = gamma.perm
    n = len(perm)
    same = f is g
    f = np.asarray(f)
    g = np.asarray(g)
    shape = np.broadcast_shapes(f.shape, g.shape)
    cf = _to_pairs(np.broadcast_to(f, shape).reshape(-1, n), perm)
    cg = None if same else \
        _to_pairs(np.broadcast_to(g, shape).reshape(-1, n), perm)
    out = np.empty(cf.shape, dtype=np.result_type(f, g, float))
    step = max(1, GAMMA_APPLY_ENTRIES // len(gamma.blocks[0]) ** 2)
    for r0 in range(0, len(out), step):
        sl = slice(r0, r0 + step)
        out[sl] = _apply_pairs(gamma.blocks, cf[sl],
                               None if same else cg[sl])
    return _from_pairs(out, perm).reshape(shape)


def gamma_direct(basis: VelocityBasis, f, g):
    """Direct quadrature of the bilinear operator, bypassing the tensor.

    Independent evaluation path over the same quadrature sweep as
    build_gamma: interpolates the node profiles at the post-collision
    points, sums the quadrature with the closed-form sqrt-Maxwellian
    factor, removes the invariant components, and applies the same
    equilibrium-direction defect correction as the tensor build.  Accepts
    stacked pairs (m, n) and evaluates them in one sweep.
    """
    quad = _gamma_quadrature(basis)
    single = np.asarray(f).ndim == 1
    # append the equilibrium pair to measure the quadrature defect
    e = basis.invariants[0]
    P = np.vstack([np.atleast_2d(f), e]).T               # (n, m+1)
    Q = np.vstack([np.atleast_2d(g), e]).T
    P_star = quad["ell_star"] @ P                        # (ns, m+1)
    Q_star = quad["ell_star"] @ Q
    acc = np.zeros((basis.n, P.shape[1]))
    for i, star, cw, Ap, As in _gamma_sweep(basis, quad, range(basis.n)):
        bracket = ((As @ P) * (Ap @ Q) + (Ap @ P) * (As @ Q)
                   - P_star[star] * Q[i][None, :]
                   - P[i][None, :] * Q_star[star])
        acc[i] += cw @ bracket
    out = _invariant_cleanup(basis, 0.5 * acc)
    ew = e * basis.w
    defect = out[:, -1]
    cf = ew @ P[:, :-1]
    cg = ew @ Q[:, :-1]
    out = out[:, :-1] - np.outer(defect, cf * cg)
    return out[:, 0] if single else out.T


# ---------------------------------------------------------------------- #
# nonlinear field solve
# ---------------------------------------------------------------------- #

#: field fixed point: sup-norm residual tolerance and sweep limit
FIELD_TOL, FIELD_MAXIT = 1e-12, 60


def _field_fixed_point(grid: SpaceGrid, source):
    """Picard iteration x <- solve_field(grid, source(x)) from x = 0.

    Solves (I - d_xx) x + source(x) = 0, the form of both field relations.
    Returns the first iterate whose sup-norm residual is <= FIELD_TOL;
    raises NoConvergence on a non-finite residual or after FIELD_MAXIT
    sweeps.
    """
    sym = 1.0 + grid.eta ** 2
    x = np.zeros(grid.nx)
    for sweeps in range(FIELD_MAXIT + 1):
        s = source(x)
        r = np.abs(grid.to_physical(grid.to_coefficients(x) * sym) + s).max()
        if r <= FIELD_TOL:
            return x
        if sweeps == FIELD_MAXIT or not np.isfinite(r):
            raise NoConvergence("field residual %.2e after %d sweeps"
                                % (r, sweeps))
        x = solve_field(grid, s)


def poisson_newton(grid: SpaceGrid, n):
    """Field from the nonlinear relation with Boltzmann-distributed charge.

    Solves (I - d_xx) phi - (exp(-phi) + phi - 1) = -n.  The sweep is a
    contraction with factor max|1 - exp(-phi)|, at most 1/2 under the
    |n| <= 0.5 small-data guard.
    """
    n = np.asarray(n, dtype=float)
    if np.abs(n).max() > 0.5:
        raise NoConvergence("density amplitude %.3f outside small-data regime"
                            % np.abs(n).max())
    return _field_fixed_point(grid, lambda p: n - (np.exp(-p) + p - 1.0))


def field_time_derivative(grid: SpaceGrid, phi, dn_dt):
    """d_t phi from the differentiated field relation.

    Solves (I - d_xx) phi_t + (exp(-phi) - 1) phi_t = -d_t n; the sweep
    contracts while max|exp(-phi) - 1| < 1.
    """
    a = np.exp(-phi) - 1.0
    return _field_fixed_point(grid, lambda d: dn_dt + a * d)


# ---------------------------------------------------------------------- #
# time stepper
# ---------------------------------------------------------------------- #

@dataclass
class KineticState:
    """Sector-0 perturbation in mixed representation (frequency x nodes)."""

    coef: np.ndarray            # (nh, n) complex, non-negative modes
    t: float


class NonlinearStepper:
    """Strang-split integrator for the perturbation system.

    Half-steps of the exact linear propagator (collisions, streaming,
    linearized field response) sandwich an explicit midpoint step of the
    quadratic terms: the field products, the collision bilinear form, and
    the beyond-linear part of the field equation.  The field is solved
    only where it is read: in the quadratic step when field_terms is on.
    """

    def __init__(self, op: CollisionOperator, grid: SpaceGrid, dt,
                 gamma: GammaTensor = None, field_terms=True):
        self.op = op
        self.grid = grid
        self.dt = float(dt)
        self.gamma = gamma
        self.field_terms = field_terms
        b = op.basis
        self.b = b
        self.mass_w = b.invariants[0] * b.w
        self.v1chi0 = b.v1 * b.invariants[0]
        self._dv_min = np.min(np.diff(np.unique(np.round(b.v1, 12))))
        # exp(B dt/2) = U exp(B_r dt/2) U*: real half-step propagators
        self.props = np.empty((grid.nh, b.n, b.n))
        for k, eta in enumerate(grid.eta):
            self.props[k] = scipy.linalg.expm(
                real_form(mode_matrix(op, eta), b.reflection) * (self.dt / 2.0))

    # -------------------------------------------------------------- #

    def _half_linear(self, coef):
        perm = self.b.reflection
        z = to_real_form(coef, perm, axis=1)
        y = self.props @ np.stack([z.real, z.imag], axis=-1)
        return from_real_form(y[..., 0] + 1j * y[..., 1], perm, axis=1)

    def _quadratic_rhs(self, coef):
        """Explicit sources in physical space; returns coefficient rhs."""
        g = self.grid
        f_x = np.real(g.to_physical(coef, axis=0))      # (nx, n) real field
        rhs = np.zeros_like(f_x)
        if self.field_terms:
            n_x = f_x @ self.mass_w
            phi = poisson_newton(g, n_x)
            dphi = g.derivative(phi)
            rhs += 0.5 * dphi[:, None] * (self.b.v1[None, :] * f_x)
            rhs -= dphi[:, None] * apply_v1_derivative(self.b, f_x)
            # beyond-linear part of the field source (the linear response
            # is inside the propagator)
            dphi_nl = g.derivative(phi - solve_field(g, n_x))
            rhs += dphi_nl[:, None] * self.v1chi0[None, :]
            cfl_speed = np.abs(dphi).max()
            if self.dt * cfl_speed > CFL * self._dv_min:
                raise CFLViolation(
                    "field advection dt*|dphi|=%.2e exceeds %.2e"
                    % (self.dt * cfl_speed, CFL * self._dv_min))
        if self.gamma is not None:
            rhs += apply_gamma(self.gamma, f_x, f_x)
        return g.to_coefficients(rhs, axis=0)

    def step(self, state: KineticState):
        coef = self._half_linear(state.coef)
        if self.field_terms or self.gamma is not None:
            r1 = self._quadratic_rhs(coef)
            mid = coef + 0.5 * self.dt * r1
            r2 = self._quadratic_rhs(mid)
            coef = coef + self.dt * r2
        coef = self._half_linear(coef)
        if not np.isfinite(np.abs(coef).max()):
            raise Instability("non-finite state at t=%g" % (state.t + self.dt))
        return KineticState(coef, state.t + self.dt)


# ---------------------------------------------------------------------- #
# pointwise decay study
# ---------------------------------------------------------------------- #

def diffusive_profile(t, x, k=0.5):
    """Algebraic space-time profile centered on the three wave lines."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for b in macro_speeds(0.0)[:3]:
        out += (1.0 + (x - b * t) ** 2 / (1.0 + t)) ** (-k)
    return out


def initial_state(op: CollisionOperator, grid: SpaceGrid, delta0=1e-3,
                  gamma0=1.0):
    """Localized small initial datum delta0 (1+x^2)^{-gamma0} chi0(v)."""
    bump = delta0 * (1.0 + grid.x ** 2) ** (-gamma0)
    f_x = np.outer(bump, op.basis.invariants[0])
    return KineticState(grid.to_coefficients(f_x, axis=0), 0.0)


def state_diagnostics(stepper: NonlinearStepper, state: KineticState):
    """Pointwise sup norms and profile-normalized ratios at one time."""
    b = stepper.b
    g = stepper.grid
    f_x = np.real(g.to_physical(state.coef, axis=0))
    sup_f = b.weighted_sup_norm(f_x, 3)                    # L^inf_{v,3}
    sup_dvf = b.weighted_sup_norm(apply_v1_derivative(b, f_x), 2)
    phi = poisson_newton(g, f_x @ stepper.mass_w)
    dphi = g.derivative(phi)
    # density time derivative from the continuity relation d_t n = -d_x m1
    m1_x = f_x @ (b.v1 * stepper.mass_w)
    dn_dt = -g.derivative(m1_x)
    phit = field_time_derivative(g, phi, dn_dt)
    prof = diffusive_profile(state.t, g.x, 0.5)
    r_half = (1.0 + state.t) ** (-0.5) * prof
    r_one = (1.0 + state.t) ** (-1.0) * prof
    return {
        "t": state.t,
        "sup_f": float(sup_f.max()),
        "sup_dvf": float(sup_dvf.max()),
        "sup_phi": float(np.abs(phi).max()),
        "sup_dphi": float(np.abs(dphi).max()),
        "sup_phit": float(np.abs(phit).max()),
        "ratio_f": float((sup_f / r_half).max()),
        "ratio_field": float(((np.abs(dphi) + np.abs(phit)) / r_one).max()),
    }


#: steps between two diagnostic samples of decay_study
DECAY_SAMPLE_EVERY = 10


def decay_study(op: CollisionOperator, grid: SpaceGrid, gamma: GammaTensor,
                t_end=60.0, dt=0.1, delta0=1e-3, gamma0=1.0, progress=None):
    """Integrate the full system and collect the pointwise-decay report.

    Diagnostics are sampled every DECAY_SAMPLE_EVERY steps and at t_end;
    progress, if given, is called with each sampled row.

    Returns a dict with the diagnostic time series and fitted exponents of
    the weighted velocity sup norm and of the field gradients over
    t in [10, t_end].
    """
    stepper = NonlinearStepper(op, grid, dt, gamma=gamma, field_terms=True)
    state = initial_state(op, grid, delta0, gamma0)
    rows = [state_diagnostics(stepper, state)]
    nsteps = int(round(t_end / dt))
    for k in range(1, nsteps + 1):
        state = stepper.step(state)
        if k % DECAY_SAMPLE_EVERY == 0 or k == nsteps:
            rows.append(state_diagnostics(stepper, state))
            if progress:
                progress(rows[-1])
    ts = np.array([r["t"] for r in rows])
    sel = ts >= 10.0
    x = np.log1p(ts[sel])
    p_f, _, r2_f = linear_log_fit(x, np.array(
        [r["sup_f"] for r in rows])[sel])
    p_dv, _, r2_dv = linear_log_fit(x, np.array(
        [r["sup_dvf"] for r in rows])[sel])
    p_field, _, r2_field = linear_log_fit(x, np.array(
        [r["sup_dphi"] + r["sup_phit"] for r in rows])[sel])
    slope_q, _, _ = linear_log_fit(x, np.array(
        [r["ratio_f"] for r in rows])[sel])
    return {
        "rows": rows,
        "exponent_f": p_f, "r2_f": r2_f,
        "exponent_dvf": p_dv, "r2_dvf": r2_dv,
        "exponent_field": p_field, "r2_field": r2_field,
        "q_log_slope": slope_q,
    }
