"""Full nonlinear evolution: transport, field coupling, bilinear collisions.

The perturbation system is advanced by a Strang split: the stiff linear
part (collisions, streaming, linear field response) uses exact per-mode
propagators; the quadratic terms (field products, bilinear collision
operator, nonlinear field correction) use an explicit midpoint rule in
physical space.  The bilinear collision operator is a third-order tensor
over the velocity nodes, built once by quadrature on half the output nodes
straight into three parity blocks of the reflection v1 -> -v1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .collision import CollisionOperator, cache_path, load_array, store_array
from .errors import CFLViolation, Instability, MemoryBudget, NoConvergence
from .green import SpaceGrid, linear_log_fit
from .moments import CFL, apply_v1_derivative, solve_field
from .spectral import (SQRT2, _from_pairs, _mirror_pairs, _odd_phase,
                       _pair_matrix, _to_pairs, expm, from_real_form,
                       mode_blocks, on_workers, real_mode_matrices,
                       to_real_form)
# not called here: perfbench/tracer.py wraps mvpb.nonlinear.mode_matrix
from .spectral import mode_matrix  # noqa: F401
from .velocity import VelocityBasis, macro_speeds


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


def _pairwise_column_sums(c):
    """Column sums of c, added in the order of numpy's pairwise sum over a
    contiguous row of len(c) (eight running lanes, a fixed tree, then the
    rest), without numpy's slow reduction along a short axis.  Far from the
    nodes the barycentric terms cancel heavily and the corner rows of Gamma
    amplify their rounding, so this order is part of the tensor's bits."""
    n = len(c)
    if n < 8:
        return c.sum(axis=0)
    full = n - n % 8
    r = c[:full].reshape(full // 8, 8, -1).sum(axis=0)
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for k in range(full, n):
        s += c[k]
    return s


def _bary_terms(nodes, bw, pts):
    """Barycentric terms c[j, q] = bw[j] / (pts[q] - nodes[j]) and their
    column sums s: c / s are the Lagrange cardinal values at pts, one column
    per point.  A point on a node gets the indicator column and s = 1, so it
    stays exact."""
    d = pts[None, :] - nodes[:, None]
    exact = np.abs(d) < 1e-13
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.divide(bw[:, None], d, out=d)
    hit = exact.any(axis=0)
    c[:, hit] = exact[:, hit]
    return c, _pairwise_column_sums(c)


class _TensorInterp:
    """Product barycentric interpolation on the (v1, vr) node grid."""

    def __init__(self, basis: VelocityBasis):
        n1, nr = basis.n1, basis.nr
        self.v1 = basis.v1.reshape(n1, nr)[:, 0]
        self.vr = basis.vr.reshape(n1, nr)[0, :]
        self.b1 = _bary_weights(self.v1)
        self.br = _bary_weights(self.vr)
        self.vmax = basis.vmax

    def factors(self, p1, pr):
        """(a1, ar), (n1, npts) and (nr, npts): a1[a, q] ar[b, q] is the
        cardinal value of node (a, b) at point q, zero outside the box.

        Both normalisations and the box mask sit in the narrow v1 factor,
        so a per-point weight folds into a1 before any product exists.
        """
        inside = (np.abs(p1) <= self.vmax) & (pr <= self.vmax)
        c1, s1 = _bary_terms(self.v1, self.b1,
                             np.clip(p1, -self.vmax, self.vmax))
        cr, sr = _bary_terms(self.vr, self.br, np.clip(pr, 0.0, self.vmax))
        c1 *= inside / (s1 * sr)
        return c1, cr


# ---------------------------------------------------------------------- #
# bilinear collision tensor
# ---------------------------------------------------------------------- #

#: quadrature of the collision integral: midpoint nodes in the azimuth of v*,
#: Gauss nodes in the polar cosine of omega times midpoint nodes in its azimuth
PHI_STAR_NODES, OMEGA_THETA_NODES, OMEGA_PHI_NODES = 16, 12, 24
#: entries of each dense interpolation-row buffer of one output node's
#: chunk: a larger budget raises the peak memory of a threaded build at
#: small n, a smaller one adds per-chunk overhead at large n
GAMMA_CHUNK_ENTRIES = 1 << 18
#: largest n^3 that build_gamma accepts; the blocks it builds hold 3/8 of it
GAMMA_MEMORY_CAP = 512 ** 3


def _gamma_quadrature(basis: VelocityBasis):
    """Quadrature node set over (v*, phi*, omega) shared by both paths.

    v* runs over the basis's own 2-D node set (its quadrature weights
    divided by the azimuthal factor give the (v*1, v*r) measure), phi* is
    a midpoint rule for the azimuth of v*, and omega uses Gauss nodes in
    the polar cosine times a midpoint azimuth.  Each v* is the node
    star_node turned about the v1 axis, so node values are read there,
    not interpolated.

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
    (_gamma_blocks).
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
    star_node = np.repeat(np.arange(basis.n), len(phis))
    vrs = basis.vr[star_node]
    phs = np.tile(phis, basis.n)
    vstar = np.stack([basis.v1[star_node], vrs * np.cos(phs),
                      vrs * np.sin(phs)], axis=1)
    # measure: basis.w includes the sector azimuthal factor 2*pi; the
    # explicit phi* rule over (0, pi), doubled by the mirror, replaces it
    w_star = np.repeat(basis.w / (2.0 * np.pi), len(phis)) \
        * 2.0 * (2.0 * np.pi / PHI_STAR_NODES)
    return {"vstar": vstar, "w_star": w_star, "star_node": star_node,
            "omega": omega, "w_omega": w_omega,
            "interp": _TensorInterp(basis)}


def _chunk_points(n):
    """Quadrature points per chunk: GAMMA_CHUNK_ENTRIES rows of n entries."""
    return max(1, GAMMA_CHUNK_ENTRIES // n)


def _gamma_sweep(basis: VelocityBasis, quad, i):
    """Chunks of the collision quadrature at output node i, in a fixed order.

    Yields (star, cw, fp, fs) for one chunk of the node's (v*, omega)
    points: star is the node of each point's v*, cw its weight
    w |(v - v*).omega| sqrtM(v*), and fp and fs the factors
    (_TensorInterp.factors) of the rows interpolating node values at the
    post-collision velocities v' = v - ((v - v*).omega) omega and
    v'* = v* + ((v - v*).omega) omega.  A chunk holds _chunk_points(n)
    points, so that its dense interpolation rows, which only build_gamma
    forms, fill at most GAMMA_CHUNK_ENTRIES entries; gamma_direct contracts
    the factors one at a time instead.  One output node per call lets
    build_gamma sweep the nodes on separate threads.
    """
    vstar, omega, interp = quad["vstar"], quad["omega"], quad["interp"]
    v = np.array([basis.v1[i], basis.vr[i], 0.0])
    proj = (v[None, :] - vstar) @ omega.T                    # (ns, nom)
    # components of v' and v'*, each (ns, nom); v has no third component
    dv = [proj * omega[:, k] for k in range(3)]
    p1 = (v[0] - dv[0]).ravel()
    pr = np.hypot(v[1] - dv[1], dv[2]).ravel()
    s1 = (vstar[:, :1] + dv[0]).ravel()
    sr = np.hypot(vstar[:, 1:2] + dv[1], vstar[:, 2:] + dv[2]).ravel()
    star_node = quad["star_node"]
    cw = (quad["w_star"][:, None] * quad["w_omega"][None, :] * np.abs(proj)
          * basis.sqrt_maxwell[star_node][:, None]).ravel()
    star = np.repeat(star_node, len(omega))
    step = _chunk_points(basis.n)
    for q0 in range(0, len(cw), step):
        sl = slice(q0, q0 + step)
        yield (star[sl], cw[sl], interp.factors(p1[sl], pr[sl]),
               interp.factors(s1[sl], sr[sl]))


def _gamma_node_rows(basis: VelocityBasis, quad, i):
    """Gain row T[i] (unsymmetrized) and loss row of output node i.

    The chunks are summed in the sweep's order into this call's own
    buffers, so the result does not depend on which thread runs it.  The
    weight cw folds into the v1 factor of v'* before the dense (n, npts)
    interpolation columns are formed, and the loss row is the weights
    summed per node of v*.
    """
    n, n1, nr = basis.n, basis.n1, basis.nr
    Ti = np.zeros((n, n))
    load = np.zeros(n)
    buf_p, buf_s = np.empty((2, n * _chunk_points(n)))
    for star, cw, (p1, pr), (s1, sr) in _gamma_sweep(basis, quad, i):
        m = len(cw)
        Ap = np.multiply(p1[:, None, :], pr[None, :, :],
                         out=buf_p[:n * m].reshape(n1, nr, m))
        As = np.multiply((s1 * cw)[:, None, :], sr[None, :, :],
                         out=buf_s[:n * m].reshape(n1, nr, m))
        Ti += As.reshape(n, m) @ Ap.reshape(n, m).T
        load += np.bincount(star, cw, minlength=n)
    return Ti, load


def _invariant_cleanup(basis: VelocityBasis, arr):
    """Remove the collision-invariant components along the first axis.

    The continuum bilinear operator is orthogonal to the invariants;
    quadrature breaks this at discretization-error level, so the exact
    identity is restored by projection.
    """
    chi = basis.invariants
    load = np.tensordot(chi * basis.w, arr, axes=(1, 0))
    return arr - np.tensordot(chi.T, load, axes=(1, 0))


@dataclass
class GammaTensor:
    """Bilinear collision tensor in the pair basis of the reflection.

    In the pair coordinates of spectral._to_pairs (ne even, no odd) only
    the blocks with an even number of odd indices survive: EEE, EOO, OEO
    and OOE, the last the transpose of OEO in its two input axes.  blocks
    holds EEE, EOO and OEO, ne^3 + 2 ne no^2 entries (3/8 of n^3 for even
    n1), each input-major: X[b, a, c] for output coordinate a and input
    pair (b, c), so that the first argument contracts in one GEMM.
    """

    blocks: tuple               # (ne, ne, ne), (no, ne, no), (ne, no, no)
    perm: np.ndarray            # the reflection v1 -> -v1 of the nodes
    tag: tuple
    build_seconds: float = 0.0  # 0.0 when loaded from the cache
    apply_workers: int = 0      # threads of the latest apply_gamma call

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


def _block_shapes(perm):
    """Shapes of GammaTensor.blocks (EEE, EOO, OEO) for the reflection perm."""
    no = len(_mirror_pairs(perm)[0])
    ne = len(perm) - no
    return (ne, ne, ne), (no, ne, no), (ne, no, no)


def _split_blocks(flat, perm):
    """GammaTensor.blocks as views of flat, which holds them in order."""
    shapes = _block_shapes(perm)
    ends = np.cumsum([np.prod(s) for s in shapes])
    return tuple(p.reshape(s)
                 for p, s in zip(np.split(flat, ends[:-1]), shapes))


def _gamma_blocks(basis: VelocityBasis, flat):
    """The bilinear operator's GammaTensor.blocks, written into flat.

    Node i's row of the node tensor is M = (G + G^T)/2 for its gain row G,
    less half its loss row on row i and on column i.  spectral.on_workers
    (the GEMMs release the GIL) sweeps one node of each mirror pair
    i < P[i], then the nodes P fixes (_mirror_pairs), one per task, so the
    task index is the even output coordinate; each task writes its own
    row's block slices, so the blocks are the same bits on any worker
    count.

    P maps the rule onto itself (_gamma_quadrature), so row Pi is row i
    with P on both inputs: S X S for the row X in pair coordinates, S = +1
    on even and -1 on odd ones.  A pair's even output row (X + S X S)/sqrt2
    is sqrt2 X on EE and OO, its odd one (X - S X S)/sqrt2 is sqrt2 X on
    EO, and a fixed node's row is X.  Every invariant is even or odd in v1,
    so the invariant cleanup is block-diagonal; the equilibrium is even, so
    the rank-one correction touches EEE only.
    """
    perm = basis.reflection
    quad = _gamma_quadrature(basis)
    eee, eoo, oeo = blocks = _split_blocks(flat, perm)
    ne, npair = len(eee), oeo.shape[1]
    E, O = slice(None, ne), slice(ne, None)
    # All square-root-Maxwellian factors reduce in closed form: with
    # F = sqrtM f, G = sqrtM g the gain products carry
    # sqrtM(v') sqrtM(v'*) / sqrtM(v) = sqrtM(v*) by energy conservation
    # (detailed balance), and the loss terms carry the same sqrtM(v*).
    # Only f and g themselves are interpolated, which keeps the tensor
    # entries O(1) and the apply path well conditioned.
    swept = np.concatenate(_mirror_pairs(perm))

    def sweep(a):
        i = swept[a]
        gain, loss = _gamma_node_rows(basis, quad, i)
        M = 0.5 * (gain + gain.T)
        M[:, i] -= 0.5 * loss
        M[i, :] -= 0.5 * loss
        X = _pair_matrix(M, perm)
        if a < npair:
            X *= SQRT2
            oeo[:, a, :] = X[E, O]
        eee[:, a, :], eoo[:, a, :] = X[E, E], X[O, O]

    on_workers(sweep, range(len(swept)))
    # _invariant_cleanup on the output axis: I - chi^T (chi w) in pairs
    chi = _to_pairs(basis.invariants, perm)
    chi_w = _to_pairs(basis.invariants * basis.w, perm)
    for X, s in zip(blocks, (E, E, O)):
        for Xb in X:
            Xb -= chi[:, s].T @ (chi_w[:, s] @ Xb)
    # The Maxwellian pair annihilates the continuum operator; the residual
    # quadrature defect in that single input direction is removed by a
    # rank-one correction (exact at equilibrium, symmetric, and itself
    # invariant-free since the defect vector was already projected).
    e, ew = chi[0, E], chi_w[0, E]
    r = (e @ eee.reshape(ne, -1)).reshape(ne, ne) @ e
    correction = np.outer(r, ew)
    for Xb, wb in zip(eee, ew):
        Xb -= wb * correction
    return blocks


def build_gamma(basis: VelocityBasis, cache_dir=None):
    """Bilinear collision tensor of sector m=0, as parity blocks.

    T[i, j, k] is the coefficient of node i in the operator applied to the
    (j, k) node pair, symmetrized in (j, k) and projected off the
    invariants, kept as the three blocks of GammaTensor (_gamma_blocks).
    With cache_dir, the blocks are stored there, flat and in order, under
    their tag (grid and quadrature sizes, rule version) in a file named by
    the grid alone, and loaded when the file's tag matches; a file with
    another tag (an older quadrature or layout) or a damaged file is
    rebuilt in place.  The quadrature sweep runs on spectral.on_workers
    and gives the same blocks on any thread count; an error in a worker
    propagates from here after the pool has shut down, and no file is
    written.  build_seconds is the build's perf_counter time.
    Raises MemoryBudget when n^3 exceeds GAMMA_MEMORY_CAP.
    """
    if basis.n ** 3 > GAMMA_MEMORY_CAP:
        raise MemoryBudget("gamma tensor would need %d entries (cap %d)"
                           % (basis.n ** 3, GAMMA_MEMORY_CAP))
    # the last entry is the rule version: change it with the quadrature, the
    # nodes or the stored layout
    tag = (basis.n1, basis.nr, basis.vmax, PHI_STAR_NODES,
           OMEGA_THETA_NODES, OMEGA_PHI_NODES, 6)
    perm = basis.reflection
    size = sum(int(np.prod(s)) for s in _block_shapes(perm))
    path = cache_path(cache_dir, "gamma", tag[:3]) if cache_dir else None
    if path:
        flat = load_array(path, tag, (size,))
        if flat is not None:
            return GammaTensor(_split_blocks(flat, perm), perm, tag)

    t_start = time.perf_counter()
    flat = np.empty(size)
    blocks = _gamma_blocks(basis, flat)
    built = time.perf_counter() - t_start
    if path:
        store_array(path, tag, flat)
    return GammaTensor(blocks, perm, tag, built)


#: rows of one apply chunk (see apply_gamma)
GAMMA_APPLY_ROWS = 128
#: block entries ne^3 from which the apply chunks run on worker threads
GAMMA_APPLY_THREAD_ENTRIES = 1 << 17


def _block(X, x, y):
    """sum_{bc} X[b, a, c] x[r, b] y[r, c] for every row r."""
    nb, na, nc = X.shape
    A = (x @ X.reshape(nb, na * nc)).reshape(len(x), na, nc)
    return (A @ y[:, :, None])[:, :, 0]


def _apply_pairs(blocks, cf, cg, out):
    """Pair coordinates of Gamma(f, g), written to out, from those of f and
    g (cg None: g = f)."""
    eee, eoo, oeo = blocks
    ne = len(eee)
    ef, of = cf[:, :ne], cf[:, ne:]
    even, odd = out[:, :ne], out[:, ne:]
    if cg is None:
        np.add(_block(eee, ef, ef), _block(eoo, of, of), out=even)
        np.multiply(_block(oeo, ef, of), 2.0, out=odd)
    else:
        eg, og = cg[:, :ne], cg[:, ne:]
        # the even part averages both argument orders and the odd part sums
        # both cross terms, so Gamma(f, g) and Gamma(g, f) agree exactly
        np.multiply((_block(eee, ef, eg) + _block(eoo, of, og))
                    + (_block(eee, eg, ef) + _block(eoo, og, of)), 0.5,
                    out=even)
        np.add(_block(oeo, ef, og), _block(oeo, eg, of), out=odd)


def apply_gamma(gamma: GammaTensor, f, g):
    """Symmetric bilinear application on (..., n) fields in pair
    coordinates (spectral._to_pairs), returned in them: each parity block
    contracts in one GEMM and one batched mat-vec per row chunk, in place.

    A chunk has GAMMA_APPLY_ROWS rows.  At small n that keeps each block
    GEMM's (rows, ne^2) intermediate in L2; at large n it bounds how often
    a chunk streams the (ne, ne^2) block again.  Measured for 1024 rows on
    one BLAS thread: at n = 32, 128 rows took 0.95 ms against 1.8 ms in
    one chunk; at n = 128, 128 and 256 rows were equally fast and 8 rows
    took twice as long; at n = 288, 128 rows took 0.39 s against 0.48 s
    with 50 rows.  The chunks run on spectral.on_workers (the GEMMs
    release the GIL) only when a block has at least
    GAMMA_APPLY_THREAD_ENTRIES entries: a second thread made the apply
    slower at n = 32 and 72, and took it from 43 to 26 ms at n = 128 and
    from 0.39 to 0.22 s at n = 288.  The chunks depend on the shapes
    alone, so the result is the same bits on any worker count; the count
    used goes to gamma.apply_workers.

    Gamma(f, g) and Gamma(g, f) agree exactly in floating point.
    """
    same = f is g
    f, g = np.asarray(f), np.asarray(g)
    shape = np.broadcast_shapes(f.shape, g.shape)
    cf = np.broadcast_to(f, shape).reshape(-1, shape[-1])
    cg = None if same else np.broadcast_to(g, shape).reshape(-1, shape[-1])
    out = np.empty(cf.shape, dtype=np.result_type(f, g, float))

    def chunk(sl):
        _apply_pairs(gamma.blocks, cf[sl], None if same else cg[sl], out[sl])

    chunks = [slice(a, a + GAMMA_APPLY_ROWS)
              for a in range(0, len(out), GAMMA_APPLY_ROWS)]
    if len(gamma.blocks[0]) ** 3 >= GAMMA_APPLY_THREAD_ENTRIES:
        gamma.apply_workers = on_workers(chunk, chunks)
    else:
        for sl in chunks:
            chunk(sl)
        gamma.apply_workers = 1
    return out.reshape(shape)


def _interp_apply(factors, X):
    """Interpolated node fields at a chunk's points, (npts, k), from the
    chunk's factors (a1, ar) and X, the fields as an (n1, nr * k) array.

    Contracts a1 first, then ar, and never forms the dense (npts, n) rows.
    """
    a1, ar = factors
    Y = (a1.T @ X).reshape(a1.shape[1], len(ar), -1)
    return np.einsum("bq,qbk->qk", ar, Y)


def gamma_direct(basis: VelocityBasis, f, g):
    """Direct quadrature of the bilinear operator, bypassing the tensor.

    Independent evaluation path over the same quadrature sweep as
    build_gamma: interpolates the node profiles at the post-collision
    points one factor at a time (_interp_apply), sums the quadrature with
    the closed-form sqrt-Maxwellian factor, removes the invariant
    components, and applies the same equilibrium-direction defect
    correction as the tensor build.  Accepts stacked pairs (m, n) and
    evaluates them in one serial sweep over every output node.
    """
    quad = _gamma_quadrature(basis)
    single = np.asarray(f).ndim == 1
    # append the equilibrium pair to measure the quadrature defect
    e = basis.invariants[0]
    P = np.vstack([np.atleast_2d(f), e]).T               # (n, m+1)
    Q = np.vstack([np.atleast_2d(g), e]).T
    k = P.shape[1]
    PQ = np.hstack([P, Q]).reshape(basis.n1, -1)         # (n1, nr * 2k)
    acc = np.zeros((basis.n, k))
    for i in range(basis.n):
        for star, cw, fp, fs in _gamma_sweep(basis, quad, i):
            xp, xs = _interp_apply(fp, PQ), _interp_apply(fs, PQ)
            bracket = (xs[:, :k] * xp[:, k:] + xp[:, :k] * xs[:, k:]
                       - P[star] * Q[i][None, :]
                       - P[i][None, :] * Q[star])
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
    Since x_k = solve_field(s_{k-1}), the residual (I - d_xx) x_k + s_k is
    s_k - s_{k-1} (s_{-1} = 0), read without transforming x.  Returns the
    first iterate whose sup-norm residual is <= FIELD_TOL; raises
    NoConvergence on a non-finite residual or after FIELD_MAXIT sweeps.
    """
    x = np.zeros(grid.nx)
    s_prev = 0.0
    for sweeps in range(FIELD_MAXIT + 1):
        s = source(x)
        r = np.abs(s - s_prev).max()
        if r <= FIELD_TOL:
            return x
        if sweeps == FIELD_MAXIT or not np.isfinite(r):
            raise NoConvergence("field residual %.2e after %d sweeps"
                                % (r, sweeps))
        x = solve_field(grid, s)
        s_prev = s


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
    """Sector-0 perturbation in mixed representation (frequency x nodes),
    held in R(eta)'s coordinates (spectral.to_real_form with perm)."""

    real_coef: np.ndarray       # (nh, n) complex, non-negative modes
    perm: np.ndarray
    t: float

    @property
    def coef(self):
        """(nh, n) complex node coefficients, derived when read."""
        return from_real_form(self.real_coef, self.perm, axis=1)


class NonlinearStepper:
    """Strang-split integrator for the perturbation system.

    Half-steps of the exact linear propagator (collisions, streaming,
    linearized field response) sandwich an explicit midpoint step of the
    quadratic terms: the field products, the collision bilinear form, and
    the beyond-linear part of the field equation.  The field is solved
    only where it is read: in the quadratic step when field_terms is on.

    The state stays in R(eta)'s coordinates.  A half-step is one batched
    real GEMM of props, exp(R dt/2) per mode (built by blocks of modes on
    eig_workers() threads, the same bits on any worker count), on a float
    view of the complex coefficients.  A quadratic stage maps the state to
    the field's pair coordinates by one multiply by (-1)^k (x) D and one
    irfft, solves the field once (poisson_newton), takes d_x phi and the
    beyond-linear gradient from one stacked rfft/irfft pair, applies
    1/2 v1 f d_x phi - d_x phi d_v1 f as one GEMM and Gamma through
    apply_gamma, and maps back by one rfft and one multiply.  mass_w and
    dv1 act on node vectors (state_diagnostics).
    """

    def __init__(self, op: CollisionOperator, grid: SpaceGrid, dt,
                 gamma: GammaTensor = None, field_terms=True):
        self.grid = grid
        self.dt = float(dt)
        self.gamma = gamma
        self.field_terms = field_terms
        self.b = b = op.basis
        perm = b.reflection
        self.mass_w = b.invariants[0] * b.w
        self._dv_min = np.min(np.diff(np.unique(np.round(b.v1, 12))))
        #: d/dv1 on node rows: f @ dv1 == apply_v1_derivative(b, f)
        self.dv1 = apply_v1_derivative(b, np.eye(b.n))
        # in pair coordinates; f @ advect is 1/2 v1 f - d/dv1 f on rows
        self._mass_w = _to_pairs(self.mass_w, perm)
        self._v1chi0 = _to_pairs(b.v1 * b.invariants[0], perm)
        self._advect = _pair_matrix(0.5 * np.diag(b.v1) - self.dv1, perm)
        # (-1)^k (x) D: SpaceGrid's sign on mode k, then D
        self._phase = np.outer(grid._sign, _odd_phase(perm))
        # symbols of d_x and of d_x (I - d_xx)^{-1}
        self._ddx = 1j * grid.eta
        self._ddx_lin = self._ddx / (1.0 + grid.eta ** 2)
        # real half-step propagators exp(R dt/2), by mode blocks on the pool
        self.props = np.empty((grid.nh, b.n, b.n))

        def block(modes):
            self.props[modes] = expm(
                real_mode_matrices(op, grid.eta[modes]) * (self.dt / 2.0))

        on_workers(block, mode_blocks(np.arange(grid.nh), b.n))

    # -------------------------------------------------------------- #

    def _half_linear(self, y):
        """props per mode on R-coordinate y, one GEMM on its float view."""
        nh, n = y.shape
        out = np.empty_like(y)
        np.matmul(self.props, y.view(np.float64).reshape(nh, n, 2),
                  out=out.view(np.float64).reshape(nh, n, 2))
        return out

    def _quadratic_rhs(self, y):
        """R-coordinate rhs of y; f_x is the real field in pair coordinates."""
        g = self.grid
        f_x = np.fft.irfft(y * self._phase, n=g.nx, axis=0, norm="forward")
        rhs = np.zeros_like(f_x)
        if self.field_terms:
            n_x = f_x @ self._mass_w
            phi = poisson_newton(g, n_x)
            # d_x phi, and d_x (phi - solve_field(n)), the beyond-linear
            # part of the field source (the linear response is inside the
            # propagator), from one transform of [phi, n] each way
            phat, nhat = np.fft.rfft(np.stack([phi, n_x]), axis=1)
            dphat = self._ddx * phat
            dphi, dphi_nl = np.fft.irfft(
                np.stack([dphat, dphat + self._ddx_lin * nhat]), n=g.nx,
                axis=1)
            rhs += dphi[:, None] * (f_x @ self._advect)
            rhs += dphi_nl[:, None] * self._v1chi0[None, :]
            cfl_speed = np.abs(dphi).max()
            if self.dt * cfl_speed > CFL * self._dv_min:
                raise CFLViolation(
                    "field advection dt*|dphi|=%.2e exceeds %.2e"
                    % (self.dt * cfl_speed, CFL * self._dv_min))
        if self.gamma is not None:
            rhs += apply_gamma(self.gamma, f_x, f_x)
        return np.fft.rfft(rhs, axis=0, norm="forward") * self._phase.conj()

    def step(self, state: KineticState):
        y = self._half_linear(state.real_coef)
        if self.field_terms or self.gamma is not None:
            r1 = self._quadratic_rhs(y)
            mid = y + 0.5 * self.dt * r1
            r2 = self._quadratic_rhs(mid)
            y = y + self.dt * r2
        y = self._half_linear(y)
        if not np.isfinite(np.abs(y).max()):
            raise Instability("non-finite state at t=%g" % (state.t + self.dt))
        return KineticState(y, state.perm, state.t + self.dt)


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
    perm = op.basis.reflection
    return KineticState(to_real_form(grid.to_coefficients(f_x, axis=0),
                                     perm, axis=1), perm, 0.0)


def state_diagnostics(stepper: NonlinearStepper, state: KineticState):
    """Pointwise sup norms and profile-normalized ratios at one time."""
    b = stepper.b
    g = stepper.grid
    f_x = g.to_physical(state.coef, axis=0)
    sup_f = b.weighted_sup_norm(f_x, 3)                    # L^inf_{v,3}
    sup_dvf = b.weighted_sup_norm(f_x @ stepper.dv1, 2)
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
                t_end=60.0, dt=0.1, delta0=1e-3, gamma0=1.0):
    """Integrate the full system and collect the pointwise-decay report.

    Diagnostics are sampled every DECAY_SAMPLE_EVERY steps and at t_end.

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
