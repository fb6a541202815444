"""Frequency-domain analysis of the linearized system.

For each spatial frequency eta the linearized evolution in Fourier
variables is generated by

    B(eta) = L - i eta v1 - (i eta / (1 + eta^2)) v1 P_mass,

acting per azimuthal sector (the field coupling P_mass is present only in
sector 0).

B(eta) has a reflection symmetry.  The reflection P: v1 -> -v1 maps the
velocity nodes and weights onto themselves exactly; it commutes with L (to
round-off, see real_mode_matrices), anticommutes with v1, and leaves chi0
even.  In its orthonormal pair basis Q (_to_pairs), the one basis of the
package, L is block diagonal and the eta-terms block off-diagonal, so
R(eta) = D* Q^T B(eta) Q D is real for D = 1 on even and i on odd
coordinates.  The branch eigensolves, the spectral-gap and zero-mode
scans, the semigroup split, green.green_action and the nonlinear stepper
run on R in real arithmetic, with vectors mapped through Q D at O(n)
cost; the collision tensor (nonlinear.build_gamma) is stored in Q's
coordinates.  This module provides

* the pair basis; dense assembly of B(eta), and of R for a block of etas;
* the matrix exponential (numpy Pade-13, one matrix or a stack) and the
  propagator exp(t B(eta)) X at a set of sample times, from one matrix
  exponential on the lattice of those times, with the blocks of modes
  that green.green_action and the nonlinear stepper propagate on
  eig_workers() threads;
* continuation of the low-frequency eigenvalue branches (two acoustic,
  one thermal in sector 0; one doubly-degenerate shear in sector 1) with
  bilinear eta-pairing normalization, its eigensolves run eig_workers()
  at a time on threads;
* the macroscopic long-wave flux matrix (its closed-form eigenvalues and
  eigenvectors, macro_speeds and macro_eigenvectors, live in velocity);
* scalar dispersion functions whose roots reproduce the branches through
  a macro/micro reduction (independent of the dense eigensolve);
* the split of the semigroup exp(t B(eta)) into its fluid rank-five part
  and the exponentially damped remainder.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import scipy.linalg

from .collision import CollisionOperator, branch_mixing
from .errors import BranchSwap, IllConditioned, NoConvergence
from .velocity import macro_eigenvectors, macro_speeds

SQRT2 = np.sqrt(2.0)
#: smallest eigenvector overlap accepted as the same branch between steps
BRANCH_OVERLAP_MIN = 0.9
#: the branch fit uses eta up to this fraction of the continued range
#: (and at least the first five frequencies)
BRANCH_FIT_FRACTION = 0.25


# ---------------------------------------------------------------------- #
# operator assembly
# ---------------------------------------------------------------------- #

def mode_matrix(op: CollisionOperator, eta):
    """Dense matrix of B(eta) for the operator's sector."""
    b = op.basis
    B = op.Lmat.astype(complex) - 1j * eta * np.diag(b.v1).astype(complex)
    if b.sector == 0:
        chi0 = b.invariants[0]
        B -= (1j * eta / (1.0 + eta ** 2)) * np.outer(b.v1 * chi0, chi0 * b.w)
    return B


def _mirror_pairs(perm):
    """(lo, fix): node i of each mirror pair i < P[i], and nodes with P[i] = i."""
    idx = np.arange(len(perm))
    return idx[idx < perm], idx[idx == perm]


def _to_pairs(x, perm, axis=-1):
    """Q^T x along axis: [even | odd] coordinates, e = (x_i + x_Pi)/sqrt2
    for each pair i < P[i], then e = x_i for each node with P[i] = i, then
    o = (x_i - x_Pi)/sqrt2 for each pair."""
    lo, fix = _mirror_pairs(perm)
    a = np.take(x, lo, axis=axis)
    b = np.take(x, perm[lo], axis=axis)
    return np.concatenate([(a + b) / SQRT2, np.take(x, fix, axis=axis),
                           (a - b) / SQRT2], axis=axis)


def _from_pairs(c, perm, axis=-1):
    """Q c along axis: node vectors from their pair coordinates."""
    lo, fix = _mirror_pairs(perm)
    npair, ne = len(lo), len(lo) + len(fix)
    out = np.empty_like(c)
    src, dst = np.moveaxis(c, axis, 0), np.moveaxis(out, axis, 0)
    dst[lo] = (src[:npair] + src[ne:]) / SQRT2
    dst[perm[lo]] = (src[:npair] - src[ne:]) / SQRT2
    dst[fix] = src[npair:ne]
    return out


def _odd_phase(perm):
    """The diagonal of D: 1 on the even pair coordinates, i on the odd."""
    d = np.ones(len(perm), dtype=complex)
    d[len(perm) - len(_mirror_pairs(perm)[0]):] = 1j
    return d


def _pair_matrix(X, perm):
    """Q^T X Q for an (n, n) matrix or a stack (..., n, n)."""
    return _to_pairs(_to_pairs(X, perm, -2), perm, -1)


def _with_coupling(R, im, perm):
    """R, in place, with the EO and OE blocks -(Q^T im Q)_EO, (Q^T im Q)_OE."""
    I = _pair_matrix(im, perm)
    ne = len(perm) - len(_mirror_pairs(perm)[0])
    R[..., :ne, ne:] = -I[..., :ne, ne:]
    R[..., ne:, :ne] = I[..., ne:, :ne]
    return R


def real_form(B, perm):
    """R = D* Q^T B Q D for conj(B) = P B P, whose Q^T B Q has a block
    diagonal real and block off-diagonal imaginary part up to round-off.
    The branch continuation forms R from mode_matrix, which
    perfbench/tracer.py counts; real_mode_matrices gives the same bits."""
    return _with_coupling(_pair_matrix(B.real, perm), B.imag, perm)


def real_mode_matrices(op: CollisionOperator, etas):
    """Real forms R(eta), shape (len(etas), n, n), the same bits as
    real_form(mode_matrix(op, eta)).  Their EE and OO blocks are L's,
    op.Lmat_pairs (L commutes with P to ~2e-15 of max |L|, as its row sums
    and invariants are formed in node order); the imaginary part of B,
    -eta diag(v1) less (eta/(1 + eta^2)) v1 chi0 (x) chi0 w in sector 0,
    gives the EO and OE blocks: real, linear in eta, plus the field term.
    """
    b = op.basis
    etas = np.asarray(etas, dtype=float)
    im = np.zeros((len(etas), b.n, b.n))
    if b.sector == 0:
        # Im of mode_matrix's scalar 1j eta / (1 + eta^2), the same bits
        im -= (etas / (1.0 + etas ** 2))[:, None, None] * np.outer(
            b.v1 * b.invariants[0], b.invariants[0] * b.w)
    diag = np.arange(b.n)
    im[:, diag, diag] -= etas[:, None] * b.v1
    R = np.repeat(op.Lmat_pairs[None], len(etas), axis=0)
    return _with_coupling(R, im, b.reflection)


def to_real_form(X, perm, axis=0):
    """D* Q^T X for velocity vectors along axis: into the coordinates of R."""
    c = np.moveaxis(_to_pairs(X, perm, axis), axis, -1)
    return np.moveaxis(c * _odd_phase(perm).conj(), -1, axis)


def from_real_form(Y, perm, axis=0):
    """Q D Y for velocity vectors along axis: back from the coordinates of R."""
    c = np.moveaxis(np.moveaxis(Y, axis, -1) * _odd_phase(perm), -1, axis)
    return _from_pairs(c, perm, axis)


# ---------------------------------------------------------------------- #
# per-frequency propagator
# ---------------------------------------------------------------------- #

#: numerator coefficients b_0..b_13 of the [13/13] Pade approximant of exp,
#: and the 1-norm up to which it needs no scaling (scipy.linalg's
#: _expm_frechet: the coefficients and ell_table_61[13])
PADE13 = (64764752532480000., 32382376266240000., 7771770303897600.,
          1187353796428800., 129060195264000., 10559470521600.,
          670442572800., 33522128640., 1323241920., 40840800., 960960.,
          16380., 182., 1.)
THETA13 = 4.74


def expm(A):
    """exp(A) for one (n, n) matrix or a stack (..., n, n), real or complex.

    Scaling and squaring with the [13/13] Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26 (2005) 1179-1193): each matrix is scaled by
    its own 2^-s, s = max(0, ceil(log2(||A||_1 / THETA13))), and its
    approximant is squared s times; a zero matrix gives exactly I.  Only
    numpy matmul and linalg.solve, which release the GIL, so calls on
    several threads run at once.  Both call BLAS/LAPACK once per matrix of
    a stack, so a matrix gives the same bits alone or in any stack.
    """
    A = np.asarray(A)
    shape = A.shape
    n = shape[-1]
    A = A.reshape(-1, n, n)
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm / THETA13, 1.0))).astype(int)
    A = A * np.exp2(-s)[:, None, None]
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    eye = np.eye(n)

    def pade_part(k):
        # A^6 (b12 A^6 + b10 A^4 + b8 A^2) + b6 A^6 + b4 A^4 + b2 A^2 + b0 I
        # with each b_j read as b_(j+k): k = 0 gives V, k = 1 U / A.  The
        # sums run left to right in place, so few (n, n) temporaries live.
        b = PADE13[k:]
        X = b[12] * A6
        X += b[10] * A4
        X += b[8] * A2
        X = A6 @ X
        X += b[6] * A6
        X += b[4] * A4
        X += b[2] * A2
        X += b[0] * eye
        return X

    U = A @ pade_part(1)
    del A
    V = pade_part(0)
    del A2, A4, A6
    Q = V - U
    V += U
    del U
    R = np.linalg.solve(Q, V)
    R[norm == 0.0] = eye          # LAPACK divides by the pivot b_0 inexactly
    for j in range(int(s.max(initial=0))):
        sq = s > j
        R[sq] = R[sq] @ R[sq]
    return R.reshape(shape)


LATTICE_RTOL = 1e-9


def lattice_step(ts):
    """Largest h such that every t in ts is an integer multiple of h.

    Euclid's algorithm on floats: a remainder within LATTICE_RTOL * max(ts)
    of zero or of the divisor counts as exact division.  Returns 0.0 when
    all times are zero.
    """
    ts = np.asarray(ts, dtype=float)
    tol = LATTICE_RTOL * float(ts.max(initial=0.0))
    h = 0.0
    for t in ts:
        a, b = float(t), h
        while b > tol:
            r = math.fmod(a, b)
            a, b = b, (0.0 if r <= tol or b - r <= tol else r)
        h = a
    return h


def propagate(B, X, ts):
    """exp(t B) X for every t in ts, shape (len(ts),) + X.shape.

    B is one (n, n) matrix with X of shape (n,) or (n, m), or a stack
    (..., n, n) with X of shape (..., n, m).  The sample times are placed
    on the lattice t = k h of the largest base step h that divides all of
    them (lattice_step); exp(h B) is formed once (expm) and X is marched
    through the lattice with mat-vecs.  When that lattice needs more than
    n steps, which cost about one expm, the march instead takes one expm
    per distinct gap between the sorted times.  A real B with complex X
    marches the real and imaginary parts of X as real columns.
    """
    ts = np.asarray(ts, dtype=float)
    X = np.asarray(X)
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise ValueError("sample times must be finite and non-negative")
    if np.isrealobj(B) and np.iscomplexobj(X):
        parts = np.stack([X.real, X.imag], axis=-1)
        parts = parts.reshape(X.shape[:B.ndim - 1] + (-1,))
        Y = propagate(B, parts, ts).reshape((len(ts),) + X.shape + (2,))
        return Y[..., 0] + 1j * Y[..., 1]
    out = np.empty((len(ts),) + X.shape, dtype=np.result_type(B, X))
    out[:] = X
    t_max = float(ts.max(initial=0.0))
    if t_max == 0.0:
        return out
    h = lattice_step(ts)
    steps = np.rint(ts / h)
    on_lattice = np.abs(ts - steps * h).max() <= LATTICE_RTOL * t_max
    if on_lattice and steps.max() <= B.shape[-1]:
        E = expm(B * (t_max / steps.max()))
        done, Y = 0, X
        for k in np.unique(steps[steps > 0]):
            for _ in range(int(k) - done):
                Y = E @ Y
            done = int(k)
            out[steps == k] = Y
        return out
    gaps = {}
    t_prev, Y = 0.0, X
    for t in np.unique(ts[ts > 0]):
        gap = t - t_prev
        if gap not in gaps:
            gaps[gap] = expm(B * gap)
        Y = gaps[gap] @ Y
        t_prev = t
        out[ts == t] = Y
    return out


#: matrix entries per block of modes that green.green_action and the
#: nonlinear stepper assemble and exponentiate at once: max(1, this // n^2)
#: modes (mode_blocks)
PROPAGATOR_BLOCK_ENTRIES = 2 ** 15


def mode_blocks(modes, n):
    """modes (an index array) in consecutive blocks of
    max(1, PROPAGATOR_BLOCK_ENTRIES // n^2): 32 modes at n = 32, 2 at
    n = 128 and 1 at n = 288.

    Stacking amortises the per-task and per-call overhead at small n; a
    larger block buys little more time and costs memory, as each worker
    holds about six arrays of the block's size inside expm.  Measured
    on 2 CPUs, 1 BLAS thread, 2 workers, best of 2 in each of 3 rounds,
    in ms for this constant at 2^15, at 1 (one mode per task) and at
    2^16:

        green_action, n = 128, nx = 256, 4 times:  179-183, 214-221, 166-178
        stepper props, n = 32, nx = 1024:          21-26, 96-181, 22-23
        stepper props, n = 128, nx = 256:          123-128, 136-145, 121-123

    SciPy's expm on the calling thread took 297-309, 46-49 and 205-211 ms
    for the same three.  The peak RSS of one pass of the green, waves and
    nsp-compare studies at n = 128 (nx = 256) was 73.6-73.7 MB at 2^15
    and 77.1-77.3 MB at 2^16, against 74.3-74.4 MB with SciPy's expm.
    """
    size = max(1, PROPAGATOR_BLOCK_ENTRIES // n ** 2)
    return [modes[a:a + size] for a in range(0, len(modes), size)]


def on_workers(task, blocks):
    """task(block) for every block, on eig_workers() threads.

    The tasks write their own slices of shared arrays, so the result does
    not depend on the thread count.  The first error a task raises is
    raised here, and the pool is shut down before returning.  Returns the
    thread count used.
    """
    workers = max(1, min(eig_workers(), len(blocks)))
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(task, blocks))
    return workers


# ---------------------------------------------------------------------- #
# macroscopic long-wave flux
# ---------------------------------------------------------------------- #

def macro_flux_matrix(eta):
    """5x5 long-wave flux in the invariant basis (mass, mom_x, mom_2, mom_3, energy).

    Entries are the pairings of v1 against the invariants plus the field
    coupling acting on the mass direction.
    """
    s = 1.0 / (1.0 + eta ** 2)
    c = np.sqrt(2.0 / 3.0)
    A = np.zeros((5, 5))
    A[0, 1] = 1.0
    A[1, 0] = 1.0 + s
    A[1, 4] = c
    A[4, 1] = c
    return A


# ---------------------------------------------------------------------- #
# dense eigensolves
# ---------------------------------------------------------------------- #

#: environment variables BLAS takes its thread count from, first one first
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def blas_threads():
    """BLAS thread count: the first of BLAS_THREAD_VARS holding a positive
    integer, or None when none does."""
    for var in BLAS_THREAD_VARS:
        try:
            k = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if k > 0:
            return k
    return None


def eig_workers():
    """Threads for concurrent BLAS-bound work: usable CPUs // BLAS threads,
    >= 1: the pool size of the branch eigensolves and of on_workers.

    Without a BLAS thread count BLAS uses every CPU (the OpenBLAS default),
    so one worker: more would oversubscribe the CPUs.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    k = blas_threads()
    return max(1, cpus // (cpus if k is None else k))


def _eig(B):
    """Eigenvalues and right eigenvectors of a dense matrix, as complex arrays.

    numpy's LAPACK gufunc releases the GIL, so solves on several threads
    run at once; it returns real arrays when every eigenvalue is real.
    """
    w, V = np.linalg.eig(B)
    return w.astype(complex, copy=False), V.astype(complex, copy=False)


# ---------------------------------------------------------------------- #
# eigenvalue branches
# ---------------------------------------------------------------------- #

@dataclass
class BranchSet:
    """Low-frequency eigenvalue branches of one sector."""
    sector: int
    etas: np.ndarray            # (ne,)
    lam: np.ndarray             # (nb, ne) complex eigenvalues
    psi: np.ndarray             # (nb, ne, n) normalized eigenvectors
    beta: np.ndarray = field(default=None)   # fitted wave speeds
    damping: np.ndarray = field(default=None)  # fitted quadratic decay rates
    labels: np.ndarray = field(default=None)  # branch labels by measured speed
    r0_hat: float = None


def _normalize_bilinear(basis, psi, eta):
    """Bilinear eta-normalization with deterministic sign.

    (psi, psi)_eta = 1 up to the residual sign freedom, fixed by making the
    invariant component of largest magnitude have positive real part.
    """
    c = basis.inner_eta(psi, psi, eta)
    if abs(c) < 1e-14:
        raise IllConditioned("bilinear eta-norm of eigenvector vanished")
    psi = psi / np.sqrt(c)
    coef = basis.inner(psi, basis.invariants)
    lead = coef[np.argmax(np.abs(coef))]
    if np.real(lead) < 0:
        psi = -psi
    return psi


def eigen_branches(op: CollisionOperator, eta_max=0.5, steps=33):
    """Continue the fluid branches on a uniform grid up to eta_max."""
    return eigen_branches_at(op, np.linspace(0.0, eta_max, steps))


def eigen_branches_at(op: CollisionOperator, etas):
    """Continue the fluid eigenvalue branches of one sector from eta = 0.

    Eigenvalues with real part above -op.micro_gap()/2 are classified as
    fluid; branches are matched step to step by eigenvector overlap and
    normalized in the bilinear eta-pairing.  The continuation stops
    (recording r0_hat) when the fluid count changes or the overlap drops.

    The matrices are built here, in eta order, and only their eigensolves
    go to a pool of eig_workers() threads, at most that many in flight;
    the matching consumes them in eta order.  Solves still pending when
    the continuation stops are cancelled, and the pool is shut down
    before returning.  This lazily fed pool is not on_workers: it holds
    at most eig_workers() matrices at once, and chunked on_workers solves
    were about 5 % slower on the default grid.
    """
    b = op.basis
    mu_hat = op.micro_gap()
    nb = 3 if b.sector == 0 else 1
    etas = np.asarray(etas, dtype=float)
    if etas[0] != 0.0:
        raise ValueError("branch continuation must start at eta = 0")
    # Certification threshold: overlap matching is empirically robust even
    # at coarse steps, so coarseness is surfaced explicitly rather than
    # waiting for an organic mismatch.  Labels are only certified when the
    # continuation resolves the branch curvature.
    if len(etas) > 1 and float(np.max(np.diff(etas))) > 0.05 + 1e-12:
        raise BranchSwap(
            "frequency step %.4f too coarse to certify branch identity "
            "(need <= 0.05)" % float(np.max(np.diff(etas))))
    steps = len(etas)
    eta_max = etas[-1]
    lam = np.zeros((nb, steps), dtype=complex)
    psi = np.zeros((nb, steps, b.n), dtype=complex)
    psi[:, 0, :] = macro_eigenvectors(b, 0.0)
    for j in range(nb):
        psi[j, 0] = _normalize_bilinear(b, psi[j, 0], 0.0)

    r0_hat = eta_max
    last = steps
    prev = psi[:, 0, :]
    workers = eig_workers()
    matrices = (real_form(mode_matrix(op, eta), b.reflection)
                for eta in etas[1:])
    with ThreadPoolExecutor(workers) as pool:
        solves = deque(pool.submit(_eig, B) for B in islice(matrices, workers))
        try:
            for i in range(1, steps):
                eta = etas[i]
                w, Vr = solves.popleft().result()
                solves.extend(pool.submit(_eig, B)
                              for B in islice(matrices, 1))
                fluid = np.where(w.real > -mu_hat / 2.0)[0]
                if len(fluid) != nb:
                    r0_hat = etas[i - 1]
                    last = i
                    break
                Vf = from_real_form(Vr[:, fluid], b.reflection)
                # conjugating overlap in the plain weighted pairing
                ov = np.abs(np.conj(prev) * b.w @ Vf)
                ov /= np.outer(b.norm(prev), b.norm(Vf.T))
                assign = np.argmax(ov, axis=1)
                if (len(set(assign.tolist())) != nb
                        or np.any(ov[np.arange(nb), assign]
                                  < BRANCH_OVERLAP_MIN)):
                    raise BranchSwap(
                        f"sector {b.sector}: ambiguous branch match at "
                        f"eta={eta:.4f} "
                        f"(overlaps {ov[np.arange(nb), assign]})")
                for j in range(nb):
                    lam[j, i] = w[fluid[assign[j]]]
                    psi[j, i] = _normalize_bilinear(b, Vf[:, assign[j]], eta)
                prev = psi[:, i, :]
        finally:
            for solve in solves:
                solve.cancel()

    bs = BranchSet(sector=b.sector, etas=etas[:last], lam=lam[:, :last],
                   psi=psi[:, :last], r0_hat=r0_hat)
    _fit_branches(bs)
    return bs


def _fit_branches(bs: BranchSet):
    """Fit lam(eta) = -i beta eta - a eta^2 (+ higher) on the low range."""
    sel = bs.etas <= max(bs.etas[-1] * BRANCH_FIT_FRACTION,
                         bs.etas[min(4, len(bs.etas) - 1)])
    x = bs.etas[sel]
    nb = bs.lam.shape[0]
    beta = np.zeros(nb)
    damping = np.zeros(nb)
    for j in range(nb):
        im = np.imag(bs.lam[j, sel])
        re = np.real(bs.lam[j, sel])
        # odd fit for the phase speed, even fit for the damping
        Ao = np.stack([x, x ** 3], axis=1)
        co, *_ = np.linalg.lstsq(Ao, im, rcond=None)
        beta[j] = -co[0] + 0.0          # + 0.0: an exact zero is +0.0
        Ae = np.stack([x ** 2, x ** 4], axis=1)
        ce, *_ = np.linalg.lstsq(Ae, re, rcond=None)
        damping[j] = -ce[0] + 0.0
    bs.beta = beta
    bs.damping = damping
    if bs.sector == 0:
        order = np.argsort(beta)         # -c, 0, +c
        bs.labels = np.empty(nb, dtype=int)
        bs.labels[order] = [-1, 0, 1]
    else:
        bs.labels = np.array([2])
    return bs


def branch_by_label(bs: BranchSet, label):
    return int(np.where(bs.labels == label)[0][0])


# ---------------------------------------------------------------------- #
# spectral gap scan
# ---------------------------------------------------------------------- #

def spectral_gap_scan(ops, etas=None):
    """max Re of the spectrum of B(eta) per sampled eta (all sectors combined)."""
    if etas is None:
        etas = np.linspace(0.0, 10.0, 41)
    etas = np.asarray(etas, dtype=float)
    out = np.full(etas.shape, -np.inf)
    for op in ops:
        for i, eta in enumerate(etas):
            w = scipy.linalg.eigvals(real_mode_matrices(op, [eta])[0])
            out[i] = max(out[i], float(w.real.max()))
    return etas, out


def zero_mode_count(ops, tol=1e-6):
    """Eigenvalues of B(0) within tol of zero, counted with shear multiplicity 2."""
    count = 0
    for op in ops:
        w = scipy.linalg.eigvals(real_mode_matrices(op, [0.0])[0])
        c = int(np.sum(np.abs(w) < tol))
        count += 2 * c if op.basis.sector == 1 else c
    return count


# ---------------------------------------------------------------------- #
# dispersion functions
# ---------------------------------------------------------------------- #

class MicroResolvent:
    """Micro-space resolvent pairings at fixed eta.

    In the operator's micro eigenbasis (op.micro_spectrum) the restriction
    of L - i eta v1 to the micro subspace is C = diag(lam) - i eta Vm with
    Vm = (Q w)^T (v1 Q), a complex symmetric matrix.  Every pairing

        R(sigma) = ((L + i eta sigma - i eta P1 v1)^{-1} P1 v1 E_src, v1 E_tst)

    and its sigma-derivative come from one symmetric solve per sigma.
    """

    def __init__(self, op: CollisionOperator, eta, sources, tests):
        b = op.basis
        self.eta = float(eta)
        lam, Q = op.micro_spectrum()
        Qw = Q * b.w[:, None]
        self.C = np.diag(lam) - 1j * eta * (Qw.T @ (b.v1[:, None] * Q))
        self.src = Qw.T @ (b.v1 * np.asarray(sources)).T      # (nm, ns)
        self.tst = Qw.T @ (b.v1 * np.asarray(tests)).T

    def eval(self, sigma):
        """R[k, j](sigma) for source k, test j, with d/dsigma.

        With A = C + i eta sigma = A^T and Y = A^{-1} [src | tst]:
        R = Y_src^T tst and dR = -i eta Y_src^T Y_tst.  A singular A raises
        LinAlgError.
        """
        ns = self.src.shape[1]
        A = self.C + 1j * self.eta * sigma * np.eye(len(self.C))
        Y = scipy.linalg.solve(A, np.hstack([self.src, self.tst]),
                               assume_a="sym")
        Ys, Yt = Y[:, :ns], Y[:, ns:]
        return Ys.T @ self.tst, -1j * self.eta * (Ys.T @ Yt)


def dispersion_shear(op1: CollisionOperator, eta):
    """Scalar dispersion function D0(sigma) = sigma - i eta R_shear(sigma) for sector 1."""
    e = op1.basis.invariants
    res = MicroResolvent(op1, eta, e, e)

    def fn(sigma):
        R, dR = res.eval(sigma)
        return sigma - 1j * eta * R[0, 0], 1.0 - 1j * eta * dR[0, 0]
    return fn


def dispersion_acoustic(op0: CollisionOperator, eta):
    """3x3 determinant dispersion function for the sector-0 branches.

    D1(sigma) = det[(sigma - u_k) delta_kj - i eta R_jk], with u the
    closed-form long-wave speeds and R the micro resolvent pairings.
    """
    b = op0.basis
    E = macro_eigenvectors(b, eta)
    u = macro_speeds(eta)[:3]
    res = MicroResolvent(op0, eta, E, E)

    def fn(sigma):
        R, dR = res.eval(sigma)
        M = np.diag(sigma - u).astype(complex) - 1j * eta * R.T
        dM = np.eye(3, dtype=complex) - 1j * eta * dR.T
        # cofactor rows: adj(M) = cof.T, det = M[0] . cof[0], and by Jacobi
        # d det = tr(adj(M) dM) = sum(cof * dM)
        cof = np.cross(M[[1, 2, 0]], M[[2, 0, 1]])
        return M[0] @ cof[0], np.sum(cof * dM)
    return fn


def newton_root(fn, sigma0):
    """Complex Newton iteration on a function returning (value, derivative),
    to a relative step below 1e-12 within 50 iterations."""
    sigma = complex(sigma0)
    for _ in range(50):
        val, der = fn(sigma)
        if abs(der) < 1e-300:
            raise NoConvergence("vanishing derivative in dispersion Newton")
        step = val / der
        sigma -= step
        if abs(step) < 1e-12 * max(1.0, abs(sigma)):
            return sigma
    raise NoConvergence(f"dispersion Newton did not converge (last step {abs(step):.2e})")


def dispersion_roots(op0, op1, etas):
    """Roots sigma_j(eta) of the dispersion functions, continued from eta -> 0.

    Returns dict label -> array of sigma over etas (labels -1, 0, 1 acoustic
    and thermal from sector 0; 2 for the shear root).  The associated
    eigenvalue of B(eta) is  lambda = -i eta sigma.
    """
    etas = np.asarray(etas, dtype=float)
    # lambda = -i eta sigma = -i beta eta + O(eta^2), so sigma_j(0) = beta_j and
    # the root continued from +c carries the right-moving acoustic label +1.
    c0 = macro_speeds(0.0)[2]
    seeds = {-1: -c0, 0: 0.0, 1: c0, 2: 0.0}
    out = {lab: np.zeros(len(etas), dtype=complex) for lab in seeds}
    cur = dict(seeds)
    for i, eta in enumerate(etas):
        if eta == 0.0:
            for lab in seeds:
                out[lab][i] = seeds[lab]
            continue
        fn0 = dispersion_acoustic(op0, eta)
        for lab in (-1, 0, 1):
            cur[lab] = newton_root(fn0, cur[lab])
            out[lab][i] = cur[lab]
        fn1 = dispersion_shear(op1, eta)
        cur[2] = newton_root(fn1, cur[2])
        out[2][i] = cur[2]
    lam = {lab: -1j * etas * out[lab] for lab in out}
    return out, lam


# ---------------------------------------------------------------------- #
# first-order eigenfunction expansion
# ---------------------------------------------------------------------- #

def first_order_expansion(op: CollisionOperator):
    """Analytic O(eta) eigenvector slopes for each branch.

    psi_j(eta) = E_j + eta [ i L^{-1} P1 v1 E_j + sum_{k != j} m_jk E_k ] + O(eta^2),
    with m = collision.branch_mixing.  Rows follow E: (-c, 0, +c) in sector 0.
    """
    b = op.basis
    E = macro_eigenvectors(b, 0.0)
    beta = macro_speeds(0.0)[:3] if b.sector == 0 else np.zeros(1)
    micro = op.solve_micro(b.v1 * E)
    mix = branch_mixing(b.inner(micro, b.v1 * E), beta)
    return E, 1j * micro + mix @ E, beta


def expansion_check(op: CollisionOperator, bs: BranchSet):
    """Compare Richardson finite-difference eigenvector slopes with the
    analytic first-order expansion.  Returns max relative mismatch."""
    b = op.basis
    E, slopes, _ = first_order_expansion(op)
    eta = bs.etas[1]
    err = 0.0
    for j in range(bs.lam.shape[0]):
        psi0 = bs.psi[j, 0]
        k = int(np.argmax([abs(b.dot(psi0, Ek)) for Ek in E]))
        s0 = np.sign(np.real(b.dot(E[k], psi0)))  # +-1 alignment of psi0 to E_k
        aligned = []
        for idx in (1, 2):
            p = bs.psi[j, idx]
            if np.real(b.dot(psi0, p)) < 0:
                p = -p
            aligned.append(p)
        # second-order one-sided slope from nodes eta, 2*eta
        fd = (4.0 * aligned[0] - aligned[1] - 3.0 * psi0) / (2.0 * eta)
        an = s0 * slopes[k]
        err = max(err, b.norm(fd - an) / max(b.norm(an), 1e-300))
    return err


def eta_operator_norm(basis, A, eta, chol=None):
    """Operator norm of A in the eta-weighted L2 geometry."""
    Lc = np.linalg.cholesky(basis.eta_metric(eta)) if chol is None else chol
    M = Lc.T @ A
    M = scipy.linalg.solve_triangular(Lc, M.T, lower=True).T
    return float(np.linalg.svd(M, compute_uv=False)[0])


#: largest eigenvalue condition number for which semigroup_split forms the
#: fluid spectral projectors; above it S1 = 0 and S2 = S
EIGEN_COND_MAX = 1e9


def semigroup_split(op: CollisionOperator, eta, ts, r0_hat):
    """Split exp(t B(eta)) into the fluid rank-nb part and the remainder.

    Returns dict with S(t), S1(t), S2(t) (arrays over ts), the eta-metric
    operator norms ``norm_S2`` of the remainder and the largest eigenvalue
    condition number ``eigbasis_cond``.  S(t) is the propagator of the
    real form.  S1 and S2 are spectral sums over the eigenvalues with
    Re > -op.micro_gap()/2 and the rest; W_eta B is complex symmetric, so
    the dual of an eigenvector v is W_eta v / (v, v)_eta.  For |eta| >
    r0_hat, S1 is zero and S2 = S whatever the spectrum: no eigensolve is
    made and ``eigbasis_cond`` is None.  Other norms come from
    eta_operator_norm.
    """
    b = op.basis
    mu_hat = op.micro_gap()
    perm = b.reflection
    Br = real_mode_matrices(op, [eta])[0]
    ts = np.asarray(ts, dtype=float)
    # exp(t B) = W exp(t R) W*, W = Q D, applied to the identity
    S = from_real_form(
        propagate(Br, to_real_form(np.eye(b.n), perm), ts), perm, axis=1)
    W = b.eta_metric(eta)
    chol = np.linalg.cholesky(W)
    S1, S2, cond = np.zeros_like(S), S.copy(), None
    if abs(eta) <= r0_hat:
        w, Vr = _eig(Br)
        V = from_real_form(Vr, perm)
        WV = W @ V
        c = np.sum(V * WV, axis=0)
        cond = float(np.max(np.linalg.norm(V, axis=0)
                            * np.linalg.norm(WV, axis=0) / np.abs(c)))
        dual = (WV / c).T
        if cond <= EIGEN_COND_MAX:
            fluid = w.real > -mu_hat / 2.0
            # the remainder is the non-fluid spectral sum itself, so its
            # norm stays meaningful far below the S - S1 cancellation floor
            for i, t in enumerate(ts):
                Ve = V * np.exp(w * t)[None, :]
                S1[i] = Ve[:, fluid] @ dual[fluid]
                S2[i] = Ve[:, ~fluid] @ dual[~fluid]
    return {
        "ts": ts, "S": S, "S1": S1, "S2": S2,
        "norm_S2": np.array([eta_operator_norm(b, s, eta, chol) for s in S2]),
        "eigbasis_cond": cond,
    }


def shear_macro_weight(op1: CollisionOperator, bs: BranchSet):
    """Invariant component b(eta) of the shear eigenvector and its quadratic model.

    Returns (etas, measured b(eta), 1 - eta^2/2 * ||L^{-1} P1 v1 chi_perp||^2).
    """
    b = op1.basis
    chi = b.invariants[0]
    h = op1.solve_micro(b.v1 * chi)
    d0 = b.inner(h, h)
    meas = []
    for i, eta in enumerate(bs.etas):
        psi = bs.psi[0, i]
        # the quadratic model is stated for unit-length eigenvectors; the
        # branches carry the bilinear eta-normalization, so rescale
        nrm = np.sqrt(np.real(b.inner_eta(psi, np.conj(psi), eta)))
        meas.append(np.real(b.inner(psi, chi)) / nrm)
    model = 1.0 - 0.5 * bs.etas ** 2 * d0
    return bs.etas, np.array(meas), model
