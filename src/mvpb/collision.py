"""Linearized hard-sphere collision operator on the reduced (v1, vr) grid.

The linearized operator splits as  L f = K f - nu(v) f  with a smooth
multiplication part nu and a compact integral part K.  The integral
kernel has an integrable 1/|v - v*| singularity on the diagonal; the
Nystrom discretization removes it by singularity subtraction against the
Maxwellian eigen-identity

    int k(v, v*) sqrtM(v*) dv* = nu(v) sqrtM(v),

i.e. the discrete K is defined through

    (K f)(v_i) = sum_j k(v_i, v_j) [f_j - f_i g_j / g_i] w_j / c_m + nu_i f_i,

where g is the sector's Maxwellian-weighted invariant profile (sqrtM in
sector 0, vr*sqrtM in sector 1).  This makes the equilibrium identity
exact at any resolution and regularizes the quadrature for smooth inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import cached_property

import numpy as np
from scipy.special import erf

from .errors import IllConditioned
from .velocity import VelocityBasis, macro_eigenvectors, macro_speeds

SQRT2PI = np.sqrt(2.0 * np.pi)

#: cache file magic/version
_CACHE_MAGIC = b"MVPBKRN1"


def write_atomic(path, write):
    """Create path through a temp file in its directory and os.replace.

    write(fh) fills the open binary file.  If it raises, the temp file is
    removed, so path holds either its old content or a complete new file.
    The file gets open()'s mode 0o666 & ~umask, not mkstemp's 0o600.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _header_bytes(header):
    return json.dumps(header, sort_keys=True).encode()


def _cache_prefix(header):
    head = _header_bytes(header)
    return _CACHE_MAGIC + np.uint32(len(head)).tobytes() + head


def cache_path(cache_dir, stem, grid):
    """File name <stem>_<hash of the grid as JSON>.bin in cache_dir."""
    key = hashlib.sha256(_header_bytes(grid)).hexdigest()[:24]
    return os.path.join(cache_dir, f"{stem}_{key}.bin")


def store_array(path, header, arr):
    """Write arr atomically under its JSON header.

    Layout: magic(8) | u32 header_len | JSON header | float64 row-major.
    The payload is written through the array's buffer, with no bytes copy.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def write(fh):
        fh.write(_cache_prefix(header))
        fh.write(np.ascontiguousarray(arr, dtype=np.float64))
    write_atomic(path, write)


def load_array(path, header, shape):
    """Array that store_array wrote under this header, else None.

    None also when the file is missing, has another header, or its payload
    is not exactly the float64 bytes of shape.
    """
    if not os.path.exists(path):
        return None
    arr = np.empty(shape)
    with open(path, "rb") as fh:
        prefix = _cache_prefix(header)
        if fh.read(len(prefix)) != prefix or fh.readinto(arr) != arr.nbytes \
                or fh.read(1):
            return None
    return arr


def collision_frequency(speed):
    """Multiplicative part nu(|v|) of the linearized hard-sphere operator.

    nu(r) = sqrt(2*pi) * [ exp(-r^2/2) + (r + 1/r) * int_0^r exp(-u^2/2) du ].

    Linear growth at infinity (nu ~ pi * r) and nu(0) = 2*sqrt(2*pi).
    """
    r = np.asarray(speed, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    small = r < 1e-8
    rs = np.where(small, 1.0, r)
    gauss_int = np.sqrt(np.pi / 2.0) * erf(rs / np.sqrt(2.0))
    val = SQRT2PI * (np.exp(-r ** 2 / 2.0) + (rs + 1.0 / rs) * gauss_int)
    val = np.where(small, 2.0 * SQRT2PI, val)
    return val[0] if scalar else val


def nu_floor(basis):
    """Empirical constant nu0 with nu(v) >= nu0 * (1 + |v|) on the grid."""
    return float(np.min(collision_frequency(basis.speed) / (1.0 + basis.speed)))


def scattering_kernel(v1, vr, v1s, vrs, cosphi):
    """Hard-sphere scattering kernel k(v, v*) in reduced coordinates.

    cosphi is the cosine of the azimuthal angle between v and v*.
    Vectorized over broadcastable arguments; the removable 0/0 at v = v*
    is guarded (callers never use exactly coincident points).
    """
    d2 = (v1 - v1s) ** 2 + vr ** 2 + vrs ** 2 - 2.0 * vr * vrs * cosphi
    d2 = np.maximum(d2, 1e-300)
    d = np.sqrt(d2)
    e2 = (v1 ** 2 + vr ** 2) - (v1s ** 2 + vrs ** 2)
    gain = 2.0 / (SQRT2PI * d) * np.exp(-e2 ** 2 / (8.0 * d2) - d2 / 8.0)
    loss = d / (2.0 * SQRT2PI) * np.exp(-((v1 ** 2 + vr ** 2) + (v1s ** 2 + vrs ** 2)) / 4.0)
    return gain - loss


#: entries of each scattering_kernel block in reduced_kernel (rows x n x
#: azimuths): its temporaries stay cache-sized, a few MB at any grid
KERNEL_CHUNK_ENTRIES = 1 << 16


def reduced_kernel(basis, nphi=128):
    """Both azimuthal harmonics of the kernel on all node pairs, (2, n, n).

    k_m(i, j) = int_0^{2 pi} k(v_i, v_j; phi) cos(m phi) dphi for m = 0, 1
    (midpoint rule, spectrally accurate for the periodic integrand).  The
    two sectors share the node grid, so both come from one evaluation of
    the kernel, and two symmetries cut that evaluation by four:

    * azimuth: k depends on phi only through cos(phi), and cos(m phi) is
      even about pi, so the midpoint nodes in (0, pi) carry weight 2 and,
      for odd nphi, the node at phi = pi weight 1;
    * rows: k is unchanged when v1 and v1* flip sign together, so the row
      of the mirror node P[i] (v1 -> -v1) is row i permuted by P.  Only the
      rows i <= P[i] are evaluated; the v1 nodes are mirror-exact, so the
      kernel values of a filled row are those of its own evaluation bit for
      bit, and km[:, P][:, :, P] == km holds exactly.

    The swept rows go through scattering_kernel in chunks of
    KERNEL_CHUNK_ENTRIES // (n * azimuths) rows (at least one), so its
    temporaries, about five arrays of the block's size, stay a few MB: at
    n = 288 a budget of 2e6 entries made about 90 MB of them for a 1.3 MB
    result and took twice as long.  Each row's azimuth sum is its own
    GEMM in the batched matmul, so the kernel is the same bits for any
    chunk size.

    The diagonal is left at zero; the singularity subtraction supplies it.
    """
    v1, vr, n = basis.v1, basis.vr, basis.n
    half = (nphi + 1) // 2
    phi = (np.arange(half) + 0.5) * 2.0 * np.pi / nphi
    cph = np.cos(phi)
    wphi = np.where(2 * np.arange(half) + 1 == nphi, 1.0, 2.0) \
        * (2.0 * np.pi / nphi)
    fac = np.stack([wphi, cph * wphi], axis=1)
    P = basis.reflection
    rows = np.flatnonzero(np.arange(n) <= P)
    km = np.empty((2, n, n))
    chunk = max(1, KERNEL_CHUNK_ENTRIES // (n * half))
    for c0 in range(0, rows.size, chunk):
        r = rows[c0:c0 + chunk]
        block = scattering_kernel(
            v1[r, None, None], vr[r, None, None],
            v1[None, :, None], vr[None, :, None], cph[None, None, :],
        )
        km[:, r] = np.moveaxis(block @ fac, -1, 0)
    # the GEMM's rounding depends on the row's place in the block, so a row
    # with v1 = 0 (odd n1, its own mirror) is averaged with its mirror
    fixed = rows[rows == P[rows]]
    km[:, fixed] = 0.5 * (km[:, fixed] + km[:, fixed][:, :, P])
    mirrored = rows[rows < P[rows]]
    km[:, P[mirrored]] = km[:, mirrored][:, :, P]
    km = 0.5 * (km + km.transpose(0, 2, 1))
    km[:, np.arange(n), np.arange(n)] = 0.0
    return km


class CollisionOperator:
    """Discrete linearized collision operator for one sector.

    Attributes
    ----------
    Kmat : (n, n) array
        Integral part, including the subtraction-corrected diagonal.
    nu : (n,) array
        Collision frequency at the nodes.
    Lmat : (n, n) array
        Kmat - diag(nu) with the discrete invariant subspace deflated
        exactly (P1 L P1, re-symmetrized in the weighted pairing).  All
        spectral, Green's-function and time-stepping code uses this matrix,
        which annihilates the invariants to round-off and keeps the discrete
        moment balance exact.
    """

    def __init__(self, basis: VelocityBasis, nphi=128, cache_dir=None):
        self.basis = basis
        self.nphi = int(nphi)
        # one cache file per grid holds both harmonics, so either sector's
        # cold build serves the other; its header adds nphi and the format
        # (fmt 4: the (2, n, n) pair), and another header is rebuilt
        grid = (basis.n1, basis.nr, basis.vmax)
        header = {"n1": basis.n1, "nr": basis.nr, "vmax": basis.vmax,
                  "nphi": self.nphi, "fmt": 4}
        path = cache_path(cache_dir, "kernel", grid) if cache_dir else None
        km = load_array(path, header, (2, basis.n, basis.n)) if path else None
        if km is None:
            km = reduced_kernel(basis, self.nphi)
            if path:
                store_array(path, header, km)
        km = km[basis.sector]
        self.kernel = km
        self.nu = collision_frequency(basis.speed)
        self.nu0 = nu_floor(basis)

        colw = basis.vr * basis.gauss_weight  # = w / c_m
        g = basis.invariants_raw[0]
        K = km * colw[None, :]
        diag = self.nu - (km * (g[None, :] / g[:, None]) * colw[None, :]).sum(axis=1)
        K[np.arange(basis.n), np.arange(basis.n)] = diag
        self.Kmat = K

        P1, w = basis.P1, basis.w
        Lc = P1 @ (K - np.diag(self.nu)) @ P1
        # re-symmetrize in the weighted pairing: W L must be symmetric
        WL = w[:, None] * Lc
        WL = 0.5 * (WL + WL.T)
        self.Lmat = WL / w[:, None]
        self._micro = None

    @cached_property
    def Lmat_pairs(self):
        """Q^T Lmat Q less its EO and OE blocks (round-off), formed on first
        use: the eta-free part of each R(eta) (spectral imports this module)."""
        from .spectral import real_form
        return real_form(self.Lmat, self.basis.reflection)

    # ------------------------------------------------------------------ #

    def apply_L(self, f):
        return np.asarray(f) @ self.Lmat.T

    def micro_spectrum(self):
        """(lam, Q): L = Q diag(lam) Q^T W on the micro subspace.

        One eigh of the w-symmetrized Lmat, on first use; eigenvalues within
        1e-10 of zero belong to the invariants and are cut.  The columns of
        Q are orthonormal in the weighted pairing: Q^T W Q = I.
        """
        if self._micro is None:
            W = np.sqrt(self.basis.w)
            S = (W[:, None] * self.Lmat) / W[None, :]
            ev, U = np.linalg.eigh(0.5 * (S + S.T))
            keep = np.abs(ev) > 1e-10
            self._micro = ev[keep], U[:, keep] / W[:, None]
        return self._micro

    def solve_micro(self, rhs, tol=1e-8):
        """Deflated inverse: solve L h = P1 rhs with h in the micro subspace.

        h = Q diag(1/lam) Q^T W rhs in the micro eigenbasis; rows of rhs are
        solved independently.
        """
        b = self.basis
        lam, Q = self.micro_spectrum()
        rhs = np.asarray(rhs)
        r = rhs @ b.P1.T
        # invariant inputs project to (numerically) zero; the solution is
        # zero by convention and the relative residual is meaningless there
        null = (np.linalg.norm(r, axis=-1)
                <= 1e-10 * np.linalg.norm(rhs, axis=-1))
        r = np.where(null[..., None], 0.0, r)
        h = ((r * b.w) @ Q / lam) @ Q.T
        res = np.linalg.norm((h @ self.Lmat.T - r), axis=-1)
        scale = np.linalg.norm(r, axis=-1) + 1e-300
        if np.any(res / scale > tol):
            raise IllConditioned(
                f"deflated collision solve residual {np.max(res / scale):.3e} > {tol}")
        return h

    def micro_gap(self):
        """Spectral gap of -L on the micro subspace (coercivity constant)."""
        return float(-np.max(self.micro_spectrum()[0]))


def quadratic_form(op: CollisionOperator, f, g):
    """-(L^{-1} P1 v1 f, v1 g): the basic dissipation pairing.

    Stacked rows of f and g give the matrix of pairings from one solve.
    """
    b = op.basis
    rf = b.v1 * np.asarray(f)
    rg = b.v1 * np.asarray(g)
    h = op.solve_micro(rf)
    return -b.inner(h, rg)


def branch_mixing(pairing, beta):
    """First-order mixing of the long-wave branches, zero on the diagonal.

    m[j, k] = i pairing[j, k] / (beta_j - beta_k) for j != k, where
    pairing[j, k] = (L^{-1} P1 v1 E_j, v1 E_k) and beta are the speeds of E.
    """
    gap = np.subtract.outer(beta, beta)
    off = ~np.eye(len(beta), dtype=bool)
    mix = np.zeros(gap.shape, dtype=complex)
    mix[off] = 1j * pairing[off] / gap[off]
    return mix


def transport_coefficients(op0: CollisionOperator, op1: CollisionOperator):
    """Dissipation/transport constants entering the fluid approximations.

    Returns a dict with the branch damping rates of the long-wave expansion,
    the shear and heat diffusivities, the coercivity gap, and the velocity
    mixing matrix of the first-order branch eigenfunctions.
    """
    b0 = op0.basis
    # eta = 0 branch eigenvectors (E_-, E_0, E_+) and the energy invariant:
    # one stacked solve gives every sector-0 pairing
    F = np.vstack([macro_eigenvectors(b0, 0.0), b0.invariants[2]])
    A = quadratic_form(op0, F, F)
    chi_perp = op1.basis.invariants[0]
    kappa1 = quadratic_form(op1, chi_perp, chi_perp)
    speeds = macro_speeds(0.0)

    return {
        "sound_speed": speeds[2],
        "a_plus": float(A[2, 2]),
        "a_minus": float(A[0, 0]),
        "a_zero": float(A[1, 1]),
        "a_shear": float(kappa1),
        "kappa1": float(kappa1),
        "kappa2": float(A[3, 3]),
        "mu_hat": min(op0.micro_gap(), op1.micro_gap()),
        "nu0": min(op0.nu0, op1.nu0),
        "mixing": branch_mixing(-A[:3, :3], speeds[:3]),
    }
