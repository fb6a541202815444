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

import numpy as np
from scipy.special import erf

from .errors import IllConditioned
from .velocity import VelocityBasis

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


def cache_path(cache_dir, stem, header):
    """File name <stem>_<hash of the JSON header>.bin in cache_dir."""
    key = hashlib.sha256(_header_bytes(header)).hexdigest()[:24]
    return os.path.join(cache_dir, f"{stem}_{key}.bin")


def store_array(path, header, arr):
    """Write arr atomically under its JSON header.

    Layout: magic(8) | u32 header_len | JSON header | float64 row-major.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def write(fh):
        fh.write(_cache_prefix(header))
        fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
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


def reduced_kernel(basis, nphi=128):
    """Azimuthal harmonic of the kernel on all node pairs.

    k_m(i, j) = int_0^{2 pi} k(v_i, v_j; phi) cos(m phi) dphi   (midpoint rule,
    spectrally accurate for the periodic integrand).  The diagonal is left at
    zero; the singularity subtraction supplies it.
    """
    v1, vr = basis.v1, basis.vr
    n = basis.n
    phi = (np.arange(nphi) + 0.5) * 2.0 * np.pi / nphi
    cph = np.cos(phi)
    fac = np.cos(basis.sector * phi) * (2.0 * np.pi / nphi)
    km = np.empty((n, n))
    chunk = max(1, int(2e6 // (n * nphi)) or 1)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        block = scattering_kernel(
            v1[i0:i1, None, None], vr[i0:i1, None, None],
            v1[None, :, None], vr[None, :, None], cph[None, None, :],
        )
        km[i0:i1] = block @ fac
    km = 0.5 * (km + km.T)
    np.fill_diagonal(km, 0.0)
    return km


class CollisionOperator:
    """Discrete linearized collision operator for one sector.

    Attributes
    ----------
    Kmat : (n, n) array
        Integral part, including the subtraction-corrected diagonal.
    nu : (n,) array
        Collision frequency at the nodes.
    Lmat_raw : (n, n) array
        Kmat - diag(nu).
    Lmat : (n, n) array
        Raw operator with the discrete invariant subspace deflated exactly
        (P1 L P1, re-symmetrized in the weighted pairing).  All spectral,
        Green's-function and time-stepping code uses this matrix, which
        annihilates the invariants to round-off and keeps the discrete
        moment balance exact.
    """

    def __init__(self, basis: VelocityBasis, nphi=128, cache_dir=None):
        self.basis = basis
        self.nphi = int(nphi)
        km = None
        if cache_dir is not None:
            km = load_array(self._cache_path(cache_dir), self._cache_header(),
                            (basis.n, basis.n))
        if km is None:
            km = reduced_kernel(basis, self.nphi)
            if cache_dir is not None:
                self._cache_store(cache_dir, km)
        self.kernel = km
        self.nu = collision_frequency(basis.speed)
        self.nu0 = nu_floor(basis)

        colw = basis.vr * basis.gauss_weight  # = w / c_m
        g = basis.invariants_raw[0]
        K = km * colw[None, :]
        diag = self.nu - (km * (g[None, :] / g[:, None]) * colw[None, :]).sum(axis=1)
        K[np.arange(basis.n), np.arange(basis.n)] = diag
        self.Kmat = K
        self.Lmat_raw = K - np.diag(self.nu)

        P0, P1, w = basis.P0, basis.P1, basis.w
        Lc = P1 @ self.Lmat_raw @ P1
        # re-symmetrize in the weighted pairing: W L must be symmetric
        WL = w[:, None] * Lc
        WL = 0.5 * (WL + WL.T)
        self.Lmat = WL / w[:, None]
        self._micro_solve_matrix = None

    # ------------------------------------------------------------------ #

    def _cache_header(self):
        b = self.basis
        return {"sector": b.sector, "n1": b.n1, "nr": b.nr, "vmax": b.vmax,
                "nphi": self.nphi, "fmt": 2}

    def _cache_path(self, cache_dir):
        return cache_path(cache_dir, "kernel", self._cache_header())

    def _cache_store(self, cache_dir, km):
        store_array(self._cache_path(cache_dir), self._cache_header(), km)

    # ------------------------------------------------------------------ #

    def apply_K(self, f):
        return np.asarray(f) @ self.Kmat.T

    def apply_L(self, f):
        return np.asarray(f) @ self.Lmat.T

    def solve_micro(self, rhs, tol=1e-8):
        """Deflated inverse: solve L h = P1 rhs with h in the micro subspace.

        The invariant directions are shifted to eigenvalue -1 so the system
        is nonsingular; the solution is re-projected onto the micro space.
        """
        b = self.basis
        if self._micro_solve_matrix is None:
            A = self.Lmat - b.P0
            self._micro_solve_matrix = np.linalg.inv(A)
        rhs = np.asarray(rhs)
        r = rhs @ b.P1.T
        # invariant inputs project to (numerically) zero; the solution is
        # zero by convention and the relative residual is meaningless there
        null = (np.linalg.norm(r, axis=-1)
                <= 1e-10 * np.linalg.norm(rhs, axis=-1))
        r = np.where(null[..., None], 0.0, r) if r.ndim > 1 else \
            (np.zeros_like(r) if null else r)
        h = r @ self._micro_solve_matrix.T
        h = h @ b.P1.T
        res = np.linalg.norm((h @ self.Lmat.T - r), axis=-1)
        scale = np.linalg.norm(r, axis=-1) + 1e-300
        if np.any(res / scale > tol):
            raise IllConditioned(
                f"deflated collision solve residual {np.max(res / scale):.3e} > {tol}")
        return h

    def micro_gap(self):
        """Spectral gap of -L on the micro subspace (coercivity constant)."""
        b = self.basis
        W = np.sqrt(b.w)
        S = (W[:, None] * self.Lmat) / W[None, :]
        S = 0.5 * (S + S.T)
        ev = np.linalg.eigvalsh(S)
        nz = ev[np.abs(ev) > 1e-10]
        return float(-np.max(nz))


def quadratic_form(op: CollisionOperator, f, g):
    """-(L^{-1} P1 v1 f, v1 g): the basic dissipation pairing."""
    b = op.basis
    rf = b.v1 * np.asarray(f)
    rg = b.v1 * np.asarray(g)
    h = op.solve_micro(rf)
    return -b.inner(h, rg)


def transport_coefficients(op0: CollisionOperator, op1: CollisionOperator):
    """Dissipation/transport constants entering the fluid approximations.

    Returns a dict with the branch damping rates of the long-wave expansion,
    the shear and heat diffusivities, the coercivity gap, and the velocity
    mixing matrix of the first-order branch eigenfunctions.
    """
    b0 = op0.basis
    chi0, chi1, chi4 = b0.invariants
    sound = np.sqrt(8.0 / 3.0)

    # macro eigenvectors of the long-wave flux at eta = 0
    e_plus = np.sqrt(3.0) / 4.0 * chi0 + np.sqrt(2.0) / 2.0 * chi1 + np.sqrt(2.0) / 4.0 * chi4
    e_minus = np.sqrt(3.0) / 4.0 * chi0 - np.sqrt(2.0) / 2.0 * chi1 + np.sqrt(2.0) / 4.0 * chi4
    e_zero = np.sqrt(2.0) / 4.0 * chi0 - np.sqrt(3.0) / 2.0 * chi4

    a_plus = quadratic_form(op0, e_plus, e_plus)
    a_minus = quadratic_form(op0, e_minus, e_minus)
    a_zero = quadratic_form(op0, e_zero, e_zero)

    chi_perp = op1.basis.invariants[0]
    kappa1 = quadratic_form(op1, chi_perp, chi_perp)
    kappa2 = quadratic_form(op0, chi4, chi4)
    a_shear = kappa1

    # first-order mixing coefficients between the sector-0 branches:
    # b[j, k] = i (L^{-1} P1 v1 E_j, v1 E_k) / (beta_j - beta_k), zero diagonal
    evecs = [e_minus, e_zero, e_plus]
    betas = [-sound, 0.0, sound]
    mix = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            val = -quadratic_form(op0, evecs[j], evecs[k])
            mix[j, k] = 1j * val / (betas[j] - betas[k])

    return {
        "sound_speed": sound,
        "a_plus": float(a_plus),
        "a_minus": float(a_minus),
        "a_zero": float(a_zero),
        "a_shear": float(a_shear),
        "kappa1": float(kappa1),
        "kappa2": float(kappa2),
        "mu_hat": min(op0.micro_gap(), op1.micro_gap()),
        "nu0": min(op0.nu0, op1.nu0),
        "mixing": mix,
    }
