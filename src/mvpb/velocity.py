"""Axisymmetric velocity-space discretization.

Distributions are axisymmetric about the v1 axis, so a function of
v = (v1, v2, v3) is represented on a 2-D tensor Gauss-Legendre grid in
(v1, vr) with vr = sqrt(v2^2 + v3^2) >= 0.  Two azimuthal sectors are
used:

* sector 0 : functions independent of the azimuthal angle (carries the
  mass, parallel-momentum and energy invariants);
* sector 1 : functions proportional to cos(phi) or sin(phi) (carries the
  two perpendicular-momentum invariants, represented by a single radial
  profile with multiplicity two).

The quadrature weight on the reduced grid absorbs the azimuthal measure:
w = c_m * vr * (tensor Gauss weight), with c_0 = 2*pi and c_1 = pi, so
that the discrete bilinear form  sum(f * g * w)  equals the full 3-D
integral  int f g dv  for same-sector profiles.

The reflection P: v1 -> -v1 maps the nodes and weights onto themselves
exactly.  Its orthonormal pair basis Q (VelocityBasis.to_pairs), the one
basis of the package for P, is the layout of spectral's real forms and of
the collision tensor's parity blocks.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss


def maxwellian(v1, vr):
    """Global Maxwellian with unit density, zero bulk velocity, unit temperature."""
    return np.exp(-(v1 ** 2 + vr ** 2) / 2.0) / (2.0 * np.pi) ** 1.5


def gauss_rule(weight, a, b, n, symmetric=False):
    """Gauss quadrature for an arbitrary positive weight on [a, b].

    Builds the three-term recurrence by the Stieltjes procedure on a fine
    composite Gauss-Legendre discretization of the measure (80 panels of
    24 nodes), then solves the Jacobi matrix (Golub-Welsch).  Exact for
    polynomials of degree <= 2n - 1 against the weight.  ``symmetric=True`` (an even weight on a
    symmetric interval) zeroes the recurrence diagonal and averages the
    nodes and weights of eigh with their mirrors: x[::-1] == -x and
    w[::-1] == w hold exactly, not just to round-off.
    """
    xg, wg = leggauss(24)
    edges = np.linspace(a, b, 81)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    X = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    W = (half[:, None] * wg[None, :]).ravel() * weight(X)
    m0 = W.sum()
    alpha = np.zeros(n)
    beta = np.zeros(n)
    p_prev = np.zeros_like(X)
    p = np.ones_like(X) / np.sqrt(m0)
    for k in range(n):
        if not symmetric:
            alpha[k] = np.sum(W * X * p * p)
        q = (X - alpha[k]) * p - (np.sqrt(beta[k - 1]) if k > 0 else 0.0) * p_prev
        b2 = np.sum(W * q * q)
        beta[k] = b2
        p_prev, p = p, q / np.sqrt(b2)
    off = np.sqrt(beta[:n - 1])
    x, U = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    w = m0 * U[0] ** 2
    if symmetric:
        x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    return x, w


class VelocityBasis:
    """Collocation basis for one azimuthal sector.

    Parameters
    ----------
    n1, nr : int
        Number of Gauss-Legendre nodes along v1 in [-vmax, vmax] and along
        vr in [0, vmax].
    vmax : float
        Velocity-space truncation radius per axis.
    sector : int
        Azimuthal harmonic (0 or 1).
    """

    def __init__(self, n1=32, nr=16, vmax=8.0, sector=0):
        if sector not in (0, 1):
            raise ValueError("sector must be 0 or 1")
        if vmax < 6.0:
            raise ValueError(
                "vmax < 6 loses more than 1e-9 of the Maxwellian mass")
        self.n1, self.nr, self.vmax, self.sector = int(n1), int(nr), float(vmax), sector

        # Gauss rules with the Maxwellian measure built in: polynomials
        # times exp(-|v|^2/2) integrate exactly up to degree 2n-1 per
        # coordinate, so the invariant moments and the Maxwellian mass are
        # reproduced to truncation error (~e^{-vmax^2/2}) rather than to
        # plain Gauss-Legendre accuracy.
        a1, om1 = gauss_rule(lambda x: np.exp(-x ** 2 / 2.0),
                             -vmax, vmax, self.n1, symmetric=True)
        ar, omr = gauss_rule(lambda r: r * np.exp(-r ** 2 / 2.0),
                             0.0, vmax, self.nr)
        # the pairing integrates raw node values, so the weights carry the
        # inverse of the built-in measure
        w1 = om1 * np.exp(a1 ** 2 / 2.0)
        wr = omr * np.exp(ar ** 2 / 2.0)
        V1, VR = np.meshgrid(a1, ar, indexing="ij")
        W1, WR = np.meshgrid(w1, wr, indexing="ij")

        #: node index of the reflection v1 -> -v1, (i1, j) <-> (n1-1-i1, j);
        #: exact, since gauss_rule mirrors the v1 rule bit for bit:
        #: v1[P] == -v1 and w[P] == w
        self.reflection = np.arange(self.n1 * self.nr).reshape(
            self.n1, self.nr)[::-1].ravel()
        self.v1 = V1.ravel()
        self.vr = VR.ravel()
        #: reduced 2-D weight without the azimuthal and vr measure factors
        self.gauss_weight = (W1 * WR).ravel() / self.vr
        self.azimuthal_factor = 2.0 * np.pi if sector == 0 else np.pi
        #: full quadrature weight: discrete (f, g) = sum(f * g * w)
        self.w = self.azimuthal_factor * self.vr * self.gauss_weight
        self.n = self.v1.size
        self.speed = np.sqrt(self.v1 ** 2 + self.vr ** 2)
        self.sqrt_maxwell = np.sqrt(maxwellian(self.v1, self.vr))

        idx = np.arange(self.n)
        #: node i of each mirror pair i < P[i], its mirror P[i], and the
        #: nodes P fixes (on v1 = 0, when n1 is odd)
        self.pair_lo = idx[idx < self.reflection]
        self.pair_hi = self.reflection[self.pair_lo]
        self.fixed = idx[idx == self.reflection]
        #: number of even pair coordinates, the first ne; the rest are odd
        self.ne = self.n - len(self.pair_lo)
        #: the diagonal of D: 1 on the even pair coordinates, i on the odd
        self.phase = np.ones(self.n, dtype=complex)
        self.phase[self.ne:] = 1j

        self._build_invariants()

    # ------------------------------------------------------------------ #
    # pair basis of the reflection
    # ------------------------------------------------------------------ #

    def to_pairs(self, x, axis=-1):
        """Q^T x along axis: [even | odd] coordinates, e = (x_i + x_Pi)/sqrt2
        for each pair i < P[i], then e = x_i for each node with P[i] = i,
        then o = (x_i - x_Pi)/sqrt2 for each pair."""
        a = np.take(x, self.pair_lo, axis=axis)
        b = np.take(x, self.pair_hi, axis=axis)
        return np.concatenate([(a + b) / np.sqrt(2.0),
                               np.take(x, self.fixed, axis=axis),
                               (a - b) / np.sqrt(2.0)], axis=axis)

    def from_pairs(self, c, axis=-1):
        """Q c along axis: node vectors from their pair coordinates."""
        npair = len(self.pair_lo)
        out = np.empty_like(c)
        src, dst = np.moveaxis(c, axis, 0), np.moveaxis(out, axis, 0)
        dst[self.pair_lo] = (src[:npair] + src[self.ne:]) / np.sqrt(2.0)
        dst[self.pair_hi] = (src[:npair] - src[self.ne:]) / np.sqrt(2.0)
        dst[self.fixed] = src[npair:self.ne]
        return out

    def pair_matrix(self, X):
        """Q^T X Q for an (n, n) matrix or a stack (..., n, n)."""
        return self.to_pairs(self.to_pairs(X, -2), -1)

    # ------------------------------------------------------------------ #
    # invariants and projections
    # ------------------------------------------------------------------ #

    def _build_invariants(self):
        """Collision invariants of this sector (unit vectors of the hydro subspace)."""
        sM = self.sqrt_maxwell
        if self.sector == 0:
            mass = sM
            momentum = self.v1 * sM
            energy = (self.speed ** 2 - 3.0) * sM / np.sqrt(6.0)
            raw = [mass, momentum, energy]
        else:
            raw = [self.vr * sM]
        self.invariants_raw = np.array(raw)

        # Orthonormalize in the discrete pairing; keeps the hydrodynamic
        # projector an exact projector at any resolution.
        ortho = []
        for q in self.invariants_raw:
            q = q.copy()
            for p in ortho:
                q -= self.inner(q, p) * p
            nrm = np.sqrt(self.inner(q, q))
            ortho.append(q / nrm)
        self.invariants = np.array(ortho)

        n = self.n
        self.P0 = np.zeros((n, n))
        for q in self.invariants:
            self.P0 += np.outer(q, q * self.w)
        self.P1 = np.eye(n) - self.P0

    # ------------------------------------------------------------------ #
    # pairings
    # ------------------------------------------------------------------ #

    def inner(self, f, g):
        """Bilinear pairing int f g dv (no conjugation)."""
        return np.tensordot(np.asarray(f) * self.w, np.asarray(g), axes=(-1, -1))

    def dot(self, f, g):
        """Sesquilinear pairing int conj(f) g dv."""
        return np.tensordot(np.conj(f) * self.w, np.asarray(g), axes=(-1, -1))

    def norm(self, f):
        """Velocity L2 norm sqrt(sum_i |f_i|^2 w_i) of (..., n) fields."""
        return np.sqrt(np.einsum("...i,i->...", np.abs(f) ** 2, self.w))

    def mass_component(self, f):
        """Coefficient of f along the (orthonormalized) mass invariant."""
        if self.sector != 0:
            return np.zeros(np.shape(f)[:-1]) if np.ndim(f) > 1 else 0.0
        return self.inner(f, self.invariants[0])

    def inner_eta(self, f, g, eta):
        """Frequency-weighted bilinear pairing.

        (f, g)_eta = (f, g) + (mass component of f)(mass component of g)/(1+eta^2).
        The extra term encodes the electrostatic-energy contribution of the
        self-consistent field and vanishes in sector 1.
        """
        val = self.inner(f, g)
        if self.sector == 0:
            val = val + self.mass_component(f) * self.mass_component(g) / (1.0 + eta ** 2)
        return val

    def eta_metric(self, eta):
        """Matrix W_eta with (f, g)_eta = f^T W_eta g."""
        W = np.diag(self.w)
        if self.sector == 0:
            q = self.invariants[0] * self.w
            W = W + np.outer(q, q) / (1.0 + eta ** 2)
        return W

    # ------------------------------------------------------------------ #
    # projections
    # ------------------------------------------------------------------ #

    def project(self, f, part="hydro"):
        """Project onto a sub-block of the collision-invariant subspace.

        part in {"mass", "momentum", "energy", "hydro", "micro"}.
        """
        f = np.asarray(f)
        if part == "hydro":
            coef = self.inner(f, self.invariants)
            return np.tensordot(coef, self.invariants, axes=(-1, 0))
        if part == "micro":
            return f - self.project(f, "hydro")
        if self.sector == 0:
            idx = {"mass": [0], "momentum": [1], "energy": [2]}[part]
        else:
            idx = {"mass": [], "momentum": [0], "energy": []}[part]
        out = np.zeros_like(f)
        for i in idx:
            q = self.invariants[i]
            out = out + np.multiply.outer(self.inner(f, q), q)
        return out

    def weighted_sup_norm(self, f, power=3):
        """sup_v (1+|v|^2)^(power/2) |f|, evaluated on the collocation nodes."""
        wgt = (1.0 + self.speed ** 2) ** (power / 2.0)
        return np.max(wgt * np.abs(f), axis=-1)


def basis_pair(n1=32, nr=16, vmax=8.0):
    """Both azimuthal sectors on the same tensor grid."""
    return VelocityBasis(n1, nr, vmax, 0), VelocityBasis(n1, nr, vmax, 1)


# ---------------------------------------------------------------------- #
# long-wave macro basis
# ---------------------------------------------------------------------- #

def macro_speeds(eta):
    """Closed-form eigenvalues of the long-wave flux: [-c(eta), 0, +c(eta), 0, 0]."""
    c = np.sqrt(5.0 / 3.0 + 1.0 / (1.0 + eta ** 2))
    return np.array([-c, 0.0, c, 0.0, 0.0])


def macro_eigenvectors(basis: VelocityBasis, eta):
    """Long-wave macro eigenvectors, orthonormal in the eta-pairing.

    For sector 0 returns rows (E_minus, E_zero, E_plus) ordered by the sign
    of the associated wave speed (-c, 0, +c); for sector 1 the single shear
    profile.  E_{+-} carry mass/energy weights depending on eta through the
    field coupling.
    """
    if basis.sector == 1:
        return basis.invariants.copy()
    s = 1.0 / (1.0 + eta ** 2)
    chi0, chi1, chi4 = basis.invariants
    c0 = 1.0 / np.sqrt(10.0 / 3.0 + 2.0 * s)
    c4 = 1.0 / np.sqrt(5.0 + 3.0 * s)
    # wave moving with speed +c has momentum component aligned with +v1
    e_plus = c0 * chi0 + (np.sqrt(2.0) / 2.0) * chi1 + c4 * chi4
    e_minus = c0 * chi0 - (np.sqrt(2.0) / 2.0) * chi1 + c4 * chi4
    z0 = np.sqrt(2.0 / 3.0) / np.sqrt((2.0 / 3.0) * (1.0 + s) + (1.0 + s) ** 2)
    z4 = np.sqrt(1.0 + s) / np.sqrt(5.0 / 3.0 + s)
    e_zero = z0 * chi0 - z4 * chi4
    return np.array([e_minus, e_zero, e_plus])
