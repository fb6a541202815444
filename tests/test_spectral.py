"""Frequency-domain contracts: mode operator, eigenvalue branches,
dispersion roots, eigenfunction expansion, and the semigroup split."""

import ast
import math
import os
import pathlib
import threading
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from mvpb import spectral
from mvpb.collision import transport_coefficients
from mvpb.errors import BranchSwap
from mvpb.green import linear_log_fit
from mvpb.velocity import basis_pair

SOUND = np.sqrt(8.0 / 3.0)


@pytest.fixture(scope="module")
def branches24(ops24):
    op0, op1 = ops24
    return (spectral.eigen_branches(op0, eta_max=0.5, steps=33),
            spectral.eigen_branches(op1, eta_max=0.5, steps=33))


def test_mode_matrix_at_zero(ops24):
    for op in ops24:
        B = spectral.mode_matrix(op, 0.0)
        assert np.max(np.abs(B - op.Lmat)) <= 1e-12
        assert np.max(np.abs(B.imag)) == 0.0


def test_mode_matrix_coupling_annihilation(ops24, rng):
    # inputs with zero mass component see only L - i eta v1
    op = ops24[0]
    b = op.basis
    g = rng.standard_normal(b.n)
    g = g - b.mass_component(g) * b.invariants[0]
    eta = 0.7
    B = spectral.mode_matrix(op, eta)
    direct = op.apply_L(g) - 1j * eta * b.v1 * g
    assert np.max(np.abs(B @ g - direct)) <= 1e-12


def test_adjoint_identity(ops24, rng):
    # (B(eta) f, g)_eta = (f, B(-eta) g)_eta
    eta = 0.3
    for op in ops24:
        b = op.basis
        Bp = spectral.mode_matrix(op, eta)
        Bm = spectral.mode_matrix(op, -eta)
        for _ in range(5):
            f = rng.standard_normal(b.n) + 1j * rng.standard_normal(b.n)
            g = rng.standard_normal(b.n) + 1j * rng.standard_normal(b.n)
            # conjugating eta-pairing <f, g> = (f, conj(g))_eta
            lhs = b.inner_eta(Bp @ f, np.conj(g), eta)
            rhs = b.inner_eta(f, np.conj(Bm @ g), eta)
            assert abs(lhs - rhs) <= 1e-10


def test_zero_modes_and_gap_scan(ops24):
    assert spectral.zero_mode_count(ops24) == 5
    etas, gap = spectral.spectral_gap_scan(ops24, np.linspace(0.0, 10.0, 21))
    assert np.all(gap <= 1e-10)
    # fitted decay rate beyond the fluid radius is strictly positive
    far = etas >= 0.5
    assert np.max(gap[far]) < 0.0


def test_macro_speeds_closed_form():
    for eta in (0.0, 0.3, 1.0, 4.0):
        A = spectral.macro_flux_matrix(eta)
        ev = np.sort(np.linalg.eigvals(A).real)
        c = np.sqrt(5.0 / 3.0 + 1.0 / (1.0 + eta ** 2))
        assert abs(ev[0] + c) <= 1e-12
        assert abs(ev[-1] - c) <= 1e-12
        assert np.max(np.abs(ev[1:4])) <= 1e-12


def test_macro_eigenvectors_flux_relation(bases24):
    # v1 E_j paired against the invariants reproduces the flux eigenvalue
    b0, _ = bases24
    for eta in (0.0, 0.5):
        E = spectral.macro_eigenvectors(b0, eta)
        c = np.sqrt(5.0 / 3.0 + 1.0 / (1.0 + eta ** 2))
        for vec, u in zip(E, (-c, 0.0, c)):
            # eta-pairing normalization
            assert abs(b0.inner_eta(vec, vec, eta) - 1.0) <= 1e-12


def test_branch_fits(ops24, branches24):
    bs0, bs1 = branches24
    tc = transport_coefficients(*ops24)
    jp = spectral.branch_by_label(bs0, 1)
    jm = spectral.branch_by_label(bs0, -1)
    j0 = spectral.branch_by_label(bs0, 0)
    assert abs(bs0.beta[jp] - SOUND) <= 1e-3
    assert abs(bs0.beta[jm] + SOUND) <= 1e-3
    assert abs(bs0.beta[j0]) <= 1e-4
    assert abs(bs1.beta[0]) <= 1e-4
    assert abs(bs0.damping[jp] - tc["a_plus"]) <= 0.01 * tc["a_plus"]
    assert abs(bs0.damping[jm] - tc["a_minus"]) <= 0.01 * tc["a_minus"]
    assert abs(bs0.damping[j0] - tc["a_zero"]) <= 0.01 * tc["a_zero"]
    assert abs(bs1.damping[0] - tc["a_shear"]) <= 0.01 * tc["a_shear"]


def test_branch_start_at_zero(branches24):
    for bs in branches24:
        assert np.max(np.abs(bs.lam[:, 0])) <= 1e-6
        assert np.all(bs.lam[:, 1:].real < 0)


def test_branch_matching_stable_under_refinement(ops24, branches24):
    bs0, _ = branches24
    fine = spectral.eigen_branches(ops24[0], eta_max=0.5, steps=65)
    assert np.array_equal(np.sort(fine.labels), np.sort(bs0.labels))
    # same labels attach to the same physical branches
    for lab in (-1, 0, 1):
        a = bs0.lam[spectral.branch_by_label(bs0, lab), -1]
        b = fine.lam[spectral.branch_by_label(fine, lab), -1]
        assert abs(a - b) <= 1e-8


def test_branch_swap_on_coarse_grid(ops24):
    with pytest.raises(BranchSwap):
        spectral.eigen_branches(ops24[0], eta_max=0.5, steps=8)


def test_dispersion_roots_match_branches(ops24, branches24):
    bs0, bs1 = branches24
    etas = bs0.etas[::8]
    roots, lam = spectral.dispersion_roots(*ops24, etas)
    for lab in (-1, 0, 1):
        j = spectral.branch_by_label(bs0, lab)
        assert np.max(np.abs(lam[lab] - bs0.lam[j, ::8])) <= 1e-6
    assert np.max(np.abs(lam[2] - bs1.lam[0, ::8])) <= 1e-6


def test_dispersion_root_values_at_zero(ops24):
    roots, _ = spectral.dispersion_roots(*ops24, np.array([0.0]))
    c = spectral.macro_speeds(0.0)[2]
    assert abs(roots[1][0] - c) <= 1e-8
    assert abs(roots[-1][0] + c) <= 1e-8
    assert abs(roots[0][0]) <= 1e-8
    assert abs(roots[2][0]) <= 1e-8


def test_dispersion_reflection_symmetry(ops24):
    eta = 0.25
    rp, _ = spectral.dispersion_roots(*ops24, np.array([0.0, eta]))
    rm, _ = spectral.dispersion_roots(*ops24, np.array([0.0, -eta]))
    for lab in (-1, 0, 1, 2):
        # -sigma_j(-eta) = sigma_{-j}(eta)  and  sigma_j(-eta) = conj(sigma_j(eta))
        mirror = -lab if lab in (-1, 1) else lab
        assert abs(rm[lab][1] + rp[mirror][1]) <= 1e-8
        assert abs(rm[lab][1] - np.conj(rp[lab][1])) <= 1e-8
    # combined: the reflected acoustic pair are negated conjugates
    assert abs(rp[-1][1] + np.conj(rp[1][1])) <= 1e-8


def test_shear_root_slope(ops24):
    # d sigma / d eta at 0 ~ i * kappa1 for the shear root
    _, op1 = ops24
    tc = transport_coefficients(*ops24)
    h = 1e-3
    roots, _ = spectral.dispersion_roots(*ops24, np.array([0.0, h]))
    slope = (roots[2][1] - roots[2][0]) / h
    # sigma'(0) = i (L^{-1} P1 v1 chi_perp, v1 chi_perp) = -i kappa1
    assert abs(slope + 1j * tc["kappa1"]) <= 0.01 * tc["kappa1"]


def test_expansion_low_eta_limit(ops24, branches24):
    bs0, _ = branches24
    op0 = ops24[0]
    b = op0.basis
    fine = spectral.eigen_branches_at(op0, np.array([0.0, 1e-3, 2e-3]))
    E = spectral.macro_eigenvectors(b, 0.0)
    for j in range(3):
        psi = fine.psi[j, 1]
        k = int(np.argmax([abs(b.dot(psi, Ek)) for Ek in E]))
        if np.real(b.dot(psi, E[k])) < 0:
            psi = -psi
        assert b.norm(psi - E[k]) <= 5e-3


def test_expansion_slope(ops24):
    op0 = ops24[0]
    fine = spectral.eigen_branches_at(op0, np.array([0.0, 1e-3, 2e-3]))
    assert spectral.expansion_check(op0, fine) <= 0.02


def test_eta_pairing_orthonormality(ops24, branches24):
    bs0, _ = branches24
    b = ops24[0].basis
    for i in (4, 16, 32):
        eta = bs0.etas[i]
        for j in range(3):
            for k in range(3):
                val = b.inner_eta(bs0.psi[j, i], bs0.psi[k, i], eta)
                assert abs(val - (1.0 if j == k else 0.0)) <= 1e-8


def test_shear_macro_weight(ops24, branches24):
    _, bs1 = branches24
    etas, meas, model = spectral.shear_macro_weight(ops24[1], bs1)
    sel = etas <= 0.25
    assert np.max(np.abs(meas[sel] - model[sel])) <= 5e-4


def test_branch_fit_writes_exact_zero_as_positive():
    # purely real lam has an exactly-zero odd fit; the speed is +0.0, not -0.0
    etas = np.linspace(0.0, 0.5, 11)
    lam = -np.outer([0.5, 1.0, 2.0], etas ** 2) + 0j
    bs = spectral._fit_branches(spectral.BranchSet(
        sector=0, etas=etas, lam=lam, psi=None))
    assert [math.copysign(1.0, beta) for beta in bs.beta] == [1.0] * 3
    assert np.allclose(bs.damping, [0.5, 1.0, 2.0], rtol=1e-12)
    # and purely imaginary lam has an exactly-zero damping
    bs = spectral._fit_branches(spectral.BranchSet(
        sector=1, etas=etas, lam=-1j * 0.7 * etas[None, :], psi=None))
    assert math.copysign(1.0, bs.damping[0]) == 1.0
    assert abs(bs.beta[0] - 0.7) <= 1e-12


def test_semigroup_split(ops24):
    op0 = ops24[0]
    ts = np.linspace(0.0, 20.0, 11)
    out = spectral.semigroup_split(op0, 0.3, ts, r0_hat=0.5)
    # t = 0: full propagator is the identity
    assert np.max(np.abs(out["S"][0] - np.eye(op0.basis.n))) <= 1e-9
    assert np.isfinite(out["norm_S2"][0])
    # remainder decays exponentially with positive fitted rate
    slope, _, r2 = linear_log_fit(ts[1:], out["norm_S2"][1:])
    alpha = -slope
    assert alpha > 0
    assert r2 > 0.99
    # identity S = S1 + S2
    assert np.max(np.abs(out["S"] - out["S1"] - out["S2"])) <= 1e-8


def test_semigroup_beyond_fluid_radius(ops24):
    op0 = ops24[0]
    ts = np.linspace(1.0, 20.0, 8)
    out = spectral.semigroup_split(op0, 2.0, ts, r0_hat=0.5)
    assert np.max(np.abs(out["S1"])) == 0.0
    norm_S = [spectral.eta_operator_norm(op0.basis, s, 2.0) for s in out["S"]]
    slope, _, _ = linear_log_fit(ts, norm_S)
    alpha = -slope
    assert alpha > 0


def test_semigroup_property(ops24):
    op0 = ops24[0]
    B = spectral.mode_matrix(op0, 0.4)
    S = {t: scipy.linalg.expm(B * t) for t in (0.7, 1.3, 2.0)}
    assert np.max(np.abs(S[2.0] - S[0.7] @ S[1.3])) <= 1e-9


# --------------------------------------------------------------------- #
# per-frequency propagator
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("ts, h", [
    ([1.0, 2.0, 4.0, 8.0], 1.0),
    ([0.0, 2.0, 5.0, 10.0], 1.0),
    (np.linspace(5.0, 30.0, 11), 2.5),
    ([0.0], 0.0),
])
def test_lattice_step(ts, h):
    assert abs(spectral.lattice_step(ts) - h) <= 1e-12


@pytest.mark.parametrize("ts", [
    [1.0, 2.0, 4.0, 8.0],
    [0.0, 2.0, 5.0, 10.0],
    [0.3, 1.0, 2.7],
    [2.0, 0.5, 2.0, 1.0],            # unsorted, with a duplicate
    [0.5, 1.0, np.sqrt(2.0)],        # no lattice: one expm per gap
])
@pytest.mark.parametrize("eta", [0.3, 2.0])
def test_propagate_matches_expm(ops16, rng, ts, eta):
    B = spectral.mode_matrix(ops16[0], eta)
    X = rng.standard_normal((B.shape[0], 2))
    out = spectral.propagate(B, X, ts)
    assert out.shape == (len(ts),) + X.shape
    for t, Y in zip(ts, out):
        ref = scipy.linalg.expm(B * t) @ X
        assert np.max(np.abs(Y - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_propagate_zero_time_is_identity(ops16, rng):
    B = spectral.mode_matrix(ops16[0], 0.7)
    X = rng.standard_normal(B.shape[0])
    out = spectral.propagate(B, X, [0.0])
    assert np.array_equal(out[0], X)


def test_propagate_rejects_negative_time(ops16):
    B = spectral.mode_matrix(ops16[0], 0.7)
    with pytest.raises(ValueError):
        spectral.propagate(B, np.ones(B.shape[0]), [1.0, -1.0])


def _rel_to_scipy(E, A):
    ref = scipy.linalg.expm(A)
    return np.max(np.abs(E - ref)) / np.max(np.abs(ref))


def test_expm_matches_scipy(rng):
    A = rng.standard_normal((5, 24, 24))
    E = spectral.expm(A)
    assert E.shape == A.shape
    for Ei, Ai in zip(E, A):
        assert _rel_to_scipy(Ei, Ai) <= 1e-13
    C = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    assert _rel_to_scipy(spectral.expm(C), C) <= 1e-13
    # s = 0: no scaling or squaring; and a 1-norm of 60: s = 4
    small = A[0] * (spectral.THETA13 / 2.0) / np.abs(A[0]).sum(axis=0).max()
    assert _rel_to_scipy(spectral.expm(small), small) <= 1e-13
    big = A[1] * 60.0 / np.abs(A[1]).sum(axis=0).max()
    assert _rel_to_scipy(spectral.expm(big), big) <= 1e-13


def test_expm_of_zero_is_identity():
    # no log2(0) warning, and exactly I, alone and next to a scaled matrix
    assert np.array_equal(spectral.expm(np.zeros((6, 6))), np.eye(6))
    stack = np.zeros((2, 6, 6))
    stack[1] = 20.0 * np.eye(6)
    E = spectral.expm(stack)
    assert np.array_equal(E[0], np.eye(6))
    assert _rel_to_scipy(E[1], stack[1]) <= 1e-13


def test_expm_stack_same_bits_as_single(ops16):
    # per-matrix scaling: norms from 0.2 to 50 in one stack
    etas = [0.0, 0.3, 2.0, 9.0]
    A = spectral.real_mode_matrices(ops16[0], etas) * np.array(
        [0.05, 1.0, 4.0, 0.5])[:, None, None]
    E = spectral.expm(A)
    for Ei, Ai in zip(E, A):
        assert np.array_equal(Ei, spectral.expm(Ai))
    assert np.array_equal(E[1:3], spectral.expm(A[1:3]))


@pytest.mark.parametrize("n1, nr", [(16, 8), (5, 2)])
def test_real_mode_matrices_same_bits_as_real_form(n1, nr, cache_dir):
    # n1 = 5 has a node on v1 = 0, which P fixes
    from mvpb.collision import CollisionOperator
    from mvpb.green import SpaceGrid
    etas = np.concatenate([[0.0], SpaceGrid(50.0, 64).eta, [-0.7]])
    for b in basis_pair(n1, nr):
        op = CollisionOperator(b, cache_dir=cache_dir)
        block = spectral.real_mode_matrices(op, etas)
        for eta, Br in zip(etas, block):
            ref = spectral.real_form(spectral.mode_matrix(op, eta), b)
            assert np.array_equal(Br, ref)
        assert np.array_equal(spectral.real_mode_matrices(op, [0.3])[0],
                              spectral.real_form(spectral.mode_matrix(op, 0.3),
                                                 b))


@pytest.mark.parametrize("n1, nr", [(16, 8), (5, 2)])
def test_real_mode_matrices_block_structure(n1, nr, cache_dir):
    # in pair coordinates the EE and OO blocks are the eta-free part of L,
    # copied bit for bit, and the coupling blocks are linear in eta, plus
    # the field term in sector 0; n1 = 5 has nodes that P fixes
    from mvpb.collision import CollisionOperator
    etas = np.array([1.0, 0.0, 0.3, -0.7, 3.0])
    eps = np.finfo(float).eps
    for b in basis_pair(n1, nr):
        op = CollisionOperator(b, cache_dir=cache_dir)
        E, O = slice(None, b.ne), slice(b.ne, None)
        assert not op.Lmat_pairs[E, O].any()
        assert not op.Lmat_pairs[O, E].any()
        R = spectral.real_mode_matrices(op, etas)
        for Rk in R:
            assert np.array_equal(Rk[E, E], op.Lmat_pairs[E, E])
            assert np.array_equal(Rk[O, O], op.Lmat_pairs[O, O])
        if b.sector == 1:
            for eta, Rk in zip(etas, R):
                for s in ((E, O), (O, E)):
                    assert np.abs(Rk[s] - eta * R[0][s]).max() \
                        <= 4 * eps * abs(eta) * np.abs(R[0][s]).max()
        # and the whole of R(eta), field term included, is W* B(eta) W
        W = _unitary(b)
        for eta, Rk in zip(etas, R):
            ref = W.conj().T @ spectral.mode_matrix(op, eta) @ W
            assert np.abs(Rk - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("ts", [[0.0, 1.0, 2.0, 4.0], [0.5, 1.0, np.sqrt(2.0)]])
def test_propagate_stack_same_bits_as_single(ops16, rng, ts):
    b = ops16[0].basis
    Br = spectral.real_mode_matrices(ops16[0], [0.2, 0.9, 3.0])
    X = rng.standard_normal((b.n, 2)) + 1j * rng.standard_normal((b.n, 2))
    out = spectral.propagate(Br, np.broadcast_to(X, (3,) + X.shape), ts)
    assert out.shape == (len(ts), 3) + X.shape
    for k in range(3):
        assert np.array_equal(out[:, k], spectral.propagate(Br[k], X, ts))


def test_package_has_no_scipy_expm():
    # one propagator path, spectral.expm, which every module imports by
    # name; SciPy's stays the tests' oracle.  So no module reads an
    # attribute expm (scipy.linalg.expm, or under any alias) or imports
    # expm from scipy.
    root = pathlib.Path(spectral.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr != "expm", f"{path.name}:{node.lineno}"
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").startswith("scipy"):
                assert "expm" not in [a.name for a in node.names], path.name


def test_only_space_grid_reaches_the_fft():
    # SpaceGrid owns the grid's Fourier conventions, the FFT and the
    # (-1)^k origin sign: no module but green.py reads an attribute fft
    # (np.fft.*, numpy.fft, scipy.fft) or _sign, or imports an fft module.
    root = pathlib.Path(spectral.__file__).parent
    for path in sorted(root.glob("*.py")):
        if path.name == "green.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("fft", "_sign"), where
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [a.name for a in node.names]
                assert not any("fft" in m for m in names), where

# --------------------------------------------------------------------- #

def _unitary(basis):
    """W = Q D with R = W* B W: the columns of Q are (e_i + e_Pi)/sqrt2 for
    each mirror pair i < P[i], then e_i for each node P fixes, then
    (e_i - e_Pi)/sqrt2 for each pair, and D is 1 on the even columns and
    i on the odd ones."""
    P, I = basis.reflection, np.eye(basis.n)
    lo = [i for i in range(basis.n) if i < P[i]]
    fix = [i for i in range(basis.n) if i == P[i]]
    cols = ([(I[i] + I[P[i]]) / np.sqrt(2.0) for i in lo]
            + [I[i] for i in fix]
            + [1j * (I[i] - I[P[i]]) / np.sqrt(2.0) for i in lo])
    return np.array(cols).T


def test_reflection_mirrors_v1(bases24):
    # exact in floating point: n1 = 5 has a node on v1 = 0, fixed by P
    for b in bases24 + basis_pair(8, 4) + basis_pair(5, 2):
        r = b.reflection
        assert np.array_equal(r[r], np.arange(b.n))
        assert np.array_equal(b.v1[r], -b.v1)
        assert np.array_equal(b.vr[r], b.vr)
        assert np.array_equal(b.w[r], b.w)


@pytest.mark.parametrize("eta", [0.0, 0.3, -0.7, 3.0])
def test_real_form_is_unitary_transform(ops24, eta):
    for op in ops24:
        B = spectral.mode_matrix(op, eta)
        U = _unitary(op.basis)
        Br = spectral.real_form(B, op.basis)
        assert Br.dtype == np.float64
        ref = U.conj().T @ B @ U
        assert np.max(np.abs(Br - ref)) <= 1e-13 * np.max(np.abs(B))


@pytest.mark.parametrize("eta", [0.0, 0.3, -0.7, 3.0])
def test_real_form_spectrum_matches_complex_eig(ops24, eta):
    for op in ops24:
        B = spectral.mode_matrix(op, eta)
        w = scipy.linalg.eigvals(B)
        wr = scipy.linalg.eigvals(spectral.real_form(B, op.basis))
        dist = np.abs(w[:, None] - wr[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(dist)
        assert np.max(dist[rows, cols]) <= 1e-10 * np.max(np.abs(w))


@pytest.mark.parametrize("n1, nr", [(16, 8), (5, 2)])
def test_real_form_maps_round_trip(n1, nr, rng):
    # n1 = 5 has a node on v1 = 0, which P fixes
    b = basis_pair(n1, nr)[0]
    X = rng.standard_normal((b.n, 3)) + 1j * rng.standard_normal((b.n, 3))
    U = _unitary(b)
    scale = np.max(np.abs(X))
    # the basis's own maps are Q^T and Q: U = Q D has real even columns
    # and odd ones i times real
    Q = U.real + U.imag
    C = b.to_pairs(X, 0)
    assert np.max(np.abs(C - Q.T @ X)) <= 1e-14 * scale
    assert np.max(np.abs(b.from_pairs(C, 0) - Q @ C)) <= 1e-14 * scale
    Z = spectral.to_real_form(X, b)
    assert np.max(np.abs(Z - U.conj().T @ X)) <= 1e-14 * scale
    back = spectral.from_real_form(Z, b)
    assert np.max(np.abs(back - X)) <= 1e-14 * scale
    # the axis argument acts on the velocity axis of stacked vectors
    Zt = spectral.to_real_form(X.T, b, axis=1)
    assert np.array_equal(Zt, Z.T)


def test_eigen_branches_match_complex_oracle(ops16, monkeypatch):
    real = [spectral.eigen_branches(op, eta_max=0.5, steps=33) for op in ops16]
    # complex oracle: the same continuation on a complex eig of mode_matrix
    monkeypatch.setattr(spectral, "real_form", lambda B, basis: B)
    monkeypatch.setattr(spectral, "from_real_form", lambda Y, basis: Y)
    oracle = [spectral.eigen_branches(op, eta_max=0.5, steps=33) for op in ops16]
    for bs, ref in zip(real, oracle):
        assert np.array_equal(bs.labels, ref.labels)
        assert np.max(np.abs(bs.beta - ref.beta)) <= 1e-10
        assert np.max(np.abs(bs.damping - ref.damping)) <= 1e-10
        assert bs.r0_hat == ref.r0_hat


def _branches_with_workers(monkeypatch, workers, op, etas):
    monkeypatch.setattr(spectral, "eig_workers", lambda: workers)
    return spectral.eigen_branches_at(op, etas)


def test_eigen_branches_same_on_any_worker_count(ops16, monkeypatch):
    # the pool only runs the eigensolves; the matching stays sequential
    etas = np.linspace(0.0, 0.5, 33)
    for op in ops16:
        one = _branches_with_workers(monkeypatch, 1, op, etas)
        two = _branches_with_workers(monkeypatch, 2, op, etas)
        for key in ("lam", "psi", "beta", "damping"):
            assert np.array_equal(getattr(one, key), getattr(two, key))
        assert one.r0_hat == two.r0_hat


def test_eigen_branches_early_stop_leaves_no_worker(ops16, monkeypatch):
    # on this grid the sector-0 fluid count changes after eta = 2.55 (n=128),
    # so the continuation breaks with solves still queued or running
    etas = np.linspace(0.0, 3.0, 61)
    one = _branches_with_workers(monkeypatch, 1, ops16[0], etas)
    threads = threading.active_count()
    two = _branches_with_workers(monkeypatch, 2, ops16[0], etas)
    assert threading.active_count() == threads
    assert one.r0_hat == two.r0_hat < etas[-1]
    assert np.array_equal(one.lam, two.lam)


@pytest.mark.parametrize("env, workers", [
    ({}, lambda cpus: 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, lambda cpus: cpus),
    ({"OMP_NUM_THREADS": "2"}, lambda cpus: max(1, cpus // 2)),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"},
     lambda cpus: cpus),
    ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "2"},
     lambda cpus: max(1, cpus // 2)),
])
def test_eig_workers_from_blas_threads(monkeypatch, env, workers):
    for var in spectral.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cpus = len(os.sched_getaffinity(0))
    assert spectral.eig_workers() == workers(cpus)


def test_one_blas_thread_layouts(monkeypatch):
    # a library without a thread setter leaves the layout alone; otherwise
    # every loaded OpenBLAS is set to one thread and the variable follows,
    # which a later call reads as set by the environment.  The libraries
    # are stand-ins, so this process keeps its BLAS threads.
    with open("/proc/self/maps", encoding="utf-8") as fh:
        if not any("openblas" in ln for ln in fh):
            pytest.skip("no OpenBLAS loaded")
    for var in spectral.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    calls = []

    def set_threads(k):
        calls.append(k)

    monkeypatch.setattr(spectral.ctypes, "CDLL",
                        lambda path: types.SimpleNamespace())
    assert spectral.one_blas_thread() == "unchanged"
    assert spectral.blas_threads() is None
    monkeypatch.setattr(spectral.ctypes, "CDLL", lambda path: (
        types.SimpleNamespace(scipy_openblas_set_num_threads=set_threads)))
    assert spectral.one_blas_thread() == "set by mvpb"
    assert calls and set(calls) == {1}
    assert spectral.blas_threads() == 1
    done = len(calls)
    assert spectral.one_blas_thread() == "environment"
    assert len(calls) == done


def test_real_form_branch_pairs_are_exact(ops16):
    # conj(B) = P B P makes the spectrum closed under conjugation, and a real
    # eigensolve keeps that exactly: the acoustic pair shares its damping
    bs = spectral.eigen_branches(ops16[0], eta_max=0.5, steps=33)
    jp = spectral.branch_by_label(bs, 1)
    jm = spectral.branch_by_label(bs, -1)
    assert np.array_equal(bs.lam[jm], np.conj(bs.lam[jp]))
    assert bs.beta[spectral.branch_by_label(bs, 0)] == 0.0


@pytest.mark.parametrize("ts", [[1.0, 2.0, 4.0], [0.5, 1.0, np.sqrt(2.0)]])
def test_propagate_real_matrix_complex_vectors(ops16, rng, ts):
    b = ops16[0].basis
    Br = spectral.real_form(spectral.mode_matrix(ops16[0], 0.9), b)
    X = rng.standard_normal((b.n, 2)) + 1j * rng.standard_normal((b.n, 2))
    out = spectral.propagate(Br, X, ts)
    assert out.shape == (len(ts),) + X.shape
    for t, Y in zip(ts, out):
        ref = scipy.linalg.expm(Br * t) @ X
        assert np.max(np.abs(Y - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_green_action_matches_expm(ops16, rng):
    from mvpb.green import SpaceGrid, green_action
    op0 = ops16[0]
    b = op0.basis
    grid = SpaceGrid(box_half_length=20.0, nx=16)
    seeds = np.array([b.invariants[0], rng.standard_normal(b.n)])
    ts = [0.0, 1.0, 2.0, 4.0, 8.0]
    coef = green_action(op0, grid, seeds, ts)
    amp = 1.0 / (2.0 * grid.L)
    for k, eta in enumerate(grid.eta):
        B = spectral.mode_matrix(op0, eta)
        for it, t in enumerate(ts):
            ref = (scipy.linalg.expm(B * t) @ seeds.T).T * amp
            err = np.max(np.abs(coef[:, it, k] - ref))
            assert err <= 1e-12 * np.max(np.abs(ref))


def test_semigroup_split_expm_fallback(ops16, monkeypatch):
    # eigenvalues too ill-conditioned for the spectral projectors leave
    # S1 = 0 and S2 = S, with S(t) the same propagator of the real form
    op0 = ops16[0]
    ts = [0.0, 1.0, 2.5, 5.0]
    ref = spectral.semigroup_split(op0, 0.3, ts, r0_hat=0.5)
    monkeypatch.setattr(spectral, "EIGEN_COND_MAX", 0.0)
    out = spectral.semigroup_split(op0, 0.3, ts, r0_hat=0.5)
    assert np.max(np.abs(out["S1"])) == 0.0
    assert np.max(np.abs(out["S"] - ref["S"])) <= 1e-10
    assert np.max(np.abs(out["S2"] - out["S"])) == 0.0


def test_semigroup_split_beyond_fluid_radius_skips_eigensolve(ops16,
                                                             monkeypatch):
    # S1 is zero beyond r0_hat whatever the spectrum, so no eigensolve runs
    def no_eig(*args, **kwargs):
        raise AssertionError("eigensolve beyond the fluid radius")

    monkeypatch.setattr(spectral, "_eig", no_eig)
    out = spectral.semigroup_split(ops16[0], 2.0, [0.0, 1.0, 5.0],
                                   r0_hat=0.5)
    assert out["eigbasis_cond"] is None
    assert np.max(np.abs(out["S1"])) == 0.0
    assert np.array_equal(out["S2"], out["S"])


# --------------------------------------------------------------------- #
# duals from the eta-pairing, micro resolvent by symmetric solves
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("eta", [0.1, 2.0])
def test_eta_operator_norm_matches_definition(bases16, rng, eta):
    # ||A||_eta = sup ||A f||_W / ||f||_W = sqrt(max eig(W^-1 A^H W A))
    b = bases16[0]
    A = rng.standard_normal((b.n, b.n)) + 1j * rng.standard_normal((b.n, b.n))
    W = b.eta_metric(eta)
    want = np.sqrt(np.max(np.abs(scipy.linalg.eigvals(
        np.linalg.solve(W, A.conj().T @ W @ A)))))
    got = spectral.eta_operator_norm(b, A, eta)
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("eta", [0.1, 0.3])
def test_semigroup_contracts_in_eta_norm(ops16, eta):
    b = ops16[0].basis
    out = spectral.semigroup_split(ops16[0], eta, [0.5, 1.0, 5.0, 20.0],
                                   r0_hat=0.5)
    norm_S = [spectral.eta_operator_norm(b, s, eta) for s in out["S"]]
    assert np.max(norm_S) <= 1.0 + 1e-9


def _pole_sum_resolvent(op, eta, sources, tests, sigma):
    """Pairings R, dR from a diagonalisation of the micro-space matrix C."""
    b = op.basis
    lam, Q = op.micro_spectrum()
    Qw = Q * b.w[:, None]
    C = np.diag(lam) - 1j * eta * (Qw.T @ (b.v1[:, None] * Q))
    d, X = scipy.linalg.eig(C)
    src = Qw.T @ (b.v1 * np.asarray(sources)).T
    tst = Qw.T @ (b.v1 * np.asarray(tests)).T
    weights = np.einsum("lk,lj->kjl", np.linalg.solve(X, src), X.T @ tst)
    den = d + 1j * eta * sigma
    return ((weights / den).sum(axis=-1),
            (-1j * eta * weights / den ** 2).sum(axis=-1))


@pytest.mark.parametrize("eta", [0.2, 0.7])
@pytest.mark.parametrize("sector", [0, 1])
def test_micro_resolvent_matches_pole_sum(ops16, eta, sector):
    op = ops16[sector]
    b = op.basis
    E = spectral.macro_eigenvectors(b, eta) if sector == 0 else b.invariants
    res = spectral.MicroResolvent(op, eta, E, E)
    for sigma in (0.3 + 0.1j, -1.2, 1.6 - 0.05j):
        R, dR = res.eval(sigma)
        R0, dR0 = _pole_sum_resolvent(op, eta, E, E, sigma)
        assert np.max(np.abs(R - R0)) <= 1e-10 * np.max(np.abs(R0))
        assert np.max(np.abs(dR - dR0)) <= 1e-10 * np.max(np.abs(dR0))


@pytest.mark.parametrize("eta", [0.1, 0.5])
def test_semigroup_fluid_projector(ops16, eta):
    # S1(0) is the rank-3 spectral projector onto the fluid branches
    op0 = ops16[0]
    P = spectral.semigroup_split(op0, eta, [0.0], r0_hat=1.0)["S1"][0]
    B = spectral.mode_matrix(op0, eta)
    assert np.max(np.abs(P @ P - P)) <= 1e-10
    assert np.max(np.abs(P @ B - B @ P)) <= 1e-10
    assert abs(np.trace(P) - 3.0) <= 1e-10
