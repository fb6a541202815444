"""Collision-operator contracts: frequency asymptotics, weighted symmetry,
null space, coercivity, deflated inverse, and transport coefficients."""

import hashlib
import os
import stat
import time
import tracemalloc

import numpy as np
import pytest

from mvpb import collision
from mvpb.collision import (CollisionOperator, collision_frequency, nu_floor,
                            quadratic_form, transport_coefficients)
from mvpb.errors import IllConditioned
from mvpb.nonlinear import build_gamma
from mvpb.velocity import VelocityBasis, basis_pair


def test_frequency_at_zero():
    val = collision_frequency(0.0)
    assert abs(val - 2.0 * np.sqrt(2.0 * np.pi)) <= 1e-12
    # removable singularity: tiny speeds agree with the limit
    assert abs(collision_frequency(1e-9) - val) <= 1e-8


def test_frequency_linear_growth():
    # nu(r) / r -> pi for large speeds
    assert abs(collision_frequency(50.0) / 50.0 - np.pi) <= 0.01 * np.pi


def test_frequency_bounds(bases24):
    b0, _ = bases24
    nu = collision_frequency(b0.speed)
    nu0 = nu_floor(b0)
    nu1 = float(np.max(nu / (1.0 + b0.speed)))
    assert nu0 > 0
    assert np.all(nu >= nu0 * (1.0 + b0.speed) - 1e-12)
    assert np.all(nu <= nu1 * (1.0 + b0.speed) + 1e-12)


def test_weighted_symmetry(ops24):
    for op in ops24:
        W = op.basis.w
        A = W[:, None] * op.Kmat
        rel = np.max(np.abs(A - A.T)) / np.max(np.abs(A))
        assert rel <= 1e-8


def test_equilibrium_identity(ops24):
    # L chi = 0 on the invariant profile forces K chi = nu * chi
    for op in ops24:
        b = op.basis
        chi = b.invariants[0]
        res = chi @ op.Kmat.T - op.nu * chi
        assert b.norm(res) / b.norm(chi) <= 1e-4


def test_invariants_annihilated(ops24):
    for op in ops24:
        b = op.basis
        for chi in b.invariants:
            assert b.norm(op.apply_L(chi)) <= 1e-6 * b.norm(chi)


def test_null_space_dimension(ops24):
    # five near-zero eigenvalues across sectors (the m=1 pair counted once
    # per radial profile); the next one sits below -mu_hat
    evs = []
    for op in ops24:
        b = op.basis
        s = np.sqrt(b.w)
        S = s[:, None] * op.Lmat / s[None, :]
        evs.append(np.sort(np.linalg.eigvalsh(0.5 * (S + S.T)))[::-1])
    e0, e1 = evs
    assert np.all(np.abs(e0[:3]) <= 1e-4)
    # the m=1 pair shares one radial profile on the reduced grid
    assert abs(e1[0]) <= 1e-4
    mu = min(ops24[0].micro_gap(), ops24[1].micro_gap())
    assert mu > 0
    assert e0[3] <= -mu + 1e-10
    assert e1[1] <= -mu + 1e-10


def test_nonpositive_spectrum(ops24):
    for op in ops24:
        b = op.basis
        s = np.sqrt(b.w)
        S = s[:, None] * op.Lmat / s[None, :]
        assert np.max(np.linalg.eigvalsh(0.5 * (S + S.T))) <= 1e-6


def test_coercivity(ops24, rng):
    # (Lf, f) <= -mu_hat ||P1 f||^2 over 1000 random unit vectors
    for op in ops24:
        b = op.basis
        mu = op.micro_gap()
        f = rng.standard_normal((500, b.n))
        f /= np.linalg.norm(f, axis=1)[:, None]
        lhs = np.einsum("kn,kn->k", b.w[None, :] * f, op.apply_L(f))
        p1 = f @ b.P1.T
        rhs = np.einsum("kn,kn->k", b.w[None, :] * p1, p1)
        assert np.all(lhs <= -mu * rhs + 1e-10)


def test_compactness_decay(ops24):
    # eigenvalues of K sorted by magnitude decay past the leading cluster
    op = ops24[0]
    b = op.basis
    s = np.sqrt(b.w)
    S = s[:, None] * op.Kmat / s[None, :]
    mags = np.sort(np.abs(np.linalg.eigvalsh(0.5 * (S + S.T))))[::-1]
    tail = mags[5:]
    assert np.all(np.diff(tail) <= 1e-12)
    assert tail[-1] <= 0.05 * mags[0]


def test_solve_micro_invariant_input(ops24):
    op = ops24[0]
    b = op.basis
    h = op.solve_micro(b.invariants[0])
    assert b.norm(h) <= 1e-10


def test_solve_micro_residual_and_deflation(ops24):
    op = ops24[0]
    b = op.basis
    g = b.v1 * b.invariants[1]
    h = op.solve_micro(g)
    r = g @ b.P1.T
    assert b.norm(op.apply_L(h) - r) <= 1e-8 * b.norm(r)
    for chi in b.invariants:
        assert abs(b.inner(h, chi)) <= 1e-10


def test_solve_micro_stacked_rows_with_invariant_row(ops24, rng):
    # the null guard acts per row: an invariant row comes back zero and the
    # other rows equal their single-row solves
    op = ops24[0]
    b = op.basis
    rhs = np.vstack([b.v1 * b.invariants[1], b.invariants[2],
                     rng.standard_normal(b.n)])
    h = op.solve_micro(rhs)
    assert h.shape == rhs.shape
    assert np.all(h[1] == 0.0)
    for i in (0, 2):
        one = op.solve_micro(rhs[i])
        assert b.norm(h[i] - one) <= 1e-13 * b.norm(one)


def test_transport_coefficients(ops24):
    tc = transport_coefficients(*ops24)
    for key in ("a_plus", "a_minus", "a_zero", "a_shear", "kappa1", "kappa2",
                "mu_hat", "nu0"):
        assert tc[key] > 0, key
    # shear degeneracy: same quadratic form
    assert tc["a_shear"] == tc["kappa1"]
    # reflection symmetry of the acoustic pair
    assert abs(tc["a_plus"] - tc["a_minus"]) <= 1e-10
    assert abs(tc["sound_speed"] - np.sqrt(8.0 / 3.0)) <= 1e-14
    # mixing matrix has an exactly zero diagonal and is skew-symmetric
    # (symmetric quadratic form over an antisymmetric speed difference)
    mix = tc["mixing"]
    assert np.all(np.diag(mix) == 0)
    assert np.max(np.abs(mix + mix.T)) <= 1e-10


def test_reflection_oracle(ops24, cache_dir):
    # a_{+} recomputed under the v1 -> -v1 reflected macro vector
    op0, _ = ops24
    b = op0.basis
    chi0, chi1, chi4 = b.invariants
    e_plus = (np.sqrt(3.0) / 4.0 * chi0 + np.sqrt(2.0) / 2.0 * chi1
              + np.sqrt(2.0) / 4.0 * chi4)
    e_refl = e_plus[b.reflection]
    # the reflection flips the sign of chi1 only; the invariants come out of
    # a Gram-Schmidt, so the mirror holds to round-off, not bit for bit
    e_minus = (np.sqrt(3.0) / 4.0 * chi0 - np.sqrt(2.0) / 2.0 * chi1
               + np.sqrt(2.0) / 4.0 * chi4)
    assert np.max(np.abs(e_refl - e_minus)) <= 1e-15
    a_p = quadratic_form(op0, e_plus, e_plus)
    assert abs(a_p - quadratic_form(op0, e_refl, e_refl)) <= 1e-14
    assert abs(a_p - quadratic_form(op0, e_minus, e_minus)) <= 1e-10


def test_grid_convergence_shear(ops16, ops24):
    tc16 = transport_coefficients(*ops16)
    tc24 = transport_coefficients(*ops24)
    assert abs(tc16["kappa1"] - tc24["kappa1"]) / tc24["kappa1"] <= 0.01


def test_kernel_cache_roundtrip(tmp_path):
    b = VelocityBasis(8, 4, 8.0, 0)
    op1 = CollisionOperator(b, cache_dir=str(tmp_path))
    op2 = CollisionOperator(b, cache_dir=str(tmp_path))
    assert np.array_equal(op1.kernel, op2.kernel)


def _full_rule_kernel(basis, m, nphi):
    """k_m on every node pair from all nphi azimuth nodes and every row."""
    v1, vr, n = basis.v1, basis.vr, basis.n
    phi = (np.arange(nphi) + 0.5) * 2.0 * np.pi / nphi
    fac = np.cos(m * phi) * (2.0 * np.pi / nphi)
    km = np.empty((n, n))
    chunk = max(1, int(2e6 // (n * nphi)))
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        block = collision.scattering_kernel(
            v1[i0:i1, None, None], vr[i0:i1, None, None],
            v1[None, :, None], vr[None, :, None], np.cos(phi)[None, None, :])
        km[i0:i1] = block @ fac
    km = 0.5 * (km + km.T)
    np.fill_diagonal(km, 0.0)
    return km


@pytest.mark.parametrize("nphi", [128, 127])
@pytest.mark.parametrize("n1, nr", [(8, 4), (16, 8)])
def test_reduced_kernel_matches_full_rule(n1, nr, nphi):
    # the half azimuth rule and the mirrored rows give both harmonics of
    # the full midpoint rule evaluated on every row
    b = VelocityBasis(n1, nr, 8.0, 0)
    km = collision.reduced_kernel(b, nphi)
    assert km.shape == (2, b.n, b.n)
    for m in (0, 1):
        want = _full_rule_kernel(b, m, nphi)
        assert np.max(np.abs(km[m] - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n1, nr", [(8, 4), (16, 8), (5, 2)])
def test_reduced_kernel_mirror_exact(n1, nr):
    # P (v1 -> -v1) maps the kernel onto itself bit for bit, also for the
    # v1 = 0 rows of odd n1
    b = VelocityBasis(n1, nr, 8.0, 0)
    P = b.reflection
    km = collision.reduced_kernel(b)
    assert np.array_equal(km[:, P][:, :, P], km)


@pytest.mark.parametrize("n1, nr", [(9, 4), (16, 8)])
def test_reduced_kernel_same_bits_for_any_chunk(monkeypatch, n1, nr):
    # one swept row per chunk, the default budget and the former 2e6
    # entries give the same kernel; odd n1 puts v1 = 0 rows in the sweep
    b = VelocityBasis(n1, nr, 8.0, 0)
    built = []
    for entries in (1, collision.KERNEL_CHUNK_ENTRIES, 2_000_000):
        monkeypatch.setattr(collision, "KERNEL_CHUNK_ENTRIES", entries)
        built.append(collision.reduced_kernel(b))
    assert all(np.array_equal(km, built[0]) for km in built[1:])


def test_reduced_kernel_peak_memory():
    # the chunked scattering kernel keeps the build's temporaries a few MB
    # (about 4 MB traced at n = 288, 82 MB with a 2e6-entry budget); the
    # result itself is 1.3 MB
    b = VelocityBasis(24, 12, 8.0, 0)
    tracemalloc.start()
    try:
        collision.reduced_kernel(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _no_assembly(*args, **kwargs):
    raise AssertionError("kernel reassembled")


def test_kernel_cache_one_file_serves_both_sectors(tmp_path, monkeypatch):
    # a cold sector-0 build stores both harmonics, so sector 1 loads them
    b0, b1 = basis_pair(8, 4, 8.0)
    want = CollisionOperator(b1).kernel
    CollisionOperator(b0, cache_dir=str(tmp_path))
    assert len(os.listdir(tmp_path)) == 1
    monkeypatch.setattr(collision, "reduced_kernel", _no_assembly)
    op1 = CollisionOperator(b1, cache_dir=str(tmp_path))
    assert np.array_equal(op1.kernel, want)


def test_kernel_cache_file_layout_loads(tmp_path, monkeypatch):
    # a kernel file laid out as magic | u32 header length | JSON header |
    # float64 (2, n, n) payload, under the hash of its grid, loads without
    # assembly; each sector reads its harmonic
    header = b'{"fmt": 4, "n1": 4, "nphi": 128, "nr": 2, "vmax": 8.0}'
    grid = b'[4, 2, 8.0]'                        # n1, nr, vmax
    km = np.arange(128.0).reshape(2, 8, 8)
    name = "kernel_%s.bin" % hashlib.sha256(grid).hexdigest()[:24]
    with open(os.path.join(tmp_path, name), "wb") as fh:
        fh.write(b"MVPBKRN1" + np.uint32(len(header)).tobytes() + header
                 + km.tobytes())
    monkeypatch.setattr(collision, "reduced_kernel", _no_assembly)
    for sector in (0, 1):
        op = CollisionOperator(VelocityBasis(4, 2, 8.0, sector),
                               cache_dir=str(tmp_path))
        assert np.array_equal(op.kernel, km[sector])


def test_kernel_cache_fmt2_file_rebuilt(tmp_path, monkeypatch):
    # a kernel of an earlier format (fmt 2: nodes mirrored only to
    # round-off; fmt 3: one sector per file) at the grid's path is not
    # read, and the rebuild replaces it
    b = VelocityBasis(4, 2, 8.0, 0)
    first = CollisionOperator(b, cache_dir=str(tmp_path))
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    for fmt in (2, 3):
        header = {"fmt": fmt, "n1": 4, "nphi": 128, "nr": 2, "sector": 0,
                  "vmax": 8.0}
        collision.store_array(path, header, first.kernel + 1.0)
        again = CollisionOperator(b, cache_dir=str(tmp_path))
        assert np.array_equal(again.kernel, first.kernel)
        assert os.listdir(tmp_path) == [os.path.basename(path)]
    monkeypatch.setattr(collision, "reduced_kernel", _no_assembly)
    loaded = CollisionOperator(b, cache_dir=str(tmp_path))
    assert np.array_equal(loaded.kernel, first.kernel)


@pytest.mark.parametrize("keep", [10, 40, 200])
def test_kernel_cache_truncated_file_rebuilt(tmp_path, keep):
    # cut inside the header length, the JSON header and the payload
    b = VelocityBasis(4, 2, 8.0, 0)
    first = CollisionOperator(b, cache_dir=str(tmp_path))
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    with open(path, "rb") as fh:
        head = fh.read(keep)
    with open(path, "wb") as fh:
        fh.write(head)
    again = CollisionOperator(b, cache_dir=str(tmp_path))
    assert np.array_equal(again.kernel, first.kernel)
    assert os.path.getsize(path) > 200


def test_cache_files_get_open_mode(tmp_path):
    # stored kernel and Gamma files carry the mode open() gives a new file
    # in the same directory (0o666 less the umask), not mkstemp's 0o600
    b = VelocityBasis(4, 2, 8.0, 0)
    CollisionOperator(b, cache_dir=str(tmp_path))
    build_gamma(b, cache_dir=str(tmp_path))
    probe = os.path.join(tmp_path, "probe")
    with open(probe, "wb"):
        pass
    want = stat.S_IMODE(os.stat(probe).st_mode)
    os.unlink(probe)
    names = sorted(os.listdir(tmp_path))
    assert [n.split("_")[0] for n in names] == ["gamma", "kernel"]
    for name in names:
        mode = stat.S_IMODE(os.stat(os.path.join(tmp_path, name)).st_mode)
        assert mode == want, name


def test_session_cache_prunes_stale_digests(tmp_path, monkeypatch):
    # tests/conftest.py: without MVPB_CACHE, another digest's cache
    # directory under the temp directory goes once it is a day old
    import conftest
    monkeypatch.delenv("MVPB_CACHE", raising=False)
    current = "mvpb-cache-" + conftest._build_source_digest()
    stale = ["mvpb-cache-0123456789ab", "mvpb-cache-ffffffffffff"]
    kept = [current, "mvpb-cache-0123456789a", "mvpb-cache-0123456789abc",
            "mvpb-cache-0123456789AB", "mvpb-cache-x", "other"]
    old = time.time() - 2 * 86400.0
    for name in stale + kept:
        os.makedirs(tmp_path / name / "sub")
        os.utime(tmp_path / name, (old, old))
    fresh = tmp_path / "mvpb-cache-aaaaaaaaaaaa"
    os.makedirs(fresh)
    plain_file = tmp_path / "mvpb-cache-bbbbbbbbbbbb"
    plain_file.write_bytes(b"")
    os.utime(plain_file, (old, old))
    assert conftest.session_cache(str(tmp_path)) == str(tmp_path / current)
    assert sorted(os.listdir(tmp_path)) == sorted(
        kept + [fresh.name, plain_file.name])
    # with MVPB_CACHE set nothing is removed
    os.makedirs(tmp_path / stale[0])
    os.utime(tmp_path / stale[0], (old, old))
    monkeypatch.setenv("MVPB_CACHE", str(tmp_path / "elsewhere"))
    assert conftest.session_cache(str(tmp_path)) == str(tmp_path / "elsewhere")
    assert os.path.isdir(tmp_path / stale[0])


def test_solve_micro_raises_on_bad_tolerance(ops16):
    op = ops16[0]
    g = op.basis.v1 * op.basis.invariants[1]
    with pytest.raises(IllConditioned):
        op.solve_micro(g, tol=1e-18)


def test_kernel_cache_write_failure_leaves_no_file(tmp_path, monkeypatch):
    write_atomic = collision.write_atomic

    def disk_full_before_rename(path, write):
        def half_written(fh):
            write(fh)
            raise OSError("disk full")
        write_atomic(path, half_written)

    # the whole file is written, then the write fails before the rename
    monkeypatch.setattr(collision, "write_atomic", disk_full_before_rename)
    with pytest.raises(OSError):
        CollisionOperator(VelocityBasis(8, 4, 8.0, 0), cache_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []
