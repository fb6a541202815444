"""Bilinear collision tensor, nonlinear field solve, and the split-step
integrator for the perturbation system."""

import os
import threading

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.legendre import leggauss

from mvpb import collision, nonlinear, spectral
from mvpb.errors import NoConvergence
from mvpb.green import SpaceGrid
from mvpb.nonlinear import (GammaTensor, KineticState, NonlinearStepper,
                            apply_gamma, build_gamma, diffusive_profile,
                            field_time_derivative, gamma_direct,
                            initial_state, poisson_newton,
                            state_diagnostics)
from mvpb.moments import apply_v1_derivative, solve_field
from mvpb.velocity import VelocityBasis


@pytest.fixture(scope="module")
def grid():
    return SpaceGrid(box_half_length=100.0, nx=256)


# --------------------------------------------------------------------- #
# gamma tensor
# --------------------------------------------------------------------- #

def _apply_nodes(gamma, f, g):
    """apply_gamma on node fields, through their pair coordinates; g is f
    stays the f is g call."""
    b = gamma.basis
    cf = b.to_pairs(np.asarray(f))
    cg = cf if g is f else b.to_pairs(np.asarray(g))
    return b.from_pairs(apply_gamma(gamma, cf, cg))


def _node_coef(stepper, state):
    """The (nh, n) node coefficients of a state, from R's coordinates."""
    return spectral.from_real_form(state.real_coef, stepper.b, axis=1)


def test_gamma_symmetry(gamma16):
    T = gamma16.tensor
    err = np.abs(T - T.transpose(0, 2, 1)).max()
    assert err <= 1e-12 * np.abs(T).max()


def test_gamma_equilibrium(bases16, gamma16):
    b0, _ = bases16
    chi0 = b0.invariants[0]
    out = _apply_nodes(gamma16, chi0, chi0)
    assert b0.norm(out) <= 1e-6


def test_gamma_collision_invariance(bases16, gamma16, rng):
    b0, _ = bases16
    for _ in range(10):
        f = rng.standard_normal(b0.n)
        g = rng.standard_normal(b0.n)
        out = _apply_nodes(gamma16, f, g)
        p0 = out @ b0.P0.T
        assert b0.norm(p0) <= 1e-6 * b0.norm(f) * b0.norm(g)


def test_gamma_bilinear_symmetry_exact(bases16, gamma16, rng):
    b0, _ = bases16
    f = rng.standard_normal((7, b0.n))
    g = rng.standard_normal((7, b0.n))
    assert np.array_equal(apply_gamma(gamma16, f, g),
                          apply_gamma(gamma16, g, f))


def test_gamma_cache_roundtrip(bases16, gamma16, cache_dir):
    b0, _ = bases16
    again = build_gamma(b0, cache_dir=cache_dir)
    assert np.array_equal(again.tensor, gamma16.tensor)
    assert again.tag == gamma16.tag


# --------------------------------------------------------------------- #
# nonlinear field solve
# --------------------------------------------------------------------- #

def test_poisson_newton_zero(grid):
    phi = poisson_newton(grid, np.zeros(grid.nx))
    assert np.max(np.abs(phi)) == 0.0


def test_poisson_newton_linearization(grid):
    n = 1e-6 * np.exp(-grid.x ** 2 / 20.0)
    phi = poisson_newton(grid, n)
    lin = grid.to_physical(grid.to_coefficients(-n) / (1.0 + grid.eta ** 2))
    assert np.max(np.abs(phi - lin)) <= 1e-9


def test_poisson_newton_residual(grid):
    n = 0.2 * np.exp(-grid.x ** 2 / 20.0)
    phi = poisson_newton(grid, n)
    lap = grid.to_physical(grid.to_coefficients(phi) * (1.0 + grid.eta ** 2))
    res = lap - (np.exp(-phi) + phi - 1.0) + n
    assert np.max(np.abs(res)) <= 1e-12


@pytest.mark.parametrize("profile, box", [
    pytest.param("flat", (100.0, 256), id="flat"),
    pytest.param("wide_gaussian", (100.0, 256), id="wide_gaussian"),
    pytest.param("flat", (400.0, 8192), id="flat-L400-nx8192"),
])
def test_poisson_newton_guard_edge_inexact_steps(profile, box):
    # at the 0.5 amplitude guard the field sweep contracts by 1/2 per
    # sweep, its slowest rate: about 40 of its FIELD_MAXIT sweeps
    grid = SpaceGrid(*box)
    n = np.full(grid.nx, 0.5) if profile == "flat" \
        else 0.5 * np.exp(-grid.x ** 2 / 2000.0)
    phi = poisson_newton(grid, n)
    lap = grid.to_physical(grid.to_coefficients(phi) * (1.0 + grid.eta ** 2))
    res = lap - (np.exp(-phi) + phi - 1.0) + n
    assert np.max(np.abs(res)) <= 1e-12


def test_poisson_newton_large_data_rejected(grid):
    with pytest.raises(NoConvergence):
        poisson_newton(grid, 0.8 * np.exp(-grid.x ** 2 / 20.0))


def test_field_time_derivative_linear_limit(grid):
    dn_dt = np.exp(-grid.x ** 2 / 30.0) * np.sin(grid.x / 5.0)
    out = field_time_derivative(grid, np.zeros(grid.nx), dn_dt)
    lin = grid.to_physical(grid.to_coefficients(-dn_dt) / (1.0 + grid.eta ** 2))
    assert np.max(np.abs(out - lin)) <= 1e-12


def test_field_time_derivative_divergent_sweep_raises(grid):
    # |exp(-phi) - 1| = e - 1 > 1: the fixed-point sweep diverges
    with pytest.raises(NoConvergence):
        field_time_derivative(grid, np.full(grid.nx, -1.0),
                              np.exp(-grid.x ** 2 / 30.0))


# --------------------------------------------------------------------- #
# split-step integrator
# --------------------------------------------------------------------- #

def test_step_linear_mode_exact(ops16, grid):
    op0, _ = ops16
    b = op0.basis
    dt = 0.1
    stepper = NonlinearStepper(op0, grid, dt, gamma=None, field_terms=False)
    state = initial_state(op0, grid)
    out = stepper.step(state)
    for k in (0, 5, 50, grid.nh - 1):
        P = scipy.linalg.expm(spectral.mode_matrix(op0, grid.eta[k]) * dt)
        exact = P @ _node_coef(stepper, state)[k]
        assert np.max(np.abs(_node_coef(stepper, out)[k] - exact)) <= 1e-10


def test_half_step_real_form_matches_expm(ops16, grid):
    op0, _ = ops16
    rng = np.random.default_rng(7)
    b = op0.basis
    dt = 0.1
    stepper = NonlinearStepper(op0, grid, dt, gamma=None, field_terms=False)
    assert stepper.props.dtype == np.float64
    assert stepper.props.shape == (grid.nh, b.n, b.n)
    coef = rng.standard_normal((grid.nh, b.n)) \
        + 1j * rng.standard_normal((grid.nh, b.n))
    out = spectral.from_real_form(
        stepper._half_linear(spectral.to_real_form(coef, b, axis=1)),
        b, axis=1)
    for k in (0, 5, 50, grid.nh - 1):
        P = scipy.linalg.expm(spectral.mode_matrix(op0, grid.eta[k]) * dt / 2)
        exact = P @ coef[k]
        assert np.max(np.abs(out[k] - exact)) <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("entries", [spectral.PROPAGATOR_BLOCK_ENTRIES,
                                     5 * 128 ** 2])
def test_props_same_bits_on_any_workers_and_blocks(ops16, grid, monkeypatch,
                                                   entries):
    op0, _ = ops16
    monkeypatch.setattr(spectral, "PROPAGATOR_BLOCK_ENTRIES", 1)
    ref = NonlinearStepper(op0, grid, 0.1, field_terms=False).props
    monkeypatch.setattr(spectral, "PROPAGATOR_BLOCK_ENTRIES", entries)
    assert grid.nh % (entries // op0.basis.n ** 2) != 0   # a partial tail
    for workers in (1, 2):
        monkeypatch.setattr(spectral, "eig_workers", lambda w=workers: w)
        props = NonlinearStepper(op0, grid, 0.1, field_terms=False).props
        assert np.array_equal(props, ref)


def test_props_block_error_propagates_and_leaves_no_thread(ops16, grid,
                                                          monkeypatch):
    op0, _ = ops16
    monkeypatch.setattr(spectral, "eig_workers", lambda: 2)
    expm = nonlinear.expm
    full = spectral.PROPAGATOR_BLOCK_ENTRIES // op0.basis.n ** 2

    def failing(A):
        if len(A) < full:                                # the tail block only
            raise FloatingPointError("tail block")
        return expm(A)

    monkeypatch.setattr(nonlinear, "expm", failing)
    before = threading.enumerate()
    with pytest.raises(FloatingPointError, match="tail block"):
        NonlinearStepper(op0, grid, 0.1, field_terms=False)
    assert threading.enumerate() == before


def test_step_mass_conservation(ops16, grid, gamma16):
    op0, _ = ops16
    b = op0.basis
    dt = 0.1
    stepper = NonlinearStepper(op0, grid, dt, gamma=gamma16)
    state = initial_state(op0, grid, delta0=1e-3)
    mass = lambda st: float(
        np.real(_node_coef(stepper, st)[0] @ stepper.mass_w) * 2 * grid.L)
    m0 = mass(state)
    for _ in range(10):
        state = stepper.step(state)
    assert abs(mass(state) - m0) <= 1e-8 * (state.t + 1.0)


def test_step_state_consistency(ops16, grid, gamma16):
    # after full nonlinear steps the zero/Nyquist modes remain real
    op0, _ = ops16
    stepper = NonlinearStepper(op0, grid, 0.1, gamma=gamma16)
    state = initial_state(op0, grid, delta0=1e-3)
    for _ in range(5):
        state = stepper.step(state)
    # the zero mode evolves under a real operator and stays real (the
    # Nyquist bin is allowed a complex phase; only its real part matters)
    coef = _node_coef(stepper, state)
    scale = np.abs(coef).max()
    assert np.abs(coef[0].imag).max() <= 1e-10 * scale


@pytest.mark.parametrize("with_gamma, field_terms, solves", [
    (True, True, 2), (True, False, 0), (False, False, 0)])
def test_step_solves_field_only_where_read(ops16, grid, gamma16, monkeypatch,
                                           with_gamma, field_terms, solves):
    # one field solve per quadratic stage with field terms on, none after
    # the step: state_diagnostics solves the field it reads
    op0, _ = ops16
    calls = []
    solve = nonlinear.poisson_newton

    def counted(g, n):
        calls.append(1)
        return solve(g, n)

    monkeypatch.setattr(nonlinear, "poisson_newton", counted)
    stepper = NonlinearStepper(op0, grid, 0.1, field_terms=field_terms,
                               gamma=gamma16 if with_gamma else None)
    stepper.step(initial_state(op0, grid))
    assert len(calls) == solves


def _quadratic_rhs_composed(stepper, coef, dense=False):
    """The quadratic stage composed term by term from the public layers,
    in node coordinates; dense contracts Gamma from the dense tensor."""
    g, b = stepper.grid, stepper.b
    f_x = g.to_physical(coef, axis=0)
    rhs = np.zeros_like(f_x)
    if stepper.field_terms:
        n_x = f_x @ stepper.mass_w
        phi = poisson_newton(g, n_x)
        dphi = g.derivative(phi)
        rhs += 0.5 * dphi[:, None] * (b.v1 * f_x)
        rhs -= dphi[:, None] * apply_v1_derivative(b, f_x)
        dphi_nl = g.derivative(phi - solve_field(g, n_x))
        rhs += dphi_nl[:, None] * (b.v1 * b.invariants[0])
    if dense:
        rhs += np.einsum("ijk,rj,rk->ri", stepper.gamma.tensor, f_x, f_x)
    elif stepper.gamma is not None:
        rhs += _apply_nodes(stepper.gamma, f_x, f_x)
    return g.to_coefficients(rhs, axis=0)


def _non_maxwellian_datum(b, grid):
    """A datum with a non-Maxwellian velocity profile, where Gamma(f, f)
    does not vanish, and both field terms act; at amplitude 0.1 the
    beyond-linear field phi - solve_field(n) = O(phi^2) stands well above
    the round-off of its cancellation, eps |phi|."""
    h = np.random.default_rng(8).standard_normal(b.n) * b.sqrt_maxwell
    bump = (1.0 + grid.x ** 2) ** -1.0
    return 0.1 * (np.outer(bump, b.invariants[0])
                  + np.outer(np.roll(bump, 9), h))


@pytest.mark.parametrize("with_gamma", [True, False])
def test_quadratic_rhs_matches_composed_terms(gamma32, cache_dir, grid,
                                              with_gamma):
    b, gamma = gamma32
    op = collision.CollisionOperator(b, cache_dir=cache_dir)
    stepper = NonlinearStepper(op, grid, 0.1,
                               gamma=gamma if with_gamma else None)
    coef = grid.to_coefficients(_non_maxwellian_datum(b, grid), axis=0)
    want = _quadratic_rhs_composed(stepper, coef)
    got = grid.to_coefficients(b.from_pairs(
        stepper._quadratic_rhs(b.to_pairs(grid.to_physical(coef, axis=0)))),
        axis=0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_step_matches_node_composition(gamma32, cache_dir, grid):
    # the stepper runs in the real form's coordinates; one full step with
    # Gamma and both field terms against the same Strang step composed in
    # node coordinates: SciPy's expm of B(eta) dt/2 per mode around the
    # midpoint stage of the composed terms, Gamma from the dense tensor
    b, gamma = gamma32
    op = collision.CollisionOperator(b, cache_dir=cache_dir)
    dt = 0.1
    stepper = NonlinearStepper(op, grid, dt, gamma=gamma)
    coef = grid.to_coefficients(_non_maxwellian_datum(b, grid), axis=0)
    half = np.stack([scipy.linalg.expm(spectral.mode_matrix(op, eta) * dt / 2)
                     for eta in grid.eta])

    def rhs(c):
        return _quadratic_rhs_composed(stepper, c, dense=True)

    c = np.einsum("kij,kj->ki", half, coef)
    c = c + dt * rhs(c + 0.5 * dt * rhs(c))
    want = np.einsum("kij,kj->ki", half, c)
    state = KineticState(spectral.to_real_form(coef, b, axis=1), 0.0)
    got = _node_coef(stepper, stepper.step(state))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_gamma_pair_matrix(gamma32, rng):
    b, gamma = gamma32
    Q = gamma.basis.to_pairs(np.eye(b.n))
    assert np.abs(Q.T @ Q - np.eye(b.n)).max() <= 4e-16
    x = rng.standard_normal((50, b.n))
    # one GEMM sums x_i/sqrt2 + x_Pi/sqrt2 where to_pairs divides
    # (x_i + x_Pi) by sqrt2: equal to round-off, not bit for bit
    eps = np.finfo(float).eps
    assert np.abs(x @ Q - b.to_pairs(x)).max() \
        <= 2 * eps * np.abs(x).max()
    c = x @ Q
    assert np.abs(c @ Q.T - b.from_pairs(c)).max() \
        <= 2 * eps * np.abs(c).max()


def test_step_second_order(ops16, grid, gamma16):
    # Richardson self-convergence: successive halvings shrink the
    # difference by ~4 for a second-order split (asymptotic below dt=0.1)
    op0, _ = ops16
    t_end = 0.8
    finals = []
    for dt in (0.1, 0.05, 0.025):
        stepper = NonlinearStepper(op0, grid, dt, gamma=gamma16)
        state = initial_state(op0, grid, delta0=1e-3)
        for _ in range(int(round(t_end / dt))):
            state = stepper.step(state)
        finals.append(_node_coef(stepper, state))
    e1 = np.abs(finals[0] - finals[1]).max()
    e2 = np.abs(finals[1] - finals[2]).max()
    assert 3.4 <= e1 / e2 <= 4.6


def test_diffusive_profile_shape():
    x = np.linspace(-200, 200, 2001)
    t = 30.0
    prof = diffusive_profile(t, x)
    c = np.sqrt(8.0 / 3.0)
    for center in (-c * t, 0.0, c * t):
        i = int(np.argmin(np.abs(x - center)))
        assert prof[i] >= 0.9 * prof.max()
    # far field decays like the algebraic envelope
    assert prof[0] <= 0.2 * prof.max()


def test_state_diagnostics_finite(ops16, grid, gamma16):
    op0, _ = ops16
    stepper = NonlinearStepper(op0, grid, 0.1, gamma=gamma16)
    state = initial_state(op0, grid, delta0=1e-3)
    for _ in range(3):
        state = stepper.step(state)
    diag = state_diagnostics(stepper, state)
    for key, val in diag.items():
        assert np.isfinite(val), key
    assert diag["t"] == pytest.approx(0.3)
    assert diag["sup_f"] > 0


# --------------------------------------------------------------------- #
# gamma cache files
# --------------------------------------------------------------------- #

def _tiny_gamma(cache_dir):
    return build_gamma(VelocityBasis(4, 2, 8.0, 0), cache_dir=str(cache_dir))


def test_gamma_cache_write_failure_leaves_no_file(tmp_path, monkeypatch):
    write_atomic = collision.write_atomic

    def disk_full_before_rename(path, write):
        def half_written(fh):
            write(fh)
            raise OSError("disk full")
        write_atomic(path, half_written)

    monkeypatch.setattr(collision, "write_atomic", disk_full_before_rename)
    with pytest.raises(OSError):
        _tiny_gamma(tmp_path)
    assert os.listdir(tmp_path) == []


def test_gamma_cache_file_named_by_grid(tmp_path, monkeypatch):
    # another quadrature on the same grid overwrites the grid's one file
    # instead of leaving a file that no build reads again
    first = _tiny_gamma(tmp_path)
    monkeypatch.setattr(nonlinear, "OMEGA_PHI_NODES", 16)
    again = _tiny_gamma(tmp_path)
    assert again.tag != first.tag and again.build_seconds > 0
    assert len(os.listdir(tmp_path)) == 1
    loaded = _tiny_gamma(tmp_path)
    assert loaded.build_seconds == 0.0
    assert np.array_equal(loaded.tensor, again.tensor)


@pytest.mark.parametrize("damage", ["wrong_shape", "truncated", "wrong_dtype"])
def test_gamma_cache_damaged_file_rebuilt(tmp_path, damage):
    first = _tiny_gamma(tmp_path)
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    if damage == "wrong_shape":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros((2, 2)))
    elif damage == "wrong_dtype":
        with open(path, "wb") as fh:
            np.save(fh, first.tensor.astype(np.float32))
    else:
        with open(path, "rb") as fh:
            head = fh.read(200)
        with open(path, "wb") as fh:
            fh.write(head)
    again = _tiny_gamma(tmp_path)
    assert again.build_seconds > 0
    assert np.array_equal(again.tensor, first.tensor)
    # the rebuild replaced the damaged file with a loadable one
    assert np.array_equal(_tiny_gamma(tmp_path).tensor, first.tensor)


def test_gamma_cache_other_tag_rebuilt(tmp_path):
    # a well-formed file at the cache path whose header names another
    # quadrature is not this tensor
    first = _tiny_gamma(tmp_path)
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    other = list(first.tag)
    other[-1] += 1
    collision.store_array(path, other, np.ones_like(first.tensor))
    again = _tiny_gamma(tmp_path)
    assert again.build_seconds > 0
    assert np.array_equal(again.tensor, first.tensor)
    assert np.array_equal(_tiny_gamma(tmp_path).tensor, first.tensor)


def test_gamma_cache_payload_is_three_blocks(tmp_path):
    # n1 even: EEE, EOO and OEO hold 3 (n/2)^3 entries, 3/8 of n^3
    gamma = _tiny_gamma(tmp_path)
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    payload = os.path.getsize(path) - len(collision._cache_prefix(gamma.tag))
    n = gamma.basis.n
    assert payload == 8 * (3 * n ** 3 // 8)


def test_gamma_cache_dense_rule3_file_rebuilt(tmp_path):
    # a dense tensor of the previous storage at the grid's path is not
    # read as blocks
    first = _tiny_gamma(tmp_path)
    (path,) = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)]
    collision.store_array(path, first.tag[:-1] + (3,), first.tensor)
    again = _tiny_gamma(tmp_path)
    assert again.build_seconds > 0
    assert np.array_equal(again.tensor, first.tensor)
    assert _tiny_gamma(tmp_path).build_seconds == 0.0


@pytest.fixture(scope="module")
def gamma32(cache_dir):
    b = VelocityBasis(8, 4, 8.0, 0)
    return b, build_gamma(b, cache_dir=cache_dir)


def test_gamma_reflection_equivariant(gamma32):
    b, gamma = gamma32
    P = b.reflection
    rng = np.random.default_rng(3)
    f = rng.standard_normal((6, b.n))
    g = rng.standard_normal((6, b.n))
    fP, gP = f[..., P], g[..., P]
    # both the f != g path and the f is g path
    for (x, y), (xP, yP) in (((f, g), (fP, gP)), ((f, f), (fP, fP))):
        want = _apply_nodes(gamma, x, y)[..., P]
        got = _apply_nodes(gamma, xP, yP)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    T = gamma.tensor
    assert np.array_equal(T[P][:, P][:, :, P], T)


@pytest.mark.parametrize("size", ["n32", "n128"])
def test_apply_gamma_same_bits_on_any_workers(monkeypatch, gamma16, gamma32,
                                               size):
    gamma = gamma32[1] if size == "n32" else gamma16
    n = gamma.basis.n
    rng = np.random.default_rng(11)
    f = rng.standard_normal((3, 50, n))
    g = rng.standard_normal((50, n))         # broadcast against f
    want = apply_gamma(gamma, f, f), apply_gamma(gamma, f, g)
    scale = [np.abs(w).max() for w in want]
    # every chunk goes to the pool when there are workers, also at n = 32;
    # at 149 rows per chunk the 150 rows end in a one-row chunk
    monkeypatch.setattr(nonlinear, "GAMMA_APPLY_THREAD_ENTRIES", 0)
    threads = threading.active_count()
    for rows in (2, 7, 64, 149, 1000):
        monkeypatch.setattr(nonlinear, "GAMMA_APPLY_ROWS", rows)
        got = {}
        for workers in (1, 2):
            monkeypatch.setattr(spectral, "eig_workers", lambda w=workers: w)
            got[workers] = apply_gamma(gamma, f, f), apply_gamma(gamma, f, g)
            chunks = -(-150 // rows)
            assert gamma.apply_workers == min(workers, chunks)
            assert threading.active_count() == threads
        # the same chunks give the same bits on any worker count
        assert all(np.array_equal(a, b) for a, b in zip(got[1], got[2]))
        # BLAS need not round the same for other chunk sizes
        for a, w, s in zip(got[1], want, scale):
            assert a.shape == f.shape
            assert np.abs(a - w).max() <= 1e-14 * s


def test_apply_gamma_threads_large_blocks_only(monkeypatch, gamma16,
                                               gamma32):
    monkeypatch.setattr(spectral, "eig_workers", lambda: 2)
    # n = 32: serial, a second thread does not repay the hand-off
    f = np.ones((1024, gamma32[1].basis.n))
    apply_gamma(gamma32[1], f, f)
    assert gamma32[1].apply_workers == 1
    # n = 128: the block is large enough, given two chunks to share
    for rows, workers in ((1024, 2), (100, 1)):
        f = np.ones((rows, gamma16.basis.n))
        apply_gamma(gamma16, f, f)
        assert gamma16.apply_workers == workers


def test_apply_gamma_worker_error_propagates(monkeypatch, gamma16):
    monkeypatch.setattr(spectral, "eig_workers", lambda: 2)
    calls = []
    lock = threading.Lock()

    def fails_on_second_chunk(blocks, cf, cg, out):
        with lock:
            calls.append(len(cf))
            second = len(calls) == 2
        if second:
            raise FloatingPointError("chunk failed")
        out[:] = 0.0

    monkeypatch.setattr(nonlinear, "_apply_pairs", fails_on_second_chunk)
    threads = threading.active_count()
    f = np.ones((512, gamma16.basis.n))
    with pytest.raises(FloatingPointError, match="chunk failed"):
        apply_gamma(gamma16, f, f)
    assert threading.active_count() == threads


def test_gamma_rule_mirror_exact_at_corner(bases16):
    # the corner rows, where |T| is largest, amplify any mirror asymmetry
    # of the rule (1.2e-10 of max |T| with v1 nodes mirrored only to
    # round-off); the reflected half sweep takes the mirror image for the
    # full sweep.  With the mirrored inputs the asymmetry is 1.5e-15 of
    # max |T| at n1 = 16, but not at every n1: 2.7e-13 at (14, 7) and
    # 1.3e-11 at (24, 12) (_gamma_quadrature)
    b = bases16[0]
    P = b.reflection
    quad = nonlinear._gamma_quadrature(b)
    rows = {i: nonlinear._gamma_node_rows(b, quad, i)[0] for i in (0, P[0])}
    mirrored = rows[0][P][:, P]
    assert np.abs(rows[P[0]] - mirrored).max() <= 1e-13 * np.abs(mirrored).max()


def _blocks(gamma):
    return np.concatenate([X.ravel() for X in gamma.blocks])


@pytest.mark.parametrize("n1, nr", [(8, 4), (5, 2)])
def test_gamma_blocks_same_on_one_and_two_workers(monkeypatch, n1, nr):
    # odd n1 puts self-mirror nodes (v1 = 0) among the swept ones
    b = VelocityBasis(n1, nr, 8.0, 0)
    threads = threading.active_count()
    built = {}
    for workers in (1, 2):
        monkeypatch.setattr(spectral, "eig_workers", lambda w=workers: w)
        built[workers] = _blocks(build_gamma(b))
        assert threading.active_count() == threads
    assert np.array_equal(built[1], built[2])


def test_gamma_chunk_budget_not_dividing_node_points(monkeypatch):
    # 1000 points per chunk leave a short last chunk at every node
    b = VelocityBasis(8, 4, 8.0, 0)
    default = _blocks(build_gamma(b))
    quad = nonlinear._gamma_quadrature(b)
    points = len(quad["vstar"]) * len(quad["omega"])
    monkeypatch.setattr(nonlinear, "GAMMA_CHUNK_ENTRIES", 1000 * b.n + 7)
    assert points % nonlinear._chunk_points(b.n) != 0
    small = _blocks(build_gamma(b))
    assert np.abs(small - default).max() <= 1e-13 * np.abs(default).max()


def test_gamma_worker_error_propagates(tmp_path, monkeypatch):
    b = VelocityBasis(8, 4, 8.0, 0)
    node_rows = nonlinear._gamma_node_rows
    swept = np.concatenate([b.pair_lo, b.fixed])

    def fails_at_third_node(basis, quad, i):
        if i == swept[2]:
            raise FloatingPointError("node %d" % i)
        return node_rows(basis, quad, i)

    monkeypatch.setattr(nonlinear, "_gamma_node_rows", fails_at_third_node)
    monkeypatch.setattr(spectral, "eig_workers", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="node %d" % swept[2]):
        build_gamma(b, cache_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []
    assert threading.active_count() == threads


def test_interp_apply_matches_dense_rows():
    # gamma_direct contracts the two factors in turn; the dense rows of
    # the same factors are the reference
    b = VelocityBasis(8, 4, 8.0, 0)
    interp = nonlinear._TensorInterp(b)
    rng = np.random.default_rng(7)
    p1 = np.concatenate([rng.uniform(-9.0, 9.0, 200), interp.v1])
    pr = np.concatenate([rng.uniform(0.0, 9.0, 200),
                         np.resize(interp.vr, len(interp.v1))])
    X = rng.standard_normal((b.n, 3))
    a1, ar = interp.factors(p1, pr)
    # row q is the Kronecker product of a1[:, q] and ar[:, q], on node
    # index a * nr + b
    rows = (a1.T[:, :, None] * ar.T[:, None, :]).reshape(len(p1), b.n)
    dense = rows @ X
    got = nonlinear._interp_apply((a1, ar), X.reshape(b.n1, -1))
    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()
    outside = (np.abs(p1) > b.vmax) | (pr > b.vmax)
    assert outside.any() and not got[outside].any()


@pytest.mark.parametrize("rows", [4, 8, 12, 16, 24])
def test_pairwise_column_sums_match_row_sums(rows):
    # the barycentric denominators keep the rounding of a contiguous sum
    rng = np.random.default_rng(rows)
    c = rng.standard_normal((rows, 999)) \
        * 10.0 ** rng.integers(-8, 8, (rows, 999))
    assert np.array_equal(nonlinear._pairwise_column_sums(c),
                          np.ascontiguousarray(c.T).sum(axis=1))


def _dense_blocks(b):
    """GammaTensor.blocks by the dense algorithm: every output node swept,
    each row symmetrized with its loss taken off, the n^3 tensor projected
    off the invariants and corrected in the equilibrium direction, then
    mapped to pair coordinates on every axis."""
    quad = nonlinear._gamma_quadrature(b)
    T = np.empty((b.n,) * 3)
    for i in range(b.n):
        gain, loss = nonlinear._gamma_node_rows(b, quad, i)
        T[i] = 0.5 * (gain + gain.T)
        T[i, :, i] -= 0.5 * loss
        T[i, i, :] -= 0.5 * loss
    T = nonlinear._invariant_cleanup(b, T)
    e = b.invariants[0]
    ew = e * b.w
    r = np.einsum("ijk,j,k->i", T, e, e)
    T -= np.einsum("i,j,k->ijk", r, ew, ew)
    for axis in range(3):
        T = b.to_pairs(T, axis)
    E, O = slice(None, b.ne), slice(b.ne, None)
    return [T[i, j, k].transpose(1, 0, 2)
            for i, j, k in ((E, E, E), (E, O, O), (O, E, O))]


def _assert_blocks_match_dense(b, gamma):
    for got, want in zip(gamma.blocks, _dense_blocks(b)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_gamma_blocks_match_dense_full_sweep():
    # the half sweep written straight into the blocks against every
    # output node swept and the corrections made on the dense tensor
    b = VelocityBasis(8, 4, 8.0, 0)
    _assert_blocks_match_dense(b, build_gamma(b))


def test_gamma_odd_n1_half_sweep_matches_full_sweep():
    # n1 = 5 puts nodes on v1 = 0, which P fixes: they are even-only
    b = VelocityBasis(5, 2, 8.0, 0)
    assert np.any(b.reflection == np.arange(b.n))
    gamma = build_gamma(b)
    T = gamma.tensor
    P = b.reflection
    assert np.array_equal(T[P][:, P][:, :, P], T)
    _assert_blocks_match_dense(b, gamma)
    rng = np.random.default_rng(5)
    fs = rng.standard_normal((5, b.n))
    gs = rng.standard_normal((5, b.n))
    direct = gamma_direct(b, fs, gs)
    scale = np.linalg.norm(fs, axis=1) * np.linalg.norm(gs, axis=1)
    err = np.abs(_apply_nodes(gamma, fs, gs) - direct).max(axis=1) / scale
    assert err.max() <= 1e-6


def test_gamma_tensor_matches_direct_quadrature(tmp_path, gamma32):
    # the tensor assembly against the direct sum over the same sweep
    b = VelocityBasis(4, 2, 8.0, 0)
    gamma = _tiny_gamma(tmp_path)
    rng = np.random.default_rng(6)
    fs = rng.standard_normal((3, b.n))
    gs = rng.standard_normal((3, b.n))
    direct = gamma_direct(b, fs, gs)
    tens = _apply_nodes(gamma, fs, gs)
    assert np.abs(tens - direct).max() <= 1e-10 * np.abs(direct).max()
    # f is g, the stepper's call, at n = 32 within criterion 11's bound
    # (criterion 11 checks it at n = 128)
    b, gamma = gamma32
    fs = rng.standard_normal((3, b.n))
    err = np.abs(_apply_nodes(gamma, fs, fs) - gamma_direct(b, fs, fs))
    assert (err.max(axis=1) / np.linalg.norm(fs, axis=1) ** 2).max() <= 1e-6


def _full_quadrature(basis):
    """The collision rule before its symmetry reduction: every phi* in
    (0, 2 pi) and every Gauss cos(theta) in (-1, 1), at their plain weights."""
    phis = (np.arange(nonlinear.PHI_STAR_NODES) + 0.5) * 2.0 * np.pi \
        / nonlinear.PHI_STAR_NODES
    ct, wt = leggauss(nonlinear.OMEGA_THETA_NODES)
    n_pho = nonlinear.OMEGA_PHI_NODES
    pho = (np.arange(n_pho) + 0.5) * 2.0 * np.pi / n_pho
    st = np.sqrt(1.0 - ct ** 2)
    omega = np.stack([np.repeat(ct, n_pho), np.outer(st, np.cos(pho)).ravel(),
                      np.outer(st, np.sin(pho)).ravel()], axis=1)
    w_omega = np.repeat(wt, n_pho) * (2.0 * np.pi / n_pho)
    star_node = np.repeat(np.arange(basis.n), len(phis))
    vrs = basis.vr[star_node]
    phs = np.tile(phis, basis.n)
    vstar = np.stack([basis.v1[star_node], vrs * np.cos(phs),
                      vrs * np.sin(phs)], axis=1)
    w_star = np.repeat(basis.w / (2.0 * np.pi), len(phis)) \
        * (2.0 * np.pi / len(phis))
    return {"vstar": vstar, "w_star": w_star, "star_node": star_node,
            "omega": omega, "w_omega": w_omega,
            "interp": nonlinear._TensorInterp(basis)}


def test_gamma_quarter_rule_matches_full_rule(monkeypatch):
    # the tensor-vs-direct checks share the rule, so only an independent
    # copy of the full rule can see a wrong reduction or weight
    b = VelocityBasis(4, 2, 8.0, 0)
    rng = np.random.default_rng(11)
    fs = rng.standard_normal((3, b.n))
    gs = rng.standard_normal((3, b.n))
    quarter = build_gamma(b).tensor
    quarter_direct = gamma_direct(b, fs, gs)
    monkeypatch.setattr(nonlinear, "_gamma_quadrature", _full_quadrature)
    full = build_gamma(b).tensor
    full_direct = gamma_direct(b, fs, gs)
    assert np.abs(quarter - full).max() <= 1e-13 * np.abs(full).max()
    assert np.abs(quarter_direct - full_direct).max() \
        <= 1e-13 * np.abs(full_direct).max()


@pytest.mark.parametrize("n1, nr", [(8, 4), (5, 2)])
def test_gamma_vstar_is_its_node_turned_about_v1(n1, nr):
    # node values at v* are read at star_node, not interpolated: each v*
    # has its node's v1 exactly and its node's radial speed
    b = VelocityBasis(n1, nr, 8.0, 0)
    quad = nonlinear._gamma_quadrature(b)
    vstar, node = quad["vstar"], quad["star_node"]
    assert np.array_equal(vstar[:, 0], b.v1[node])
    vr = np.hypot(vstar[:, 1], vstar[:, 2])
    assert np.all(np.abs(vr - b.vr[node]) <= 1e-15 * b.vr[node])


def test_gamma_quadrature_keeps_one_quarter():
    # an odd Gauss count would put a node at cos(theta) = 0, and an odd
    # midpoint count one at phi* = pi, that the halving cannot split
    assert nonlinear.PHI_STAR_NODES % 2 == 0
    assert nonlinear.OMEGA_THETA_NODES % 2 == 0
    b = VelocityBasis(4, 2, 8.0, 0)
    quad = nonlinear._gamma_quadrature(b)
    assert abs(quad["w_omega"].sum() - 4.0 * np.pi) <= 1e-13
    assert abs(quad["w_star"].sum() - b.w.sum()) <= 1e-13
    vstar = quad["vstar"]
    phi_star = np.mod(np.arctan2(vstar[:, 2], vstar[:, 1]), 2.0 * np.pi)
    assert not np.any(phi_star >= np.pi)
    assert np.all(quad["omega"][:, 0] > 0)
    assert len(vstar) == b.n * nonlinear.PHI_STAR_NODES // 2
    assert len(quad["omega"]) == nonlinear.OMEGA_THETA_NODES \
        * nonlinear.OMEGA_PHI_NODES // 2
