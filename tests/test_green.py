"""Green's-function synthesis contracts: grid transforms, Poisson kernel,
delta reproduction, frequency split, wave recursion, and fit utilities."""

import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpb import green, spectral
from mvpb.errors import AliasingWarning, IllConditioned
from mvpb.green import (FluidPart, KineticWaves, SpaceGrid, green_action,
                        hump_centers, linear_log_fit, synthesize_green)
from mvpb.moments import solve_field

SOUND = np.sqrt(8.0 / 3.0)


@pytest.fixture(scope="module")
def grid():
    return SpaceGrid(box_half_length=50.0, nx=512)


def _rolled_to_physical(g, coef, axis):
    """The transform as a roll of the FFT samples by nx/2 to x[0] = -L."""
    f = np.fft.irfft(np.moveaxis(coef, axis, -1) * g.nx, n=g.nx, axis=-1)
    return np.moveaxis(np.roll(f, g.nx // 2, axis=-1), -1, axis)


def _rolled_to_coefficients(g, field, axis):
    f = np.roll(np.moveaxis(field, axis, -1), -g.nx // 2, axis=-1)
    return np.moveaxis(np.fft.rfft(f, axis=-1) / g.nx, -1, axis)


@pytest.mark.parametrize("nx", [512, 126])
@pytest.mark.parametrize("axis", [0, 1, -1])
def test_grid_sign_shift_matches_roll(nx, axis, rng):
    # the half-period shift is the sign (-1)^k on mode k
    g = SpaceGrid(box_half_length=50.0, nx=nx)
    shape = [3, 4, 5]
    shape[axis] = g.nh
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = _rolled_to_physical(g, coef, axis)
    got = g.to_physical(coef, axis=axis)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    field = rng.standard_normal(got.shape)
    want = _rolled_to_coefficients(g, field, axis)
    got = g.to_coefficients(field, axis=axis)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_derivative_multiplier_of_lowest_mode(grid):
    k = np.pi / grid.L
    got = grid.derivative(np.sin(k * grid.x))
    assert np.abs(got - k * np.cos(k * grid.x)).max() <= 1e-12 * k


def test_grid_roundtrip(grid, rng):
    coef = (rng.standard_normal(grid.nh) + 1j * rng.standard_normal(grid.nh))
    coef[0] = coef[0].real
    coef[-1] = coef[-1].real
    f = grid.to_physical(coef)
    back = grid.to_coefficients(f)
    assert np.max(np.abs(back - coef)) <= 1e-12 * np.max(np.abs(coef))


# random periodic grids: even nx, box half-length L, and a data seed
grids = st.builds(SpaceGrid, st.floats(1.0, 200.0),
                  st.integers(2, 64).map(lambda k: 2 * k))
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=40, deadline=None)
@given(grids, seeds)
def test_grid_roundtrip_property(g, seed):
    f = np.random.default_rng(seed).standard_normal((3, g.nx))
    coef = g.to_coefficients(f)
    back = g.to_physical(coef)
    again = g.to_coefficients(back)
    tol = 1e-13 * np.log2(g.nx)
    assert np.max(np.abs(back - f)) <= tol * np.max(np.abs(f))
    assert np.max(np.abs(again - coef)) <= tol * np.max(np.abs(coef))


@settings(max_examples=40, deadline=None)
@given(grids, seeds, st.sampled_from([1, 2]), st.sampled_from([0, -1]))
def test_derivative_of_trig_polynomial(g, seed, order, axis):
    # sum of a_k cos(eta_k x) + b_k sin(eta_k x) below the Nyquist mode,
    # three such fields stacked along the other axis; order 2 is the first
    # derivative taken twice
    rng = np.random.default_rng(seed)
    eta = g.eta[:-1]
    a, b = rng.standard_normal((2, 3, len(eta)))
    ph = np.outer(g.x, eta)                           # (nx, modes)
    f = np.cos(ph) @ a.T + np.sin(ph) @ b.T           # (nx, 3)
    # d/dx: cos -> -eta sin, sin -> eta cos; d2/dx2 = -eta^2 (same field)
    if order == 1:
        df = -np.sin(ph) @ (a * eta).T + np.cos(ph) @ (b * eta).T
    else:
        df = -(np.cos(ph) @ (a * eta ** 2).T + np.sin(ph) @ (b * eta ** 2).T)
    if axis == -1:
        f, df = f.T, df.T
    got = f
    for _ in range(order):
        got = g.derivative(got, axis=axis)
    scale = eta[-1] ** order * (np.abs(a).sum() + np.abs(b).sum())
    assert np.max(np.abs(got - df)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(grids, seeds)
def test_solve_field_inverts_field_operator(g, seed):
    n = np.random.default_rng(seed).standard_normal(g.nx)
    phi = solve_field(g, n)
    # d_xx as its symbol -eta^2, which keeps the Nyquist mode (the first
    # derivative of a real field drops it)
    lhs = phi - g.apply_multiplier(phi, -g.eta ** 2)
    # rounding in phi is amplified by the largest symbol 1 + eta_max^2
    tol = 1e-13 * np.log2(g.nx) * (1.0 + g.eta[-1] ** 2)
    assert np.max(np.abs(lhs + n)) <= tol * np.abs(n).max()


def test_poisson_symbol(grid):
    k = 12
    eta = grid.eta[k]
    f = np.cos(eta * grid.x)
    out = -solve_field(grid, f)       # (I - d_xx)^{-1} f
    assert np.max(np.abs(out - f / (1.0 + eta ** 2))) <= 1e-12


def test_poisson_kernel_profile(grid):
    ker = grid.poisson_kernel()
    target = 0.5 * np.exp(-np.abs(grid.x))
    for xq in (-1.0, 1.0):
        i = int(np.argmin(np.abs(grid.x - xq)))
        assert abs(ker[i] - target[i]) <= 0.02 * target[i]


def test_poisson_weighted_derivative_bound(grid):
    # int |d_x (I - d_xx)^{-1} f|^2 e^{|x|} dx <= 4 int |f|^2 e^{|x|} dx
    f = np.exp(-grid.x ** 2) * np.sin(grid.x)
    df = grid.derivative(solve_field(grid, f))   # -d_x (I - d_xx)^{-1} f
    wgt = np.exp(np.abs(grid.x))
    # restrict to the region where the periodic wrap is negligible
    sel = np.abs(grid.x) <= grid.L / 2
    lhs = np.sum(np.abs(df[sel]) ** 2 * wgt[sel]) * grid.dx
    rhs = np.sum(np.abs(f[sel]) ** 2 * wgt[sel]) * grid.dx
    assert lhs <= 4.0 * rhs


def test_delta_reproduction(ops16, grid):
    op0, _ = ops16
    b = op0.basis
    chi0 = b.invariants[0]
    coef = green_action(op0, grid, chi0, [0.0])
    field = grid.to_physical(coef[0, 0], axis=0)   # (nx, n)
    n = field @ (chi0 * b.w)
    assert abs(np.sum(n) * grid.dx - 1.0) <= 1e-8
    # the t=0 field is the mollified delta times the seed profile
    mass_frac = np.abs(n[np.abs(grid.x) > 5 * grid.L / grid.nh]).max()
    assert mass_frac <= 0.05 * n.max()


def test_mass_conservation(ops16, grid):
    op0, _ = ops16
    b = op0.basis
    chi0 = b.invariants[0]
    ts = [0.0, 2.0, 5.0, 10.0]
    coef = green_action(op0, grid, chi0, ts)
    for it in range(len(ts)):
        n_hat0 = coef[0, it, 0] @ (chi0 * b.w)
        assert abs(n_hat0 * 2.0 * grid.L - 1.0) <= 1e-8


def test_green_action_datum_scales_point_source(ops16):
    # G(t) on p(x) g(v) is the point-source result times p_hat(eta) 2L per
    # mode; modes where p_hat vanishes are not propagated and stay zero
    op0, _ = ops16
    small = SpaceGrid(box_half_length=20.0, nx=32)
    ts = [0.0, 1.5, 3.0]
    seeds = op0.basis.invariants[:2]
    datum = np.zeros(small.nh, dtype=complex)
    datum[[0, 3, 4, small.nh - 1]] = [0.7, 0.2 - 0.5j, 1e-3j, -0.4]
    delta = green_action(op0, small, seeds, ts)
    coef = green_action(op0, small, seeds, ts, datum)
    off = datum == 0
    assert np.all(coef[:, :, off] == 0)
    ref = delta[:, :, ~off] * (datum[~off] * 2.0 * small.L)[None, None, :, None]
    assert np.max(np.abs(coef[:, :, ~off] - ref)) <= 1e-14 * np.abs(ref).max()


def test_parseval(ops16, grid):
    op0, _ = ops16
    b = op0.basis
    coef = green_action(op0, grid, b.invariants[0], [3.0])[0, 0]  # (nh, n)
    field = grid.to_physical(coef, axis=0)
    phys = np.einsum("xi,i->", field ** 2, b.w) * grid.dx
    m = np.full(grid.nh, 2.0)
    m[0] = 1.0
    m[-1] = 1.0
    freq = 2.0 * grid.L * np.einsum("k,ki,i->", m, np.abs(coef) ** 2, b.w)
    assert abs(phys - freq) <= 1e-10 * max(phys, 1.0)


def test_split_identity_and_contraction(ops16, grid, rng):
    op0, _ = ops16
    b = op0.basis
    g0 = rng.standard_normal(b.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        out = synthesize_green(op0, grid, g0, [0.0, 1.0, 4.0], r0_hat=1.0,
                               datum=np.ones(grid.nh))
    assert np.max(np.abs(out["coef"] - out["low"] - out["high"])) == 0.0
    # per-mode contraction of the eta-norm
    norm0 = np.sqrt(np.real(b.inner_eta(g0, g0, 0.0)))
    for it in (1, 2):
        for k in range(0, grid.nh, 64):
            eta = grid.eta[k]
            f = out["coef"][0, it, k]
            val = np.sqrt(np.real(b.inner_eta(f, np.conj(f), eta)))
            n0 = np.sqrt(np.real(b.inner_eta(g0 + 0j, np.conj(g0) + 0j, eta)))
            assert val <= n0 * (1.0 + 1e-10)


def test_high_frequency_decay(ops16, grid):
    # ||G_H(t, eta)|| <= C exp(-kappa0 t) with fitted kappa0 > 0; the
    # uniform rate is set by the slowest mode just above the cut, so the
    # clean exponential fits live at fixed frequency
    op0, _ = ops16
    b = op0.basis
    ts = np.linspace(5.0, 30.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        out = synthesize_green(op0, grid, b.invariants[0], ts, r0_hat=1.0,
                               datum=np.ones(grid.nh))
    norms = b.norm(out["high"][0]).max(axis=1)
    slope, _, _ = linear_log_fit(ts, norms)
    assert slope < 0.0
    for etaq in (1.0, 2.0, 4.0):
        k = int(np.argmin(np.abs(grid.eta - etaq)))
        nk = b.norm(out["coef"][0][:, k, :])
        sk, _, r2 = linear_log_fit(ts, nk)
        assert sk < -0.1
        assert r2 > 0.99


def test_aliasing_warning_fires(ops16):
    op0, _ = ops16
    coarse = SpaceGrid(box_half_length=100.0, nx=64)
    with pytest.warns(AliasingWarning):
        synthesize_green(op0, coarse, op0.basis.invariants[0], [0.5],
                         r0_hat=1.0)


def test_aliasing_warning_silent(ops16):
    op0, _ = ops16
    fine = SpaceGrid(box_half_length=20.0, nx=256)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasingWarning)
        synthesize_green(op0, fine, op0.basis.invariants[0], [5.0],
                         r0_hat=1.0)


def test_green_action_matches_eigen_synthesis(ops16):
    # one well-conditioned mode against the spectral sum V exp(t w) V^-1 g
    op0, _ = ops16
    b = op0.basis
    small = SpaceGrid(box_half_length=20.0, nx=16)
    ts = [0.0, 1.0, 2.0, 4.0, 8.0]
    coef = green_action(op0, small, b.invariants[0], ts)
    k = 3
    w, V = scipy.linalg.eig(spectral.mode_matrix(op0, small.eta[k]))
    assert np.linalg.cond(V) < 1e3
    c0 = np.linalg.solve(V, b.invariants[0])
    amp = 1.0 / (2.0 * small.L)
    for it, t in enumerate(ts):
        ref = V @ (np.exp(w * t) * c0) * amp
        assert np.max(np.abs(coef[0, it, k] - ref)) <= 1e-10 * np.abs(ref).max()


def test_free_flow_closed_form(ops16, grid):
    op0, _ = ops16
    b = op0.basis
    ts = np.array([0.0, 1.0, 2.5])
    kw = KineticWaves(op0, grid, b.invariants[0], ts, levels=1)
    for it, t in enumerate(ts):
        exact = kw.free_flow_coefficients(t)
        assert np.max(np.abs(kw.top[:, it] - exact)) <= 1e-13


def test_off_lattice_time_recorded(ops16, grid):
    # 1.3 is off the 0.5 interval lattice and is still integrated to
    op0, _ = ops16
    b = op0.basis
    kw = KineticWaves(op0, grid, b.invariants[0], [1.0, 1.3], levels=2)
    for it, t in enumerate((1.0, 1.3)):
        exact = kw.free_flow_coefficients(t)
        assert np.max(np.abs(kw.wave_sum[:, it] - exact)) <= 1e-12


def test_level_one_front_closed_form(ops16):
    # d_t J_1 = -c J_1 + S J_0 with J_0 = amp exp(-c t) g, so
    # J_1,i(t) = amp sum_j S_ij g_j (e^{-t c_j} - e^{-t c_i}) / (c_i - c_j),
    # written as t e^{-t c_i} expm1(z) / z, z = t (c_i - c_j), with limit 1
    op0, _ = ops16
    b = op0.basis
    grid = SpaceGrid(box_half_length=20.0, nx=32)
    ts = [0.5, 1.0, 2.0, 3.3]                       # 3.3 is off the lattice
    kw = KineticWaves(op0, grid, b.invariants[0], ts, levels=2)
    amp = 1.0 / (2.0 * grid.L)
    g = b.invariants[0]
    chi0 = b.invariants_raw[0]
    for k in np.where(grid.eta <= 1.3)[0]:
        eta = grid.eta[k]
        S = (op0.Lmat + np.diag(op0.nu) - (1j * eta / (1.0 + eta ** 2))
             * np.outer(b.v1 * chi0, chi0 * b.w))
        c = op0.nu + 1j * eta * b.v1
        for it, t in enumerate(ts):
            z = t * (c[:, None] - c[None, :])
            zero = z == 0
            phi = np.expm1(z) / np.where(zero, 1.0, z)
            phi[zero] = 1.0
            exact = amp * (S * (t * np.exp(-t * c)[:, None] * phi)) @ g
            err = np.abs(kw.top[0, it, k] - exact).max()
            assert err <= 1e-3 * np.abs(exact).max()


def test_wave_frequency_decay(ops16, grid):
    # the level-6 front decays in eta at least like (1+eta)^{-2}
    op0, _ = ops16
    b = op0.basis
    t = 6.0
    kw = KineticWaves(op0, grid, b.invariants[0], [t], levels=7)
    norms = b.norm(kw.top[0, 0])
    # time-quadrature resolvability: the Picard source oscillates like
    # exp(-i v1 eta s), so only frequencies with a few collocation nodes
    # per oscillation carry trustworthy level-6 values
    eta_res = 4.0 * np.pi / (np.abs(b.v1).max() * 0.5)
    sel = grid.eta <= eta_res
    slope, _, _ = linear_log_fit(np.log1p(grid.eta[sel]), norms[sel])
    assert slope <= -2.0 + 0.2


def test_wave_sum_excludes_top(ops16, grid):
    op0, _ = ops16
    b = op0.basis
    kw3 = KineticWaves(op0, grid, b.invariants[0], [2.0], levels=3)
    kw4 = KineticWaves(op0, grid, b.invariants[0], [2.0], levels=4)
    # adding a level appends the previous top front to the truncated sum
    assert np.max(np.abs(kw4.wave_sum - kw3.wave_sum - kw3.top)) <= 1e-10


def _block_grid():
    # nh = 41 modes: two full blocks and a partial tail
    grid = SpaceGrid(box_half_length=20.0, nx=80)
    assert grid.nh % green.WAVE_BLOCK_MODES != 0
    assert grid.nh > 2 * green.WAVE_BLOCK_MODES
    return grid


def test_wave_blocks_same_bits_on_any_worker_count(ops16, monkeypatch):
    op0, _ = ops16
    b = op0.basis
    grid = _block_grid()
    out = {}
    for workers in (1, 2):
        monkeypatch.setattr(spectral, "eig_workers", lambda w=workers: w)
        out[workers] = KineticWaves(op0, grid, b.invariants[0], [1.0, 1.3],
                                    levels=3)
    assert np.array_equal(out[1].wave_sum, out[2].wave_sum)
    assert np.array_equal(out[1].top, out[2].top)
    assert np.all(out[1].top[0, :, -1] != 0)          # the tail block ran


def test_wave_blocks_leave_no_thread(ops16, monkeypatch):
    op0, _ = ops16
    monkeypatch.setattr(spectral, "eig_workers", lambda: 2)
    before = threading.enumerate()
    KineticWaves(op0, _block_grid(), op0.basis.invariants[0], [1.0],
                 levels=2)
    assert threading.enumerate() == before


def test_wave_block_error_propagates_and_leaves_no_thread(ops16, monkeypatch):
    op0, _ = ops16
    monkeypatch.setattr(spectral, "eig_workers", lambda: 2)
    step_table = green._step_table

    def failing(c, h):
        if len(c) < green.WAVE_BLOCK_MODES:           # the tail block only
            raise FloatingPointError("tail block")
        return step_table(c, h)

    monkeypatch.setattr(green, "_step_table", failing)
    before = threading.enumerate()
    with pytest.raises(FloatingPointError, match="tail block"):
        KineticWaves(op0, _block_grid(), op0.basis.invariants[0], [1.0],
                     levels=2)
    assert threading.enumerate() == before


def _propagator_block(n):
    return max(1, spectral.PROPAGATOR_BLOCK_ENTRIES // n ** 2)


@pytest.mark.parametrize("entries", [spectral.PROPAGATOR_BLOCK_ENTRIES,
                                     3 * 128 ** 2])
def test_green_action_same_bits_on_any_workers_and_blocks(ops16, monkeypatch,
                                                          entries):
    op0, _ = ops16
    b = op0.basis
    grid = _block_grid()
    seeds = [b.invariants[0], b.invariants[2]]
    ts = [0.0, 0.5, 1.5]
    monkeypatch.setattr(spectral, "PROPAGATOR_BLOCK_ENTRIES", 1)
    ref = green_action(op0, grid, seeds, ts)             # one mode per task
    assert np.all(ref[:, 1:, -1] != 0)
    monkeypatch.setattr(spectral, "PROPAGATOR_BLOCK_ENTRIES", entries)
    assert grid.nh % _propagator_block(b.n) != 0          # a partial tail
    for workers in (1, 2):
        monkeypatch.setattr(spectral, "eig_workers", lambda w=workers: w)
        assert np.array_equal(green_action(op0, grid, seeds, ts), ref)


def test_green_action_block_error_propagates_and_leaves_no_thread(
        ops16, monkeypatch):
    op0, _ = ops16
    grid = _block_grid()
    monkeypatch.setattr(spectral, "eig_workers", lambda: 2)
    build = green.real_mode_matrices

    def failing(op, etas):
        if len(etas) < _propagator_block(op.basis.n):   # the tail block only
            raise FloatingPointError("tail block")
        return build(op, etas)

    monkeypatch.setattr(green, "real_mode_matrices", failing)
    before = threading.enumerate()
    with pytest.raises(FloatingPointError, match="tail block"):
        green_action(op0, grid, op0.basis.invariants[0], [1.0])
    assert threading.enumerate() == before


def test_fluid_part_humps(ops16):
    op0, _ = ops16
    grid = SpaceGrid(box_half_length=200.0, nx=4096)
    fp = FluidPart(op0, grid, r0_hat=1.0)
    b = op0.basis
    t = 40.0
    field = fp.action(t, b.invariants[0])
    profile = b.norm(field @ b.P0.T)
    expected = np.array([-SOUND * t, 0.0, SOUND * t])
    centers = hump_centers(grid.x, profile, expected, window=8.0)
    assert np.all(np.isfinite(centers))
    # the acoustic humps sit at the dominant group velocity, which lags
    # the long-wave sound speed by O(1/ (a t)) at finite time; the drift
    # is ~1.2 here and shrinks as t grows
    assert np.max(np.abs(centers - expected)) <= 2.0


def test_fluid_peak_decay_exponent(ops16):
    op0, _ = ops16
    grid = SpaceGrid(box_half_length=200.0, nx=2048)
    # a wide frequency band keeps the peak out of the mollifier-limited
    # regime over the whole fit window
    fp = FluidPart(op0, grid, r0_hat=2.0)
    b = op0.basis
    ts = np.linspace(10.0, 80.0, 8)
    peaks = []
    for t in ts:
        prof = b.norm(fp.action(t, b.invariants[0]) @ b.P0.T)
        peaks.append(prof.max())
    p, _, r2 = linear_log_fit(np.log1p(ts), peaks)
    assert abs(p + 0.5) <= 0.05
    assert r2 > 0.99


def test_power_law_fit_synthetic():
    # power law C (1+t)^p: fit against log1p(t), C = exp(intercept)
    ts = np.linspace(0.0, 50.0, 30)
    p, a, r2 = linear_log_fit(np.log1p(ts), 3.0 * (1.0 + ts) ** -0.5)
    assert abs(p + 0.5) <= 1e-3
    assert abs(np.exp(a) - 3.0) <= 0.01 * 3.0
    assert r2 > 0.999
    p1, _, _ = linear_log_fit(np.log1p(ts), 2.0 * (1.0 + ts) ** -1.0)
    assert abs(p1 + 1.0) <= 1e-3


def test_gaussian_width_fit():
    # width of (1+t)^{-1/2} exp(-x^2 / (4(1+t))) recovers D = 4 within 1%
    x = np.linspace(-60, 60, 1201)
    Ds = []
    for t in np.linspace(5.0, 40.0, 8):
        prof = (1 + t) ** -0.5 * np.exp(-x ** 2 / (4.0 * (1 + t)))
        # second moment of the normalized profile: var = D(1+t)/2
        w = prof / prof.sum()
        var = np.sum(w * x ** 2)
        Ds.append(2.0 * var / (1 + t))
    assert abs(np.mean(Ds) - 4.0) <= 0.04


def test_linear_log_fit_synthetic():
    x = np.linspace(0.0, 10.0, 25)
    b, a, r2 = linear_log_fit(x, 5.0 * np.exp(-0.7 * x))
    assert abs(b + 0.7) <= 1e-6
    assert abs(a - np.log(5.0)) <= 1e-6
    assert r2 > 0.999999


@pytest.mark.parametrize("x", [[], [1.0], [2.0, 2.0], [3.0, 3.0, 3.0]])
def test_linear_log_fit_needs_two_abscissae(x):
    # one distinct abscissa leaves the slope undetermined; lstsq would
    # return its minimum-norm solution with R^2 = 1
    with pytest.raises(IllConditioned):
        linear_log_fit(x, np.exp(-np.asarray(x)))


def test_linear_log_fit_two_points():
    b, a, r2 = linear_log_fit([1.0, 2.0], [np.exp(-1.0), np.exp(-3.0)])
    assert abs(b + 2.0) <= 1e-12
    assert abs(a - 1.0) <= 1e-12
    assert r2 == pytest.approx(1.0)


def test_hump_centers_synthetic():
    x = np.linspace(-100, 100, 2001)
    prof = (np.exp(-(x - 30.0) ** 2 / 4) + np.exp(-(x + 30.0) ** 2 / 4)
            + 0.5 * np.exp(-x ** 2 / 9))
    got = hump_centers(x, prof, [-30.0, 0.0, 30.0], window=10.0)
    assert np.max(np.abs(got - [-30.0, 0.0, 30.0])) <= 0.05
    missing = hump_centers(x, prof, [80.0], window=1.0)
    # a monotone stretch has its max at the window edge, never refined away
    assert np.isfinite(missing[0])
