import dataclasses
import math
import os
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz
from scipy.special import erf

from levyheat import (
    AllocationLimit,
    FiniteMeasure,
    GridMismatch,
    HorizonExceeded,
    brownian,
    delta,
    frak_T,
    heat_convolve_many,
    make_positive_definite_example,
    mc_moments,
    p0_eval,
    pam_second_moment_oracle,
    picard_iterate,
    positivity_scan,
    sigma_custom,
    sigma_linear,
    sigma_saturating,
    stability_bound,
    stability_compare,
    stable,
)
from levyheat import levy_kernel, solver
from levyheat.errors import TruncationTooSmall
from levyheat.levy_kernel import ROW_CHUNK, bandlimited_rows
from levyheat.noise_field import noise_rows
from levyheat.solver import (BATCH, FFT_MIN_NX, MAX_CELLS, _det_rows,
                             _deterministic_distance_time,
                             _flat_second_moment, _fork_map, _propagators,
                             _shared_zeros, _worker_count,
                             build_lattice, check_truncation, march,
                             march_seeds, scheme_error, seed_ids, x_centers)

BM = brownian(1.0)
U0 = delta()
PAM = sigma_linear(1.0)

# Brownian kappa = 1 closed forms used below (a := lam^2 / 2):
#   flat data 1:   E u_t^2            = e^{a^2 t} (1 + erf(a sqrt(t)))
#   delta data:    E u_t(x)^2         = p_{t/2}(x) h(t),
#                  h(t) = ((pi t)^{-1/2} + a e^{a^2 t}(1 + erf(a sqrt(t)))) / 2
#   and p_{t/2}(x) = e^{-x^2/t} / sqrt(pi t).
# The local horizon at k = 2, lip = 1 is frak_T_2 = pi/16384.
T2 = math.pi / 16384.0


def flat_closed_form(lam, t):
    a = 0.5 * lam * lam
    return np.exp(a * a * t) * (1.0 + erf(a * np.sqrt(t)))


def delta_closed_form(lam, t, x):
    a = 0.5 * lam * lam
    h = 0.5 * ((math.pi * t) ** -0.5
               + a * math.exp(a * a * t) * (1.0 + erf(a * math.sqrt(t))))
    return np.exp(-x ** 2 / t) / math.sqrt(math.pi * t) * h


def march_rows(model, u0, sigma, *, dt, t_end, **lattice):
    """The mc_moments table whose snapshots hold every path's rows at the
    steps 1..t_end/dt, shape (seeds, steps, nx): the time-step fields."""
    steps = round(t_end / dt)
    return mc_moments(model, u0, sigma, dt=dt, t_end=t_end, t_probes=[],
                      x_probes=[], ks=[],
                      snapshot_times=dt * np.arange(1, steps + 1), **lattice)


# more than two row chunks of steps, so shorter runs end on both sides of
# a chunk boundary
LONG_STEPS = 70


@pytest.fixture(scope="module")
def long_run():
    lattice = dict(dt=0.01, nx=128, half_width=8.0, seeds=[11])
    return lattice, march_rows(BM, U0, PAM, t_end=0.01 * LONG_STEPS,
                               **lattice).snapshots[0]


# above FFT_MIN_NX, and 2 * 541 pads to the odd FFT length 1125
WIDE_NX = 541


@pytest.fixture(scope="module")
def wide_run():
    lattice = dict(dt=0.01, nx=WIDE_NX, half_width=WIDE_NX / 64, seeds=[11])
    return lattice, march_rows(BM, U0, PAM, t_end=0.01 * LONG_STEPS,
                               **lattice).snapshots[0]


def dense_propagators(model, dt, dx, nx):
    """P and K0 as the dense Toeplitz matrices of the BLAS march."""
    rows = bandlimited_rows(model, dx, nx, [0.0, dt])
    avg0 = bandlimited_rows(model, dx, nx, [0.0], dt_average=dt)[0]
    return dx * toeplitz(rows[1]), toeplitz(avg0)


def folded_step(mats, ops):
    """sum_k ops[k] @ mats[k] for centrosymmetric mats through the even/odd
    fold, written out: row x folds to e = (x[i] + x[nx-1-i], i < h; the
    centre x[h] of odd nx) and o = (x[i] - x[nx-1-i], i < h), each mat to
    its blocks on e and o, and one product per part is unfolded."""
    nx = ops[0].shape[-1]
    h, m = nx // 2, nx - nx // 2
    mirror = nx - 1 - np.arange(h)
    e_blocks, o_blocks, es, os_ = [], [], [], []
    for mat, x in zip(mats, ops):
        blk = mat[:m, :m].copy()
        blk[:h] = 0.5 * (mat[:h, :m] + mat[mirror, :m])
        e_blocks.append(blk)
        o_blocks.append(0.5 * (mat[:h, :h] - mat[mirror, :h]))
        e = x[..., :m].copy()
        e[..., :h] = x[..., :h] + x[..., mirror]
        es.append(e)
        os_.append(x[..., :h] - x[..., mirror])
    s = np.concatenate(es, axis=-1) @ np.concatenate(e_blocks)
    a = np.concatenate(os_, axis=-1) @ np.concatenate(o_blocks)
    return np.concatenate([s[..., :h] + a, s[..., h:],
                           (s[..., :h] - a)[..., ::-1]], axis=-1)


def assert_head_of_run(run, j0):
    """The j0-step run is the first j0 rows of the long one, bit for bit."""
    lattice, full = run
    part, = march_rows(BM, U0, PAM, t_end=0.01 * j0, **lattice).snapshots
    assert np.array_equal(part, full[:j0])


@pytest.fixture(scope="module")
def mc_table():
    """1500-seed ensemble plus the matching scheme-exact oracle."""
    tab = mc_moments(BM, U0, PAM, dt=0.01, nx=128, half_width=6.0,
                     t_end=0.3, seeds=1500, t_probes=[0.1, 0.3],
                     x_probes=[0.0, 0.5], ks=(1, 2))
    centers = -6.0 + (np.arange(128) + 0.5) * (12.0 / 128)
    orc = pam_second_moment_oracle(BM, U0, 1.0, 0.01 * np.arange(1, 31),
                                   centers, mode="lattice")
    return tab, centers, orc


@pytest.fixture(scope="module")
def picard_stack():
    """Center-cell values of Picard stages 0..4 at t = frak_T_2, 200 seeds."""
    return np.array([picard_iterate(
        BM, U0, PAM, n, dt=T2 / 32, nx=128, half_width=0.08, t_end=T2,
        seeds=200)[:, 31, 64] for n in range(5)])


class TestSigmaSpec:
    def test_linear(self):
        s = sigma_linear(-2.5)
        x = np.array([-1.0, 0.0, 3.0])
        assert np.array_equal(s.apply(x), -2.5 * x)
        assert s.lip == 2.5 and s.lower_lip == 2.5

    def test_saturating(self):
        s = sigma_saturating(2.0, 0.5)
        x = np.linspace(-4, 4, 41)
        y = s.apply(x)
        assert y[20] == 0.0
        assert np.abs(y).max() <= 2.0 * 0.5
        # slope at the origin is lam
        assert abs(s.apply(np.array([1e-8]))[0] / 1e-8 - 2.0) < 1e-6
        assert s.lower_lip == 0.0

    def test_custom_interp(self):
        s = sigma_custom([-1.0, 0.0, 2.0], [0.5, 0.0, -1.0])
        assert s.apply(np.zeros(1))[0] == 0.0
        assert s.apply(np.array([1.0]))[0] == -0.5
        assert s.lip == 0.5

    @pytest.mark.parametrize("s", [
        sigma_linear(1.7),
        sigma_saturating(1.3, 0.7),
        sigma_custom([-2.0, 0.0, 1.0, 3.0], [1.0, 0.0, 0.8, 0.8]),
    ])
    def test_lipschitz_spot_check(self, s):
        rng = np.random.default_rng(5)
        x = rng.uniform(-5, 5, 400)
        y = rng.uniform(-5, 5, 400)
        lhs = np.abs(s.apply(x) - s.apply(y))
        assert np.all(lhs <= s.lip * np.abs(x - y) * (1 + 1e-12) + 1e-15)

    def test_rejects(self):
        with pytest.raises(ValueError):
            sigma_custom([0.0, 1.0], [0.5, 1.0])       # sigma(0) != 0
        with pytest.raises(ValueError):
            sigma_custom([1.0, 0.0], [1.0, 0.0])       # x not increasing


class TestEvolve:
    """The time-step march, read through the every-step snapshots of
    mc_moments (march_rows)."""

    def test_sigma_zero_is_deterministic(self, set_constant):
        # tight tol, as in TestBatchedRows: at the default tol each side
        # is ~1.1e-12 of its row max off the closed form
        set_constant("XI_TOL", 1e-13)
        tab = march_rows(BM, U0, sigma_linear(0.0), dt=0.01, nx=64,
                         half_width=4.0, t_end=0.2, seeds=[3])
        rows, = tab.snapshots
        lat = build_lattice(BM, U0, dt=0.01, dx=0.125, nx=64, n_steps=20)
        assert np.array_equal(rows, lat.det[0])
        # the lattice's one rule against one rule per time
        xs = tab.lattice.x_nodes
        for i, row in enumerate(rows):
            ref = np.maximum(heat_convolve_many(BM, U0, 0.01 * (i + 1), xs),
                             0.0)
            assert np.abs(row - ref).max() <= 1e-12 * ref.max()
        assert positivity_scan(rows, scheme_error(tab.lattice)) == (0.0, 0)

    @pytest.mark.parametrize("j0", [1, 10, ROW_CHUNK - 1, ROW_CHUNK,
                                    ROW_CHUNK + 1, 2 * ROW_CHUNK,
                                    LONG_STEPS - 1])
    def test_head_of_run_bit_exact(self, long_run, j0):
        assert_head_of_run(long_run, j0)

    @pytest.mark.parametrize("j0", [1, ROW_CHUNK, LONG_STEPS - 1])
    def test_head_of_run_bit_exact_circulant(self, wide_run, j0):
        assert WIDE_NX >= FFT_MIN_NX and next_fast_len(2 * WIDE_NX) % 2
        assert_head_of_run(wide_run, j0)

    def test_rule_count_does_not_grow_with_steps(self, monkeypatch):
        builds = []
        real = levy_kernel._xi_rule

        def counting(*args, **kwargs):
            builds.append(args[0])
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("levyheat") and hasattr(mod, "_xi_rule"):
                monkeypatch.setattr(mod, "_xi_rule", counting)

        def count(m):
            builds.clear()
            march_rows(BM, U0, PAM, dt=0.01, nx=64, half_width=4.0,
                       t_end=0.01 * m, seeds=[5])
            return len(builds)

        assert count(10) == count(40)

    @pytest.mark.parametrize("model, half, xs", [
        (BM, 4.0, x_centers(64, 0.125)),
        # a stable window admits only short times, and a rule cut off for
        # a 64th of one over all of [-L, L] would need ~1e7 nodes: probe
        # the centre of a wide window instead
        (stable(1.5), 1000.0, np.linspace(-4.0, 4.0, 17)),
    ], ids=["brownian", "stable"])
    def test_rows_match_per_time_rule_across_the_window(self, set_constant,
                                                        model, half, xs):
        # the largest time check_truncation admits, by bisection
        nodes = levy_kernel.XI_NODES
        set_constant("XI_NODES", 4_000_000)
        lo, hi = 1e-4, 3.0
        for _ in range(20):
            mid = math.sqrt(lo * hi)
            try:
                check_truncation(model, U0, mid, half)
                lo = mid
            except TruncationTooSmall:
                hi = mid
        # tight tol on both sides, as in TestBatchedRows: at the default
        # tol a per-time rule drops ~1e-12 of its row past its cutoff
        set_constant("XI_NODES", nodes)
        set_constant("XI_TOL", 1e-13)
        dt = lo / 64
        rows = _det_rows(model, U0, dt, 64, xs, half)[[0, 63]]
        for row, t in zip(rows, [dt, 64 * dt]):
            ref = np.maximum(heat_convolve_many(model, U0, t, xs), 0.0)
            assert np.abs(row - ref).max() <= 1e-12 * ref.max()

    def test_mass_doubling_bit_exact(self):
        # linear sigma commutes with scaling by 2, exactly in floats
        lattice = dict(dt=0.01, nx=64, half_width=4.0, t_end=0.15,
                       seeds=[7, 8])
        one = march_rows(BM, delta(1.0), PAM, **lattice).snapshots
        two = march_rows(BM, delta(2.0), PAM, **lattice).snapshots
        assert np.array_equal(two, 2.0 * one)

    def test_first_noise_row_idle(self, monkeypatch):
        # noise row 0 would drive the step from the measure, which has no
        # sigma: every stream starts at row 1 and ends at the last row
        calls = []

        def recorded(dt, dx, nx, seeds, start, stop):
            calls.append((start, stop))
            return noise_rows(dt, dx, nx, seeds, start, stop)

        monkeypatch.setattr(solver, "noise_rows", recorded)
        monkeypatch.setenv("LEVYHEAT_THREADS", "1")  # calls stay in sight
        march_rows(BM, U0, PAM, dt=0.01, nx=64, half_width=4.0, t_end=0.12,
                   seeds=range(BATCH + 1))
        assert calls == [(1, 12), (1, 12)]  # one stream per seed chunk
        calls.clear()
        picard_iterate(BM, U0, PAM, 3, dt=T2 / 8, nx=32, half_width=0.08,
                       t_end=T2, seeds=[9])
        assert calls == [(1, 8)] * 3  # one stream per stage

    def test_refinement_warning(self):
        with pytest.warns(UserWarning, match="refinement"):
            march_rows(BM, U0, PAM, dt=1e-4, nx=16, half_width=0.8,
                       t_end=1e-3, seeds=[0])


class TestPropagators:
    @pytest.mark.parametrize("nx", [FFT_MIN_NX, WIDE_NX])
    @pytest.mark.parametrize("model", [BM, stable(1.5)],
                             ids=["brownian", "stable"])
    def test_circulant_step_matches_dense(self, model, nx):
        dt, dx = 0.01, 0.05
        step = _propagators(model, dt, dx, nx)
        p, k0 = dense_propagators(model, dt, dx, nx)
        # 3 seeds by 4 starts, as march batches them
        v, shot = np.random.default_rng(nx).standard_normal((2, 3, 4, nx))
        for got, ref in [(step(v, shot), v @ p + shot @ k0),
                         (step(v), v @ p)]:
            assert got.shape == ref.shape
            scale = np.abs(ref).max(axis=-1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("nx", [256, 255])
    def test_dense_march_below_threshold_is_the_folded_product(self, nx):
        dt, dx = 0.01, 0.0625
        assert nx < FFT_MIN_NX
        lat = build_lattice(BM, U0, dt=dt, dx=dx, nx=nx, n_steps=10,
                            shifts=[0.0, 0.05])
        noise = np.array([row.copy() for row in
                          noise_rows(dt, dx, nx, range(3), 0, 10)])
        got = []
        march(lat, PAM, noise_rows(dt, dx, nx, range(3), 1, 10),
              lambda j, u: got.append(u.copy()), b=3)
        # the march loop with the fold written out (bit for bit) and with
        # P and K0 as plain matrix products (to a few ulp of the row max)
        p, k0 = dense_propagators(BM, dt, dx, nx)
        for step, ulps in [(lambda v, s: folded_step([p, k0], [v, s]), 0),
                           (lambda v, s: v @ p + s @ k0, 32)]:
            v = np.zeros((6, nx))
            u = np.broadcast_to(lat.det[:, 0], (3, 2, nx))
            ref = [u]
            for j in range(1, 10):
                shot = PAM.apply(u) * noise[j, :, None]
                v = step(v, shot.reshape(6, nx))
                u = lat.det[:, j] + v.reshape(3, 2, nx)
                ref.append(u)
            scale = np.abs(ref).max(axis=-1, keepdims=True)
            assert np.all(np.abs(np.array(got) - ref)
                          <= ulps * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("nx", [256, 255, 2, 1])
    def test_dense_step_is_the_folded_product(self, nx):
        dt, dx = 0.01, 0.0625
        step = _propagators(BM, dt, dx, nx)
        p, k0 = dense_propagators(BM, dt, dx, nx)
        v, shot = np.random.default_rng(nx).standard_normal((2, 3, 2, nx))
        for got, ops, ref in [(step(v, shot), [v, shot], v @ p + shot @ k0),
                              (step(v), [v], v @ p)]:
            assert np.array_equal(got, folded_step([p, k0], ops))
            scale = np.abs(ref).max(axis=-1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 16 * np.finfo(float).eps
                          * scale)

    def test_no_square_array_above_threshold(self):
        nx = 2048
        tracemalloc.start()
        try:
            step = _propagators(BM, 0.01, 16.0 / nx, nx)
            step(np.ones((4, nx)), np.ones((4, nx)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nx * nx  # an nx x nx float array takes 8 nx^2 bytes


    def test_seed_chunk_memory_flat_in_steps(self):
        # a chunk streams its noise: no (BATCH, steps, nx) block is held
        nx, dx, dt = 512, 1.0 / 32, 1e-3
        peaks = {}
        for steps in (50, 400):
            lat = build_lattice(BM, U0, dt=dt, dx=dx, nx=nx, n_steps=steps)
            tracemalloc.start()
            try:
                march_seeds(lat, PAM, range(BATCH), lambda *_: None)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] < 1.25 * peaks[50]
        assert peaks[400] < BATCH * 400 * nx  # the old block: 8 B a cell


# 8 steps of 32 cells of width 0.005, to t = frak_T_2
SHORT = dict(dt=T2 / 8, nx=32, half_width=0.08, t_end=T2)


class TestPicard:
    def test_order_zero_is_zero(self):
        assert not picard_iterate(BM, U0, PAM, 0, seeds=[1], **SHORT).any()

    def test_stage_is_a_seed_by_step_array(self):
        # one row block per seed, in the layout of mc_moments snapshots;
        # a seed's block does not depend on the other seeds of the batch
        vals = picard_iterate(BM, U0, PAM, 2, seeds=[4, 5, 6], **SHORT)
        assert isinstance(vals, np.ndarray) and vals.shape == (3, 8, 32)
        alone = picard_iterate(BM, U0, PAM, 2, seeds=[5], **SHORT)
        assert np.array_equal(alone[0], vals[1])

    def test_sigma_zero_first_stage_exact(self):
        vals, = picard_iterate(BM, U0, sigma_linear(0.0), 3, seeds=[1],
                               **SHORT)
        xs = x_centers(32, 0.005)
        for i, row in enumerate(vals):
            ref = heat_convolve_many(BM, U0, SHORT["dt"] * (i + 1), xs)
            assert_allclose(row, np.maximum(ref, 0.0), rtol=0, atol=1e-10)

    def test_horizon_guard(self):
        over = dict(SHORT, t_end=10 * T2 / 8)  # 10 dt > T2
        with pytest.raises(HorizonExceeded):
            picard_iterate(BM, U0, PAM, 1, seeds=[0], **over)
        # k = 4 shrinks the horizon by 4, so half of T2 is already out
        half = dict(SHORT, t_end=T2 / 2)
        picard_iterate(BM, U0, PAM, 1, seeds=[0], k=2.0, **half)
        with pytest.raises(HorizonExceeded):
            picard_iterate(BM, U0, PAM, 1, seeds=[0], k=4.0, **half)

    def test_matches_timestep_scheme(self):
        # the two routes share the band-limited lattice kernel, so they
        # agree to quadrature error everywhere and differ visibly only in
        # the outermost cells, where repeated truncated propagator steps
        # and the one-shot lag rows handle the window edge differently
        lattice = dict(dt=T2 / 32, nx=128, half_width=0.08, t_end=T2,
                       seeds=[3])
        direct = march_rows(BM, U0, PAM, **lattice).snapshots[0]
        fixed = picard_iterate(BM, U0, PAM, 16, **lattice)[0]
        assert np.abs(fixed - direct).max() < 1e-6 * direct.max()
        mask = direct > 1e-3 * direct.max()
        assert np.abs(fixed[mask] / direct[mask] - 1.0).max() < 1e-6

    def test_successive_differences_contract(self, picard_stack):
        # Picard contraction gives E|u^(n+1) - u^(n)|^2 a factor <= 1/2
        # per sweep inside the horizon; the empirical factor is ~0.01
        second = [np.mean((picard_stack[n + 1] - picard_stack[n]) ** 2)
                  for n in range(4)]
        ratios = np.array(second[1:]) / np.array(second[:-1])
        assert np.all(ratios < 0.5)

    def test_successive_differences_bound(self, picard_stack):
        # E|u^(n+1) - u^(n)|^2 <= 2^-n u0(R) p_t(0) (p_t*u0)(x) at t = T2
        x_cell = -0.08 + 64.5 * 0.00125
        rhs0 = p0_eval(BM, T2) * float(
            heat_convolve_many(BM, U0, T2, [x_cell])[0])
        for n in range(4):
            lhs = np.mean((picard_stack[n + 1] - picard_stack[n]) ** 2)
            assert lhs <= 2.0 ** -n * rhs0 * (1 + 1e-9)


class TestOracle:
    def test_lam_zero_exact(self):
        xs = np.linspace(-2, 2, 17)
        for mode in ("lattice", "continuum"):
            tg = 0.1 * np.arange(1, 3) if mode == "lattice" else [0.05, 0.2]
            ref = np.array([heat_convolve_many(BM, U0, t, xs) ** 2
                            for t in tg])
            got = pam_second_moment_oracle(BM, U0, 0.0, tg, xs, mode=mode)
            assert_allclose(got.values, ref, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("lam,t_max,rtol", [
        (0.3, 2.0, 1e-4),
        (1.3, 1.0, 1e-2),
    ])
    def test_flat_data_closed_form(self, lam, t_max, rtol):
        ts = np.array([0.1, 0.5, 1.0, 2.0])
        ts = ts[ts <= t_max]
        got = _flat_second_moment(BM, lam, ts)
        assert_allclose(got, flat_closed_form(lam, ts), rtol=rtol)

    def test_delta_closed_form(self):
        ts = np.array([0.1, 0.3])
        xs = np.linspace(-3.0, 3.0, 25)
        got = pam_second_moment_oracle(BM, U0, 1.0, ts, xs).values
        for j, t in enumerate(ts):
            ref = delta_closed_form(1.0, t, xs)
            mask = ref > 1e-6 * ref.max()
            assert_allclose(got[j][mask], ref[mask], rtol=1e-4)

    def test_shifted_atom_shifts_the_moment(self):
        ts, xs = [0.1, 0.3], np.linspace(-1.0, 1.0, 9)
        ref = pam_second_moment_oracle(BM, U0, 1.0, ts, xs).values
        got = pam_second_moment_oracle(BM, delta(at=0.7), 1.0, ts,
                                       xs + 0.7).values
        assert_allclose(got, ref, rtol=1e-10)

    def test_stable_two_is_brownian(self):
        # stable(2, kappa/2) has Brownian(kappa)'s exponent; its squared
        # kernel comes from the tabulated G, Brownian's from the closed form
        ts, xs = [0.1, 0.3], np.linspace(-1.0, 1.0, 9)
        ref = pam_second_moment_oracle(brownian(2.0), U0, 1.0, ts, xs).values
        got = pam_second_moment_oracle(stable(2.0, 1.0), U0, 1.0, ts,
                                       xs).values
        assert_allclose(got, ref, rtol=1e-6)

    def test_lattice_mode_converges_to_continuum(self):
        two_atoms = FiniteMeasure(atoms=((-0.5, 0.6), (0.5, 0.4)),
                                  support_radius=0.5)
        for u0 in (U0, two_atoms, make_positive_definite_example(1.0)):
            cont = pam_second_moment_oracle(BM, u0, 1.0, np.array([0.3]),
                                            np.array([-0.5, 0.0, 0.5]))
            errs = []
            for dt, nx in [(0.02, 96), (0.01, 192), (0.005, 384)]:
                cen = -6.0 + (np.arange(nx) + 0.5) * (12.0 / nx)
                lat = pam_second_moment_oracle(
                    BM, u0, 1.0, dt * np.arange(1, int(0.3 / dt) + 1), cen,
                    mode="lattice")
                v = np.interp([-0.5, 0.0, 0.5], cen, lat.values[-1])
                errs.append(np.abs(v / cont.values[0] - 1.0).max())
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 5e-2

    def test_tabulated_kernel_is_lattice_only(self):
        xi = np.linspace(0.0, 400.0, 4001)
        tab = levy_kernel.tabulated(xi, 0.5 * xi * xi)
        xs = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(ValueError, match="tabulated"):
            pam_second_moment_oracle(tab, U0, 1.0, [0.1], xs)
        tg = 0.01 * np.arange(1, 4)
        lat = pam_second_moment_oracle(tab, U0, 1.0, tg, xs, mode="lattice")
        ref = pam_second_moment_oracle(BM, U0, 1.0, tg, xs, mode="lattice")
        assert_allclose(lat.values, ref.values, rtol=1e-3, atol=1e-9)

    def test_small_lam_first_order(self):
        """f - det^2 = lam^2 (p^2 (*) det^2) + O(lam^4)."""
        ts = np.array([0.2, 0.3])
        xs = np.linspace(-2, 2, 9)
        det2 = np.array([heat_convolve_many(BM, U0, t, xs) ** 2 for t in ts])
        g = {}
        for lam in (0.1, 0.05):
            o = pam_second_moment_oracle(BM, U0, lam, ts, xs)
            g[lam] = (o.values - det2) / lam ** 2
        # the lam^2-rescaled correction is lam-independent to O(lam^2)
        assert np.abs(g[0.1] / g[0.05] - 1.0).max() < 1e-2

        # p^2 (*) det^2 = p_{t/2}(x) / 4, the lam^2 term of the closed form
        for j, t in enumerate(ts):
            ref = np.exp(-xs ** 2 / t) / (4.0 * math.sqrt(math.pi * t))
            assert_allclose(g[0.1][j], ref, rtol=1e-2)

    def test_short_horizon_moment_bound(self):
        # f <= 2 C_2 u0(R) p_t(0) (p_t*u0)(x) up to T2, C_2 = 8 (1 v 2 lip^2)
        ts = T2 * np.array([0.5, 1.0])
        xs = np.linspace(-0.05, 0.05, 11)
        got = pam_second_moment_oracle(BM, U0, 1.0, ts, xs).values
        for j, t in enumerate(ts):
            rhs = 32.0 * p0_eval(BM, t) * heat_convolve_many(BM, U0, t, xs)
            assert np.all(got[j] <= rhs)
            # and the march still resolves the closed form down here
            assert_allclose(got[j], delta_closed_form(1.0, t, xs), rtol=1e-3)

    def test_grid_validation(self):
        xs = np.linspace(-1, 1, 9)
        with pytest.raises(GridMismatch):
            pam_second_moment_oracle(BM, U0, 1.0, [0.2, 0.1], xs)
        with pytest.raises(GridMismatch):
            pam_second_moment_oracle(BM, U0, 1.0, [0.1, 0.2],
                                     np.array([0.0, 0.1, 0.5]))
        with pytest.raises(GridMismatch):
            pam_second_moment_oracle(BM, U0, 1.0, [0.1, 0.3], xs,
                                     mode="lattice")
        with pytest.raises(ValueError):
            pam_second_moment_oracle(BM, U0, 1.0, [0.1, 0.2], xs,
                                     mode="spectral")


class TestMcMoments:
    def test_matches_scheme_exact_oracle(self, mc_table):
        tab, centers, orc = mc_table
        two = tab.k == 2
        for t, x, raw, se in zip(tab.t[two], tab.x[two], tab.raw_moment[two],
                                 tab.raw_std_error[two]):
            it = int(round(t / 0.01)) - 1
            ix = int(np.argmin(np.abs(centers - x)))
            z = (raw - orc.values[it, ix]) / se
            assert abs(z) < 3.0

    def test_mean_identity(self, mc_table):
        # E u_t(x) = (p_t * u0)(x); k = 1 rows carry the signed mean
        tab, _, _ = mc_table
        one = tab.k == 1
        for t, x, est, se in zip(tab.t[one], tab.x[one], tab.estimate[one],
                                 tab.std_error[one]):
            ref = float(heat_convolve_many(BM, U0, t, [x])[0])
            assert abs(est - ref) < 3.0 * se

    def test_table_invariants(self, mc_table):
        tab, centers, _ = mc_table
        assert tab.replicas == 1500
        assert tab.eps_growth == 0.5
        assert np.all(tab.std_error > 0)
        assert np.all(np.isfinite(tab.bound_exist_unique))
        assert np.all(np.isfinite(tab.bound_h1))
        # probes snap onto cell centers and the snapped value is recorded
        for xv in np.unique(tab.x):
            assert np.abs(centers - xv).min() < 1e-12

    def test_deterministic_and_thread_invariant(self, monkeypatch):
        kw = dict(dt=0.02, nx=64, half_width=4.0, t_end=0.1, seeds=50,
                  t_probes=[0.1], x_probes=[0.0], ks=(2,))
        monkeypatch.setenv("LEVYHEAT_THREADS", "1")
        a = mc_moments(BM, U0, PAM, **kw)
        monkeypatch.setenv("LEVYHEAT_THREADS", "2")
        b = mc_moments(BM, U0, PAM, **kw)
        c = mc_moments(BM, U0, PAM, **kw)
        assert np.array_equal(a.estimate, b.estimate)
        assert np.array_equal(b.estimate, c.estimate)
        assert np.array_equal(b.std_error, c.std_error)

    def test_seed_count_is_the_seed_list_from_zero(self):
        kw = dict(dt=0.02, nx=64, half_width=4.0, t_end=0.1,
                  t_probes=[0.1], x_probes=[0.0, 0.5], ks=(1, 2),
                  snapshot_times=[0.06])
        a = mc_moments(BM, U0, PAM, seeds=3, **kw)
        b = mc_moments(BM, U0, PAM, seeds=[0, 1, 2], **kw)
        assert a.replicas == b.replicas == 3
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, np.ndarray):
                assert va.tobytes() == vb.tobytes(), f.name
        with pytest.raises(ValueError):
            mc_moments(BM, U0, PAM, seeds=[], **kw)

    def test_repeated_probe_time_fills_every_slot(self):
        kw = dict(dt=0.01, nx=128, half_width=8, t_end=0.1, seeds=4,
                  x_probes=[0.0], ks=[2])
        twice = mc_moments(BM, U0, PAM, t_probes=[0.1, 0.1], **kw)
        once = mc_moments(BM, U0, PAM, t_probes=[0.1], **kw)
        assert np.array_equal(twice.raw_moment, np.repeat(once.raw_moment, 2))
        assert twice.raw_moment[0] > 0

    def test_repeated_snapshot_time_fills_every_slot(self):
        kw = dict(dt=0.01, nx=128, half_width=8, t_end=0.1, seeds=4,
                  t_probes=[0.1], x_probes=[0.0], ks=[2])
        twice = mc_moments(BM, U0, PAM, snapshot_times=[0.05, 0.05], **kw)
        once = mc_moments(BM, U0, PAM, snapshot_times=[0.05], **kw)
        for slot in (0, 1):
            assert np.array_equal(twice.snapshots[:, slot],
                                  once.snapshots[:, 0])

    def test_snapshot_times_are_step_times(self):
        # a snapshot holds a real time row: a time within roundoff of a
        # step gets that step's row, any other time is refused
        kw = dict(dt=0.01, nx=64, half_width=4.0, t_end=0.1, seeds=2,
                  t_probes=[], x_probes=[], ks=[])
        ref = mc_moments(BM, U0, PAM, snapshot_times=[0.05], **kw)
        near = mc_moments(BM, U0, PAM, snapshot_times=[0.05 * (1 + 1e-12)],
                          **kw)
        assert np.array_equal(near.snapshots, ref.snapshots)
        for t in (0.055, 0.005):  # between rows, before the first
            with pytest.raises(ValueError, match="snapshot time"):
                mc_moments(BM, U0, PAM, snapshot_times=[t], **kw)

    def test_snapshots_match_evolve_rows(self):
        tab = mc_moments(BM, U0, PAM, dt=0.01, nx=128, half_width=8.0,
                         t_end=0.2, seeds=3, t_probes=[], x_probes=[], ks=[],
                         snapshot_times=[0.1, 0.2])
        assert tab.snapshots.shape == (3, 2, 128) and tab.t.size == 0
        # the rows a march_seeds observer sees as the seeds evolve on the
        # same lattice
        lat = build_lattice(BM, U0, dt=0.01, dx=0.125, nx=128, n_steps=20)
        assert np.array_equal(tab.lattice.x_nodes, lat.x_nodes)
        rows = _shared_zeros((3, 20, 128))

        def keep(first, j, u):
            rows[first:first + u.shape[0], j] = u[:, 0]

        march_seeds(lat, PAM, range(3), keep)
        assert np.array_equal(tab.snapshots, rows[:, [9, 19]])


def wait_for(cond, timeout=10.0):
    """Poll cond until it holds; False after timeout seconds."""
    end = time.monotonic() + timeout
    while not cond():
        if time.monotonic() > end:
            return False
        time.sleep(0.001)
    return True


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


class TestForkMap:
    """solver._fork_map: with w >= 2 workers chunk i runs in forked child
    i mod w while the caller only waits; the children report through
    shared memory and are all reaped whatever happens."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers, chunks", [(3, 9), (8, 2), (2, 7)])
    def test_each_chunk_runs_once_in_worker_i_mod_w(self, workers, chunks):
        runs, pids = _shared_zeros((chunks,)), _shared_zeros((chunks,))

        def fn(c):
            runs[c] += 1
            pids[c] = os.getpid()

        assert _fork_map(fn, range(chunks), workers) is None
        w = min(workers, chunks)
        assert runs.tolist() == [1.0] * chunks
        by_worker = [{pids[i] for i in range(r, chunks, w)} for r in range(w)]
        assert all(len(p) == 1 for p in by_worker)
        children = set.union(*by_worker)
        assert len(children) == w and os.getpid() not in children

    def test_ensembles_bit_identical_at_1_2_and_3_workers(self, monkeypatch):
        # 3 BATCH + 5 seeds: four chunks, so three workers share them
        # unevenly and one worker takes two
        seeds = 3 * BATCH + 5
        out = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("LEVYHEAT_THREADS", workers)
            tab = mc_moments(BM, U0, PAM, dt=0.02, nx=64, half_width=4.0,
                             t_end=0.1, seeds=seeds, t_probes=[0.06, 0.1],
                             x_probes=[0.0, 0.5], ks=(1, 2, 4),
                             snapshot_times=[0.04, 0.1])
            rows = stability_compare(BM, U0, PAM, [0.1, 0.2], 1.21, seeds,
                                     t_max=0.1, dt=0.02, nx=64,
                                     half_width=4.0)
            out.append([tab.raw_moment, tab.raw_std_error, tab.snapshots,
                        np.array(rows)])
        # every path's snapshot rows reached the caller
        assert out[0][2].shape == (seeds, 2, 64)
        assert np.all(np.abs(out[0][2]).max(axis=-1) > 0)
        for other in out[1:]:
            for a, b in zip(out[0], other):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("where", ["child", "caller"])
    def test_error_reaches_the_caller_and_stops_the_map(self, where):
        # the failing chunk raises once the other worker's chunk has
        # started; the other chunk then outlasts the stop flag, after
        # which no worker takes a chunk.  "caller" fails in worker 0 and
        # "child" in worker 1; both are forked children
        bad, good = (1, 0) if where == "child" else (0, 1)
        started = _shared_zeros((6,))

        def fn(c):
            started[c] = 1
            if c == bad:
                assert wait_for(lambda: started[good])
                raise ValueError(f"chunk {c} in the {where}")
            if c == good:
                time.sleep(0.3)

        with pytest.raises(ValueError, match=f"chunk {bad} in the {where}"):
            _fork_map(fn, range(6), 2)
        assert started.tolist() == [1, 1, 0, 0, 0, 0]

    def test_interrupted_wait_stops_and_reaps_every_child(self):
        # the caller spends the map in os.waitpid; an exception that a
        # signal handler raises there sets the stop flag, and both
        # children are reaped (after their first chunk) before it escapes
        class Stop(Exception):
            pass

        def alarm(signum, frame):
            raise Stop

        started = _shared_zeros((6,))

        def fn(c):
            started[c] = 1
            time.sleep(0.5)

        previous = signal.signal(signal.SIGALRM, alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(Stop):
                _fork_map(fn, range(6), 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert started.tolist() == [1, 1, 0, 0, 0, 0]

    def test_unpicklable_child_error_keeps_its_message(self):
        def fn(c):
            if c == 1:
                raise Unpicklable("odd chunk")

        with pytest.raises(RuntimeError, match="Unpicklable: odd chunk"):
            _fork_map(fn, range(2), 2)

    def test_one_worker_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        ran = []
        _fork_map(ran.append, range(3), 1)
        assert ran == [0, 1, 2]  # a plain list: every chunk in the caller
        with pytest.raises(KeyError, match="chunk 1"):
            _fork_map(lambda c: {}[f"chunk {c}"] if c else None, range(3), 1)
        monkeypatch.setenv("LEVYHEAT_THREADS", "1")
        mc_moments(BM, U0, PAM, dt=0.02, nx=64, half_width=4.0, t_end=0.04,
                   seeds=2 * BATCH, t_probes=[0.04], x_probes=[0.0])


class TestWorkerCount:
    def test_default_is_the_affinity_capped_at_8(self, monkeypatch):
        monkeypatch.delenv("LEVYHEAT_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert _worker_count() == 3
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(20)), raising=False)
        assert _worker_count() == 8
        monkeypatch.setenv("LEVYHEAT_THREADS", "5")
        assert _worker_count() == 5

    def test_one_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.setenv("LEVYHEAT_THREADS", "5")
        assert _worker_count() == 1
        monkeypatch.delenv("LEVYHEAT_THREADS")
        assert _worker_count() == 1
        monkeypatch.setenv("LEVYHEAT_THREADS", "many")
        with pytest.raises(ValueError, match="LEVYHEAT_THREADS"):
            _worker_count()


class TestSeedsAndBudget:
    def test_seeds_are_philox_keys(self):
        assert seed_ids([0, 2 ** 128 - 1]) == [0, 2 ** 128 - 1]
        for bad in (-1, 2 ** 128):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
                seed_ids([3, bad])

    def test_allocation_limit_before_any_march_or_fork(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("work began before the budget check")

        for name in ("build_lattice", "check_truncation", "_det_rows",
                     "_shared_zeros", "march_seeds", "march"):
            monkeypatch.setattr(solver, name, forbidden)
        monkeypatch.setattr(os, "fork", forbidden)
        nx, seeds = 1 << 10, 1 << 10
        # 65 steps: one step past 2^26 cells of snapshots
        assert seeds * 64 * nx == MAX_CELLS
        with pytest.raises(AllocationLimit):
            mc_moments(BM, U0, PAM, dt=0.01, nx=nx, half_width=8.0,
                       t_end=0.65, seeds=seeds, t_probes=[], x_probes=[],
                       ks=[], snapshot_times=0.01 * np.arange(1, 66))
        with pytest.raises(AllocationLimit):
            picard_iterate(BM, U0, PAM, 1, dt=T2 / 8, nx=nx, half_width=8.0,
                           t_end=T2, seeds=2 * seeds)


    def test_det_rows_within_the_budget(self, monkeypatch):
        # 1 start x 20 steps x 64 cells of det rows for mc_moments, and
        # 2 starts of them for stability_compare
        ensembles = [
            lambda: mc_moments(BM, U0, PAM, dt=0.01, nx=64, half_width=4.0,
                               t_end=0.2, seeds=1, t_probes=[0.2],
                               x_probes=[0.0]),
            lambda: stability_compare(BM, U0, PAM, [0.1], 1.21, 1,
                                      t_max=0.2, dt=0.01, nx=64,
                                      half_width=4.0)]
        monkeypatch.setattr(solver, "MAX_CELLS", 2 * 20 * 64)
        for run in ensembles:
            run()

        def forbidden(*_args, **_kwargs):
            raise AssertionError("det rows began before the budget check")

        for name in ("check_truncation", "_det_rows", "_propagators"):
            monkeypatch.setattr(solver, name, forbidden)
        for cells, run in zip((20 * 64 - 1, 2 * 20 * 64 - 1), ensembles):
            monkeypatch.setattr(solver, "MAX_CELLS", cells)
            with pytest.raises(AllocationLimit, match="deterministic rows"):
                run()


class TestStability:
    def test_bound_vanishes_at_zero(self):
        assert stability_bound(BM, 1.0, 0.0, 1.21) == 0.0

    def test_bound_monotone_in_eps(self):
        bs = [stability_bound(BM, 1.0, e, 1.21) for e in (0.05, 0.1, 0.2)]
        assert bs[0] < bs[1] < bs[2]

    def test_deterministic_identity(self):
        """sigma = 0 collapses the distance to an explicit xi-integral.

        With no noise the coupled pair differs only in its deterministic
        rows and Plancherel turns the weighted L^2 distance into exactly
        half the stability bound; the two independent quadratures must
        agree far beyond the contract's 1e-4.
        """
        for eps, beta in ((0.2, 1.21), (0.05, 2.0)):
            direct = _deterministic_distance_time(BM, 1.0, eps, beta)
            plancherel = 0.5 * stability_bound(BM, 1.0, eps, beta)
            assert abs(direct / plancherel - 1.0) < 1e-4

    def test_inadmissible_beta_rejected(self):
        # upsilon(beta) = 1/(2 sqrt(beta)) <= 1/(2 lip^2) needs beta >= 1
        with pytest.raises(ValueError, match="admissible"):
            stability_compare(BM, U0, PAM, [0.1], 0.49, 4,
                              t_max=0.1, dt=0.01, nx=64, half_width=12.0)

    @pytest.mark.parametrize("seeds", [0, []])
    def test_needs_a_seed(self, seeds):
        with pytest.raises(ValueError, match="seed"):
            stability_compare(BM, U0, PAM, [0.1], 1.21, seeds,
                              t_max=0.1, dt=0.01, nx=64, half_width=12.0)

    def test_coupled_distance_under_bound(self):
        rows = stability_compare(BM, U0, PAM, [0.2, 0.1], 1.21, 24,
                                 t_max=3.0, dt=0.02, nx=256,
                                 half_width=16.0)
        assert rows[0].eps == 0.2 and rows[1].eps == 0.1
        for row in rows:
            assert row.distance <= row.bound
            assert row.std_error > 0
            assert row.tail_bound < 0.05 * row.distance
        # smaller mollification, smaller distance (2 SE slack)
        slack = 2.0 * math.hypot(rows[0].std_error, rows[1].std_error)
        assert rows[1].distance < rows[0].distance + slack

    def test_zero_eps_couples_exactly(self):
        rows = stability_compare(BM, U0, PAM, [0.0], 1.21, 3,
                                 t_max=0.5, dt=0.02, nx=128,
                                 half_width=12.0)
        assert rows[0].distance == 0.0
        assert rows[0].bound == 0.0


class TestPositivity:
    def test_pam_violations_rare(self):
        tab = march_rows(BM, U0, PAM, dt=0.01, nx=64, half_width=4.0,
                         t_end=0.3, seeds=60)
        below = positivity_scan(tab.snapshots, scheme_error(tab.lattice))[1]
        assert below / tab.snapshots.size < 0.01

    def test_refinement_does_not_worsen(self):
        def count(dt, nt):
            tab = march_rows(BM, U0, PAM, dt=dt, nx=64, half_width=4.0,
                             t_end=dt * nt, seeds=30)
            return positivity_scan(tab.snapshots,
                                   scheme_error(tab.lattice))[1]

        assert count(0.01, 30) <= count(0.02, 15)
