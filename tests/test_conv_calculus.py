import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levyheat import (
    GridMismatch,
    QuadratureSpec,
    brownian,
    delta,
    p_eval,
    p_eval_many,
    stable,
    theta_estimate,
)
from levyheat import levy_kernel
from levyheat.conv_calculus import (
    SpaceTimeGrid,
    _resolvable_time,
    _theta_rule,
    check_lemma_pp,
    check_lemma_star2,
    check_lemma_star2_grid,
    graded_times,
    smoothed_squared_grid,
    st_convolve,
    time_convolve_at_origin,
)
from levyheat.measure_init import FiniteMeasure, fourier_u0

BM = brownian(1.0)

# Brownian closed forms (kappa = 1):
#   int_0^t p_{t-s}(0) p_s(0) ds = 1/2 for every t;
#   the diagonal triple is (1/pi, 1/2, 2 sqrt(2)/pi), t-independent;
#   (p (*) p)_t(x)       = t p_t(x);
#   (p^2 (*) p^2)_t(x)   = p_{t/2}(x)/4;
#   three squared factors: sqrt(t/pi) p_{t/2}(x)/4.
TRIPLE = (1.0 / math.pi, 0.5, 2.0 * math.sqrt(2.0) / math.pi)


def small_grid(seed, nt=12, nx=65):
    rng = np.random.default_rng(seed)
    t_nodes = graded_times(0.5, n=nt)
    x_nodes = np.linspace(-1.6, 1.6, nx)
    return SpaceTimeGrid(t_nodes, x_nodes, rng.random((t_nodes.size, nx)))


class TestSpaceTimeGrid:
    def test_validation(self):
        t = np.array([0.1, 0.2])
        x = np.linspace(-1, 1, 5)
        v = np.zeros((2, 5))
        with pytest.raises(ValueError):
            SpaceTimeGrid(np.array([0.0, 0.2]), x, v)
        with pytest.raises(ValueError):
            SpaceTimeGrid(np.array([0.2, 0.1]), x, v)
        with pytest.raises(ValueError):
            SpaceTimeGrid(t, np.array([-1.0, 0.0, 0.5, 1.0]), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            SpaceTimeGrid(t, x, np.zeros((3, 5)))
        bad = v.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            SpaceTimeGrid(t, x, bad)

    def test_row_interpolation_clamps(self):
        g = small_grid(3)
        assert_allclose(g.row_at(g.t_nodes[0] / 2), g.values[0])
        assert_allclose(g.row_at(g.t_nodes[-1] * 2), g.values[-1])
        mid = 0.5 * (g.t_nodes[3] + g.t_nodes[4])
        assert_allclose(g.row_at(mid), 0.5 * (g.values[3] + g.values[4]))

    def test_graded_times(self):
        ts = graded_times(2.0, n=40, include=[0.3, 2.0])
        assert ts[0] > 0
        assert np.all(np.diff(ts) > 0)
        assert 0.3 in ts and 2.0 in ts
        assert ts[-1] == 2.0
        with pytest.raises(ValueError):
            graded_times(1.0, include=[1.5])

    @pytest.mark.parametrize("n", [120, 240])
    def test_graded_times_match_np_unique_on_oracle_meshes(self, n):
        # the oracle's meshes, built by np.unique before graded_times took
        # the sort-based helper; a node listed twice or already on the mesh
        # (t_max itself) appears once
        include = np.array([0.1, 0.3, 0.1, 0.3])
        base = 0.3 * (np.arange(1, n + 1) / n) ** 4.0
        ts = graded_times(0.3, n, include=include)
        assert np.array_equal(ts, np.unique(np.concatenate([base, include])))
        assert ts.size == n + 1


class TestUnique:
    """levy_kernel._unique is np.unique bit for bit, without numpy.ma."""

    @staticmethod
    def same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 2.0, 1.0, 3.0],
        [0.0, -0.0, 1.0],
        [-0.0, 0.0, 1.0],
        [1.0, 0.0, -0.0, 0.0, -1.0],
        [],
        [5.0],
    ])
    def test_matches_np_unique(self, values):
        a = np.array(values, dtype=float)
        assert self.same_bits(levy_kernel._unique(a), np.unique(a))

    def test_matches_np_unique_on_long_unsorted_input(self):
        rng = np.random.default_rng(11)
        a = rng.integers(-50, 50, 5000) * 0.25
        a[rng.integers(0, a.size, 200)] = -0.0
        for values in (a, a.reshape(50, 100), rng.permutation(a)):
            assert self.same_bits(levy_kernel._unique(values),
                                  np.unique(values))


class TestDiagonalConvolution:
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 7.3])
    def test_brownian_half(self, t):
        assert_allclose(time_convolve_at_origin(BM, t), 0.5, atol=1e-7)

    @pytest.mark.parametrize("t", [1.0, 4.0])
    def test_lemma_pp_brownian_triple(self, t):
        lo, mid, up = check_lemma_pp(BM, t, theta=math.sqrt(2.0))
        assert_allclose((lo, mid, up), TRIPLE, rtol=1e-6)
        assert lo < mid < up

    def test_lemma_pp_stable(self):
        st = stable(1.5)
        th = theta_estimate(st)
        lo, mid, up = check_lemma_pp(st, 1.0, theta=th)
        assert lo < mid < up
        assert 1.0 <= mid / lo <= 2.0 * th

    def test_lemma_pp_stable_log_grid(self):
        st = stable(1.2)
        th = theta_estimate(st)
        for t in np.logspace(-3, 1, 9):
            lo, mid, up = check_lemma_pp(st, float(t), theta=th)
            assert lo <= mid <= up
            assert 1.0 <= mid / lo <= 2.0 * th + 1e-9


def direct_st_convolve(f, g):
    """Reference: the theta-rule sum in x space, one np.convolve per node."""
    s_frac, wts = _theta_rule()
    nx = f.x_nodes.size
    lo = (nx - 1) // 2
    out = np.zeros_like(f.values)
    for i, t in enumerate(f.t_nodes):
        acc = np.zeros(nx)
        for sf, w in zip(s_frac, wts):
            acc += w * np.convolve(f.row_at(t - t * sf),
                                   g.row_at(t * sf))[lo:lo + nx]
        out[i] = np.maximum(acc * (t * f.dx), 0.0)
    return out


class TestStConvolve:
    @pytest.mark.parametrize("nx", [65, 64])
    def test_matches_direct_theta_sum(self, nx):
        f, g = small_grid(31, nx=nx), small_grid(32, nx=nx)
        got = st_convolve(f, g).values
        ref = direct_st_convolve(f, g)
        assert np.abs(got - ref).max() <= 1e-12 * ref.max()

    def test_zero_inputs(self):
        g = small_grid(5)
        zero = SpaceTimeGrid(g.t_nodes, g.x_nodes, np.zeros_like(g.values))
        out = st_convolve(zero, zero)
        assert np.all(out.values == 0.0)

    def test_grid_mismatch(self):
        f = small_grid(1)
        g = small_grid(2, nx=33)
        with pytest.raises(GridMismatch):
            st_convolve(f, g)

    def test_negative_rejected(self):
        g = small_grid(6)
        bad = SpaceTimeGrid(g.t_nodes, g.x_nodes, g.values - 10.0)
        with pytest.raises(ValueError):
            st_convolve(g, bad)

    def test_semigroup_identity(self):
        # (p (*) p)_t(x) = t p_t(x) by Chapman-Kolmogorov
        x_nodes = np.linspace(-6.0, 6.0, 601)
        t_table = graded_times(0.2, n=64, include=[0.08, 0.2])
        # p rows, with a unit-mass spike at times below the resolvable one
        dx = x_nodes[1] - x_nodes[0]
        small = t_table < _resolvable_time(BM, dx)
        rows = np.zeros((t_table.size, x_nodes.size))
        for i in np.flatnonzero(~small):
            rows[i] = np.maximum(p_eval_many(BM, t_table[i], x_nodes), 0.0)
        rows[small, np.argmin(np.abs(x_nodes))] = 1.0 / dx
        pg = SpaceTimeGrid(t_table, x_nodes, rows)
        out = st_convolve(pg, pg)
        for t in (0.08, 0.2):
            i = int(np.searchsorted(t_table, t))
            for x in (0.0, 0.5, 1.0):
                j = int(np.argmin(np.abs(x_nodes - x)))
                assert_allclose(out.values[i, j], t * p_eval(BM, t, x),
                                rtol=2e-2)

    def test_bilinear(self):
        f, g, h = small_grid(11), small_grid(12), small_grid(13)
        fg = st_convolve(f, g)
        fh = st_convolve(f, h)
        gh_sum = SpaceTimeGrid(f.t_nodes, f.x_nodes, g.values + h.values)
        combined = st_convolve(f, gh_sum)
        assert_allclose(combined.values, fg.values + fh.values, rtol=1e-12)
        scaled = st_convolve(SpaceTimeGrid(f.t_nodes, f.x_nodes,
                                           3.0 * f.values), g)
        assert_allclose(scaled.values, 3.0 * fg.values, rtol=1e-12)

    def test_monotone(self):
        f, g, extra = small_grid(21), small_grid(22), small_grid(23)
        bigger = SpaceTimeGrid(f.t_nodes, f.x_nodes, f.values + extra.values)
        low = st_convolve(f, g)
        high = st_convolve(bigger, g)
        assert np.all(high.values >= low.values - 1e-15)


def off_centre_measure():
    """Atoms off the origin plus a density: a complex u0_hat."""
    grid = np.linspace(-2.0, 2.0, 401)
    return FiniteMeasure(atoms=((0.7, 0.5), (-1.3, 0.25)), density_grid=grid,
                         density_values=np.maximum(0.0, 1.0 - np.abs(grid)),
                         support_radius=2.0)


def per_time_rows(model, u0, ts, x, spec):
    """(p_t * u0)(x) with one xi rule per time and a complex phase matrix."""
    rows = []
    for t in ts:
        cutoff = levy_kernel._cutoff_for(model, t, spec.tol)
        nodes, weights = levy_kernel._xi_rule(
            cutoff, float(np.abs(x).max()) + u0.data_radius, spec)
        damp = weights * np.exp(-t * levy_kernel.psi_eval(model, nodes))
        phase = np.exp(-1j * np.multiply.outer(x, nodes))
        rows.append((phase @ (damp * fourier_u0(u0, nodes))).real / math.pi)
    return np.array(rows)


class TestBatchedRows:
    # At the default tol each per-time rule drops ~1e-12 of its row past
    # its own cutoff, which a shared rule avoids for all but the smallest
    # time; a tight tol makes both sides exact to roundoff.
    spec = QuadratureSpec(tol=1e-13)
    x = np.linspace(-4.0, 4.0, 257)

    @pytest.mark.parametrize("model", [BM, stable(1.5)],
                             ids=["brownian", "stable"])
    def test_rows_match_one_rule_per_time(self, model):
        ts = graded_times(0.3, n=40)
        x, dx = self.x, self.x[1] - self.x[0]
        u_r = _resolvable_time(model, dx)
        small = ts < u_r
        assert small.any() and not small.all()
        j0 = int(np.argmin(np.abs(x)))
        p2 = per_time_rows(model, delta(), 2.0 * ts[small], [0.0], self.spec)
        ref = np.zeros((ts.size, x.size))
        ref[~small] = per_time_rows(model, delta(), ts[~small], x, self.spec)
        want = {"squared": ref ** 2}
        want["squared"][small, j0] = p2[:, 0] / dx
        u0 = off_centre_measure()
        want["smoothed"] = np.zeros_like(ref)
        want["smoothed"][~small] = per_time_rows(
            model, u0, ts[~small], x, self.spec) ** 2
        dens = FiniteMeasure(density_grid=u0.density_grid,
                             density_values=u0.density_values,
                             support_radius=u0.support_radius)
        want["smoothed"][small] = per_time_rows(
            model, dens, [u_r], x, self.spec) ** 2
        for y, m in u0.atoms:
            want["smoothed"][small, np.argmin(np.abs(x - y))] += \
                m * m * p2[:, 0] / dx
        got = {"squared": smoothed_squared_grid(model, delta(), ts, x,
                                                self.spec),
               "smoothed": smoothed_squared_grid(model, u0, ts, x, self.spec)}
        for name, grid in got.items():
            err = np.abs(grid.values - want[name]).max(axis=1)
            assert np.all(err <= 1e-12 * np.abs(want[name]).max(axis=1)), name

    def test_rule_count_does_not_grow_with_rows(self, monkeypatch):
        builds = []
        real = levy_kernel._xi_rule

        def counting(*args, **kwargs):
            builds.append(args[0])
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("levyheat") and hasattr(mod, "_xi_rule"):
                monkeypatch.setattr(mod, "_xi_rule", counting)

        def count(n):
            builds.clear()
            ts = graded_times(0.3, n=n)
            smoothed_squared_grid(BM, delta(), ts, self.x)
            smoothed_squared_grid(BM, off_centre_measure(), ts, self.x)
            return len(builds)

        assert count(20) == count(80)


class TestLemmaStar2:
    def test_delta0_closed_form_and_bound(self):
        lhs, rhs = check_lemma_star2(BM, delta(), 1, 0.1, 0.0)
        assert_allclose(lhs, p_eval(BM, 0.05, 0.0) / 4, rtol=2e-2)
        assert lhs <= rhs

    def test_ratio_shrinks_with_n(self):
        lhs, rhs = check_lemma_star2_grid(BM, delta(), 2, [0.1], [0.0])
        ratio = lhs[:, 0, 0] / rhs[:, 0, 0]
        assert ratio[0] <= 1.0
        assert ratio[1] < ratio[0]

    def test_zero_seed(self):
        # sigma == 0 analogue: a zero seed stays zero under convolution
        x_nodes = np.linspace(-4.0, 4.0, 257)
        t_table = graded_times(0.1, n=48)
        kern = smoothed_squared_grid(BM, delta(), t_table, x_nodes)
        zero = SpaceTimeGrid(t_table, x_nodes, np.zeros_like(kern.values))
        out = st_convolve(kern, zero)
        assert np.all(out.values == 0.0)

    def test_delta0_seed_matches_kernel_squared(self):
        x_nodes = np.linspace(-4.0, 4.0, 257)
        t_table = graded_times(0.3, n=24)
        seeded = smoothed_squared_grid(BM, delta(), t_table, x_nodes)
        # p_t(x)^2 = e^{-x^2/t} / (2 pi t); below the resolvable time a
        # spike of mass p_{2t}(0) = (4 pi t)^{-1/2} at the origin
        t = t_table[:, None]
        want = np.exp(-x_nodes ** 2 / t) / (2.0 * math.pi * t)
        dx = x_nodes[1] - x_nodes[0]
        small = t_table < _resolvable_time(BM, dx)
        assert small.any() and not small.all()
        want[small] = 0.0
        want[small, np.argmin(np.abs(x_nodes))] = \
            1.0 / (np.sqrt(4.0 * math.pi * t_table[small]) * dx)
        err = np.abs(seeded.values - want).max(axis=1)
        assert np.all(err <= 1e-10 * want.max(axis=1))

    def test_n_validation(self):
        with pytest.raises(ValueError):
            check_lemma_star2(BM, delta(), 5, 0.1, 0.0)
