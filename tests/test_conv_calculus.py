import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levyheat import (
    brownian,
    delta,
    heat_convolve_rows,
    p_eval,
    pam_second_moment_oracle,
    stable,
    tabulated,
    theta_estimate,
)
from levyheat import levy_kernel
from levyheat.conv_calculus import (
    SpaceTimeGrid,
    _add_inverse,
    _interp_rows,
    _level_rows,
    _spectral_rule,
    check_lemma_pp,
    check_lemma_star2,
    check_lemma_star2_grid,
    graded_times,
    time_convolve_at_origin,
)
from levyheat.measure_init import FiniteMeasure, fourier_u0

BM = brownian(1.0)

# Brownian closed forms (kappa = 1):
#   int_0^t p_{t-s}(0) p_s(0) ds = 1/2 for every t;
#   the diagonal triple is (1/pi, 1/2, 2 sqrt(2)/pi), t-independent;
#   p_t(x)^2 = p_{t/2}(x) / (2 sqrt(pi t)), so the Lemma *2 level n from
#   delta data, n squared kernels on (p_t)^2, is c_n t^{(n-1)/2} p_{t/2}(x)
#   with c_1 = 1/4 and c_n = c_{n-1} B(n/2, 1/2) / (2 sqrt(pi)).
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
        t, v = g.t_nodes, g.values
        assert_allclose(_interp_rows(t, v, t[0] / 2), v[0])
        assert_allclose(_interp_rows(t, v, t[-1] * 2), v[-1])
        mid = 0.5 * (t[3] + t[4])
        assert_allclose(_interp_rows(t, v, mid), 0.5 * (v[3] + v[4]))
        # limit clamps at row limit - 1, and an array of times gives rows
        assert_allclose(_interp_rows(t, v, np.array([mid, t[-1]]), 4),
                        [v[3], v[3]])

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


def off_centre_measure():
    """Atoms off the origin plus a density: a complex u0_hat."""
    grid = np.linspace(-2.0, 2.0, 401)
    return FiniteMeasure(atoms=((0.7, 0.5), (-1.3, 0.25)), density_grid=grid,
                         density_values=np.maximum(0.0, 1.0 - np.abs(grid)),
                         support_radius=2.0)


def per_time_rows(model, u0, ts, x):
    """(p_t * u0)(x) with one xi rule per time and a complex phase matrix."""
    rows = []
    for t in ts:
        cutoff = levy_kernel._cutoff_for(model, t, levy_kernel.XI_TOL)
        nodes, weights = levy_kernel._xi_rule(
            cutoff, float(np.abs(x).max()) + u0.data_radius)
        damp = weights * np.exp(-t * levy_kernel.psi_eval(model, nodes))
        phase = np.exp(-1j * np.multiply.outer(x, nodes))
        rows.append((phase @ (damp * fourier_u0(u0, nodes))).real / math.pi)
    return np.array(rows)


class TestBatchedRows:
    # At the default tol each per-time rule drops ~1e-12 of its row past
    # its own cutoff, which a shared rule avoids for all but the smallest
    # time; a tight tol makes both sides exact to roundoff.
    x = np.linspace(-4.0, 4.0, 257)

    @staticmethod
    def times(n):
        # graded over a 30-fold span; a per-time rule for stable(1.5) far
        # below t = 0.01 would exceed the node budget on this window
        ts = graded_times(0.3, n=n)
        return ts[ts >= 0.01]

    @pytest.mark.parametrize("model", [BM, stable(1.5)],
                             ids=["brownian", "stable"])
    def test_rows_match_one_rule_per_time(self, set_constant, model):
        set_constant("XI_TOL", 1e-13)
        ts, u0 = self.times(24), off_centre_measure()
        want = per_time_rows(model, u0, ts, self.x)
        got = heat_convolve_rows(model, u0, ts, self.x)
        err = np.abs(got - want).max(axis=1)
        assert np.all(err <= 1e-12 * np.abs(want).max(axis=1))

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
            ts = self.times(n)
            heat_convolve_rows(BM, delta(), ts, self.x)
            heat_convolve_rows(BM, off_centre_measure(), ts, self.x)
            return len(builds)

        assert count(20) == count(80)


def level_closed_form(n, t, x):
    """Brownian delta-data level n: c_n t^{(n-1)/2} p_{t/2}(x)."""
    c = 0.25
    for j in range(2, n + 1):
        c *= math.gamma(j / 2) * math.gamma(0.5) / math.gamma(j / 2 + 0.5) \
            / (2.0 * math.sqrt(math.pi))
    return c * t ** ((n - 1) / 2) * p_eval(BM, t / 2, x)


class TestLemmaStar2:
    def test_delta0_closed_form_and_bound(self):
        ts, xs = [0.1, 0.2, 0.3], [0.0, 0.5, 1.0, 1.5, 2.0]
        lhs, rhs = check_lemma_star2_grid(BM, delta(), 4, ts, xs)
        assert np.all(lhs <= rhs)
        for n in range(1, 5):
            want = np.array([[level_closed_form(n, t, x) for x in xs]
                             for t in ts])
            err = np.abs(lhs[n - 1] - want)
            assert np.all(err <= 1e-5 * want[:, :1]), n

    def test_stable_levels_match_the_oracle_at_small_lam(self):
        # (E u^2 - (p_t*u0)^2) / lam^2 = L_1 + lam^2 L_2 + O(lam^4): the
        # oracle's feedback march against the level march, no closed form
        model, lam = stable(1.5), 0.01
        ts, xs = [0.1, 0.3], [0.0, 0.75, 1.5]
        oracle = pam_second_moment_oracle(model, delta(), lam, ts, xs).values
        det2 = heat_convolve_rows(model, delta(), ts, xs) ** 2
        lhs, _ = check_lemma_star2_grid(model, delta(), 2, ts, xs)
        assert_allclose((oracle - det2) / lam ** 2, lhs[0] + lam ** 2 * lhs[1],
                        rtol=1e-6)

    def test_ratio_shrinks_with_n(self):
        lhs, rhs = check_lemma_star2_grid(BM, delta(), 2, [0.1], [0.0])
        ratio = lhs[:, 0, 0] / rhs[:, 0, 0]
        assert ratio[0] <= 1.0
        assert ratio[1] < ratio[0]

    def test_zero_seed(self):
        # sigma == 0 analogue: a zero seed stays zero under the level march
        xi, _, khat, _ = _spectral_rule(BM, delta(), [0.1], [0.0])
        out = _level_rows(khat, lambda s, k: np.zeros_like(k), 3,
                          graded_times(0.1, n=48))
        assert out.shape == (48, 3, xi.size) and np.all(out == 0.0)

    def test_delta0_seed_matches_kernel_squared(self):
        # the seed D of delta data, inverted on the march's xi rule, is
        # p_t(x)^2 = e^{-x^2/t} / (2 pi t)
        ts, x = graded_times(0.3, n=24), np.linspace(-4.0, 4.0, 257)
        ts = ts[ts >= 0.01]
        xi, w, khat, dhat = _spectral_rule(BM, delta(), ts, x)
        seeded = _add_inverse(np.zeros((ts.size, x.size)),
                              dhat(ts, khat(ts)), xi, w, x)
        t = ts[:, None]
        want = np.exp(-x ** 2 / t) / (2.0 * math.pi * t)
        err = np.abs(seeded - want).max(axis=1)
        assert np.all(err <= 1e-10 * want.max(axis=1))

    @pytest.mark.parametrize("t_values", [[0.2, 0.1], [0.1, 0.1], [0.0, 0.1],
                                          [-0.1], [float("nan")], []])
    def test_times_must_be_positive_and_increasing(self, t_values):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_lemma_star2_grid(BM, delta(), 1, t_values, [0.0])

    def test_tabulated_kernel_rejected(self):
        xi = np.linspace(0.0, 200.0, 2001)
        with pytest.raises(ValueError, match="tabulated"):
            check_lemma_star2(tabulated(xi, 0.5 * xi ** 2), delta(), 1, 0.1,
                              0.0)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            check_lemma_star2(BM, delta(), 5, 0.1, 0.0)
