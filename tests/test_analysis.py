import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levyheat import (NOT_APPLICABLE, BoundVerdict, FiniteMeasure,
                      MomentTable, brownian,
                      check_exist_unique_bound, delta, evolve,
                      heat_convolve_many, lyapunov_fit,
                      make_positive_definite_example, mc_moments,
                      modulus_estimate, nochaos_sup_scan, p0_eval,
                      pam_second_moment_oracle, sigma_linear,
                      sigma_saturating, small_t_scan, tabulated,
                      tail_decay_fit)
from levyheat.analysis import _scan_grid
from levyheat.errors import InsufficientRange

BM = brownian(1.0)
U0 = delta()
PAM = sigma_linear(1.0)
SIG0 = sigma_linear(0.0)
T2 = math.pi / 16384.0
BASELINE = 1.0 / math.sqrt(2.0 * math.pi)  # t^{1/2} sup_x p_t for a unit delta


def det_table(ts, xs, k, raw):
    """Noise-free MomentTable: raw values given, standard errors zero."""
    rows_t, rows_x, vals = [], [], []
    for i, t in enumerate(np.atleast_1d(ts)):
        for j, x in enumerate(np.atleast_1d(xs)):
            rows_t.append(float(t))
            rows_x.append(float(x))
            vals.append(float(raw[i, j]))
    n = len(rows_t)
    vals = np.array(vals)
    z = np.zeros(n)
    one = np.ones(n)
    return MomentTable(t=np.array(rows_t), x=np.array(rows_x),
                       k=np.full(n, float(k)), estimate=vals ** (1.0 / k),
                       std_error=z, bound_exist_unique=one, bound_h1=one,
                       raw_moment=vals, raw_std_error=z, replicas=1)


def slice_table(tab, mask):
    return MomentTable(
        t=tab.t[mask], x=tab.x[mask], k=tab.k[mask],
        estimate=tab.estimate[mask], std_error=tab.std_error[mask],
        bound_exist_unique=tab.bound_exist_unique[mask],
        bound_h1=tab.bound_h1[mask], raw_moment=tab.raw_moment[mask],
        raw_std_error=tab.raw_std_error[mask], replicas=tab.replicas)


def box_measure(radius=8.0, n=161):
    grid = np.linspace(-radius, radius, n)
    return FiniteMeasure(density_grid=grid,
                         density_values=np.ones(grid.size),
                         support_radius=radius)


class TestBoundVerdict:

    def test_pass_boundary_is_three_se(self):
        v = BoundVerdict.from_comparison("c", lhs=1.3, rhs=1.0, std_error=0.1)
        assert v.passed
        v = BoundVerdict.from_comparison("c", lhs=1.3001, rhs=1.0,
                                         std_error=0.1)
        assert not v.passed

    def test_contradictory_flag_rejected(self):
        with pytest.raises(ValueError, match="contradicts"):
            BoundVerdict(claim_id="c", lhs=2.0, rhs=1.0, std_error=0.0,
                         passed=True)

    def test_negative_std_error_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BoundVerdict(claim_id="c", lhs=0.0, rhs=1.0, std_error=-0.1,
                         passed=True)

    def test_not_applicable_is_falsy_singleton(self):
        assert not NOT_APPLICABLE
        assert repr(NOT_APPLICABLE) == "NotApplicable"


class TestExistUniqueBound:

    def test_sigma_zero_fit_near_one(self):
        # deterministic grid reaching into the shape-dominated regime,
        # where the calibration approaches sqrt(total mass) = 1
        ts = np.array([0.0005, 0.001, 0.002, 0.004, 0.008, 0.016])
        xs = np.array([0.0, 0.1])
        raw = np.empty((ts.size, xs.size))
        for i, t in enumerate(ts):
            raw[i] = heat_convolve_many(BM, U0, t, xs) ** 2
        v = check_exist_unique_bound(det_table(ts, xs, 2.0, raw),
                                     BM, U0, 2.0, 0.1, lip=0.0)
        assert v.passed
        assert abs(v.metadata["c_eps"] - 1.0) < 0.01
        assert v.metadata["gamma"] == 0.0

    def test_short_horizon_oracle_grid(self):
        # second-moment oracle rows inside the contraction horizon; the
        # calibrated constant stays below the norm-bound constant
        # 4 sqrt(k) for unit mass and unit-Lipschitz linear noise
        ts = np.array([T2 / 8, T2 / 4, T2 / 2, T2])
        xs = np.linspace(-0.02, 0.02, 5)
        orc = pam_second_moment_oracle(BM, U0, 1.0, ts, xs, mode="continuum")
        v = check_exist_unique_bound(det_table(ts, xs, 2.0, orc.values),
                                     BM, U0, 2.0, 0.1, lip=1.0)
        assert v.passed
        assert v.metadata["failures"] == []
        assert 0.5 < v.metadata["c_eps"] <= 4.0 * math.sqrt(2.0)
        # near t -> 0+ the envelope is all shape factor: flagged vacuous,
        # and only where the kernel mass concentrates
        assert len(v.metadata["vacuous"]) >= 1
        assert all(abs(x) <= 0.011 for _, x in v.metadata["vacuous"])

    def test_mc_grid_passes_with_disjoint_split(self):
        tab = mc_moments(BM, U0, PAM, dt=0.01, nx=256, half_width=8.0,
                         t_end=0.5, seeds=1200,
                         t_probes=[0.1, 0.2, 0.3, 0.4, 0.5],
                         x_probes=[0.0, 0.5], ks=(2,))
        v = check_exist_unique_bound(tab, BM, U0, 2.0, 0.1, lip=1.0)
        assert v.passed
        assert v.metadata["failures"] == []
        train = set(v.metadata["train_ts"])
        verify = set(v.metadata["verify_ts"])
        assert not v.metadata["degenerate_split"]
        assert train.isdisjoint(verify)
        assert train | verify == {0.1, 0.2, 0.3, 0.4, 0.5}
        # endpoints are fitted, not held out
        assert {0.1, 0.5} <= train

    def test_long_horizon_bound_is_vacuous_not_overflow(self):
        # exp((1 + eps) gamma_4 t) leaves the float range at t = 16
        with pytest.warns(UserWarning, match="refinement"):
            tab = mc_moments(brownian(), delta(), sigma_linear(1), dt=0.25,
                             nx=160, half_width=80, t_end=16, ks=(4,),
                             seeds=2, t_probes=[16.0], x_probes=[0.0])
        assert np.all(np.isinf(tab.bound_exist_unique))
        v = check_exist_unique_bound(tab, BM, U0, 4.0, 0.1, lip=1.0)
        assert not math.isnan(v.lhs) and not math.isnan(v.rhs)
        assert v.passed and v.rhs == math.inf
        assert v.metadata["vacuous"] == [(16.0, float(tab.x[0]))]

    def test_verdict_row_is_worst_margin(self):
        ts = np.array([0.1, 0.2, 0.3])
        xs = np.array([0.0])
        raw = np.empty((ts.size, xs.size))
        for i, t in enumerate(ts):
            raw[i] = heat_convolve_many(BM, U0, t, xs) ** 2
        v = check_exist_unique_bound(det_table(ts, xs, 2.0, raw),
                                     BM, U0, 2.0, 0.1, lip=0.0)
        t_w, x_w, k_w = v.metadata["worst"]
        assert t_w in v.metadata["verify_ts"] and k_w == 2.0
        assert v.lhs <= v.rhs + 3.0 * v.std_error

    def test_missing_order_raises(self):
        tab = det_table([0.1], [0.0], 2.0, np.array([[1.0]]))
        with pytest.raises(ValueError, match="no rows"):
            check_exist_unique_bound(tab, BM, U0, 4.0, 0.1)


class TestSmallTScan:

    @pytest.mark.parametrize("cap", [20001, 1001])
    def test_scan_grid_is_mirror_symmetric(self, cap):
        # the uniform odd grid over 12 scales each way, its right half
        # the exact mirror of its left
        xs = _scan_grid(U0, 0.1, max_points=cap)
        window = 1.2
        assert np.array_equal(xs, -xs[::-1]) and xs.size % 2 == 1
        assert xs[xs.size // 2] == 0.0 and xs.size <= cap
        assert_allclose(xs, np.linspace(-window, window, xs.size),
                        rtol=0.0, atol=1e-15 * window)
        assert xs.size == min(cap, 1443)

    def test_sigma_zero_baseline_exact(self):
        ts = 2.0 ** -np.arange(4, 11)
        vals, slope = small_t_scan(BM, U0, SIG0, ts, 2)
        assert_allclose(vals, BASELINE, rtol=1e-6)
        assert abs(slope + 0.5) < 1e-6

    def test_pam_within_20_percent_of_baseline(self):
        ts = 2.0 ** -np.arange(4, 11)
        vals, slope = small_t_scan(BM, U0, PAM, ts, 2)
        assert np.all(np.abs(vals / BASELINE - 1.0) < 0.2)
        # the noise correction is positive and fades as t -> 0
        assert np.all(vals > BASELINE)
        assert vals[0] > vals[-1]
        assert -0.55 < slope < -0.4

    def test_positive_definite_lower_bound(self):
        ts = 2.0 ** -np.arange(4, 11)
        vals, _ = small_t_scan(BM, make_positive_definite_example(1.0),
                               SIG0, ts, 2)
        assert vals.min() > 0.1  # 0.1 * kappa^{-1/alpha} at kappa = 1

    def test_mc_route_bounded(self):
        vals, slope = small_t_scan(BM, U0, sigma_saturating(1.0, 2.0),
                                   np.array([0.2, 0.1, 0.05]), 2,
                                   seeds=200)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        assert np.all(np.abs(vals / BASELINE - 1.0) < 0.25)
        assert slope < 0

    def test_rejects_bad_inputs(self):
        ts = np.array([0.1, 0.2])  # increasing
        with pytest.raises(ValueError, match="decreasing"):
            small_t_scan(BM, U0, SIG0, ts, 2)
        with pytest.raises(ValueError, match="two times"):
            small_t_scan(BM, U0, SIG0, np.array([0.1]), 2)
        with pytest.raises(ValueError, match="order"):
            small_t_scan(BM, U0, SIG0, np.array([0.2, 0.1]), 0.5)
        xi = np.linspace(0.0, 40.0, 200)
        tab_model = tabulated(xi, xi ** 1.5)
        with pytest.raises(ValueError, match="stable"):
            small_t_scan(tab_model, U0, SIG0, np.array([0.2, 0.1]), 2)


class TestTailDecayFit:

    def test_delta_mean_slope_matches_closed_form(self):
        t = 0.4
        xs = np.linspace(-4.0, 4.0, 33)
        raw = heat_convolve_many(BM, U0, t, xs)[None, :]
        slope = tail_decay_fit(det_table([t], xs, 1.0, raw), 0.0)
        assert abs(slope * 2.0 * t + 1.0) < 0.02  # -1/(2t) within 2%

    def test_mean_bound_is_looser_than_fit(self):
        # the first-moment ceiling decays like exp(-x^2/(4t)); the fitted
        # slope from the exact mean is steeper, so the bound passes
        t = 0.4
        xs = np.linspace(-4.0, 4.0, 33)
        raw = heat_convolve_many(BM, U0, t, xs)[None, :]
        slope = tail_decay_fit(det_table([t], xs, 1.0, raw), 0.0)
        assert slope <= -1.0 / (4.0 * t) * (1.0 - 1e-3)

    def test_k6_pam_negative_with_margin(self):
        tab = mc_moments(BM, U0, PAM, dt=0.01, nx=256, half_width=8.0,
                         t_end=0.3, seeds=800, t_probes=[0.3],
                         x_probes=[-3.0, -2.5, -2.0, -1.5,
                                   1.5, 2.0, 2.5, 3.0],
                         ks=(6,))
        slope = tail_decay_fit(tab, 0.0)
        assert slope < 0
        # lifting every row to its 3-se ceiling keeps the decay visible
        lifted = MomentTable(
            t=tab.t, x=tab.x, k=tab.k, estimate=tab.estimate,
            std_error=tab.std_error,
            bound_exist_unique=tab.bound_exist_unique, bound_h1=tab.bound_h1,
            raw_moment=tab.raw_moment + 3.0 * tab.raw_std_error,
            raw_std_error=tab.raw_std_error, replicas=tab.replicas)
        assert tail_decay_fit(lifted, 0.0) < 0

    def test_insufficient_range(self):
        t = 0.4
        xs = np.linspace(-2.0, 2.0, 9)
        raw = heat_convolve_many(BM, U0, t, xs)[None, :]
        with pytest.raises(InsufficientRange, match="out to"):
            tail_decay_fit(det_table([t], xs, 1.0, raw), 0.5)

    def test_rejects_mixed_slices(self):
        xs = np.array([0.0, 1.0])
        raw = np.ones((2, 2))
        two_t = det_table([0.1, 0.2], xs, 1.0, raw)
        with pytest.raises(ValueError, match="single time"):
            tail_decay_fit(two_t, 0.0)


class TestModulusEstimate:

    def test_deterministic_quotient_below_lipschitz_ceiling(self):
        t = 0.5
        reps = evolve(BM, U0, SIG0, dt=0.005, nx=256, half_width=8.0,
                      t_end=t, seeds=2)
        stat = modulus_estimate(reps, t, (0.0, 1.0), 0.5)
        # |u(x)-u(x')| <= sup|p_t'| |x-x'| and the window has unit width,
        # so the quotient is at most (sup|p_t'|)^2 pair-separation^{1.5}
        dmax = math.exp(-0.5) / (math.sqrt(t) * math.sqrt(2 * math.pi * t))
        assert stat.mean <= dmax ** 2 * (1.0 + 1e-9)
        assert stat.std_error == 0.0
        # shrinking the pair separations shrinks the smooth-field quotient
        near = modulus_estimate(reps, t, (0.0, 0.25), 0.5)
        assert near.mean < 0.3 * stat.mean

    def test_pam_stable_under_dx_halving(self):
        t = 0.3
        coarse = evolve(BM, U0, PAM, dt=0.01, nx=128, half_width=8.0,
                        t_end=t, seeds=64)
        fine = evolve(BM, U0, PAM, dt=0.01, nx=256, half_width=8.0,
                      t_end=t, seeds=64)
        mc_ = modulus_estimate(coarse, t, (0.0, 1.0), 0.5)
        mf_ = modulus_estimate(fine, t, (0.0, 1.0), 0.5)
        assert mf_.dx == pytest.approx(mc_.dx / 2.0)
        ratio = max(mf_.mean, mc_.mean) / min(mf_.mean, mc_.mean)
        assert ratio < 2.0

    def test_uniform_over_unit_intervals(self):
        # broad flat data, so all tested windows see comparable fields
        reps = evolve(BM, box_measure(), PAM, dt=0.01, nx=416,
                      half_width=13.0, t_end=0.5, seeds=32)
        stats = np.array([
            modulus_estimate(reps, 0.5, (float(j), float(j + 1)), 0.5).mean
            for j in range(4)])
        assert stats.max() / np.median(stats) < 5.0
        assert stats.max() / stats.min() < 5.0

    def test_rejects_bad_inputs(self):
        reps = evolve(BM, U0, SIG0, dt=0.01, nx=64, half_width=4.0,
                      t_end=0.1, seeds=1)
        with pytest.raises(ValueError, match="replica"):
            modulus_estimate([], 0.1, (0.0, 1.0), 0.5)
        with pytest.raises(ValueError, match="eps"):
            modulus_estimate(reps, 0.1, (0.0, 1.0), 1.5)
        with pytest.raises(ValueError, match="length"):
            modulus_estimate(reps, 0.1, (1.0, 1.0), 0.5)
        other = evolve(BM, U0, SIG0, dt=0.01, nx=32, half_width=2.0,
                       t_end=0.1, seeds=1)
        with pytest.raises(ValueError, match="share"):
            modulus_estimate(reps + other, 0.1, (0.0, 1.0), 0.5)

    def test_reads_a_real_time_row(self):
        reps = evolve(BM, U0, PAM, dt=0.01, nx=64, half_width=4.0,
                      t_end=0.1, seeds=2)
        ref = modulus_estimate(reps, 0.05, (0.0, 1.0), 0.5)
        assert modulus_estimate(reps, 0.05 * (1 + 1e-12), (0.0, 1.0),
                                0.5) == ref
        for t in (0.055, 0.2, 0.005):  # between rows, past the end, before
            with pytest.raises(ValueError, match="time row"):
                modulus_estimate(reps, t, (0.0, 1.0), 0.5)
        # one step of 0.1: its only time row is 0.1
        one = evolve(BM, U0, PAM, dt=0.1, nx=64, half_width=4.0, t_end=0.1,
                     seeds=2)
        with pytest.raises(ValueError, match="time row"):
            modulus_estimate(one, 0.05, (0.0, 1.0), 0.5)


class TestNochaosSupScan:

    def test_sigma_zero_exact_and_window_independent(self):
        t = 0.5
        sups = nochaos_sup_scan(BM, U0, SIG0, t, [2.0, 5.0, 10.0], 4)
        # K + 5 sqrt(t) = 3.54: every window already contains the peak
        assert_allclose(sups, p0_eval(BM, t), rtol=1e-12)

    def test_pam_stabilizes_in_window(self):
        sups = nochaos_sup_scan(BM, U0, PAM, 0.5, [5.0, 10.0, 20.0], 200)
        assert np.all(np.diff(sups) >= 0.0)  # nested windows, same paths
        assert abs(sups[2] / sups[1] - 1.0) < 0.05
        assert sups[0] > 0

    def test_mass_doubling_doubles_pathwise(self):
        s1 = nochaos_sup_scan(BM, delta(1.0), PAM, 0.5, [5.0], 64)
        s2 = nochaos_sup_scan(BM, delta(2.0), PAM, 0.5, [5.0], 64)
        assert s2[0] == 2.0 * s1[0]

    def test_broad_density_contrast_reported(self):
        # companion series for non-localized data: reported, not asserted
        sups = nochaos_sup_scan(BM, make_positive_definite_example(1.0),
                                PAM, 0.5, [5.0, 10.0], 32)
        assert sups.shape == (2,) and np.all(np.isfinite(sups))

    def test_rejects_unsupported_data(self):
        spread = FiniteMeasure(atoms=((0.0, 1.0),),
                               support_radius=math.inf)
        with pytest.raises(ValueError, match="compact"):
            nochaos_sup_scan(BM, spread, PAM, 0.5, [5.0], 4)
        with pytest.raises(ValueError, match="positive"):
            nochaos_sup_scan(BM, U0, PAM, 0.5, [0.0], 4)

    def test_needs_a_seed(self):
        with pytest.raises(ValueError, match="seed"):
            nochaos_sup_scan(BM, U0, PAM, 0.5, [5.0], 0)


class TestLyapunovFit:

    def _oracle_table(self, ts):
        xs = np.linspace(-0.5, 0.5, 5)
        orc = pam_second_moment_oracle(BM, U0, 1.0, ts, xs, mode="continuum")
        return det_table(ts, [0.0], 2.0, orc.values[:, 2:3])

    def test_pam_k2_rate_within_envelope(self):
        ts = np.linspace(2.0, 12.0, 21)
        lo, hi = lyapunov_fit(self._oracle_table(ts), 2.0)
        assert 0.0 < lo < hi
        assert hi <= 1.1 * 16.0 * 1.02  # (1+eps) gamma(2) (1+tol), eps=0.1

    def test_intermittency_ordering(self):
        sig = sigma_linear(1.6)
        tab = mc_moments(BM, box_measure(), sig, dt=0.01, nx=512,
                         half_width=16.0, t_end=1.2, seeds=2000,
                         t_probes=np.arange(0.3, 1.21, 0.1),
                         x_probes=[0.0], ks=(2, 4))
        lo2, hi2 = lyapunov_fit(slice_table(tab, np.isclose(tab.k, 2.0)), 2.0)
        lo4, hi4 = lyapunov_fit(slice_table(tab, np.isclose(tab.k, 4.0)), 4.0)
        assert 0.0 < lo2 and 0.0 < lo4
        assert lo4 > hi2  # higher order grows strictly faster
        gamma2 = 2.0 * 2.0 ** 3 * sig.lip ** 4
        assert hi2 <= 1.1 * gamma2

    def test_sigma_without_lower_lip_not_applicable(self):
        ts = np.linspace(2.0, 12.0, 6)
        tab = self._oracle_table(ts)
        out = lyapunov_fit(tab, 2.0, sigma=sigma_saturating(1.0, 2.0))
        assert out is NOT_APPLICABLE
        assert lyapunov_fit(tab, 2.0, sigma=SIG0) is NOT_APPLICABLE

    def test_short_span_raises(self):
        ts = np.linspace(2.0, 8.0, 13)
        with pytest.raises(InsufficientRange, match="e-folding"):
            lyapunov_fit(self._oracle_table(ts), 2.0)

    def test_needs_three_times(self):
        tab = det_table([1.0, 2.0], [0.0], 2.0, np.array([[1.0], [2.0]]))
        with pytest.raises(InsufficientRange, match="three"):
            lyapunov_fit(tab, 2.0)

    def test_multiple_x_needs_pick(self):
        ts = [1.0, 2.0, 3.0, 4.0]
        raw = np.exp(np.multiply.outer(np.array(ts), np.array([1.0, 1.0])))
        tab = det_table(ts, [0.0, 1.0], 2.0, raw)
        with pytest.raises(ValueError, match="x="):
            lyapunov_fit(tab, 2.0)
        lo, hi = lyapunov_fit(tab, 2.0, x=0.0)
        assert lo < 1.0 < hi or abs(lo - 1.0) < 1e-6 or lo <= 1.0 <= hi
