"""Kernel-functional tests against closed forms.

Every frozen constant below is a hand-derived closed form for the Brownian
(psi = kappa xi^2 / 2) or stable (psi = kappa |xi|^alpha) family:

    p_t(0)          = (2 pi kappa t)^{-1/2}               (Brownian)
    theta           = sqrt(2), resp. 2^{1/alpha}
    upsilon(beta)   = 1 / (2 sqrt(beta kappa))            (Brownian)
                    = (2k)^{-1/a} b^{-(a-1)/a} / (a sin(pi/a))  (stable)
    gamma(k)        = 2 k^3 lip^4                         (Brownian, kappa=1)
    int_0^t p_r(0)  = sqrt(2 t / pi)                      (Brownian, kappa=1)
    g(a)            = pi a^2 / 2                          (Brownian, kappa=1)
"""

import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levyheat import (
    DivergentResolvent,
    QuadratureUnderresolved,
    brownian,
    frak_T,
    g_eval,
    gamma_k,
    p_eval,
    p_eval_many,
    p0_eval,
    p0_integral,
    psi_eval,
    stable,
    tabulated,
    theta_estimate,
    upsilon_eval,
)
from levyheat import levy_kernel
from levyheat.levy_kernel import (_dct1, _fast_len, _fourier_rows,
                                  _gauss_rule, _xi_rule, bandlimited_rows,
                                  exterior_mass, interval_mass)
from levyheat.measure_init import delta, fourier_u0

P_1_0 = 0.3989422804014327      # (2 pi)^{-1/2}
P_1_1 = 0.24197072451914337     # (2 pi)^{-1/2} exp(-1/2)
CAUCHY_P_1_0 = 0.3183098861837907   # 1/pi


def cauchy_model(xi_max=600.0, n=60001):
    """Cauchy process (alpha=1) through the tabulated-exponent path."""
    xi = np.linspace(0.0, xi_max, n)
    return tabulated(xi, xi)


def stable_upsilon_closed(alpha, kappa, beta):
    return (2.0 * kappa) ** (-1.0 / alpha) * beta ** (1.0 / alpha - 1.0) \
        / (alpha * math.sin(math.pi / alpha))


def test_psi_closed_forms():
    assert psi_eval(brownian(), 2.0) == 2.0
    assert psi_eval(stable(1.5), 1.0) == 1.0
    assert psi_eval(brownian(), -2.0) == 2.0


def test_psi_symmetric_nonnegative():
    xi = np.linspace(-50.0, 50.0, 401)
    for model in (brownian(0.7), stable(1.3, 2.0)):
        vals = psi_eval(model, xi)
        assert np.all(vals >= 0.0)
        assert_allclose(vals, psi_eval(model, -xi), rtol=1e-15)


def test_density_golden_values():
    assert_allclose(p_eval(brownian(), 1.0, 0.0), P_1_0, atol=1e-10)
    assert_allclose(p_eval(brownian(), 1.0, 1.0), P_1_1, atol=1e-10)
    assert_allclose(p0_eval(cauchy_model(), 1.0), CAUCHY_P_1_0, atol=1e-8)
    # Cauchy at x=1: t / (pi (t^2 + x^2)) = 1 / (2 pi)
    assert_allclose(p_eval(cauchy_model(), 1.0, 1.0), 1.0 / (2.0 * math.pi),
                    atol=1e-8)


def test_density_matches_gaussian_profile():
    xs = np.linspace(-4.0, 4.0, 33)
    for t, kappa in ((0.3, 1.0), (2.0, 0.5)):
        got = p_eval_many(brownian(kappa), t, xs)
        want = np.exp(-xs ** 2 / (2.0 * kappa * t)) / math.sqrt(2.0 * math.pi * kappa * t)
        assert_allclose(got, want, atol=1e-11)


def test_density_peaks_at_origin_and_decays_in_t():
    xs = np.linspace(-6.0, 6.0, 25)
    ts = np.logspace(-2, 1, 7)
    for model in (brownian(), stable(1.5)):
        p0_prev = None
        for t in ts:
            p0 = p0_eval(model, t)
            assert np.all(p_eval_many(model, t, xs) <= p0 * (1 + 1e-9))
            if p0_prev is not None:
                assert p0 <= p0_prev
            p0_prev = p0


@pytest.mark.parametrize("t", [0.05, 0.5, 3.0])
def test_density_integrates_to_one_brownian(t):
    assert_allclose(interval_mass(brownian(), t, 12.0 * math.sqrt(t)), 1.0,
                    atol=1e-9)


@pytest.mark.parametrize("alpha,kappa", [(1.5, 1.0), (1.2, 0.5)])
@pytest.mark.parametrize("t", [0.05, 0.5, 3.0])
def test_density_integrates_to_one_stable(alpha, kappa, t):
    # Heavy tails carry real mass past any finite radius; the deficit must
    # agree with the power-law tail envelope int_c^inf p ~ c p_t(c) / alpha.
    model = stable(alpha, kappa)
    c = 300.0 * max(t, 1.0)
    deficit = 1.0 - interval_mass(model, t, c)
    tail = 2.0 * c * p_eval(model, t, c) / alpha
    assert deficit >= 0.0
    assert_allclose(deficit, tail, atol=1e-7)


def test_interval_mass_brownian_closed_form():
    from scipy.special import erf
    got = interval_mass(brownian(), 1.0, 1.0)
    assert_allclose(got, erf(1.0 / math.sqrt(2.0)), atol=1e-9)
    assert exterior_mass(brownian(), 1.0, 8.0) < 1e-9


def test_chapman_kolmogorov():
    ys = np.linspace(-25.0, 25.0, 5001)
    targets = np.array([0.0, 0.7, 2.0])
    for model in (brownian(), stable(1.5)):
        ps = p_eval_many(model, 0.3, ys)
        conv = []
        for x in targets:
            conv.append(np.trapezoid(ps * p_eval_many(model, 0.7, x - ys), ys))
        assert_allclose(conv, p_eval_many(model, 1.0, targets), atol=1e-7)


def test_l2_norm_identity():
    # ||p_t||_2^2 = p_{2t}(0)
    ys = np.linspace(-25.0, 25.0, 5001)
    for model in (brownian(), stable(1.5)):
        norm2 = np.trapezoid(p_eval_many(model, 0.5, ys) ** 2, ys)
        assert_allclose(norm2, p0_eval(model, 1.0), atol=1e-8)


def test_theta_closed_forms():
    assert_allclose(theta_estimate(brownian()), math.sqrt(2.0), atol=1e-9)
    for alpha in (1.2, 1.5, 1.8):
        assert_allclose(theta_estimate(stable(alpha)), 2.0 ** (1.0 / alpha),
                        atol=1e-6)
    # alpha=2 stable is the Brownian generator with kappa doubled
    assert_allclose(theta_estimate(stable(2.0)), math.sqrt(2.0), atol=1e-9)


def test_theta_tabulated_warns(set_constant):
    # keeps t/2 within the table's psi range
    set_constant("THETA_T_GRID", np.logspace(-1, 3, 50))
    with pytest.warns(UserWarning):
        got = theta_estimate(cauchy_model())
    assert_allclose(got, 2.0, atol=1e-6)  # Cauchy: p_t(0) = 1/(pi t)


@pytest.mark.parametrize("beta", [0.25, 1.0, 4.0, 16.0])
def test_upsilon_brownian_closed_form(beta):
    assert_allclose(upsilon_eval(brownian(), beta), 0.5 / math.sqrt(beta),
                    rtol=1e-10)


def test_upsilon_stable_closed_form_and_scaling():
    alpha = 1.5
    for beta in (1.0, 10.0, 100.0):
        assert_allclose(upsilon_eval(stable(alpha), beta),
                        stable_upsilon_closed(alpha, 1.0, beta), rtol=1e-10)
    # beta^{(alpha-1)/alpha} * upsilon is constant in beta
    vals = [upsilon_eval(stable(alpha), b) * b ** (1.0 / 3.0)
            for b in (1.0, 10.0, 100.0)]
    assert_allclose(vals, vals[0], rtol=1e-8)


def test_upsilon_strictly_decreasing():
    betas = np.logspace(-2, 3, 21)
    for model in (brownian(), stable(1.5)):
        vals = [upsilon_eval(model, b) for b in betas]
        assert np.all(np.diff(vals) < 0)


def test_resolvent_divergence_raised():
    with pytest.raises(DivergentResolvent):
        stable(1.0)
    with pytest.raises(DivergentResolvent):
        stable(0.8)
    # tabulated exponent growing like |xi| has a divergent resolvent too
    with pytest.raises(DivergentResolvent):
        upsilon_eval(cauchy_model(), 1.0)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("lip", [0.5, 1.0, 2.0])
def test_gamma_brownian_closed_form(k, lip):
    assert_allclose(gamma_k(brownian(), k, lip), 2.0 * k ** 3 * lip ** 4,
                    rtol=1e-6)


def test_gamma_stable_k_scaling():
    # gamma(k) ~ k^{(2 alpha - 1)/(alpha - 1)} = k^4 at alpha = 1.5
    vals = np.array([gamma_k(stable(1.5), k, 1.0) for k in (2, 4, 8)])
    scaled = vals / np.array([2.0, 4.0, 8.0]) ** 4
    assert_allclose(scaled, scaled[0], rtol=1e-3)


def test_gamma_monotone_in_k_and_lip():
    model = stable(1.7)
    gk = [gamma_k(model, k, 1.0) for k in (2, 3, 5, 9)]
    assert np.all(np.diff(gk) > 0)
    gl = [gamma_k(model, 2, lip) for lip in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(gl) > 0)


def test_gamma_and_frak_T_computed_once_per_model(monkeypatch):
    import levyheat.levy_kernel as lk
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = lk.upsilon_eval
    monkeypatch.setattr(lk, "upsilon_eval", counted)
    model = brownian(0.37)  # a model no other test computes
    first = gamma_k(model, 2.0, 1.0)
    n = len(calls)
    assert n > 0
    assert gamma_k(brownian(0.37), 2.0, 1.0) == first
    assert len(calls) == n
    # a tabulated exponent is an array, not a key: computed afresh
    xi = np.linspace(0.0, 200.0, 2001)
    table = tabulated(xi, 0.37 * xi ** 2 / 2.0)
    gamma_k(table, 2.0, 1.0)
    mid = len(calls)
    gamma_k(table, 2.0, 1.0)
    assert len(calls) - mid == mid - n > 0
    assert frak_T(model, 2.0, 1.0) == frak_T(model, 2.0, 1.0)
    # an explicit theta bypasses the cache
    assert frak_T(model, 2.0, 1.0, theta=2.0) != frak_T(model, 2.0, 1.0)


def test_p0_integral_brownian_closed_form():
    for t in (0.01, 1.0, 7.0):
        assert_allclose(p0_integral(brownian(), t), math.sqrt(2.0 * t / math.pi),
                        rtol=1e-10)


def test_g_closed_form_and_monotone():
    assert_allclose(g_eval(brownian(), 1.0), math.pi / 2.0, rtol=1e-7)
    assert_allclose(g_eval(brownian(), 0.01), math.pi * 1e-4 / 2.0, rtol=1e-7)
    a_grid = [0.01, 0.1, 0.5, 1.0, 3.0]
    g_vals = [g_eval(brownian(), a) for a in a_grid]
    assert np.all(np.diff(g_vals) > 0)


def test_g_saturation_sentinel():
    assert g_eval(brownian(), 1e9) == math.inf


def test_horizon_closed_form_and_monotone_in_k():
    # frak_T_2 = g(1/(64 theta)) = pi / (2 * (64 sqrt(2))^2) = pi / 16384
    assert_allclose(frak_T(brownian(), 2, 1.0), math.pi / 16384.0, rtol=1e-6)
    ts = [frak_T(brownian(), k, 1.0, theta=math.sqrt(2.0)) for k in (2, 3, 4, 8)]
    assert np.all(np.diff(ts) < 0)
    # lip below 1 is clamped by the [1 v lip^2] factor
    assert_allclose(frak_T(brownian(), 2, 0.5, theta=math.sqrt(2.0)),
                    frak_T(brownian(), 2, 1.0, theta=math.sqrt(2.0)), rtol=1e-9)


def test_node_budget_enforced(set_constant):
    set_constant("XI_NODES", 500)
    with pytest.raises(QuadratureUnderresolved):
        p_eval_many(brownian(), 1e-4, np.linspace(-50, 50, 11))


def xi_rule_by_panel(cutoff, osc_scale, n_geo=28):
    """The xi rule built one geometric panel at a time with np.linspace."""
    edges = [0.0] + [cutoff * 2.0 ** (-j) for j in range(n_geo, -1, -1)]
    z, w = _gauss_rule(48)
    nodes, weights, total = [], [], 0
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(1, int(math.ceil(osc_scale * (b - a) / 32.0)))
        total += m * z.size
        if total > levy_kernel.XI_NODES:
            raise QuadratureUnderresolved("over budget")
        sub = np.linspace(a, b, m + 1)
        half = 0.5 * (sub[1:] - sub[:-1])
        nodes.append((half[:, None] * (z + 1.0) + sub[:-1, None]).ravel())
        weights.append((half[:, None] * w).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def test_xi_rule_matches_per_panel_linspace_bit_for_bit():
    rng = np.random.default_rng(7)
    cases = [(1.0, 0.0, 28), (37.5, 12.0, 28), (4e3, 60.0, 40)]
    cases += [(10.0 ** rng.uniform(-1, 4), rng.choice([0.0, 1.0])
               * 10.0 ** rng.uniform(-2, 3), int(rng.integers(20, 45)))
              for _ in range(60)]
    for cutoff, osc, n_geo in cases:
        try:
            want = xi_rule_by_panel(cutoff, osc, n_geo)
        except QuadratureUnderresolved:
            with pytest.raises(QuadratureUnderresolved, match="budget"):
                _xi_rule(cutoff, osc, n_geo)
            continue
        nodes, weights = _xi_rule(cutoff, osc, n_geo)
        assert np.array_equal(nodes, want[0])
        assert np.array_equal(weights, want[1])


def test_xi_rule_budget_is_the_total_node_count(set_constant):
    with pytest.raises(QuadratureUnderresolved, match="budget"):
        _xi_rule(1e6, 1e6)
    n = xi_rule_by_panel(100.0, 50.0)[0].size
    set_constant("XI_NODES", n)
    assert _xi_rule(100.0, 50.0)[0].size == n
    set_constant("XI_NODES", n - 1)
    with pytest.raises(QuadratureUnderresolved, match=f"budget of {n - 1} "):
        _xi_rule(100.0, 50.0)


@pytest.mark.parametrize("at", [0.0, 0.3], ids=["even", "off-centre"])
@pytest.mark.parametrize("nx, dx, ulps", [(256, 1 / 16, 0), (255, 1 / 16, 4),
                                          (2048, 1 / 64, 8)])
def test_fourier_rows_mirror_symmetric_grids(nx, dx, ulps, at):
    # a lattice of power-of-two dx is exactly symmetric, so its rows come
    # from the first half of x; appending a point breaks the symmetry
    # without moving the xi rule (max |x| stays), so the reference
    # transforms every x.  An off-centre atom needs the sin part too.
    # A column moves only where BLAS sums it differently in a GEMM of
    # another width, by a few ulp of the row max.
    xs = -0.5 * nx * dx + (np.arange(nx) + 0.5) * dx
    assert np.array_equal(xs, -xs[::-1])
    u0 = delta(1.0, at)
    rows = functools.partial(_fourier_rows, brownian(1.0),
                             0.01 * np.arange(1, 65),
                             u_hat=lambda xi: fourier_u0(u0, xi),
                             radius=u0.data_radius)
    got = rows(xs)
    ref = rows(np.append(xs, 0.01))[:, :-1]
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= ulps * np.finfo(float).eps * scale)
    if at:
        assert not np.allclose(got, got[:, ::-1])
    # a grid without its last point is not symmetric and takes every x,
    # in GEMMs of another width
    assert np.all(np.abs(rows(xs[:-1]) - got[:, :-1])
                  <= 8 * np.finfo(float).eps * scale)


def test_model_validation():
    with pytest.raises(ValueError):
        brownian(0.0)
    with pytest.raises(ValueError):
        stable(2.5)
    with pytest.raises(ValueError):
        tabulated(np.array([0.0, 1.0]), np.array([0.1, 1.0]))  # psi(0) != 0
    with pytest.raises(ValueError):
        tabulated(np.array([1.0, 2.0]), np.array([1.0, 2.0]))  # grid not from 0


def test_bandlimited_rows_mass_and_semigroup():
    dx, dt = 0.05, 0.01
    n = 256
    rows = bandlimited_rows(brownian(), dx, n, [dt, 2.0 * dt])
    one_step, two_step = rows[0], rows[1]
    # lattice mass: dx * sum over all offsets = E(0) = 1
    assert_allclose(dx * (one_step[0] + 2.0 * one_step[1:].sum()), 1.0,
                    atol=1e-9)
    # lattice semigroup: one_step convolved with itself is the 2*dt row
    full = np.concatenate([one_step[:0:-1], one_step])
    conv = dx * np.convolve(full, full)[full.size - 1: full.size - 1 + n]
    assert_allclose(conv, two_step, atol=1e-9)


def test_bandlimited_noise_weight_mass():
    dx, dt = 0.1, 0.02
    # Brownian spectrum is smooth: full-row mass is exact to quadrature.
    m = 8 * 128
    row = bandlimited_rows(brownian(), dx, m + 1, [0.0], dt_average=dt)[0]
    assert_allclose(dx * (row[0] + 2.0 * row[1:-1].sum() + row[-1]), 1.0,
                    atol=1e-9)
    # The stable spectrum has a fractional |xi|^alpha kink at the origin, so
    # the row quadrature converges at a reduced rate; the noise weight also
    # decays only algebraically in offset, so include the whole row.
    row = bandlimited_rows(stable(1.5), dx, m + 1, [0.0], dt_average=dt)[0]
    assert_allclose(dx * (row[0] + 2.0 * row[1:-1].sum() + row[-1]), 1.0,
                    atol=1e-5)


@pytest.mark.parametrize("real", [False, True])
def test_fast_len_is_scipy_next_fast_len(real):
    from scipy.fft import next_fast_len
    got = [_fast_len(n, real=real) for n in range(1, 20_001)]
    assert got == [next_fast_len(n, real=real) for n in range(1, 20_001)]


def test_dct1_is_scipy_dct_type1():
    from scipy.fft import dct
    # bandlimited_rows' shape: lag rows by 8 n_offsets + 1 xi nodes
    xi = np.linspace(0.0, math.pi / 0.05, 8 * 256 + 1)
    e = np.exp(-np.outer([0.0, 0.01, 0.3], psi_eval(stable(1.5), xi)))
    assert np.array_equal(_dct1(e), dct(e, type=1, axis=1))
