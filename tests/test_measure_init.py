"""Measure representation and heat-kernel smoothing tests."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levyheat import ConfigInvalid, brownian, p0_eval, p_eval_many, stable
from levyheat.measure_init import (
    FiniteMeasure,
    delta,
    fourier_u0,
    heat_convolve_many,
    heat_convolve_rows,
    make_positive_definite_example,
    measure_from_json,
)

P_1_0 = 0.3989422804014327


def mixed_measure():
    """An atom plus a small triangular density, for generic-path tests."""
    grid = np.linspace(-2.0, 2.0, 401)
    vals = np.maximum(0.0, 1.0 - np.abs(grid))
    return FiniteMeasure(atoms=((0.5, 0.25),), density_grid=grid,
                         density_values=vals, support_radius=2.0)


def test_delta_convolve_is_density():
    assert_allclose(heat_convolve_many(brownian(), delta(), 1.0, [0.0]),
                    [P_1_0], atol=1e-10)
    xs = np.linspace(-3.0, 3.0, 13)
    assert_allclose(heat_convolve_many(brownian(), delta(), 0.7, xs),
                    p_eval_many(brownian(), 0.7, xs), atol=1e-10)


def test_rows_over_a_long_time_span_keep_per_time_accuracy():
    # one xi rule serves times 14 decades apart; the largest time must be
    # resolved as well as its own rule resolves it (2.5e-12 here)
    a = 1.5
    ts = np.array([2e-14, 0.02, 2.0])
    got = heat_convolve_rows(stable(a), delta(), ts, [0.0])[:, 0]
    exact = math.gamma(1.0 / a) / (a * math.pi * ts ** (1.0 / a))
    assert_allclose(got, exact, rtol=1e-11)


def test_mass_scaling_is_exact():
    xs = np.linspace(-4.0, 4.0, 17)
    one = heat_convolve_many(brownian(), delta(1.0), 0.3, xs)
    two = heat_convolve_many(brownian(), delta(2.0), 0.3, xs)
    assert np.array_equal(two, 2.0 * one)


def test_convolve_bounded_by_peak_mass():
    u0 = mixed_measure()
    for model in (brownian(), stable(1.5)):
        for t in (0.05, 0.5, 2.0):
            vals = heat_convolve_many(model, u0, t,
                                      np.linspace(-5.0, 5.0, 41))
            assert np.all(vals <= p0_eval(model, t) * u0.total_mass * (1 + 1e-9))
            assert np.all(vals >= -1e-12)


def test_convolve_conserves_mass():
    u0 = mixed_measure()
    xs = np.linspace(-40.0, 40.0, 4001)
    for t in (0.1, 1.0):
        got = np.trapezoid(heat_convolve_many(brownian(), u0, t, xs), xs)
        assert_allclose(got, u0.total_mass, rtol=1e-8)


def test_semigroup_through_density_resampling():
    u0 = mixed_measure()
    eps, s = 0.2, 0.5
    grid = np.linspace(-12.0, 12.0, 2401)
    smoothed = FiniteMeasure(
        density_grid=grid,
        density_values=np.maximum(heat_convolve_many(brownian(), u0, eps, grid), 0.0),
        support_radius=12.0,
    )
    probes = np.linspace(-2.5, 2.5, 11)
    direct = heat_convolve_many(brownian(), u0, s + eps, probes)
    stepped = heat_convolve_many(brownian(), smoothed, s, probes)
    assert_allclose(stepped, direct, atol=5e-6)


def test_gaussian_tail_bound_for_compact_support():
    u0 = mixed_measure()
    k, t = u0.support_radius, 0.4
    xs = np.linspace(2.0 * k, 2.0 * k + 10.0, 25)
    vals = heat_convolve_many(brownian(), u0, t, xs)
    const = u0.total_mass * math.exp(k ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    # + 1e-8: far out, both sides sit below the Fourier quadrature noise floor
    assert np.all(vals <= const * np.exp(-xs ** 2 / (4.0 * t)) * (1 + 1e-9) + 1e-8)


def test_fourier_transform_basics():
    assert fourier_u0(delta(), 3.7) == pytest.approx(1.0 + 0.0j)
    u0 = mixed_measure()
    assert_allclose(fourier_u0(u0, 0.0), u0.total_mass, rtol=1e-14)
    xi = np.linspace(-30.0, 30.0, 61)
    assert np.all(np.abs(fourier_u0(u0, xi)) <= u0.total_mass * (1 + 1e-12))


def test_positive_definite_example():
    u0 = make_positive_definite_example(1.0)
    assert_allclose(u0.total_mass, 2.0, rtol=1e-9)
    u5 = make_positive_definite_example(0.5)
    assert_allclose(fourier_u0(u5, 0.0).real, 1.5, rtol=1e-9)
    # transform is (numerically) real and pinned above a once the Gaussian
    # part has decayed
    xi = np.linspace(20.0, 60.0, 41)
    hat = fourier_u0(u5, xi)
    assert np.all(np.abs(hat.imag) < 1e-12)
    assert np.all(hat.real >= 0.5 - 1e-9)


def complex_path_hat(u0, xi):
    """u0_hat by the complex exponential sum, with no symmetry shortcut."""
    hat = sum(m * np.exp(1j * xi * y) for y, m in u0.atoms)
    g, v = u0.density_grid, u0.density_values
    w = np.empty_like(g)
    w[1:-1] = 0.5 * (g[2:] - g[:-2])
    w[0], w[-1] = 0.5 * (g[1] - g[0]), 0.5 * (g[-1] - g[-2])
    return hat + np.exp(1j * np.multiply.outer(xi, g)) @ (w * v)


def test_symmetric_measure_has_real_transform():
    # the example's arange grid is a few ulps off mirror-exact
    pd = make_positive_definite_example(0.5)
    assert pd.density_grid[-1] != -pd.density_grid[0]
    grid = np.linspace(-2.0, 2.0, 81)
    pair = FiniteMeasure(atoms=((-1.5, 0.25), (0.0, 1.0), (1.5, 0.25)),
                         density_grid=grid, density_values=1.0 + grid ** 2,
                         support_radius=2.0)
    xi = np.linspace(-40.0, 40.0, 161)
    for u0 in (pd, pair):
        hat = fourier_u0(u0, xi)
        assert hat.dtype == complex and np.all(hat.imag == 0.0)
        assert_allclose(hat, complex_path_hat(u0, xi), rtol=0,
                        atol=1e-12 * u0.total_mass)
        assert fourier_u0(u0, 3.0).imag == 0.0


def test_off_centre_atom_keeps_its_sine_part():
    xi = np.linspace(-10.0, 10.0, 41)
    for u0 in (delta(at=0.5),
               FiniteMeasure(atoms=((-1.0, 1.0), (1.0, 1.5)),
                             support_radius=1.0)):
        hat = fourier_u0(u0, xi)
        assert np.any(np.abs(hat.imag) > 0.1)
        assert_allclose(hat, sum(m * np.exp(1j * xi * y)
                                 for y, m in u0.atoms), rtol=0, atol=1e-14)


def test_json_round_trip():
    doc = {"atoms": [[0.5, 0.25]], "support_radius": 2.0,
           "density": {"grid": [-1.0, 0.0, 1.0], "values": [0.0, 1.0, 0.0]}}
    for source in (doc, json.dumps(doc)):
        back = measure_from_json(source)
        assert back.atoms == ((0.5, 0.25),)
        assert back.support_radius == 2.0
        assert np.array_equal(back.density_grid, [-1.0, 0.0, 1.0])
        assert np.array_equal(back.density_values, [0.0, 1.0, 0.0])
        assert back.total_mass == 1.25


def test_data_radius_with_infinite_support_sees_the_density():
    grid = np.linspace(-7.0, 7.0, 15)
    vals = np.where((grid >= 4.0) & (grid <= 6.0), 1.0, 0.0)
    dens = FiniteMeasure(density_grid=grid, density_values=vals,
                         support_radius=math.inf)
    assert dens.data_radius == 6.0
    both = FiniteMeasure(atoms=((-6.5, 1.0),), density_grid=grid,
                         density_values=vals, support_radius=math.inf)
    assert both.data_radius == 6.5
    # a finite support_radius is taken as stated
    assert FiniteMeasure(density_grid=grid, density_values=vals,
                         support_radius=6.5).data_radius == 6.5
    assert measure_from_json({"atoms": [[-1.5, 1.0]],
                              "support_radius": 1e400}).data_radius == 1.5


def test_validation_errors():
    with pytest.raises(ValueError):
        FiniteMeasure(atoms=((0.0, -1.0),))
    with pytest.raises(ValueError):
        FiniteMeasure(atoms=((0.0, 1.0),), total_mass=1.5)
    with pytest.raises(ValueError):
        FiniteMeasure(atoms=((3.0, 1.0),), support_radius=2.0)
    grid = np.linspace(-4.0, 4.0, 9)
    with pytest.raises(ValueError):
        FiniteMeasure(density_grid=grid, density_values=np.ones(9),
                      support_radius=2.0)
    with pytest.raises(ValueError):
        FiniteMeasure(density_grid=grid, density_values=-np.ones(9),
                      support_radius=4.0)
    with pytest.raises(ConfigInvalid):
        measure_from_json('{"atoms": [[0.0]]}')
    with pytest.raises(ConfigInvalid):
        measure_from_json('[1, 2]')


def test_declared_mass_accepted_when_consistent():
    u0 = FiniteMeasure(atoms=((0.0, 1.25),), total_mass=1.25)
    assert u0.total_mass == 1.25
