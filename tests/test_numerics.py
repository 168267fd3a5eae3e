import warnings

import numpy as np
import pytest

from oracles import integrate
from vacmirror import (
    FrequencyGrid,
    NonConvergenceError,
    QuadratureConfig,
    Spectrum,
    hilbert_transform,
    inverse_fourier_to_time,
)


def test_integrate_polynomial_exact():
    val, err = integrate(lambda w: w * (1.0 - w), 0.0, 1.0)
    assert np.isclose(val.real, 1.0 / 6.0, rtol=0.0, atol=1e-14)
    assert val.imag == 0.0
    assert err <= 1e-10


def test_integrate_complex_and_error_is_conservative():
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
    val, err = integrate(lambda w: np.cos(w) + 1j * np.sin(w), 0.0, 1.0, cfg)
    exact = np.sin(1.0) + 1j * (1.0 - np.cos(1.0))
    assert abs(val - exact) <= err
    assert err <= max(cfg.abs_tol, cfg.rel_tol * abs(val))


def test_integrate_cubic_law_against_quadrature():
    # i integral_0^w 2 * w'(w - w') dw' / (2 pi) = i w^3 / (6 pi)
    w = 3.0
    val, _ = integrate(lambda x: 1j * x * (w - x) / np.pi, 0.0, w)
    assert np.isclose(val.imag, w**3 / (6.0 * np.pi), rtol=1e-12)


def test_integrate_handles_interior_kink_with_points():
    val, _ = integrate(lambda x: abs(x), -1.0, 1.0, points=(0.0,))
    assert np.isclose(val.real, 1.0, rtol=1e-13)


def test_integrate_validates_bounds():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, np.inf)


def test_integrate_raises_with_best_estimate():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
    rough = lambda x: np.cos(50.0 * x * x) / np.sqrt(abs(x - 0.3) + 1e-12)
    with pytest.raises(NonConvergenceError) as info:
        integrate(rough, 0.0, 1.0, cfg)
    assert np.isfinite(info.value.error_estimate)
    assert isinstance(info.value.best, complex)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)


def test_hilbert_lorentzian_pair():
    grid = FrequencyGrid.symmetric(200.0, 8001)
    om = grid.omega
    f = 1.0 / (1.0 + om**2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        h = hilbert_transform(Spectrum(grid, f.astype(complex)))
    expect = -om / (1.0 + om**2)
    band = np.abs(om) <= 50.0
    rel = np.linalg.norm(h.values.real[band] - expect[band]) / np.linalg.norm(
        expect[band]
    )
    assert rel < 1e-3
    assert "tail_bound" in h.meta


def test_hilbert_parity():
    grid = FrequencyGrid.symmetric(40.0, 4001)
    om = grid.omega
    odd = om * np.exp(-(om**2) / 2.0)
    even = 1.0 / (1.0 + om**2)
    h_odd = hilbert_transform(Spectrum(grid, odd.astype(complex)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        h_even = hilbert_transform(Spectrum(grid, even.astype(complex)))
    assert np.max(np.abs(h_odd.values.real - h_odd.values.real[::-1])) < 1e-12
    assert np.max(np.abs(h_even.values.real + h_even.values.real[::-1])) < 1e-12


def test_hilbert_applied_twice_negates():
    grid = FrequencyGrid.symmetric(40.0, 4001)
    om = grid.omega
    f = om * np.exp(-(om**2) / 2.0)
    h1 = hilbert_transform(Spectrum(grid, f.astype(complex)))
    h2 = hilbert_transform(h1)
    band = np.abs(om) <= 10.0
    rel = np.linalg.norm(h2.values.real[band] + f[band]) / np.linalg.norm(f[band])
    assert rel < 0.01


def test_hilbert_chunking_is_invisible():
    grid = FrequencyGrid.symmetric(10.0, 801)
    f = np.exp(-grid.omega**2).astype(complex)
    a = hilbert_transform(Spectrum(grid, f), chunk=7)
    b = hilbert_transform(Spectrum(grid, f), chunk=256)
    assert np.array_equal(a.values, b.values)


def test_hilbert_warns_on_heavy_tails():
    grid = FrequencyGrid.symmetric(20.0, 801)
    f = 1.0 / (1.0 + np.abs(grid.omega))
    with pytest.warns(RuntimeWarning):
        hilbert_transform(Spectrum(grid, f.astype(complex)))


def test_ift_exponential_pair():
    grid = FrequencyGrid.symmetric(200.0, 16001)
    spec = Spectrum(grid, (1.0 / (1.0 - 1j * grid.omega)).astype(complex))
    t = np.array([-2.0, -0.5, 0.5, 1.0, 2.0])
    ft = inverse_fourier_to_time(spec, t)
    expect = np.where(t > 0, np.exp(-np.abs(t)), 0.0)
    assert np.allclose(ft.real, expect, rtol=0.0, atol=5e-3)
    tt = np.linspace(-20.0, 20.0, 4001)
    power = np.abs(inverse_fourier_to_time(spec, tt)) ** 2
    assert power[tt < -0.05].sum() / power.sum() < 1e-3


def test_ift_gaussian_pair_real_and_even():
    grid = FrequencyGrid.symmetric(40.0, 4001)
    spec = Spectrum(grid, np.exp(-grid.omega**2).astype(complex))
    t = np.linspace(-3.0, 3.0, 301)
    ft = inverse_fourier_to_time(spec, t)
    assert np.max(np.abs(ft.imag)) < 1e-12
    assert np.max(np.abs(ft - ft[::-1])) < 1e-12
    expect = np.exp(-(t**2) / 4.0) / (2.0 * np.sqrt(np.pi))
    assert np.allclose(ft.real, expect, rtol=0.0, atol=1e-12)


def test_ift_chunking_is_invisible():
    grid = FrequencyGrid.symmetric(10.0, 401)
    spec = Spectrum(grid, np.exp(-grid.omega**2).astype(complex))
    t = np.linspace(-2.0, 2.0, 101)
    a = inverse_fourier_to_time(spec, t, chunk=3)
    b = inverse_fourier_to_time(spec, t, chunk=256)
    assert np.array_equal(a, b)


def test_ift_warns_beyond_alias_span():
    grid = FrequencyGrid.symmetric(40.0, 4001)
    spec = Spectrum(grid, np.exp(-grid.omega**2).astype(complex))
    with pytest.warns(RuntimeWarning):
        inverse_fourier_to_time(spec, np.linspace(-300.0, 300.0, 101))
