import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import hilbert_dense, integrate, inverse_fourier_dense
from vacmirror import (
    FrequencyGrid,
    NonConvergenceError,
    QuadratureConfig,
    Spectrum,
    hilbert_transform,
    integrate_batch,
    inverse_fourier_to_time,
)
from vacmirror.numerics import _GAUSS, _KRONROD, _NODES


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


def _monomial_errors(nodes, weights, degrees):
    exact = [2.0 / (d + 1) if d % 2 == 0 else 0.0 for d in degrees]
    return [abs(weights @ nodes**d - e) for d, e in zip(degrees, exact)]


def test_kronrod_rule_is_exact_through_degree_31():
    assert np.all(np.diff(_NODES) < 0) and np.array_equal(_NODES, -_NODES[::-1])
    assert max(_monomial_errors(_NODES, _KRONROD, range(32))) <= 1e-15
    assert min(_monomial_errors(_NODES, _KRONROD, [32, 34])) > 1e-13


def test_gauss_rule_is_exact_through_degree_19():
    gauss_nodes = _NODES[1::2]
    assert np.allclose(gauss_nodes, np.polynomial.legendre.leggauss(10)[0][::-1], rtol=0.0, atol=1e-15)
    assert max(_monomial_errors(gauss_nodes, _GAUSS, range(20))) <= 1e-15
    assert min(_monomial_errors(gauss_nodes, _GAUSS, [20, 22])) > 1e-8


def test_integrate_batch_keeps_each_sample_contract():
    # exp(c t) on [0, 2] with a kink-free break at t = 1; samples of very
    # different size each meet their own tolerance
    c = np.array([-3.0, 0.5, 2.0 + 5.0j, 8.0])
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
    sizes = []

    def f(t, cols):
        sizes.append(t.size)
        return np.exp(np.outer(t, c[cols]))

    values, abs_error, evaluations = integrate_batch(
        f, 2.0, np.ones(c.size), c.real, cfg, "test", points=(1.0,)
    )
    exact = np.expm1(2.0 * c) / c
    assert np.all(np.abs(values - exact) <= abs_error)
    assert np.all(abs_error <= np.maximum(1e-12, 1e-10 * np.abs(exact)) / 8)
    assert np.all(evaluations == sum(sizes)) and evaluations[0] % 21 == 0
    assert min(sizes) >= 21


def test_integrate_batch_starts_from_the_halves_of_every_piece():
    # the pieces [0, 1] and [1, 3] enter as their halves, which also count
    # against max_subdivisions; a constant converges there in one call
    calls = []

    def f(t, cols):
        calls.append(t)
        return np.ones((t.size, 1))

    def run(cap):
        cfg = QuadratureConfig(max_subdivisions=cap)
        return integrate_batch(f, 3.0, np.ones(1), np.ones(1), cfg, "test", points=(1.0,))

    values, _, evaluations = run(4)
    edges = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    centre, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    assert len(calls) == 1
    assert np.array_equal(calls[0], (centre[:, None] + half[:, None] * _NODES).ravel())
    assert np.isclose(values[0], 3.0, rtol=1e-15) and evaluations[0] == 4 * 21
    with pytest.raises(NonConvergenceError, match=r"test at omega=1\.0: .*maximum number of subdivisions"):
        run(3)


def test_integrate_batch_names_the_sample_that_fails():
    def f(t, cols):
        out = np.ones((t.size, 3))
        out[:, 1] = np.where(t > 0.5, np.nan, 1.0)
        return out[:, cols]

    with pytest.raises(NonConvergenceError, match=r"test at omega=2\.0: .*non-finite"):
        integrate_batch(f, 1.0, np.ones(3), np.array([1.0, 2.0, 3.0]), QuadratureConfig(), "test")


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


def _drawn_grid(n, span, offset):
    return FrequencyGrid(np.linspace(offset * span - span, offset * span + span, n))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(65, 4001),
    span=st.floats(1e-2, 1e3),
    offset=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# 2n - 1 = 4097 is padded to 8192, the largest power-of-two padding
@example(n=2049, span=50.0, offset=-0.3, seed=1)
def test_hilbert_matches_dense_reference(n, span, offset, seed):
    grid = _drawn_grid(n, span, offset)
    f = np.random.default_rng(seed).standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        h = hilbert_transform(Spectrum(grid, f.astype(complex)))
    expect = hilbert_dense(grid.omega, f)
    assert np.max(np.abs(h.values.real - expect)) <= 1e-12 * np.max(np.abs(f))
    assert not np.any(h.values.imag)


def test_hilbert_warns_on_heavy_tails():
    grid = FrequencyGrid.symmetric(20.0, 801)
    f = 1.0 / (1.0 + np.abs(grid.omega))
    with pytest.warns(RuntimeWarning):
        hilbert_transform(Spectrum(grid, f.astype(complex)))


def test_ift_exponential_pair():
    grid = FrequencyGrid.symmetric(200.0, 16001)
    spec = Spectrum(grid, (1.0 / (1.0 - 1j * grid.omega)).astype(complex))
    t = np.linspace(-2.0, 2.0, 9)
    probe = [0, 3, 5, 6, 8]  # t = -2, -0.5, 0.5, 1, 2
    ft = inverse_fourier_to_time(spec, t)[probe]
    expect = np.where(t[probe] > 0, np.exp(-np.abs(t[probe])), 0.0)
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


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(65, 4001),
    span=st.floats(1e-2, 1e3),
    offset=st.floats(-1.0, 1.0),
    t_frac=st.floats(1e-3, 1.0),
    t_center=st.floats(-0.5, 0.5),
    nt=st.one_of(st.integers(1, 8), st.integers(9, 512)),  # few times: the widest chirp
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4001, span=200.0, offset=0.25, t_frac=1.0, t_center=0.2, nt=2, seed=0)
# n + nt - 1 = 4097 is padded to 8192, the largest power-of-two padding
@example(n=3586, span=200.0, offset=-0.4, t_frac=0.5, t_center=-0.3, nt=512, seed=2)
# a span of one full window that rounds one ulp past it must not warn
@example(n=310, span=125.0, offset=0.0, t_frac=1.0, t_center=0.453125, nt=2, seed=0)
def test_ift_matches_dense_reference(n, span, offset, t_frac, t_center, nt, seed):
    grid = _drawn_grid(n, span, offset)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # t span and center inside the alias-free window 2 pi / dw
    window = 2.0 * np.pi / grid.spacing
    t = t_center * window + np.linspace(-0.5, 0.5, nt) * t_frac * window
    ft = inverse_fourier_to_time(Spectrum(grid, vals), t)
    expect = inverse_fourier_dense(grid.omega, vals, t)
    assert np.max(np.abs(ft - expect)) <= 1e-11 * np.max(np.abs(expect))


def test_ift_rejects_non_uniform_times():
    grid = FrequencyGrid.symmetric(10.0, 401)
    spec = Spectrum(grid, np.exp(-grid.omega**2).astype(complex))
    t = np.linspace(-2.0, 2.0, 101)
    bent = t.copy()
    bent[50] += 1e-6
    for bad in (bent, np.array([0.0, 1.0, 3.0]), np.array([0.0, np.nan, 2.0]), t.reshape(1, -1)):
        with pytest.raises(ValueError, match="t must be"):
            inverse_fourier_to_time(spec, bad)
    assert np.allclose(inverse_fourier_to_time(spec, t[::-1]), inverse_fourier_to_time(spec, t)[::-1])


def test_ift_empty_and_single_time():
    grid = FrequencyGrid.symmetric(10.0, 401)
    vals = np.exp(-grid.omega**2).astype(complex)
    spec = Spectrum(grid, vals)
    empty = inverse_fourier_to_time(spec, np.array([]))
    assert empty.shape == (0,) and empty.dtype == complex
    single = inverse_fourier_to_time(spec, np.array([0.7]))
    assert single.shape == (1,)
    assert np.isclose(single[0], inverse_fourier_dense(grid.omega, vals, [0.7])[0], rtol=1e-13)


@pytest.mark.parametrize("transform", ["hilbert", "inverse_fourier"])
def test_transform_memory_is_linear_in_grid_size(transform):
    # the chunked dense transforms peaked near 8 kB per grid point
    n = 65537
    grid = FrequencyGrid.symmetric(200.0, n)
    spec = Spectrum(grid, np.exp(-grid.omega**2).astype(complex))
    t = np.linspace(-20.0, 20.0, 4001)
    tracemalloc.start()
    try:
        if transform == "hilbert":
            hilbert_transform(spec)
        else:
            inverse_fourier_to_time(spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * n


def test_ift_warns_beyond_alias_span():
    grid = FrequencyGrid.symmetric(40.0, 4001)
    spec = Spectrum(grid, np.exp(-grid.omega**2).astype(complex))
    with pytest.warns(RuntimeWarning):
        inverse_fourier_to_time(spec, np.linspace(-300.0, 300.0, 101))
