import tracemalloc

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
    # exp(c t) on two unit pieces, [0, 2] with a kink-free break at t = 1;
    # samples of very different size each meet their own tolerance
    c = np.array([-3.0, 0.5, 2.0 + 5.0j, 8.0])
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
    sizes = []

    def f(t, cols):
        values = np.exp(np.outer(t, c[cols]))
        sizes.append(values.shape)
        return values

    values, abs_error, evaluations = integrate_batch(f, 2, np.ones(c.size), c.real, cfg, "test")
    exact = np.expm1(2.0 * c) / c
    assert np.all(np.abs(values - exact) <= abs_error)
    assert np.all(abs_error <= np.maximum(1e-12, 1e-10 * np.abs(exact)) / 8)
    # every node-sample value computed is counted, once, for its sample
    assert evaluations.sum() == sum(rows * cols for rows, cols in sizes)
    assert np.all(evaluations % 21 == 0)
    assert min(rows for rows, _ in sizes) >= 21


@pytest.mark.parametrize("hard", [0, 1, 2])
def test_integrate_batch_stops_each_sample_at_its_own_tolerance(hard):
    # a constant beside exp(40 t): the constant is exact on the starting
    # halves and is not evaluated again while the hard sample refines
    c = np.zeros(3)
    c[hard] = 40.0
    calls = []

    def f(t, cols):
        calls.append((t.size, np.arange(c.size)[cols]))
        return np.exp(np.outer(t, c[cols]))

    cfg = QuadratureConfig()
    values, abs_error, evaluations = integrate_batch(f, 2, np.ones(c.size), c, cfg, "test")
    exact = np.full(c.size, 2.0)
    exact[hard] = np.expm1(80.0) / 40.0
    target = np.maximum(np.minimum(cfg.abs_tol, 1e-10), cfg.rel_tol * np.abs(values))
    assert np.all(np.abs(values - exact) <= abs_error)
    assert np.all(abs_error <= target / 8)
    easy = c == 0
    assert np.all(evaluations[easy] == 21 * 2 * 2) and evaluations[hard] > 21 * 2 * 2
    assert evaluations.sum() == sum(rows * cols.size for rows, cols in calls)
    assert all(list(cols) == [hard] for _, cols in calls[1:])


def test_integrate_batch_starts_from_the_halves_of_every_piece():
    # the unit pieces [0, 1], [1, 2] and [2, 3] enter as their six halves,
    # which also count against max_subdivisions; a constant converges there
    # in one call
    calls = []

    def f(t, cols):
        calls.append(t)
        return np.ones((t.size, 1))

    def run(cap):
        cfg = QuadratureConfig(max_subdivisions=cap)
        return integrate_batch(f, 3, np.ones(1), np.ones(1), cfg, "test")

    values, _, evaluations = run(6)
    edges = np.arange(7) / 2.0
    centre, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    assert len(calls) == 1
    assert np.array_equal(calls[0], (centre[:, None] + half[:, None] * _NODES).ravel())
    assert np.isclose(values[0], 3.0, rtol=1e-15) and evaluations[0] == 6 * 21
    with pytest.raises(NonConvergenceError, match=r"test at omega=1\.0: .*maximum number of subdivisions"):
        run(5)


def test_integrate_batch_names_the_sample_that_fails():
    def f(t, cols):
        out = np.ones((t.size, 3))
        out[:, 1] = np.where(t > 0.5, np.nan, 1.0)
        return out[:, cols]

    with pytest.raises(NonConvergenceError, match=r"test at omega=2\.0: .*non-finite"):
        integrate_batch(f, 1, np.ones(3), np.array([1.0, 2.0, 3.0]), QuadratureConfig(), "test")


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)
    with pytest.raises(ValueError, match="max_subdivisions"):
        QuadratureConfig(max_subdivisions=0)


def test_hilbert_lorentzian_pair():
    grid = FrequencyGrid.symmetric(200.0, 8001)
    om = grid.omega
    f = 1.0 / (1.0 + om**2)
    h = hilbert_transform(f)
    expect = -om / (1.0 + om**2)
    band = np.abs(om) <= 50.0
    rel = np.linalg.norm(h[band] - expect[band]) / np.linalg.norm(expect[band])
    assert rel < 1e-3
    assert isinstance(h, np.ndarray) and h.dtype == float and h.shape == f.shape


def test_hilbert_parity():
    grid = FrequencyGrid.symmetric(40.0, 4001)
    om = grid.omega
    odd = om * np.exp(-(om**2) / 2.0)
    even = 1.0 / (1.0 + om**2)
    h_odd = hilbert_transform(odd)
    h_even = hilbert_transform(even)
    assert np.max(np.abs(h_odd - h_odd[::-1])) < 1e-12
    assert np.max(np.abs(h_even + h_even[::-1])) < 1e-12


def test_hilbert_applied_twice_negates():
    grid = FrequencyGrid.symmetric(40.0, 4001)
    om = grid.omega
    f = om * np.exp(-(om**2) / 2.0)
    h2 = hilbert_transform(hilbert_transform(f))
    band = np.abs(om) <= 10.0
    rel = np.linalg.norm(h2[band] + f[band]) / np.linalg.norm(f[band])
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
@example(n=2, span=1.0, offset=0.0, seed=0)  # the fewest samples it accepts
def test_hilbert_matches_dense_reference(n, span, offset, seed):
    grid = _drawn_grid(n, span, offset)
    f = np.random.default_rng(seed).standard_normal(n)
    h = hilbert_transform(f)
    expect = hilbert_dense(grid.omega, f)
    assert np.max(np.abs(h - expect)) <= 1e-12 * np.max(np.abs(f))
    assert h.dtype == float


@pytest.mark.parametrize(
    "values",
    [np.zeros(0), np.ones(1), np.float64(1.0), np.ones((2, 3)), np.ones(5, dtype=complex)],
    ids=["empty", "single", "scalar", "2d", "complex"],
)
def test_hilbert_rejects_values_that_are_not_a_real_vector(values):
    with pytest.raises(ValueError, match="hilbert_transform"):
        hilbert_transform(values)


def test_ift_exponential_pair():
    grid = FrequencyGrid.symmetric(200.0, 16001)
    spec = Spectrum(grid, (1.0 / (1.0 - 1j * grid.omega)).astype(complex))
    t, ft = inverse_fourier_to_time(spec, 503, 9)  # t_j = 0.49967 j
    probe = [0, 3, 5, 6, 8]  # t near -2, -0.5, 0.5, 1, 2
    expect = np.where(t[probe] > 0, np.exp(-np.abs(t[probe])), 0.0)
    assert np.allclose(ft[probe].real, expect, rtol=0.0, atol=5e-3)
    tt, ftt = inverse_fourier_to_time(spec, 25133, 4001)  # [-20, 20] in steps of 0.01
    assert np.isclose(tt[-1], 20.0, rtol=1e-4)
    power = np.abs(ftt) ** 2
    assert power[tt < -0.05].sum() / power.sum() < 1e-3


def test_ift_gaussian_pair_real_and_even():
    grid = FrequencyGrid.symmetric(40.0, 4001)
    spec = Spectrum(grid, np.exp(-grid.omega**2).astype(complex))
    t, ft = inverse_fourier_to_time(spec, 15708, 301)  # [-3, 3] in steps of 0.02
    assert np.array_equal(t, -t[::-1])
    assert np.max(np.abs(ft.imag)) < 1e-12
    assert np.max(np.abs(ft - ft[::-1])) < 1e-12
    expect = np.exp(-(t**2) / 4.0) / (2.0 * np.sqrt(np.pi))
    assert np.allclose(ft.real, expect, rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    half=st.integers(32, 2000),
    w_max=st.floats(1e-2, 1e3),
    m=st.one_of(st.integers(33, 64), st.integers(65, 8001)),  # m < n folds the samples
    nt_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(half=2000, w_max=200.0, m=4001, nt_frac=1.0, seed=0)  # m = n, 513 times
@example(half=2000, w_max=200.0, m=1501, nt_frac=1.0, seed=1)  # m < n: three periods folded onto one
def test_ift_matches_dense_reference(half, w_max, m, nt_frac, seed):
    grid = FrequencyGrid.symmetric(w_max, 2 * half + 1)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    # odd, in [33, m]: the peak of 33 or more sums cannot all cancel
    nt = 33 + 2 * int(nt_frac * (min(m, 513) - 33) / 2)
    t, ft = inverse_fourier_to_time(Spectrum(grid, vals), m, nt)
    assert t.size == nt and t[nt // 2] == 0.0
    assert np.allclose(np.diff(t), 2.0 * np.pi / (m * grid.spacing), rtol=1e-12, atol=0.0)
    expect = inverse_fourier_dense(grid.omega, vals, m, nt)
    assert np.max(np.abs(ft - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_ift_rejects_asymmetric_grids_and_bad_time_counts():
    om = FrequencyGrid.symmetric(10.0, 401).omega
    gauss = np.exp(-om**2).astype(complex)
    for grid in (FrequencyGrid(om + 0.1), FrequencyGrid(np.linspace(-10.0, 10.0, 400))):
        with pytest.raises(ValueError, match="symmetric about zero|w = 0 sampled"):
            inverse_fourier_to_time(Spectrum(grid, gauss[: grid.size]), 401, 101)
    spec = Spectrum(FrequencyGrid(om), gauss)
    for m, nt in ((401, 100), (401, 0), (401, -1), (99, 101)):
        with pytest.raises(ValueError, match=f"odd nt <= m, got n=401, nt={nt}, m={m}"):
            inverse_fourier_to_time(spec, m, nt)


def test_ift_single_time_is_the_trapezoid_integral():
    # m = 1 folds every sample into one bin, whose DFT is its sum
    grid = FrequencyGrid.symmetric(10.0, 401)
    vals = np.exp(-grid.omega**2).astype(complex)
    t, ft = inverse_fourier_to_time(Spectrum(grid, vals), 1, 1)
    assert t.shape == ft.shape == (1,) and t[0] == 0.0
    assert np.isclose(ft[0], np.trapezoid(vals, grid.omega) / (2.0 * np.pi), rtol=1e-14)
    assert np.isclose(ft[0], 1.0 / (2.0 * np.sqrt(np.pi)), rtol=1e-14)


@pytest.mark.parametrize("transform", ["hilbert", "inverse_fourier"])
def test_transform_memory_is_linear_in_grid_size(transform):
    # the chunked dense transforms peaked near 8 kB per grid point
    n = 65537
    grid = FrequencyGrid.symmetric(200.0, n)
    values = np.exp(-grid.omega**2)
    spec = Spectrum(grid, values)
    tracemalloc.start()
    try:
        if transform == "hilbert":
            hilbert_transform(values)
        else:
            inverse_fourier_to_time(spec, 20000, 4001)  # the causality metric's times, folded
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * n


def test_ift_raises_beyond_alias_span():
    # nt > m times would span more than one period 2 pi / dw, past which the
    # sum is a periodic image of f(t)
    grid = FrequencyGrid.symmetric(40.0, 4001)
    spec = Spectrum(grid, np.exp(-grid.omega**2).astype(complex))
    with pytest.raises(ValueError, match="odd nt <= m, got n=4001, nt=4003, m=4001"):
        inverse_fourier_to_time(spec, 4001, 4003)
