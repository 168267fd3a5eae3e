import numpy as np
import pytest

import oracles
from vacmirror import (
    CustomState,
    FrequencyGrid,
    Mirror,
    MonochromaticOscillation,
    PerfectMirror,
    PhysicsContext,
    QuadratureConfig,
    SinglePoleMirror,
    TabulatedSpectrum,
    ThermalState,
    VacuumState,
    chi_kernel,
    chi_kernel_comoving,
    chi_kernel_symmetrized,
    delta_smatrix,
    motional_force_spectrum,
    noise_spectrum,
    susceptibility,
    susceptibility_grid,
)


def test_kernel_hand_values():
    vac = VacuumState()
    assert np.isclose(chi_kernel(PerfectMirror(), vac, 1.0, 1.0), 2.0j, atol=1e-15)
    assert np.isclose(
        chi_kernel(SinglePoleMirror(1.0), vac, 1.0, 1.0), -1.0 + 1.0j, atol=1e-14
    )


class _SAndROnly(Mirror):
    """Implements s and r only, so its amplitudes come from the base class."""

    def __init__(self, inner):
        self.inner = inner
        self.transparent = inner.transparent

    def s(self, omega):
        return self.inner.s(omega)

    def r(self, omega):
        return self.inner.r(omega)


def test_kernel_routes_agree():
    m = SinglePoleMirror(1.3)
    rng = np.random.default_rng(5)
    w1, w2 = rng.uniform(-8.0, 8.0, (1000, 2)).T
    routes = (chi_kernel, chi_kernel_symmetrized, chi_kernel_comoving)
    for state in (VacuumState(), ThermalState(0.7)):
        base, sym, com = (route(m, state, w1, w2) for route in routes)
        scale = np.maximum(np.abs(base), 1.0)
        assert np.all(np.abs(base - sym) <= 1e-12 * scale)
        assert np.all(np.abs(base - com) <= 1e-12 * scale)
        # the base-class amplitudes of an s/r-only wrapper give the same bits
        for route, value in zip(routes, (base, sym, com)):
            assert np.array_equal(route(_SAndROnly(m), state, w1, w2), value)


def test_kernel_trace_fallback_matches_diagonal_route():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    slow = CustomState(vac.cplus, diagonal=False)
    rng = np.random.default_rng(9)
    for w1, w2 in rng.uniform(0.1, 6.0, (50, 2)):
        assert np.isclose(
            chi_kernel(m, slow, w1, w2), chi_kernel(m, vac, w1, w2), atol=1e-13
        )


def test_susceptibility_single_pole_closed_form():
    oc = 1.0
    m = SinglePoleMirror(oc)
    vac = VacuumState()
    for w in (0.3, 1.0, 4.0):
        got = susceptibility(m, vac, w)
        ref = oracles.chi_single_pole(w, oc)
        assert abs(got - ref) <= 1e-9 * abs(ref)


def test_susceptibility_perfect_is_cubic():
    vac = VacuumState()
    for w in (0.5, 1.0, 2.0):
        got = susceptibility(PerfectMirror(), vac, w)
        assert np.isclose(got, oracles.chi_cubic(w), rtol=1e-10)


def test_susceptibility_zero_and_conjugation():
    m = SinglePoleMirror(2.0)
    vac = VacuumState()
    assert susceptibility(m, vac, 0.0) == 0.0
    assert susceptibility(m, vac, -1.5) == np.conj(susceptibility(m, vac, 1.5))


def test_susceptibility_approaches_perfect_limit():
    vac = VacuumState()
    w = 1.0
    ref = oracles.chi_cubic(w)
    err_small = abs(susceptibility(SinglePoleMirror(10.0), vac, w) - ref) / abs(ref)
    err_large = abs(susceptibility(SinglePoleMirror(100.0), vac, w) - ref) / abs(ref)
    assert err_large < err_small
    assert err_large < 0.02


def test_susceptibility_thermal_against_trapezoid():
    m = SinglePoleMirror(1.0)
    th = ThermalState(1.0)
    for w in (0.5, 1.0, 3.0):
        got = susceptibility(m, th, w)
        ref = oracles.trapezoid_chi(m, th, w, -60.0, w + 60.0)
        assert abs(got - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("hbar, temp", [(1.0, 1.0), (1.0, 0.1), (1.0, 10.0), (0.5, 2.0)])
def test_susceptibility_thermal_perfect_mirror_closed_form(hbar, temp):
    # the weight form cancels the vacuum part outside [0, w], so the thermal
    # integrand decays although the perfect mirror is not transparent
    state = ThermalState(temp, PhysicsContext(hbar))
    w = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
    ref = oracles.chi_perfect_thermal(w, temp, hbar)
    assert np.all(np.abs(susceptibility(PerfectMirror(), state, w) - ref) <= 1e-10 * np.abs(ref))
    cff = noise_spectrum(PerfectMirror(), state, np.r_[-w, w])
    assert np.allclose(cff[: w.size] / cff[w.size:], np.exp(-hbar * w / temp), rtol=1e-10, atol=0.0)


def test_susceptibility_custom_state_needs_window():
    hbar = PhysicsContext().hbar
    rule = lambda nu: np.eye(2) * (hbar / (4.0 * np.abs(nu)[..., None, None]))
    st = CustomState(rule, diagonal=True)
    m = SinglePoleMirror(1.0)
    with pytest.raises(ValueError, match="window"):
        susceptibility(m, st, 1.0)
    got = susceptibility(m, st, 1.0, QuadratureConfig(window=10.0))
    ref = susceptibility(m, VacuumState(), 1.0)
    assert abs(got - ref) <= 1e-10 * abs(ref)


def test_susceptibility_grid_reality_is_bitwise():
    m = SinglePoleMirror(1.0)
    spec = susceptibility_grid(m, VacuumState(), FrequencyGrid.symmetric(5.0, 41))
    assert np.array_equal(spec.values, np.conj(spec.values[::-1]))
    mid = spec.values.size // 2
    assert spec.values[mid] == 0.0


def test_delta_smatrix_values():
    assert np.array_equal(delta_smatrix(SinglePoleMirror(1.0), 2.0, 0.0), np.zeros((2, 2)))
    w2 = 1.5
    got = delta_smatrix(PerfectMirror(), 0.7, w2)
    assert np.allclose(got, [[0.0, 2j * w2], [-2j * w2, 0.0]])
    # at equal arguments the diagonal cancels, leaving the reflection lines
    m = SinglePoleMirror(1.0)
    w = 0.9
    d = delta_smatrix(m, w, w)
    r = complex(m.r(w))
    assert np.allclose(d, [[0.0, -2j * w * r], [2j * w * r, 0.0]], atol=1e-15)


def test_oscillation_validation():
    with pytest.raises(ValueError):
        MonochromaticOscillation(amplitude=1.0, frequency=0.0)
    osc = MonochromaticOscillation(amplitude=3.0, frequency=2.0)
    assert osc.line_weights() == ((-2.0, 1.5), (2.0, 1.5))


def test_tabulated_spectrum_validation():
    grid = FrequencyGrid.symmetric(3.0, 7)
    good = np.exp(-grid.omega**2) * (1.0 + 0.5j * grid.omega)
    TabulatedSpectrum(grid, good)
    with pytest.raises(ValueError, match="symmetric"):
        TabulatedSpectrum(FrequencyGrid(np.linspace(0.0, 3.0, 7)), np.ones(7))
    with pytest.raises(ValueError, match="conj"):
        TabulatedSpectrum(grid, np.arange(7.0) * 1j + 1.0)
    with pytest.raises(ValueError, match="match"):
        TabulatedSpectrum(grid, np.ones(5))


def test_motional_force_monochromatic_lines():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    grid = FrequencyGrid.symmetric(5.0, 101)
    osc = MonochromaticOscillation(amplitude=2.0, frequency=1.0)
    spec = motional_force_spectrum(m, vac, osc, grid)
    chi1 = susceptibility(m, vac, 1.0)
    lines = dict(spec.meta["lines"])
    assert np.isclose(lines[1.0], chi1)
    assert np.isclose(lines[-1.0], np.conj(chi1))
    nonzero = np.nonzero(spec.values)[0]
    assert list(grid.omega[nonzero]) == [-1.0, 1.0]
    assert np.isclose(spec.values[nonzero[1]], chi1)


def test_motional_force_tabulated_product():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    grid = FrequencyGrid.symmetric(3.0, 31)
    dq = np.exp(-grid.omega**2).astype(complex)
    spec = motional_force_spectrum(m, vac, TabulatedSpectrum(grid, dq), grid)
    chi = susceptibility_grid(m, vac, grid)
    assert np.allclose(spec.values, chi.values * dq)
    with pytest.raises(ValueError, match="grid"):
        other = FrequencyGrid.symmetric(3.0, 21)
        motional_force_spectrum(m, vac, TabulatedSpectrum(grid, dq), other)
    with pytest.raises(TypeError):
        motional_force_spectrum(m, vac, "not a trajectory", grid)
