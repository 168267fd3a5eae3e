import numpy as np
import pytest

import oracles
from vacmirror import (
    CustomState,
    FrequencyGrid,
    Mirror,
    MonochromaticOscillation,
    PerfectMirror,
    QuadratureConfig,
    SinglePoleMirror,
    TabulatedSpectrum,
    ThermalState,
    TwoTemperatureState,
    VacuumState,
    chi_kernel,
    chi_kernel_comoving,
    chi_kernel_symmetrized,
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
        # the base-class amplitudes of an s/r-only wrapper form s - 1 from s,
        # which rounds once more than the model's own s - 1
        for route, value in zip(routes, (base, sym, com)):
            ulp = np.spacing(np.maximum(np.abs(value), 1.0))
            assert np.all(np.abs(route(_SAndROnly(m), state, w1, w2) - value) <= 4 * ulp)


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


_PERFECT_THERMAL = [(hbar, temp) for hbar in (0.25, 0.3, 1.0, 3.0, 4.0) for temp in (1.0, 3.0, 10.0, 30.0, 100.0)]


@pytest.mark.parametrize("hbar, temp", _PERFECT_THERMAL + [(1.0, 0.1), (0.5, 2.0)])
def test_susceptibility_thermal_perfect_mirror_closed_form(hbar, temp):
    # the vacuum part of the weight form is exactly zero outside [0, w], so
    # the thermal integrand there is the decaying excess alone, although the
    # perfect mirror is not transparent
    state = ThermalState(temp, hbar)
    w = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
    ref = oracles.chi_perfect_thermal(w, temp, temp, hbar)
    assert np.all(np.abs(susceptibility(PerfectMirror(), state, w) - ref) <= 1e-10 * np.abs(ref))
    cff = noise_spectrum(PerfectMirror(), state, np.r_[-w, w])
    assert np.allclose(cff[: w.size] / cff[w.size:], np.exp(-hbar * w / temp), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("temp_phi, temp_psi, hbar", [(100.0, 100.0 / 3.0, 0.3), (2.0, 0.5, 1.0), (30.0, 1.0, 3.0)])
def test_susceptibility_two_temperature_perfect_mirror_closed_form(temp_phi, temp_psi, hbar):
    state = TwoTemperatureState(temp_phi, temp_psi, hbar)
    w = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
    ref = oracles.chi_perfect_thermal(w, temp_phi, temp_psi, hbar)
    assert np.all(np.abs(susceptibility(PerfectMirror(), state, w) - ref) <= 1e-10 * np.abs(ref))


def test_susceptibility_custom_state_needs_window():
    hbar = VacuumState().hbar
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


def test_oscillation_validation():
    with pytest.raises(ValueError):
        MonochromaticOscillation(amplitude=1.0, frequency=0.0)
    with pytest.raises(ValueError, match="amplitude must be finite, got nan"):
        MonochromaticOscillation(float("nan"), 2.0)
    for frequency in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ValueError, match=f"frequency must be positive and finite, got {frequency}"):
            MonochromaticOscillation(1.0, frequency)
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


def test_motional_force_lines_beyond_the_grid_raise():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    # a line past the edge by more than half a spacing has no nearest sample, on either side
    for grid, side in ((FrequencyGrid.linear(-2.0, 5.0, 15), "-4"), (FrequencyGrid.linear(-5.0, 2.0, 15), "4")):
        with pytest.raises(ValueError, match=f"line at omega={side} lies outside"):
            motional_force_spectrum(m, vac, MonochromaticOscillation(1.0, 4.0), grid)
    grid = FrequencyGrid.symmetric(5.0, 11)
    with pytest.raises(ValueError, match="grid span \\[-5, 5\\]"):
        motional_force_spectrum(m, vac, MonochromaticOscillation(1.0, 10.0), grid)
    # on the edge, or within half a spacing of it, the line lands on the edge sample
    for frequency in (5.0, 5.4):
        spec = motional_force_spectrum(m, vac, MonochromaticOscillation(2.0, frequency), grid)
        assert np.flatnonzero(spec.values).tolist() == [0, 10]
        assert np.isclose(spec.values[-1], susceptibility(m, vac, frequency), rtol=1e-12, atol=0.0)


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
