import numpy as np
import pytest

import oracles
from vacmirror import (
    CustomState,
    FrequencyGrid,
    PerfectMirror,
    SinglePoleMirror,
    ThermalState,
    VacuumState,
    cff_kernel,
    commutator_kernel,
    fdt_check,
    noise_spectrum,
    noise_spectrum_grid,
    susceptibility,
    susceptibility_grid,
    xi_spectrum,
)


def test_noise_kernel_hand_value():
    vac = VacuumState()
    assert cff_kernel(PerfectMirror(), vac, 1.0, 1.0) == 4.0


def test_noise_kernel_vacuum_zeros_are_exact():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    assert cff_kernel(m, vac, 1.0, -2.0) == 0.0
    assert cff_kernel(m, vac, -0.3, -5.0) == 0.0
    assert cff_kernel(m, vac, 0.5, 1.5) != 0.0


def test_noise_kernel_symmetry():
    m = SinglePoleMirror(0.8)
    th = ThermalState(1.3)
    rng = np.random.default_rng(2)
    for w1, w2 in rng.uniform(-6.0, 6.0, (50, 2)):
        assert np.isclose(
            cff_kernel(m, th, w1, w2), cff_kernel(m, th, w2, w1), rtol=1e-13
        )


def test_noise_kernel_trace_route_matches_diagonal():
    m = SinglePoleMirror(1.0)
    th = ThermalState(1.0)
    slow = CustomState(th.cplus, diagonal=False)
    rng = np.random.default_rng(3)
    for w1, w2 in rng.uniform(-5.0, 5.0, (100, 2)):
        a = cff_kernel(m, th, w1, w2)
        b = cff_kernel(m, slow, w1, w2)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_noise_spectrum_perfect_mirror_value():
    got = noise_spectrum(PerfectMirror(), VacuumState(), 1.0)
    assert abs(got - 1.0 / (3.0 * np.pi)) <= 1e-10


def test_noise_spectrum_single_pole_closed_form():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    for w in (0.5, 1.0, 3.0):
        got = noise_spectrum(m, vac, w)
        ref = oracles.cff_vacuum(w, 1.0, 1.0)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_vacuum_noise_is_one_sided():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    assert noise_spectrum(m, vac, -1.0) == 0.0
    assert noise_spectrum(m, vac, 0.0) == 0.0
    assert noise_spectrum(m, vac, 1.0) > 0.0


def test_vacuum_noise_equals_commutator():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    hbar = vac.context.hbar
    for w in (0.4, 1.0, 2.5):
        c = noise_spectrum(m, vac, w)
        x = xi_spectrum(m, vac, w)
        assert abs(c - 2.0 * hbar * x) <= 1e-10 * abs(c)


def test_commutator_routes_agree():
    m = SinglePoleMirror(1.3)
    rng = np.random.default_rng(5)
    w1, w2 = rng.uniform(-8.0, 8.0, (1000, 2)).T
    for state in (VacuumState(), ThermalState(0.7)):
        a = commutator_kernel(m, state, w1, w2, route="noise")
        b = commutator_kernel(m, state, w1, w2, route="response")
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(np.abs(a), 1.0))
    with pytest.raises(ValueError, match="route"):
        commutator_kernel(m, VacuumState(), 1.0, 1.0, route="bogus")


def test_thermal_noise_detailed_balance():
    m = SinglePoleMirror(1.0)
    T = 1.0
    th = ThermalState(T)
    for w in (0.5, 1.0, 2.0):
        ratio = noise_spectrum(m, th, -w) / noise_spectrum(m, th, w)
        assert np.isclose(ratio, np.exp(-w / T), rtol=1e-10)


def test_thermal_noise_positive_and_against_trapezoid():
    m = SinglePoleMirror(1.0)
    th = ThermalState(1.0)
    for w in (-2.0, -0.5, 0.5, 2.0):
        got = noise_spectrum(m, th, w)
        assert got > 0.0
        ref = oracles.trapezoid_cff(m, th, w, min(0.0, w) - 60.0, max(0.0, w) + 60.0)
        assert abs(got - ref) <= 1e-10 * abs(ref)


def test_commutator_spectrum_is_odd():
    m = SinglePoleMirror(1.0)
    th = ThermalState(1.0)
    for w in (0.5, 1.5):
        assert np.isclose(xi_spectrum(m, th, -w), -xi_spectrum(m, th, w), rtol=1e-10)
    vac = VacuumState()
    assert xi_spectrum(m, vac, -1.0) == -xi_spectrum(m, vac, 1.0)


def test_commutator_equals_dissipation():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    for w in (0.5, 1.0, 3.0):
        x = xi_spectrum(m, vac, w)
        ref = oracles.xi_single_pole(w, 1.0)
        assert abs(x - ref) <= 1e-10 * abs(ref)
        assert np.isclose(x, np.imag(susceptibility(m, vac, w)), rtol=1e-10)


def test_fdt_check_vacuum():
    rep = fdt_check(SinglePoleMirror(1.0), VacuumState(), FrequencyGrid.symmetric(3.0, 13))
    assert rep.relative_deviation <= 1e-8
    assert rep.passes(1e-8)
    assert rep.peak > 0.0
    # route (a) is odd across the symmetric grid
    assert np.allclose(rep.xi_commutator, -rep.xi_commutator[::-1], atol=1e-14)


def test_fdt_check_thermal():
    rep = fdt_check(SinglePoleMirror(1.0), ThermalState(1.0), FrequencyGrid.symmetric(3.0, 13))
    assert rep.relative_deviation <= 1e-8


def test_fdt_check_at_high_temperature():
    # the thermal window spans 46 T/hbar = 4.6e6 here, against structure of
    # width Omega = 1 at its inner edges
    rep = fdt_check(SinglePoleMirror(1.0), ThermalState(1e5), FrequencyGrid.linear(-5.0, 5.0, 11))
    assert rep.passes(1e-8)


def test_thermal_noise_keeps_detailed_balance_at_high_temperature():
    # the window is 4.6e7 wide: nodes near the kinks at 0 and w keep their
    # digits only if placed from the nearer piece edge (placed from the far
    # one, this quadrature stops converging near T = 1.2e5)
    temp = 1e6
    w = np.linspace(-5.0, 5.0, 11)
    cff = noise_spectrum(SinglePoleMirror(1.0), ThermalState(temp), w)
    boltzmann = np.exp(w[:5] / temp)
    assert np.all(np.abs(cff[:5] / cff[:-6:-1] - boltzmann) <= 1e-8 * boltzmann)


def test_fdt_report_carries_the_routes_error_budget():
    m, th = SinglePoleMirror(1.0), ThermalState(1.0)
    grid = FrequencyGrid.symmetric(3.0, 13)
    rep = fdt_check(m, th, grid)
    chi = susceptibility_grid(m, th, grid)
    cff = noise_spectrum_grid(m, th, grid)
    err_b = (cff.meta["abs_error"] + cff.meta["abs_error"][::-1]) / 2.0
    assert rep.error_budget >= max(np.max(chi.meta["abs_error"]), np.max(err_b))
    assert 0.0 < rep.error_budget <= 1e-10 * max(np.max(np.abs(chi.values)), np.max(cff.values))
    # the routes agree far better than their error estimates
    assert rep.within_budget


def test_fdt_check_needs_symmetric_grid():
    with pytest.raises(ValueError, match="symmetric"):
        fdt_check(SinglePoleMirror(1.0), VacuumState(), FrequencyGrid(np.linspace(0.0, 3.0, 7)))


def test_noise_spectrum_grid_wraps_values():
    m = SinglePoleMirror(1.0)
    grid = FrequencyGrid.symmetric(2.0, 9)
    spec = noise_spectrum_grid(m, VacuumState(), grid)
    assert spec.values.shape == grid.omega.shape
    assert np.all(spec.values[grid.omega <= 0] == 0.0)
    assert spec.meta["label"] == "noise-spectrum"
