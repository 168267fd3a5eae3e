import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from vacmirror import (
    CustomState,
    FrequencyGrid,
    PerfectMirror,
    QuadratureConfig,
    SinglePoleMirror,
    ThermalState,
    TwoTemperatureState,
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
from vacmirror.cli import main
from vacmirror.fluctuations import _real
from test_convolution import _correlated_rule


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
    hbar = vac.hbar
    for w in (0.4, 1.0, 2.5):
        c = noise_spectrum(m, vac, w)
        x = xi_spectrum(m, vac, w)
        assert abs(c - 2.0 * hbar * x) <= 1e-10 * abs(c)


def test_real_part_raises_on_an_imaginary_residue_naming_its_frequency():
    values = np.array([1.0 + 0.0j, 2.0 + 1e-12j, 1.0 + 0.5j])
    assert np.array_equal(_real(values[:2], [1.0, 2.0], "noise"), [1.0, 2.0])
    with pytest.raises(ValueError, match=r"noise at w=3 has imaginary residue 5\.000e-01"):
        _real(values, [1.0, 2.0, 3.0], "noise")


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


def _thermal_correlated_rule(nu):
    # thermal diagonal plus a real, symmetric, decaying cross-correlation
    # bounded by the geometric mean of the diagonal, so cplus stays PSD
    c = ThermalState(1.0).cplus(nu)
    off = 0.2 * np.exp(-nu * nu) * np.sqrt(c[..., 0, 0].real * c[..., 1, 1].real)
    return c + off[..., None, None] * (1.0 - np.eye(2))


@pytest.mark.parametrize(
    "rule, window",
    [(_correlated_rule, 10.0), (_thermal_correlated_rule, 60.0)],
    ids=["vacuum-correlated", "thermal-correlated"],
)
def test_fdt_check_correlated_state(rule, window):
    # a non-diagonal state runs every route through the general matrix traces
    state = CustomState(rule)
    rep = fdt_check(SinglePoleMirror(1.0), state, FrequencyGrid.symmetric(3.0, 13), QuadratureConfig(window=window))
    assert rep.peak > 0.0
    assert rep.relative_deviation <= 1e-8, rep.relative_deviation


_LOG_DECADE = st.floats(-1.0, 1.0).map(lambda x: 10.0**x)  # log-uniform on [0.1, 10]


@settings(max_examples=60, deadline=None)
@given(
    two_temperature=st.booleans(),
    omega_c=_LOG_DECADE,
    hbar=_LOG_DECADE,
    temp_phi=_LOG_DECADE,
    temp_psi=_LOG_DECADE,
)
def test_fdt_holds_across_parameters(two_temperature, omega_c, hbar, temp_phi, temp_psi):
    # the three routes convolve three different kernels, each over the half
    # support below w/2
    state = TwoTemperatureState(temp_phi, temp_psi, hbar) if two_temperature else ThermalState(temp_phi, hbar)
    rep = fdt_check(SinglePoleMirror(omega_c), state, FrequencyGrid.symmetric(5.0, 11))
    assert rep.passes(1e-8), rep.relative_deviation


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


@pytest.mark.parametrize(
    "state, flags",
    [
        (VacuumState(), []),
        (TwoTemperatureState(2.0, 0.5), ["--state", "two-temperature", "--temp-phi", "2", "--temp-psi", "0.5"]),
    ],
    ids=["vacuum", "two-temperature"],
)
def test_fdt_check_takes_a_one_sided_grid(state, flags, tmp_path):
    # route (b) reads C_FF(-w) off the sign closure, so w >= 0 alone suffices
    m = SinglePoleMirror(1.0)
    rep = fdt_check(m, state, FrequencyGrid(np.linspace(0.0, 3.0, 7)))
    assert rep.passes(1e-8), rep.relative_deviation
    full = fdt_check(m, state, FrequencyGrid.symmetric(3.0, 13))
    assert np.allclose(full.grid.omega[6:], rep.grid.omega, rtol=0.0, atol=1e-15)
    budget = max(rep.error_budget, full.error_budget)
    for route in ("xi_commutator", "xi_noise", "xi_chi"):
        assert np.max(np.abs(getattr(rep, route) - getattr(full, route)[6:])) <= budget, route
    assert main(["fdt", "--grid", "0:3:7", *flags, "--out", str(tmp_path / "fdt.csv")]) == 0


def test_noise_spectrum_grid_wraps_values():
    m = SinglePoleMirror(1.0)
    grid = FrequencyGrid.symmetric(2.0, 9)
    spec = noise_spectrum_grid(m, VacuumState(), grid)
    assert spec.values.shape == grid.omega.shape
    assert np.all(spec.values[grid.omega <= 0] == 0.0)
    assert spec.meta["label"] == "noise-spectrum"


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


@settings(max_examples=100, deadline=None)
@given(
    omega_c=_log_uniform(1e-2, 1e2),
    hbar=_log_uniform(1e-3, 1e3),
    x=st.lists(st.tuples(_log_uniform(1e-2, 50.0), st.sampled_from([-1.0, 1.0])), min_size=1, max_size=4),
)
def test_vacuum_spectra_follow_the_scaling_law(omega_c, hbar, x):
    # the single pole has one scale: chi(w; Omega, hbar) = hbar Omega^3 chi(w/Omega; 1, 1)
    # and C_FF(w; Omega, hbar) = hbar^2 Omega^3 C_FF(w/Omega; 1, 1), zero for w <= 0
    u = np.array([size * sign for size, sign in x])
    w = u * omega_c
    model, unit, vac = SinglePoleMirror(omega_c), SinglePoleMirror(1.0), VacuumState()
    state = VacuumState(hbar)
    chi_ref = hbar * omega_c**3 * susceptibility(unit, vac, u)
    assert np.all(np.abs(susceptibility(model, state, w) - chi_ref) <= 1e-13 * np.abs(chi_ref))
    cff, cff_ref = noise_spectrum(model, state, w), hbar**2 * omega_c**3 * noise_spectrum(unit, vac, u)
    assert np.all(cff[w <= 0] == 0.0) and np.all(cff_ref[w <= 0] == 0.0)
    assert np.all(np.abs(cff - cff_ref) <= 1e-13 * cff_ref)


@settings(max_examples=100, deadline=None)
@given(
    omega_c=_log_uniform(1e-6, 1e2),
    hbar=_log_uniform(1e-3, 1e3),
    theta=_log_uniform(1e-2, 1e8),
    psi_ratio=st.none() | _log_uniform(0.1, 10.0),
    x=st.lists(st.tuples(_log_uniform(1e-2, 50.0), st.sampled_from([-1.0, 1.0])), min_size=1, max_size=4),
)
# the corner where a noise tolerance floor on the scale of chi, not hbar times it, gave 6.5e-9
@example(omega_c=1e-2, hbar=1e-3, theta=1e-2, psi_ratio=None, x=[(50.0, 1.0)])
def test_thermal_spectra_follow_the_scaling_law(omega_c, hbar, theta, psi_ratio, x):
    # with theta = T/(hbar Omega) for each component, chi(w; Omega, hbar, T) =
    # hbar Omega^3 chi(w/Omega; 1, 1, theta) and C_FF = hbar^2 Omega^3 C_FF(w/Omega; 1, 1, theta)
    thetas = (theta,) if psi_ratio is None else (theta, theta * psi_ratio)
    make = ThermalState if psi_ratio is None else TwoTemperatureState
    u = np.array([size * sign for size, sign in x])
    w = u * omega_c
    model, state = SinglePoleMirror(omega_c), make(*[t * hbar * omega_c for t in thetas], hbar)
    unit, unit_state = SinglePoleMirror(1.0), make(*thetas)
    chi_ref = hbar * omega_c**3 * susceptibility(unit, unit_state, u)
    assert np.all(np.abs(susceptibility(model, state, w) - chi_ref) <= 1e-11 * np.abs(chi_ref))
    # C_FF(-w) = e^{-hbar w/T} C_FF(w) has the digits of C_FF(w), not its own: a call takes both
    u, w = np.concatenate([u, -u]), np.concatenate([w, -w])
    cff, cff_ref = noise_spectrum(model, state, w), hbar**2 * omega_c**3 * noise_spectrum(unit, unit_state, u)
    assert np.all(np.abs(cff - cff_ref) <= 1e-9 * np.max(cff_ref))
