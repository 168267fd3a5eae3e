import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vacmirror import (
    CustomState,
    FrequencyGrid,
    PerfectMirror,
    PhysicsContext,
    QuadratureConfig,
    SinglePoleMirror,
    TabulatedMirror,
    ThermalState,
    TwoTemperatureState,
    VacuumState,
    Mirror,
    alpha,
    alpha_beta,
    energy_exchange_kernel,
    force_kernel,
    mean_force,
    mean_force_integrand,
    unitarity_identities,
)
from vacmirror.core import ETA


def _non_unitary_table():
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 60.0, 601)
    return TabulatedMirror(om, m.s(om), 1.3 * m.r(om))


def test_alpha_single_pole_closed_form():
    oc = 1.7
    m = SinglePoleMirror(oc)
    rng = np.random.default_rng(7)
    w1 = rng.uniform(-10.0, 10.0, 50)
    w2 = rng.uniform(-10.0, 10.0, 50)
    expect = oc * (1j * (w1 + w2) - 2.0 * oc) / ((w1 + 1j * oc) * (w2 + 1j * oc))
    assert np.allclose(alpha(m, w1, w2), expect, atol=1e-14)


def test_alpha_symmetry_and_reality():
    m = SinglePoleMirror(2.0)
    assert np.isclose(alpha(m, 1.3, -4.0), alpha(m, -4.0, 1.3))
    # equal and opposite arguments give twice the reflection probability
    w = 0.9
    val = complex(alpha(m, w, -w))
    assert abs(val.imag) < 1e-15
    assert np.isclose(val.real, 2.0 * abs(m.r(w)) ** 2)


def test_beta_antisymmetry():
    m = SinglePoleMirror(0.6)
    rng = np.random.default_rng(11)
    w1 = rng.uniform(-5.0, 5.0, 40)
    w2 = rng.uniform(-5.0, 5.0, 40)
    assert np.allclose(alpha_beta(m, w1, w2)[1], -alpha_beta(m, w2, w1)[1], atol=1e-15)
    assert np.allclose(alpha_beta(m, w1, w1)[1], 0.0, atol=1e-15)


def test_force_kernel_structure():
    m = SinglePoleMirror(1.0)
    w1, w2 = 0.8, -2.5
    f = force_kernel(m, w1, w2)
    a = complex(alpha(m, w1, w2))
    b = complex(alpha_beta(m, w1, w2)[1])
    assert np.allclose(f, [[a, b], [-b, -a]], atol=1e-15)
    # exchange rules: transpose swaps arguments, eta conjugation negates both
    assert np.allclose(f.T, force_kernel(m, w2, w1), atol=1e-15)
    assert np.allclose(ETA @ f @ ETA, force_kernel(m, w2, w1), atol=1e-15)
    assert np.allclose(f.conj().T, force_kernel(m, -w2, -w1), atol=1e-15)


def test_force_kernel_matches_the_scattering_product():
    # F = eta - S(w') eta S(w) from the S-matrices, over broadcast arrays
    m = SinglePoleMirror(1.3)
    rng = np.random.default_rng(5)
    w1 = rng.uniform(-6.0, 6.0, (4, 1))
    w2 = rng.uniform(-6.0, 6.0, 5)
    expect = ETA - m.smatrix(w2) @ ETA @ m.smatrix(w1)
    assert force_kernel(m, w1, w2).shape == (4, 5, 2, 2)
    assert np.allclose(force_kernel(m, w1, w2), expect, rtol=0.0, atol=1e-15)


def test_alpha_beta_evaluates_each_amplitude_once_per_argument():
    calls = []
    inner = SinglePoleMirror(0.8)

    class Counting(Mirror):
        def amplitudes(self, omega):
            calls.append(omega)
            return inner.amplitudes(omega)

    w1, w2 = np.array([0.3, -1.1]), np.array([2.0, 0.7])
    a, b = alpha_beta(Counting(), w1, w2)
    assert len(calls) == 2
    assert np.array_equal(a, alpha(inner, w1, w2))
    assert np.array_equal(b, inner.s(w1) * inner.r(w2) - inner.r(w1) * inner.s(w2))
    calls.clear()
    assert np.array_equal(alpha(Counting(), w1, w2), a)
    assert len(calls) == 2
    calls.clear()
    assert np.array_equal(Counting().smatrix(w1), inner.smatrix(w1))
    assert len(calls) == 1


def test_s_and_r_only_model_evaluates_each_once_per_argument():
    # a model implementing s and r gets amplitudes from the base class
    calls = []
    inner = SinglePoleMirror(0.8)

    class Counting(Mirror):
        def s(self, omega):
            calls.append("s")
            return inner.s(omega)

        def r(self, omega):
            calls.append("r")
            return inner.r(omega)

    w1, w2 = np.array([0.3, -1.1]), np.array([2.0, 0.7])
    a, b = alpha_beta(Counting(), w1, w2)
    assert sorted(calls) == ["r", "r", "s", "s"]
    assert np.array_equal(a, alpha(inner, w1, w2))
    assert np.array_equal(b, alpha_beta(inner, w1, w2)[1])


def test_force_kernel_perfect_mirror():
    f = force_kernel(PerfectMirror(), 3.0, -7.0)
    assert np.allclose(f, 2.0 * ETA)


def test_unitarity_identities_hold_for_unitary_models():
    rng = np.random.default_rng(42)
    pairs = rng.uniform(-20.0, 20.0, (1000, 2))
    for m in (SinglePoleMirror(1.0), SinglePoleMirror(30.0), PerfectMirror()):
        res_a, res_b = unitarity_identities(m, pairs[:, 0], pairs[:, 1])
        assert res_a.shape == res_b.shape == (1000,)
        assert max(res_a.max(), res_b.max()) <= 1e-12


def test_unitarity_identities_flag_broken_model():
    tab = _non_unitary_table()
    res_a, res_b = unitarity_identities(tab, 0.5, 1.5)
    assert max(res_a, res_b) > 0.1


def test_energy_exchange_vanishes():
    for m in (SinglePoleMirror(0.3), SinglePoleMirror(100.0), PerfectMirror()):
        for w in (0.1, 1.0, 25.0):
            assert np.max(np.abs(energy_exchange_kernel(m, w))) <= 1e-15


def test_mean_force_zero_for_isotropic_states():
    m = SinglePoleMirror(1.0)
    grid = FrequencyGrid.symmetric(40.0, 2001)
    for state in (VacuumState(), ThermalState(2.0)):
        vals = np.asarray(mean_force_integrand(m, state, grid.omega))
        assert np.all(vals == 0.0)
        assert mean_force(m, state) == (0.0, 0.0)


def test_mean_force_pushes_toward_colder_side():
    m = SinglePoleMirror(1.0)
    hot_left = TwoTemperatureState(2.0, 0.5)
    hot_right = TwoTemperatureState(0.5, 2.0)
    f, err = mean_force(m, hot_left)
    assert f > 0.0
    assert mean_force(m, hot_right) == (-f, err)


def test_mean_force_routes_agree():
    # the diagonal fast path must match the explicit kernel trace
    m = SinglePoleMirror(1.0)
    state = TwoTemperatureState(2.0, 0.5)
    slow = CustomState(state.cplus, diagonal=False)
    # the explicit route evaluates cplus itself, so keep 0 off the grid
    grid = FrequencyGrid(np.linspace(-59.99, 60.01, 3001))
    fast_vals = np.asarray(mean_force_integrand(m, state, grid.omega))
    slow_vals = np.asarray(mean_force_integrand(m, slow, grid.omega))
    assert np.allclose(fast_vals, slow_vals.real, atol=1e-13)
    # a custom state has no decay scale, so it needs an explicit window
    with pytest.raises(ValueError, match="window"):
        mean_force(m, slow)
    slow_force = mean_force(m, slow, QuadratureConfig(window=60.0))[0]
    assert np.isclose(mean_force(m, state)[0], slow_force, rtol=1e-10)


# T / (hbar Omega) up to 1e3.  Beyond a few 1e3 the error estimate can miss
# the rounding of alpha(w, -w) = 1 - |s|^2 + |r|^2, which cancels to
# 2 Omega^2 / w^2 at the thermal frequencies; the value stays within 1e-10
# (the wide-window test below)
@settings(max_examples=40, deadline=None)
@given(
    log_phi=st.floats(-2.0, 1.0),
    log_psi=st.floats(-2.0, 1.0),
    log_omega_c=st.floats(-1.0, 1.0),
    log_hbar=st.floats(-1.0, 1.0),
)
def test_mean_force_single_pole_matches_binet(log_phi, log_psi, log_omega_c, log_hbar):
    temp_phi, temp_psi, omega_c, hbar = 10.0 ** np.array([log_phi, log_psi, log_omega_c, log_hbar])
    state = TwoTemperatureState(temp_phi, temp_psi, PhysicsContext(hbar))
    got, err = mean_force(SinglePoleMirror(omega_c), state)
    ref = oracles.mean_force_single_pole(temp_phi, temp_psi, omega_c, hbar)
    # at T_phi ~ T_psi the force cancels between the two sides' pressures,
    # each known to rounding, so the larger of them sets the scale
    scale = max(abs(ref), oracles.one_sided_force_single_pole(max(temp_phi, temp_psi), omega_c, hbar))
    assert abs(got - ref) <= 1e-10 * scale
    assert abs(got - ref) <= err + 4 * np.spacing(scale)


@pytest.mark.parametrize("temp_phi, temp_psi", [(1e3, 1.0), (1e5, 1e4)])
def test_mean_force_single_pole_matches_binet_in_wide_windows(temp_phi, temp_psi):
    # thermal windows of 46 T / hbar up to 4.6e6 Omega wide
    got = mean_force(SinglePoleMirror(1.0), TwoTemperatureState(temp_phi, temp_psi))[0]
    ref = oracles.mean_force_single_pole(temp_phi, temp_psi, 1.0)
    assert abs(got - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("temp_phi, temp_psi, hbar", [(2.0, 0.5, 1.0), (0.3, 7.0, 0.5), (1e3, 1.0, 2.0)])
def test_mean_force_perfect_mirror_is_stefan_boltzmann(temp_phi, temp_psi, hbar):
    # the vacuum parts cancel in the integrand, which then decays thermally
    # although the perfect mirror is not transparent
    state = TwoTemperatureState(temp_phi, temp_psi, PhysicsContext(hbar))
    got, err = mean_force(PerfectMirror(), state)
    ref = oracles.mean_force_perfect(temp_phi, temp_psi, hbar)
    assert abs(got - ref) <= 1e-10 * abs(ref)
    assert abs(got - ref) <= err + 4 * np.spacing(abs(ref))
