import warnings

import numpy as np
import pytest

from vacmirror import (
    CustomState,
    PhysicsContext,
    SingularFrequencyError,
    ThermalState,
    TwoTemperatureState,
    VacuumState,
)


def test_vacuum_covariance_values():
    vac = VacuumState()
    assert np.allclose(vac.cplus(2.0), 0.125 * np.eye(2))
    assert np.allclose(vac.cplus(-2.0), 0.125 * np.eye(2))
    assert np.allclose(vac.cfull(1.0), 0.5 * np.eye(2))
    assert np.allclose(vac.cfull(-1.0), np.zeros((2, 2)), atol=1e-15)


def test_commutator_part_is_universal():
    vac = VacuumState()
    th = ThermalState(3.0)
    assert np.allclose(vac.cminus(0.7), th.cminus(0.7))
    assert np.allclose(vac.cminus(-2.0), -np.eye(2) / 8.0)


def test_singular_at_zero_frequency():
    for state in (VacuumState(), ThermalState(1.0), TwoTemperatureState(1.0, 2.0)):
        with pytest.raises(SingularFrequencyError):
            state.cplus(0.0)
        with pytest.raises(SingularFrequencyError):
            state.cminus(0.0)


def test_thermal_occupancy():
    T = 0.8
    th = ThermalState(T)
    for w in (0.3, 1.0, 4.0):
        nbar = 1.0 / np.expm1(w / T)
        assert np.allclose(th.cplus(w), (1.0 + 2.0 * nbar) / (4.0 * w) * np.eye(2))


def test_thermal_cold_limit_is_vacuum():
    th = ThermalState(0.01)
    vac = VacuumState()
    assert np.allclose(th.cplus(1.0), vac.cplus(1.0), atol=1e-40)
    assert np.allclose(th.chi_weight(2.0), vac.chi_weight(2.0), atol=1e-40)


def test_thermal_detailed_balance():
    T = 0.7
    th = ThermalState(T)
    for w in (0.5, 1.0, 3.0):
        lhs = th.cfull(-w)
        rhs = np.exp(-w / T) * th.cfull(w)
        assert np.allclose(lhs, rhs, atol=1e-15)


def test_thermal_weights_continuous_at_zero():
    T = 1.3
    th = ThermalState(T)
    assert th.chi_weight(0.0) == T
    assert np.allclose(th.noise_weight(0.0), T / 2.0)
    # classical plateau: the limit is approached quadratically
    assert abs(th.chi_weight(1e-6) - T) < 1e-11
    assert abs(th.noise_weight(1e-6)[0] - T / 2.0) < 1e-6


def test_weights_absorb_frequency_squared():
    th = ThermalState(0.9)
    for nu in (0.4, 2.0, -1.7):
        u = nu * nu * np.trace(th.cplus(nu)).real
        assert np.isclose(th.chi_weight(nu), u, rtol=1e-13)
        w = nu * nu * np.diag(th.cfull(nu)).real
        assert np.allclose(th.noise_weight(nu), w, rtol=1e-13)


def test_vacuum_noise_weight_is_one_sided():
    vac = VacuumState()
    nu = np.array([-3.0, -1.0, 1.0, 3.0])
    w = vac.noise_weight(nu)
    assert w.shape == (4, 2)
    assert np.all(w[:2] == 0.0)
    assert np.allclose(w[2:], [[0.5, 0.5], [1.5, 1.5]])


def test_large_argument_guard_avoids_overflow():
    th = ThermalState(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = th.chi_weight(np.array([1e4]))
        c = th.cplus(1e4)
    assert np.isclose(u[0], 5e3)
    assert np.allclose(c, VacuumState().cplus(1e4))


def test_temperature_validation():
    with pytest.raises(ValueError):
        ThermalState(0.0)
    with pytest.raises(ValueError):
        ThermalState(-1.0)
    with pytest.raises(ValueError):
        TwoTemperatureState(1.0, 0.0)


def test_two_temperature_anisotropy():
    st = TwoTemperatureState(2.0, 0.5)
    c = st.cplus(1.0)
    assert c[0, 0].real > c[1, 1].real
    assert c[0, 1] == 0.0
    w = st.noise_weight(1.0)
    assert w[0] > w[1]
    # each component obeys detailed balance at its own temperature
    ratio = np.diag(st.cfull(-1.0)) / np.diag(st.cfull(1.0))
    assert np.allclose(ratio.real, [np.exp(-1.0 / 2.0), np.exp(-1.0 / 0.5)])


def test_two_temperature_reduces_to_thermal():
    st = TwoTemperatureState(1.1, 1.1)
    th = ThermalState(1.1)
    assert np.allclose(st.cplus(0.8), th.cplus(0.8))
    assert np.allclose(st.chi_weight(2.3), th.chi_weight(2.3))


def _constant(matrix):
    """An array rule returning the same 2x2 matrix at every frequency."""
    return lambda nu: np.broadcast_to(np.asarray(matrix, dtype=complex), np.shape(nu) + (2, 2))


def test_custom_state_reproduces_vacuum():
    hbar = PhysicsContext().hbar
    rule = lambda nu: np.eye(2) * (hbar / (4.0 * np.abs(nu)[..., None, None]))
    st = CustomState(rule, diagonal=True)
    vac = VacuumState()
    nu = np.array([-2.0, 0.5, 3.0])
    assert np.allclose(st.chi_weight(nu), vac.chi_weight(nu))
    assert np.allclose(st.noise_weight(nu), vac.noise_weight(nu), atol=1e-15)


def test_custom_state_calls_its_rule_once_per_array():
    calls = []

    def rule(nu):
        calls.append(np.shape(nu))
        return VacuumState().cplus(nu)

    st = CustomState(rule, probe_frequencies=(0.5, 2.0, 7.0))
    assert calls == [(2, 3)]  # every probe at both signs
    nu = np.array([[-2.0, 0.5, 3.0], [1.0, 4.0, -0.1]])
    assert np.array_equal(st.cplus(nu), VacuumState().cplus(nu))
    assert calls[1:] == [(2, 3)]


def test_custom_state_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        CustomState(_constant([[1.0, 1.0j], [1.0j, 1.0]]))


def test_custom_state_rejects_indefinite():
    with pytest.raises(ValueError, match="semidefinite"):
        CustomState(_constant(np.diag([1.0, -1.0])))


def test_custom_state_rejects_broken_reflection_rule():
    # Hermitian and PSD at every probe, but cplus(-w) != cplus(w)^T
    rule = lambda nu: np.eye(2) * (1.0 + np.tanh(nu))[..., None, None]
    with pytest.raises(ValueError, match=r"cplus\(-w\) != cplus\(w\)\^T at w = 0.1"):
        CustomState(rule)


def test_custom_state_rejects_false_diagonal_claim():
    rule = _constant([[2.0, 0.5], [0.5, 2.0]])
    with pytest.raises(ValueError, match="diagonal"):
        CustomState(rule, diagonal=True)
    CustomState(rule, diagonal=False)


def test_custom_state_rejects_wrong_shape():
    with pytest.raises(ValueError, match="2x2"):
        CustomState(lambda nu: np.broadcast_to(np.eye(3), np.shape(nu) + (3, 3)))
    # a rule of one frequency at a time is not an array rule
    with pytest.raises(ValueError, match=r"2x2 matrices, shape \(2, 4, 2, 2\); got \(2, 2\)"):
        CustomState(lambda nu: np.eye(2))


def test_context_scales_hbar():
    ctx = PhysicsContext(hbar=2.0)
    vac = VacuumState(context=ctx)
    assert np.allclose(vac.cplus(1.0), 0.5 * np.eye(2))
    assert vac.chi_weight(3.0) == 3.0
