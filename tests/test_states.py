import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import vacmirror.states
from vacmirror import (
    CustomState,
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
    assert np.allclose(th.excess(2.0), vac.excess(2.0), atol=1e-40)


def test_thermal_detailed_balance():
    T = 0.7
    th = ThermalState(T)
    for w in (0.5, 1.0, 3.0):
        lhs = th.cfull(-w)
        rhs = np.exp(-w / T) * th.cfull(w)
        assert np.allclose(lhs, rhs, atol=1e-15)
    # relative, out to hbar w/T = 700 where the occupancy is ~1e-304; with
    # hbar/T = 4 a power of two, hbar w/T is exact and only cfull's own
    # rounding shows
    th = ThermalState(0.5, 2.0)
    w = np.linspace(0.25, 175.0, 700)
    lhs = np.diagonal(th.cfull(-w), axis1=-2, axis2=-1)
    rhs = np.exp(-4.0 * w)[:, None] * np.diagonal(th.cfull(w), axis1=-2, axis2=-1)
    assert np.all(lhs > 0.0)
    assert np.allclose(lhs, rhs, rtol=1e-14, atol=0.0)
    # each component of cfull(-w) = hbar nbar(w) / (2w) against the Bose form
    for state, temps in ((th, (0.5, 0.5)), (TwoTemperatureState(2.0, 0.5), (2.0, 0.5))):
        y = np.concatenate([10.0 ** np.linspace(-8.0, 2.0, 41), np.linspace(100.0, 700.0, 25)])
        w = y * min(temps) / state.hbar  # hbar w/T of the colder component in [1e-8, 700]
        c = state.cfull(-w)
        for k, t in enumerate(temps):
            for wj, cj in zip(w.tolist(), c[:, k, k].tolist()):
                with mpmath.workdps(30):
                    ref = oracles.bose_weights_mp(-wj, t, state.hbar)[1] / mpmath.mpf(wj) ** 2
                    assert abs(cj - ref) <= 1e-14 * ref, (k, wj, cj, ref)


def test_thermal_weights_continuous_at_zero():
    T = 1.3
    th = ThermalState(T)
    assert th.excess(0.0) == (T / 2.0, T / 2.0)
    assert th.noise_weight(0.0) == (T / 2.0, T / 2.0)
    # classical plateau: the excess leaves it linearly, E ~ T/2 - hbar|v|/4
    assert abs(th.excess(1e-6)[0] - (T / 2.0 - 1e-6 / 4.0)) < 1e-12
    assert abs(th.noise_weight(1e-6)[0] - T / 2.0) < 1e-6


def test_weights_absorb_frequency_squared():
    th = ThermalState(0.9)
    for nu in (0.4, 2.0, -1.7):
        e = nu * nu * np.diag(th.cplus(nu)).real - abs(nu) / 4.0
        assert np.allclose(th.excess(nu), e, rtol=1e-13)
        w = nu * nu * np.diag(th.cfull(nu)).real
        assert np.allclose(th.noise_weight(nu), w, rtol=1e-13)


def test_vacuum_noise_weight_is_one_sided():
    vac = VacuumState()
    nu = np.array([-3.0, -1.0, 1.0, 3.0])
    w = vac.noise_weight(nu)
    assert len(w) == 2 and all(np.shape(c) == (4,) for c in w)
    assert np.all(np.array(w)[:, :2] == 0.0)
    assert np.allclose(np.array(w)[:, 2:], [[0.5, 1.5], [0.5, 1.5]])


def test_large_argument_guard_avoids_overflow():
    th = ThermalState(1.0)
    x = np.array([700.0, 709.5, 710.0, 1e4, 1e300])  # hbar|v|/T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = th.excess(np.array([1e4]))[0]
        c = th.cplus(1e4)
        e_both = th.excess(np.array([x, -x]))[0]
        w_up, w_down = th.noise_weight(np.array([x, -x]))[0]
        c_both = th.cplus(np.array([x, -x]))
    assert np.all(e == 0.0)
    assert np.allclose(c, VacuumState().cplus(1e4))
    for values in (e_both, w_up, w_down, c_both):
        assert np.all(np.isfinite(values))
    # the occupancy has decayed: E >= 0, exactly 0 once e^{hbar|v|/T} overflows
    assert np.all(e_both >= 0.0)
    assert np.all(e_both[:, x >= 710.0] == 0.0)
    assert np.array_equal(w_down, e_both[1])
    assert np.allclose(w_up, x / 2.0, rtol=1e-15, atol=0.0)
    assert np.allclose(c_both, VacuumState().cplus(np.array([x, -x])), rtol=1e-15, atol=0.0)


def test_excess_decays_where_its_argument_overflows():
    # hbar|v|/T past the largest double: inf / inf would be NaN, with numpy's
    # invalid-value warning; a subnormal temperature overflows hbar/T itself
    for temp in (1e-300, 5e-320):
        th = ThermalState(temp)
        e = th.excess(np.array([0.0, -1e10, 1e10, 1e-300]))
        for values in e:
            assert values[0] == temp / 2.0
            assert values[1] == values[2] == 0.0 and not np.signbit(values[1])
            assert 0.0 <= values[3] <= temp / 2.0


_POWER_OF_TWO = st.integers(-20, 20).map(lambda k: 2.0**k)


@settings(max_examples=200, deadline=None)
@given(
    log_x=st.floats(-10.0, math.log10(700.0)),
    temp=_POWER_OF_TWO,
    hbar=_POWER_OF_TWO,
    psi_ratio=st.integers(-6, 6).map(lambda k: 2.0**k),
    two_temperature=st.booleans(),
)
def test_thermal_weights_match_the_bose_forms(log_x, temp, hbar, psi_ratio, two_temperature):
    # W(-v) ~ z e^-z turns a rounding of z = hbar v/T into a relative error
    # z times larger, so T and hbar are powers of two: z is then exact, and
    # only the weights' own error shows
    if two_temperature:
        temps = (temp, temp * psi_ratio)
        state = TwoTemperatureState(*temps, hbar)
    else:
        temps = (temp, temp)
        state = ThermalState(temp, hbar)
    v = 10.0**log_x * temp / hbar  # hbar v/T log-uniform in [1e-10, 700]
    e = np.array(state.excess(np.array([v, -v])))  # [component, sign]
    w = np.array(state.noise_weight(np.array([v, -v])))  # [component, sign]
    # below the smallest normal double, only the absolute error counts
    tiny = np.finfo(float).tiny
    refs = [[oracles.bose_weights_mp(f, t, hbar) for f in (v, -v)] for t in temps]
    for c, t in enumerate(temps):
        assert e[c, 0] == e[c, 1]
        e_ref = float(refs[c][0][0])
        assert abs(e[c, 0] - e_ref) <= 2e-15 * e_ref + tiny, (c, e[c, 0], e_ref)
        for k in range(2):
            w_ref = float(refs[c][k][1])
            assert abs(w[c, k] - w_ref) <= 2e-15 * w_ref + tiny, (c, k, w[c, k], w_ref)
        # the universal commutator part, and detailed balance at the
        # component's own temperature
        assert abs(w[c, 0] - w[c, 1] - hbar * v / 2.0) <= 4e-15 * w[c, 0]
        assert abs(w[c, 1] - math.exp(-hbar * v / t) * w[c, 0]) <= 5e-15 * w[c, 1] + tiny
        # below zero the noise weight is the excess alone
        assert w[c, 1] == e[c, 1]


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
    assert np.allclose(st.excess(2.3), th.excess(2.3))


def _constant(matrix):
    """An array rule returning the same 2x2 matrix at every frequency."""
    return lambda nu: np.broadcast_to(np.asarray(matrix, dtype=complex), np.shape(nu) + (2, 2))


def test_custom_state_reproduces_vacuum():
    hbar = VacuumState().hbar
    rule = lambda nu: np.eye(2) * (hbar / (4.0 * np.abs(nu)[..., None, None]))
    st = CustomState(rule, diagonal=True)
    vac = VacuumState()
    nu = np.array([-2.0, 0.5, 3.0])
    assert np.allclose(st.excess(nu), 0.0, atol=1e-15)
    assert np.allclose(st.noise_weight(nu), vac.noise_weight(nu), atol=1e-15)


def test_custom_state_calls_its_rule_once_per_array():
    calls = []

    def rule(nu):
        calls.append(np.shape(nu))
        return VacuumState().cplus(nu)

    st = CustomState(rule)
    assert calls == [(2, 4)]  # every probe at both signs
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


def test_vacuum_scales_with_hbar():
    vac = VacuumState(hbar=2.0)
    assert np.allclose(vac.cplus(1.0), 0.5 * np.eye(2))
    assert vac.excess(3.0) == (0.0, 0.0)
    assert np.array_equal(vac.noise_weight([-3.0, 3.0]), [[0.0, 3.0], [0.0, 3.0]])


BUILT_IN = {
    "vacuum": VacuumState(0.7),
    "thermal": ThermalState(1.3, 0.7),
    "two-temperature": TwoTemperatureState(2.0, 0.5, 0.7),
}


@pytest.mark.parametrize(
    "state, method, nu",
    [
        (ThermalState(1.0), "cplus", 1e-200),
        (VacuumState(), "cplus", 1e-320),
        (TwoTemperatureState(2.0, 0.5), "cfull", 1e-200),
    ]
    + [(state, "cminus", 1e-320) for state in BUILT_IN.values()],
    ids=["thermal-cplus", "vacuum-cplus", "two-temperature-cfull"] + [f"{k}-cminus" for k in BUILT_IN],
)
def test_overflowing_diagonal_keeps_exact_zeros_off_it(state, method, nu):
    # the diagonal overflows to inf, numpy's overflow is expected; an
    # inf * 0 off the diagonal would raise here as an invalid value
    with np.errstate(over="ignore"):
        c = getattr(state, method)(np.array([nu, 2.0]))[0]
    assert c[0, 0] == c[1, 1] == np.inf
    assert c[0, 1] == c[1, 0] == 0.0 and not np.signbit(c[0, 1]) and not np.signbit(c[1, 0])


@pytest.mark.parametrize("state", BUILT_IN.values(), ids=BUILT_IN)
def test_one_pass_diagonal_is_the_excess_formula_bitwise(state):
    rng = np.random.default_rng(3)
    nu = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-4.0, 4.0, 400)
    phi, psi = state.excess(nu)
    hbar = state.hbar
    for e, k in ((phi, 0), (psi, 1)):
        ref = hbar / (4.0 * np.abs(nu)) + e / nu / nu
        assert state.cplus(nu)[:, k, k].tobytes() == ref.tobytes()
        # the vacuum part of cfull is one-sided: hbar/(2v) above zero, exactly 0 below
        ref = np.maximum(hbar / (2.0 * nu), 0.0) + e / nu / nu
        assert state.cfull(nu)[:, k, k].tobytes() == ref.tobytes()
    for method in (state.cplus, state.cfull):
        c = method(nu)
        assert c[:, 0, 1].tobytes() == c[:, 1, 0].tobytes() == np.zeros(nu.size).tobytes()


@pytest.mark.parametrize("nu", [1e-320, -1e-320, 1e-310, -1e-310])
@pytest.mark.parametrize("state", BUILT_IN.values(), ids=BUILT_IN)
def test_cfull_has_no_nan_at_the_smallest_frequencies(state, nu):
    # hbar/(2v) or E/v^2 overflows to inf, numpy's overflow is expected; no
    # inf may meet another of opposite sign
    with np.errstate(over="ignore"):
        c = state.cfull(np.array([nu, 2.0]))[0]
    if isinstance(state, VacuumState) and nu < 0:
        # the vacuum has no excitation to give below zero
        assert c[0, 0] == c[1, 1] == 0.0 and not np.signbit(c[0, 0]) and not np.signbit(c[1, 1])
    else:
        # hbar/(2v) above zero, and the thermal excess E -> T/2 over v^2 at
        # either sign, overflow
        assert c[0, 0] == c[1, 1] == np.inf
    assert c[0, 1] == c[1, 0] == 0.0 and not np.signbit(c[0, 1]) and not np.signbit(c[1, 0])


@pytest.mark.parametrize("method", ["cplus", "cfull"])
@pytest.mark.parametrize("state", BUILT_IN.values(), ids=BUILT_IN)
def test_covariance_checks_and_weighs_its_frequencies_once(monkeypatch, state, method):
    checks, weighs = [], []
    nonzero, excess = vacmirror.states._nonzero, type(state).excess
    monkeypatch.setattr(vacmirror.states, "_nonzero", lambda omega, what: checks.append(what) or nonzero(omega, what))
    monkeypatch.setattr(type(state), "excess", lambda self, nu: weighs.append(nu) or excess(self, nu))
    for omega in (0.7, np.array([1.5, -0.4, 2.0])):
        checks.clear()
        weighs.clear()
        getattr(state, method)(omega)
        assert checks == [method]
        # the vacuum has no excess to read
        assert len(weighs) == (0 if isinstance(state, VacuumState) else 1)
