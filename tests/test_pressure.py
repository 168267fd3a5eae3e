import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vacmirror import (
    CustomState,
    FrequencyGrid,
    PerfectMirror,
    QuadratureConfig,
    SinglePoleMirror,
    TabulatedMirror,
    ThermalState,
    TwoTemperatureState,
    VacuumState,
    Mirror,
    alpha_beta,
    energy_exchange_kernel,
    force_kernel,
    mean_force,
    mean_force_integrand,
    unitarity_identities,
)
from vacmirror.core import ETA, dagger


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
    assert np.allclose(alpha_beta(m, w1, w2)[0], expect, atol=1e-14)


def test_alpha_symmetry_and_reality():
    m = SinglePoleMirror(2.0)
    assert np.isclose(alpha_beta(m, 1.3, -4.0)[0], alpha_beta(m, -4.0, 1.3)[0])
    # equal and opposite arguments give twice the reflection probability
    w = 0.9
    val = complex(alpha_beta(m, w, -w)[0])
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
    a = complex(alpha_beta(m, w1, w2)[0])
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


def test_alpha_beta_evaluates_amplitudes_once_on_both_arguments():
    calls = []
    inner = SinglePoleMirror(0.8)

    class Counting(Mirror):
        def amplitudes(self, omega):
            calls.append(omega)
            return inner.amplitudes(omega)

    w1, w2 = np.array([0.3, -1.1]), np.array([2.0, 0.7])
    a, b = alpha_beta(Counting(), w1, w2)
    # one call, on the two arguments stacked
    assert len(calls) == 1 and np.array_equal(calls[0], [w1, w2])
    # the sigma forms, sigma = s - 1, of 1 - s s' + r r' and s r' - r s'
    sigma, r = inner.amplitudes(np.array([w1, w2]))
    assert np.array_equal(a, r[0] * r[1] - sigma[0] * sigma[1] - (sigma[0] + sigma[1]))
    assert np.array_equal(b, (r[1] - r[0]) + (sigma[0] * r[1] - r[0] * sigma[1]))
    assert np.array_equal(a, alpha_beta(inner, w1, w2)[0])
    assert np.allclose(b, inner.s(w1) * inner.r(w2) - inner.r(w1) * inner.s(w2), rtol=0.0, atol=1e-15)
    calls.clear()
    assert np.array_equal(alpha_beta(Counting(), w1, w2)[0], a)
    assert len(calls) == 1 and np.array_equal(calls[0], [w1, w2])
    calls.clear()
    assert np.array_equal(Counting().smatrix(w1), inner.smatrix(w1))
    assert len(calls) == 1


def test_s_and_r_only_model_evaluates_each_once_on_both_arguments():
    # a model implementing s and r gets amplitudes from the base class
    calls = []
    inner = SinglePoleMirror(0.8)

    class Counting(Mirror):
        def s(self, omega):
            calls.append(("s", np.shape(omega)))
            return inner.s(omega)

        def r(self, omega):
            calls.append(("r", np.shape(omega)))
            return inner.r(omega)

    w1, w2 = np.array([0.3, -1.1]), np.array([2.0, 0.7])
    a, b = alpha_beta(Counting(), w1, w2)
    assert sorted(calls) == [("r", (2, 2)), ("s", (2, 2))]
    # the fallback's pair is (s - 1, r), in the sigma forms
    sigma, r = inner.s(np.array([w1, w2])) - 1.0, inner.r(np.array([w1, w2]))
    assert np.array_equal(a, r[0] * r[1] - sigma[0] * sigma[1] - (sigma[0] + sigma[1]))
    assert np.array_equal(b, (r[1] - r[0]) + (sigma[0] * r[1] - r[0] * sigma[1]))


class _TwoArrays(Mirror):
    """A single pole whose (s - 1, r) are two arrays, so the kernels take the general formula."""

    def __init__(self, inner):
        self.inner = inner

    def amplitudes(self, omega):
        sigma, r = self.inner.amplitudes(omega)
        return r.copy(), r


def test_single_pole_skips_only_exact_zeros():
    rng = np.random.default_rng(11)
    omega_c = 10.0 ** rng.uniform(-2.0, 2.0, 200)
    # |w| / Omega from 1e-3 to 1e4, either sign
    w1, w2 = omega_c * rng.choice([-1.0, 1.0], (2, 200)) * 10.0 ** rng.uniform(-3.0, 4.0, (2, 200))
    models = [SinglePoleMirror(oc) for oc in omega_c]
    sigma, r = models[0].amplitudes(np.array([w1[0], w2[0]]))
    assert sigma is r  # s - 1 = r exactly: the shortcut is taken
    for k, model in enumerate(models):
        for got, ref in zip(alpha_beta(model, w1[k], w2[k]), alpha_beta(_TwoArrays(model), w1[k], w2[k])):
            assert got.tobytes() == ref.tobytes(), (omega_c[k], w1[k], w2[k])
    model = SinglePoleMirror(1.7)
    for got, ref in zip(alpha_beta(model, w1, w2), alpha_beta(_TwoArrays(model), w1, w2)):
        assert got.tobytes() == ref.tobytes()
    assert force_kernel(model, w1, w2).tobytes() == force_kernel(_TwoArrays(model), w1, w2).tobytes()
    # a table's two amplitudes are distinct arrays: the general formula
    table = _non_unitary_table()
    w1, w2 = rng.uniform(-50.0, 50.0, (2, 100))
    sigma, r = table.amplitudes(np.array([w1, w2]))
    assert sigma is not r
    a, b = alpha_beta(table, w1, w2)
    assert np.array_equal(a, r[0] * r[1] - sigma[0] * sigma[1] - (sigma[0] + sigma[1]))
    assert np.array_equal(b, (r[1] - r[0]) + (sigma[0] * r[1] - r[0] * sigma[1]))


@pytest.mark.parametrize("decade", range(-2, 6))
def test_alpha_beta_single_pole_match_40_digits(decade):
    # far out, 1 - s s' + r r' cancels to ~2 Omega^2 / w'^2; the (s - 1, r)
    # forms keep their digits.  200 pairs (w', w - w') per decade of |w'| / Omega
    rng = np.random.default_rng(decade + 2)
    omega_c = 10.0 ** rng.uniform(-2.0, 2.0, 200)
    w = omega_c * rng.uniform(-50.0, 50.0, 200)
    w1 = omega_c * rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(decade, decade + 1, 200)
    w2 = w - w1
    bound = 1e-12 if decade < 4 else 1e-9
    for k in range(200):
        got = alpha_beta(SinglePoleMirror(omega_c[k]), w1[k], w2[k])
        for value, ref in zip(got, oracles.alpha_beta_single_pole_mp(w1[k], w2[k], omega_c[k])):
            assert abs(value - ref) <= bound * abs(ref), (omega_c[k], w1[k], w2[k], value, ref)


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


@settings(max_examples=100, deadline=None)
@given(log_omega_c=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_kernel_identities_hold_at_any_cutoff(log_omega_c, seed):
    # the acceptance suite's 1e-12 at Omega = 1, here over four decades of
    # Omega and 64 pairs in +/- 50 Omega per draw
    omega_c = 10.0**log_omega_c
    m = SinglePoleMirror(omega_c)
    w1, w2 = np.random.default_rng(seed).uniform(-50.0 * omega_c, 50.0 * omega_c, (2, 64))
    res_a, res_b = unitarity_identities(m, w1, w2)
    assert max(res_a.max(), res_b.max()) <= 1e-12
    assert np.max(np.abs(energy_exchange_kernel(m, np.concatenate([w1, w2])))) <= 1e-12
    f, swapped = force_kernel(m, w1, w2), force_kernel(m, w2, w1)
    assert np.max(np.abs(f.mT - swapped)) <= 1e-12
    assert np.max(np.abs(ETA @ f @ ETA - swapped)) <= 1e-12
    assert np.max(np.abs(dagger(f) - force_kernel(m, -w2, -w1))) <= 1e-12


def test_unitarity_identities_flag_broken_model():
    tab = _non_unitary_table()
    res_a, res_b = unitarity_identities(tab, 0.5, 1.5)
    assert max(res_a, res_b) > 0.1


def test_energy_exchange_vanishes():
    for m in (SinglePoleMirror(0.3), SinglePoleMirror(100.0), PerfectMirror()):
        for w in (0.1, 1.0, 25.0):
            assert np.max(np.abs(energy_exchange_kernel(m, w))) <= 1e-15
        # a list is taken as an array of frequencies, like every other kernel's argument
        assert np.max(np.abs(energy_exchange_kernel(m, [0.1, 1.0, 25.0]))) <= 1e-15


def test_mean_force_zero_for_isotropic_states():
    m = SinglePoleMirror(1.0)
    grid = FrequencyGrid.symmetric(40.0, 2001)
    for state in (VacuumState(), ThermalState(2.0)):
        vals = np.asarray(mean_force_integrand(m, state, grid.omega))
        assert np.all(vals == 0.0)
        assert mean_force(m, state)[:2] == (0.0, 0.0)


def test_mean_force_pushes_toward_colder_side():
    m = SinglePoleMirror(1.0)
    hot_left = TwoTemperatureState(2.0, 0.5)
    hot_right = TwoTemperatureState(0.5, 2.0)
    f, err, nodes = mean_force(m, hot_left)
    assert f > 0.0
    assert mean_force(m, hot_right) == (-f, err, nodes)


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


def test_mean_force_integrand_is_the_kernel_trace():
    # the non-diagonal route reads the trace off (alpha, beta) and cplus's entries
    vac = VacuumState()

    def correlated(nu):
        nu = np.asarray(nu, dtype=float)
        c = np.empty(nu.shape + (2, 2), dtype=complex)
        c[..., 0, 0], c[..., 1, 1] = 1.0 + 1.0 / (1.0 + nu**2), 2.0 + 0.0 * nu
        c[..., 0, 1] = 0.5 * np.exp(1j * nu)
        c[..., 1, 0] = np.conj(c[..., 0, 1])
        return c

    w = np.linspace(-29.99, 30.01, 601)  # 0 is off the grid, where the vacuum rule diverges
    # the vacuum's trace vanishes, the correlated state's does not
    for state, traced in ((CustomState(correlated), True), (CustomState(vac.cplus, diagonal=False), False)):
        for m in (SinglePoleMirror(1.0), SinglePoleMirror(0.3), PerfectMirror()):
            x = np.asarray(mean_force_integrand(m, state, w))
            ref = w * w * np.trace(force_kernel(m, w, -w) @ state.cplus(w), axis1=-2, axis2=-1)
            assert np.all(np.abs(x - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0))
            assert (np.max(np.abs(ref)) > 1.0) == traced


@settings(max_examples=40, deadline=None)
@given(
    log_phi=st.floats(-2.0, 5.0),
    log_psi=st.floats(-2.0, 5.0),
    log_omega_c=st.floats(-1.0, 1.0),
    log_hbar=st.floats(-1.0, 1.0),
)
def test_mean_force_single_pole_matches_binet(log_phi, log_psi, log_omega_c, log_hbar):
    temp_phi, temp_psi, omega_c, hbar = 10.0 ** np.array([log_phi, log_psi, log_omega_c, log_hbar])
    state = TwoTemperatureState(temp_phi, temp_psi, hbar)
    got, err, _ = mean_force(SinglePoleMirror(omega_c), state)
    ref = oracles.mean_force_single_pole(temp_phi, temp_psi, omega_c, hbar)
    # at T_phi ~ T_psi the force cancels between the two sides' pressures,
    # each known to rounding, so the larger of them sets the scale
    scale = max(abs(ref), oracles.one_sided_force_single_pole(max(temp_phi, temp_psi), omega_c, hbar))
    assert abs(got - ref) <= 1e-10 * scale
    assert abs(got - ref) <= err + 4 * np.spacing(scale)


@pytest.mark.parametrize("temp_phi, temp_psi", [(1e3, 1.0), (1e5, 1e4)])
def test_mean_force_single_pole_matches_binet_in_wide_windows(temp_phi, temp_psi):
    # thermal windows of 46 T / hbar up to 4.6e6 Omega wide
    got, err, _ = mean_force(SinglePoleMirror(1.0), TwoTemperatureState(temp_phi, temp_psi))
    ref = oracles.mean_force_single_pole(temp_phi, temp_psi, 1.0)
    assert abs(got - ref) <= 1e-10 * abs(ref)
    assert abs(got - ref) <= err


@pytest.mark.parametrize("temp_phi, temp_psi, hbar", [(2.0, 0.5, 1.0), (0.3, 7.0, 0.5), (1e3, 1.0, 2.0)])
def test_mean_force_perfect_mirror_is_stefan_boltzmann(temp_phi, temp_psi, hbar):
    # the vacuum parts cancel in the integrand, which then decays thermally
    # although the perfect mirror is not transparent
    state = TwoTemperatureState(temp_phi, temp_psi, hbar)
    got, err, _ = mean_force(PerfectMirror(), state)
    ref = oracles.mean_force_perfect(temp_phi, temp_psi, hbar)
    assert abs(got - ref) <= 1e-10 * abs(ref)
    assert abs(got - ref) <= err + 4 * np.spacing(abs(ref))
