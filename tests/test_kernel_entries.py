"""Routes that read the force kernel through its entries (alpha, beta), against 2x2 matrix products.

F = [[alpha, beta], [-beta, -alpha]] turns the unitarity identities, the
energy-exchange kernel and the susceptibility-kernel traces into a few
products of entries.  Each route must match its matrix form, evaluated in
``oracles`` with F or S as stacked 2x2 matrices, for unitary models and a
non-unitary tables, every kind of state, 1000 random pairs and scalar calls,
to 1e-14 max(|x|, 1).  A trace sums terms that for a two-temperature state
reach ~150 times its value; its rounding error scales with them (4e-16 of
their sum, measured), so a trace's scale also holds a quarter of that sum.
"""

import numpy as np
import pytest

import oracles
from vacmirror import (
    CustomState,
    PerfectMirror,
    SinglePoleMirror,
    TabulatedMirror,
    ThermalState,
    TwoTemperatureState,
    VacuumState,
    chi_kernel,
    chi_kernel_comoving,
    chi_kernel_symmetrized,
    energy_exchange_kernel,
    unitarity_identities,
)

_TABLE = np.linspace(0.0, 8.0, 81)
_POLE = SinglePoleMirror(1.3)
_SIGMA, _R = _POLE.amplitudes(_TABLE)

MODELS = {
    "single-pole": _POLE,
    "perfect": PerfectMirror(),
    # reflection scaled by 0.9: |s|^2 + |r|^2 < 1, not unitary
    "lossy-table": TabulatedMirror(_TABLE, 1.0 + _SIGMA, 0.9 * _R),
    # and turned by a phase: s conj(r) + r conj(s) != 0 too, so that
    # Re(alpha conj(beta)) = Re beta fails, and sets the residual in 22% of pairs
    "dephased-table": TabulatedMirror(_TABLE, 1.0 + _SIGMA, 0.9 * np.exp(0.5j) * _R),
}


def _correlated_cplus(nu):
    # vacuum level times [[1, g], [conj g, 1]], |g| = 0.5: Hermitian, positive,
    # cplus(-w) = cplus(w)^T, and c01 + c10 = 0.6 vacuum != 0, which beta multiplies
    g = 0.3 + 0.4j * np.sign(nu)[..., None, None]
    return VacuumState().cplus(nu) @ (np.eye(2) + g * np.array([[0.0, 1.0], [0.0, 0.0]]) + g.conj() * np.array([[0.0, 0.0], [1.0, 0.0]]))


STATES = {
    "vacuum": VacuumState(),
    "thermal": ThermalState(0.7),
    "two-temperature": TwoTemperatureState(2.0, 0.5, hbar=0.8),
    "correlated": CustomState(_correlated_cplus),
}

W1, W2 = np.random.default_rng(27).uniform(-6.0, 6.0, (2, 1000))
PAIRS = [(W1, W2), (1.7, -0.6), (-4.2, -0.3), (0.25, 5.5)]  # 1000 pairs, then scalar calls


def _assert_close(got, want, scale=0.0):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.maximum(np.abs(want), 1.0), scale))


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_unitarity_residuals_match_the_matrix_products(model):
    for w1, w2 in PAIRS:
        res_a, res_b = unitarity_identities(model, w1, w2)
        assert np.array_equal(res_a, res_b)  # both identities reduce to one pair of conditions
        for got, want in zip((res_a, res_b), oracles.unitarity_residuals_matrix(model, w1, w2)):
            _assert_close(got, want)


@pytest.mark.parametrize("name", ["lossy-table", "dephased-table"])
def test_unitarity_residuals_flag_a_broken_table(name):
    res, _ = unitarity_identities(MODELS[name], W1, W2)
    assert np.min(res) > 1e-3


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_energy_exchange_matches_the_scattering_product(model):
    for w in [np.array([W1, W2])] + [w for w, _ in PAIRS[1:]]:
        _assert_close(energy_exchange_kernel(model, w), oracles.energy_exchange_matrix(model, w))


@pytest.mark.parametrize("state", STATES.values(), ids=STATES)
@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_comoving_route_matches_the_matrix_trace(model, state):
    for w1, w2 in PAIRS:
        want, terms = oracles.modulated_trace(model, state.cfull, w1, w2)
        _assert_close(chi_kernel_comoving(model, state, w1, w2), want, terms / 4.0)


@pytest.mark.parametrize("state", STATES.values(), ids=STATES)
@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_symmetrized_route_matches_the_matrix_traces(model, state):
    for w1, w2 in PAIRS:
        # F[w', w] is evaluated as such, not as the transpose of F[w, w']
        (one, terms_one), (two, terms_two) = (oracles.modulated_trace(model, state.cfull, *p) for p in ((w1, w2), (w2, w1)))
        _assert_close(chi_kernel_symmetrized(model, state, w1, w2), (one + two) / 2.0, (terms_one + terms_two) / 8.0)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_general_chi_kernel_matches_the_matrix_trace(model):
    state = STATES["correlated"]
    assert not state.diagonal
    for w1, w2 in PAIRS:
        want, terms = oracles.modulated_trace(model, state.cplus, w1, w2)
        _assert_close(chi_kernel(model, state, w1, w2), want, terms / 4.0)
