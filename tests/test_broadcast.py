"""Every two-frequency kernel route is elementwise over broadcast frequency arrays.

An array call must reproduce the stacked scalar calls pair by pair, whatever
the route's contraction, and a zero frequency must still raise where the
route's covariance is singular.  A non-finite frequency raises in every
route, naming it.  Each call evaluates the mirror's amplitudes once, if it
reads the mirror, and the state's covariance at most once, on all of its
frequencies stacked.
"""

import numpy as np
import pytest

import vacmirror.core
import vacmirror.pressure
from vacmirror import (
    CustomState,
    SingularFrequencyError,
    SinglePoleMirror,
    ThermalState,
    VacuumState,
    cff_kernel,
    chi_kernel,
    chi_kernel_comoving,
    chi_kernel_symmetrized,
    commutator_kernel,
    delta_cout,
    delta_cout_vacuum,
    energy_exchange_kernel,
    force_kernel,
    unitarity_identities,
)

MODEL = SinglePoleMirror(1.3)


def _correlated_cplus(nu):
    # vacuum level, with a complex correlation between the two components
    # that keeps cplus Hermitian, positive and cplus(-w) = cplus(w)^T
    corr = 0.4j * np.sign(nu)[..., None, None]
    return VacuumState().cplus(nu) @ (np.eye(2) + corr * np.array([[0.0, 1.0], [-1.0, 0.0]]))


STATES = {
    "vacuum": VacuumState(),
    "thermal": ThermalState(0.7),
    "correlated": CustomState(_correlated_cplus),
}

# routes through a state's covariance: every state, and all singular at zero
# frequency for the non-diagonal state
STATE_ROUTES = {
    "chi_kernel": lambda st, a, b: chi_kernel(MODEL, st, a, b),
    "chi_kernel_comoving": lambda st, a, b: chi_kernel_comoving(MODEL, st, a, b),
    "chi_kernel_symmetrized": lambda st, a, b: chi_kernel_symmetrized(MODEL, st, a, b),
    "delta_cout": lambda st, a, b: delta_cout(MODEL, st, a, b),
    "cff_kernel": lambda st, a, b: cff_kernel(MODEL, st, a, b),
    "commutator_kernel_noise": lambda st, a, b: commutator_kernel(MODEL, st, a, b, route="noise"),
    "commutator_kernel_response": lambda st, a, b: commutator_kernel(MODEL, st, a, b, route="response"),
}

# routes through the model alone
MODEL_ROUTES = {
    "delta_cout_vacuum": lambda a, b: delta_cout_vacuum(MODEL, a, b),
    "force_kernel": lambda a, b: force_kernel(MODEL, a, b),
    "unitarity_identities": lambda a, b: np.stack(unitarity_identities(MODEL, a, b), axis=-1),
    # one frequency argument: the pair's two frequencies, stacked on the
    # axis before the matrix axes
    "energy_exchange_kernel": lambda a, b: np.moveaxis(
        energy_exchange_kernel(MODEL, np.array(np.broadcast_arrays(a, b))), 0, -3
    ),
}

ROUTES = [
    pytest.param(lambda a, b, r=route, st=state: r(st, a, b), id=f"{name}-{label}")
    for name, route in STATE_ROUTES.items()
    for label, state in STATES.items()
] + [pytest.param(route, id=name) for name, route in MODEL_ROUTES.items()]


def _assert_matches_scalar_calls(route, w1, w2):
    got = route(w1, w2)
    w1, w2 = np.broadcast_arrays(w1, w2)
    want = np.array([route(float(a), float(b)) for a, b in zip(w1, w2)])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("n", [2, 5])
def test_array_call_matches_scalar_calls(route, n):
    # both signs, with same- and opposite-sign pairs
    w1, w2 = np.random.default_rng(n).uniform(-6.0, 6.0, (2, n))
    _assert_matches_scalar_calls(route, w1, w2)


@pytest.mark.parametrize("route", ROUTES)
def test_scalar_broadcasts_against_array(route):
    ws = np.array([-4.5, -0.3, 0.8, 2.0, 5.5])
    _assert_matches_scalar_calls(route, 1.7, ws)
    _assert_matches_scalar_calls(route, ws, -0.6)
    # a scalar pair gives a result of the per-pair shape
    assert np.shape(route(1.7, -0.6)) == route(ws, ws).shape[1:]


SINGULAR = [
    pytest.param(STATE_ROUTES[name], state, id=f"{name}-{label}")
    for name in ("chi_kernel_comoving", "chi_kernel_symmetrized", "delta_cout")
    for label, state in STATES.items()
] + [
    pytest.param(STATE_ROUTES[name], STATES["correlated"], id=f"{name}-correlated")
    for name in ("chi_kernel", "cff_kernel")
]


@pytest.mark.parametrize("route, state", SINGULAR)
def test_zero_frequency_still_raises(route, state):
    ws = np.array([1.5, 0.0, -2.0])
    with pytest.raises(SingularFrequencyError):
        route(state, ws, 0.7)
    with pytest.raises(SingularFrequencyError):
        route(state, -0.9, ws)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_frequency_raises_naming_it(route, bad):
    ws = np.array([1.5, bad, -2.0])
    other = np.inf if np.isnan(bad) else np.nan
    # with both arguments bad, the first one's sample is named
    for pair in ((ws, 0.7), (-0.9, ws), (0.7, bad), (ws, other)):
        with pytest.raises(ValueError, match=rf"^kernel at omega={bad!r}: frequency is not finite"):
            route(*pair)


def _count_checks(monkeypatch):
    """Sizes of the frequency arrays checked finite, in order."""
    checked = []
    check = vacmirror.core.finite

    def counting(omega, what="kernel"):
        checked.append(np.size(omega))
        return check(omega, what)

    for module in (vacmirror.core, vacmirror.pressure):
        monkeypatch.setattr(module, "finite", counting)
    return checked


@pytest.mark.parametrize("state", STATES.values(), ids=STATES)
def test_symmetrized_route_checks_its_frequencies_once(monkeypatch, state):
    checked = _count_checks(monkeypatch)
    ws = np.array([1.5, -0.4, 2.0])
    chi_kernel_symmetrized(MODEL, state, ws, 0.7)
    # only frequency_pair's check of each argument, before the pairs are stacked
    assert checked == [ws.size, 1]
    # with both arguments bad, the first one's sample is named, as
    # frequency_pair names it
    with pytest.raises(ValueError, match=r"^kernel at omega=nan: frequency is not finite"):
        chi_kernel_symmetrized(MODEL, state, np.array([1.0, np.nan]), np.array([np.inf, 1.0]))


TRACE_ROUTES = [
    pytest.param(STATE_ROUTES[name], state, id=f"{name}-{label}")
    for name in ("chi_kernel_comoving", "delta_cout")
    for label, state in STATES.items()
] + [
    pytest.param(STATE_ROUTES[name], STATES["correlated"], id=f"{name}-correlated")
    for name in ("chi_kernel", "cff_kernel")
]


@pytest.mark.parametrize("route, state", TRACE_ROUTES)
def test_trace_routes_check_their_frequencies_once(monkeypatch, route, state):
    checked = _count_checks(monkeypatch)
    ws = np.array([1.5, -0.4, 2.0])
    route(state, ws, 0.7)
    assert checked == [ws.size, 1]


def _count_calls(monkeypatch, cls, *names):
    """Frequency arrays passed to the methods ``names`` of ``cls``, outermost calls only.

    A call made from inside another counted one, such as cfull's cplus
    call, is part of it and not counted again.
    """
    calls, depth = [], [0]
    for name in names:
        method = getattr(cls, name)

        def counting(self, omega, method=method):
            if not depth[0]:
                calls.append(omega)
            depth[0] += 1
            try:
                return method(self, omega)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, name, counting)
    return calls


# every route reads the mirror, exactly once a call
COUNTED = [
    pytest.param(route, state, id=f"{name}-{label}")
    for name, route in STATE_ROUTES.items()
    for label, state in STATES.items()
] + [pytest.param(lambda st, a, b, r=route: r(a, b), None, id=name) for name, route in MODEL_ROUTES.items()]


@pytest.mark.parametrize("route, state", COUNTED)
def test_one_amplitude_and_one_covariance_call_per_route_call(monkeypatch, route, state):
    amplitude_calls = _count_calls(monkeypatch, type(MODEL), "amplitudes")
    # the correlated state's rule calls the vacuum's cplus, not its own class's
    covariance_calls = _count_calls(monkeypatch, type(state), "cplus", "cfull") if state else []
    for pair in ((1.7, -0.6), (np.array([1.5, -0.4, 2.0]), 0.7)):
        amplitude_calls.clear()
        covariance_calls.clear()
        route(state, *pair)
        assert len(amplitude_calls) == 1
        assert len(covariance_calls) <= 1
