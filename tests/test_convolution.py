"""The batched convolution against the scalar reference and the closed forms.

Every grid spectrum is one vector quadrature over all its frequencies.  The
differential tests integrate the same kernels sample by sample with the
scalar QUADPACK reference ``oracles.integrate`` over the same supports, and
require agreement within the two samples' error contracts.  Thermal spectra
are also compared with 30-digit references over the whole real line.
Property tests draw the cutoff, hbar and the temperature at random and check
the closed forms and the symmetries that hold by construction.  Work is
guarded by counting quadrature nodes and kernel calls and by traced memory,
not by timing.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vacmirror import (
    CustomState,
    FrequencyGrid,
    NonConvergenceError,
    PerfectMirror,
    PhysicsContext,
    QuadratureConfig,
    SinglePoleMirror,
    ThermalState,
    TwoTemperatureState,
    VacuumState,
    chi_kernel,
    cff_kernel,
    commutator_kernel,
    mean_force,
    noise_spectrum,
    noise_spectrum_grid,
    susceptibility,
    susceptibility_grid,
    xi_spectrum,
)
import vacmirror.fluctuations
from vacmirror.response import _THERMAL_DECADES, _chi, convolve

QUAD = QuadratureConfig()
WINDOW = QuadratureConfig(window=10.0)


def _vacuum_rule(nu):
    return np.eye(2) / (4.0 * np.abs(nu)[..., None, None])


def _correlated_rule(nu):
    # vacuum diagonal plus a real, symmetric, decaying cross-correlation
    off = 0.3 * np.exp(-nu * nu)[..., None, None]
    return (np.eye(2) + off * (1.0 - np.eye(2))) / (4.0 * np.abs(nu)[..., None, None])


def _scalar(kernel, state, omega, quad):
    """One QUADPACK call at ``omega`` over the support the batched path uses."""
    hbar = state.context.hbar
    temp = state.decay_scale() or 0.0
    scale = hbar * abs(omega) ** 3 + (temp**2 * abs(omega) + temp**3 / hbar) / hbar
    cfg = QuadratureConfig(
        abs_tol=min(quad.abs_tol, 1e-10 * scale) if scale > 0 else quad.abs_tol,
        rel_tol=quad.rel_tol,
        max_subdivisions=quad.max_subdivisions,
    )
    if isinstance(state, VacuumState):
        lo, hi = 0.0, omega
    else:
        span = _THERMAL_DECADES * temp / hbar
        lo, hi = min(0.0, omega) - span, max(0.0, omega) + span
        if quad.window is not None:
            lo, hi = min(-quad.window, lo), max(quad.window, hi)
    val, _ = oracles.integrate(
        lambda x: complex(kernel(x, omega - x)) / (2.0 * np.pi), lo, hi, cfg, points=(0.0, omega)
    )
    return val


def _within_contracts(got, ref, quad):
    return abs(got - ref) <= 2.0 * max(quad.abs_tol, quad.rel_tol * abs(ref))


CASES = [
    ("vacuum single-pole", SinglePoleMirror(2.0), VacuumState(), QUAD, 24.0),
    ("vacuum perfect", PerfectMirror(), VacuumState(), QUAD, 3.0),
    ("thermal", SinglePoleMirror(1.0), ThermalState(1.0), QUAD, 3.0),
    ("two-temperature", SinglePoleMirror(1.0), TwoTemperatureState(2.0, 0.5), QUAD, 2.0),
    ("custom diagonal", SinglePoleMirror(1.0), CustomState(_vacuum_rule, diagonal=True), WINDOW, 3.0),
    ("custom correlated", SinglePoleMirror(1.0), CustomState(_correlated_rule), WINDOW, 2.0),
]


@pytest.mark.parametrize("name, model, state, quad, w_max", CASES, ids=[c[0] for c in CASES])
def test_batched_spectra_match_scalar_reference(name, model, state, quad, w_max):
    grid = FrequencyGrid.symmetric(w_max, 9)
    kernels = {
        "chi": lambda a, b: chi_kernel(model, state, a, b),
        "cff": lambda a, b: cff_kernel(model, state, a, b),
        "xi": lambda a, b: commutator_kernel(model, state, a, b),
    }
    chi = susceptibility_grid(model, state, grid, quad)
    cff = noise_spectrum_grid(model, state, grid, quad)
    batched = {"chi": chi.values, "cff": cff.values, "xi": xi_spectrum(model, state, grid.omega, quad)}
    vacuum = isinstance(state, VacuumState)
    for k, w in enumerate(grid.omega):
        for what, kernel in kernels.items():
            if w <= 0 and (what == "chi" or vacuum):
                continue  # fixed by construction: conjugation, oddness, zero support
            ref = _scalar(kernel, state, w, quad)
            got = batched[what][k]
            assert _within_contracts(got, ref, quad), (what, w, got, ref)
    for spec in (chi, cff):
        bound = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(spec.values))
        assert np.all(spec.meta["abs_error"] <= bound)


def test_spectra_carry_error_budgets():
    m = SinglePoleMirror(1.0)
    grid = FrequencyGrid.symmetric(4.0, 9)
    chi = susceptibility_grid(m, VacuumState(), grid)
    cff = noise_spectrum_grid(m, VacuumState(), grid)
    for spec in (chi, cff):
        assert spec.meta["abs_error"].shape == grid.omega.shape
        assert spec.meta["evaluations"].shape == grid.omega.shape
    # chi(0) and vacuum noise at w <= 0 hold by construction: nothing integrated
    assert chi.meta["evaluations"][4] == 0 and chi.meta["abs_error"][4] == 0.0
    assert np.all(cff.meta["evaluations"][grid.omega <= 0] == 0)
    assert np.all(cff.meta["evaluations"][grid.omega > 0] > 0)
    bound = np.maximum(QUAD.abs_tol, QUAD.rel_tol * np.abs(chi.values))
    assert np.all(chi.meta["abs_error"] <= bound)


def test_scalar_and_array_frequencies_share_one_path():
    m, vac = SinglePoleMirror(1.0), VacuumState()
    one = susceptibility(m, vac, 2.0)
    assert isinstance(one, complex)
    assert np.shape(susceptibility(m, vac, np.array([2.0]))) == (1,)
    assert isinstance(noise_spectrum(m, vac, 2.0), float)
    assert np.shape(xi_spectrum(m, vac, np.array([[1.0, -1.0]]))) == (1, 2)


def test_subdivision_limit_raises_naming_the_frequency():
    cfg = QuadratureConfig(max_subdivisions=1)
    with pytest.raises(NonConvergenceError, match=r"omega=") as info:
        susceptibility(SinglePoleMirror(1.0), VacuumState(), np.array([0.5, 2.0, 8.0]), cfg)
    assert "susceptibility" in str(info.value)
    assert isinstance(info.value.best, complex)
    assert np.isfinite(info.value.error_estimate)
    with pytest.raises(NonConvergenceError, match=r"noise_spectrum at omega="):
        noise_spectrum(SinglePoleMirror(1.0), ThermalState(1.0), np.array([-1.0, 1.0]), cfg)


@pytest.mark.parametrize("state", [VacuumState(), ThermalState(1.0)], ids=["vacuum", "thermal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "spectrum, what",
    [(susceptibility, "susceptibility"), (noise_spectrum, "noise_spectrum"), (xi_spectrum, "xi_spectrum")],
    ids=["chi", "cff", "xi"],
)
def test_non_finite_frequency_raises_naming_the_sample(spectrum, what, bad, state):
    with pytest.raises(ValueError, match=rf"^{what} at omega={bad!r}: frequency is not finite"):
        spectrum(SinglePoleMirror(1.0), state, np.array([bad, 1.0]))


def _symmetry_states(kind, hbar, temp, temp2):
    ctx = PhysicsContext(hbar)

    def diagonal_rule(nu):
        return hbar * np.eye(2) / (4.0 * np.abs(nu)[..., None, None])

    def correlated_rule(nu):
        # complex cross-correlation with cplus(-w) = cplus(w)^T
        corr = 0.1j * np.sign(nu)[..., None, None]
        return hbar * (np.eye(2) + corr * np.array([[0.0, 1.0], [-1.0, 0.0]])) / (4.0 * np.abs(nu)[..., None, None])

    return {
        "vacuum": lambda: VacuumState(ctx),
        "thermal": lambda: ThermalState(temp, ctx),
        "two-temperature": lambda: TwoTemperatureState(temp, temp2, ctx),
        "custom diagonal": lambda: CustomState(diagonal_rule, ctx, diagonal=True),
        "custom correlated": lambda: CustomState(correlated_rule, ctx),
    }[kind]()


_NONZERO = st.floats(-30.0, 30.0).filter(lambda v: abs(v) >= 1e-2)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["vacuum", "thermal", "two-temperature", "custom diagonal", "custom correlated"]),
    omega_c=st.floats(0.1, 10.0),
    hbar=st.floats(0.1, 10.0),
    temp=st.floats(0.1, 10.0),
    temp2=st.floats(0.1, 10.0),
    pairs=st.lists(st.tuples(_NONZERO, _NONZERO), min_size=1, max_size=6),
)
def test_convolved_kernels_are_symmetric_under_argument_exchange(kind, omega_c, hbar, temp, temp2, pairs):
    # convolve integrates only w' < w/2 and doubles it, which is exact
    # because K(w', w - w') is even about w' = w/2
    model = SinglePoleMirror(omega_c)
    state = _symmetry_states(kind, hbar, temp, temp2)
    a, b = np.array(pairs).T
    # the general routes sum trace terms that can cancel to rounding, so
    # differences are measured against the terms' size: with u(v) = v^2 tr
    # cplus(v), chi and xi are O((|a| + |b|)(u(a) + u(b)) + u(a) u(b) / hbar)
    # and C_FF is hbar times that
    u_a, u_b = np.abs(state.chi_weight(np.array([a, b])))
    size = (np.abs(a) + np.abs(b)) * (u_a + u_b) + u_a * u_b / hbar
    kernels = {
        "chi": (partial(chi_kernel, model, state), size),
        "cff": (partial(cff_kernel, model, state), hbar * size),
        "xi noise": (partial(commutator_kernel, model, state, route="noise"), size),
        "xi response": (partial(commutator_kernel, model, state, route="response"), size),
    }
    for what, (kernel, scale) in kernels.items():
        ab, ba = kernel(a, b), kernel(b, a)
        bound = 1e-13 * np.maximum(np.maximum(np.abs(ab), np.abs(ba)), scale)
        assert np.all(np.abs(ab - ba) <= bound), (what, ab, ba)


@settings(max_examples=25, deadline=None)
@given(
    omega_c=st.floats(1e-2, 1e4),
    hbar=st.floats(0.1, 10.0),
    ratios=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5, unique=True),
)
def test_vacuum_closed_forms_over_parameter_space(omega_c, hbar, ratios):
    m = SinglePoleMirror(omega_c)
    vac = VacuumState(PhysicsContext(hbar))
    pos = np.array(ratios) * omega_c
    om = np.concatenate([-pos, [0.0], pos])
    chi, abs_error, _ = _chi(m, vac, om, QUAD)
    cff = noise_spectrum(m, vac, om)
    n = pos.size
    assert np.array_equal(chi[:n], np.conj(chi[n + 1:]))
    assert chi[n] == 0.0
    assert np.all(cff[: n + 1] == 0.0)
    for k, w in enumerate(pos):
        ref = oracles.chi_single_pole_mp(w, omega_c, hbar)
        error = abs(chi[n + 1 + k] - ref)
        assert error <= 1e-10 * abs(ref)
        assert error <= abs_error[n + 1 + k] + 1e-13 * abs(ref), (w, error, abs_error[n + 1 + k])
        ref = oracles.cff_vacuum_mp(w, omega_c, hbar)
        assert abs(cff[n + 1 + k] - ref) <= 1e-10 * abs(ref)


@settings(max_examples=15, deadline=None)
@given(
    omega_c=st.floats(1e-2, 1e4),
    hbar=st.floats(0.1, 10.0),
    temp=st.floats(0.1, 10.0),
    x=st.floats(0.1, 5.0),
)
def test_thermal_detailed_balance_over_parameter_space(omega_c, hbar, temp, x):
    w = x * temp / hbar
    th = ThermalState(temp, PhysicsContext(hbar))
    cff = noise_spectrum(SinglePoleMirror(omega_c), th, np.array([-w, w]))
    assert abs(cff[0] / cff[1] - np.exp(-x)) <= 1e-8 * np.exp(-x)


@pytest.mark.parametrize(
    "spectrum, reference, omegas",
    [
        (susceptibility_grid, oracles.thermal_chi_mp, [0.5, 2.0, 3.5]),
        (noise_spectrum_grid, oracles.thermal_cff_mp, [-2.0, 0.5, 3.0, 5.5]),
    ],
    ids=["chi", "cff"],
)
def test_thermal_spectra_match_30_digit_references(spectrum, reference, omegas):
    # the references integrate over the whole line, so this also checks the
    # thermal window of _THERMAL_DECADES
    spec = spectrum(SinglePoleMirror(1.0), ThermalState(1.0), FrequencyGrid(np.array(omegas)))
    for k, w in enumerate(omegas):
        ref = reference(w, 1.0, 1.0)
        error = abs(spec.values[k] - ref)
        assert error <= spec.meta["abs_error"][k], (w, error, spec.meta["abs_error"][k])
        assert error <= 1e-10 * abs(ref), (w, error)


def test_thermal_noise_calls_its_kernel_once_per_batch_of_nodes(monkeypatch):
    calls = []
    kernel = vacmirror.fluctuations.cff_kernel

    def counting(model, state, omega, omega2):
        calls.append(np.size(omega))
        return kernel(model, state, omega, omega2)

    monkeypatch.setattr(vacmirror.fluctuations, "cff_kernel", counting)
    spec = noise_spectrum_grid(SinglePoleMirror(1.0), ThermalState(1.0), FrequencyGrid.symmetric(5.0, 41))
    evaluations = int(spec.meta["evaluations"].max())
    assert np.all(spec.meta["evaluations"] == evaluations)
    assert 0 < len(calls) <= evaluations / 21
    assert sum(calls) <= evaluations * 41


def _nodes(spectrum):
    return lambda model, state, grid: spectrum(model, state, grid).meta["evaluations"]


def _fdt_xi_nodes(model, state, grid):
    # at fdt's tolerance the vacuum xi converges on the starting halves
    quad = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    return vacmirror.fluctuations._xi(model, state, grid.omega, quad)[2]


def _mean_force_nodes(model, state, grid):
    # mean_force returns no node count: read the one of its convolution
    counts = []

    def counting(*args):
        out = convolve(*args)
        counts.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vacmirror.fluctuations, "convolve", counting)
        mean_force(model, state)
    return counts[0]


_WIDE = [("1e3", 294), ("1e5", 378), ("1e6", 420), ("1e8", 504)]
_MEAN = [((2.0, 0.5), 168), ((1e3, 1.0), 252), ((1e5, 1e4), 336)]


@pytest.mark.parametrize(
    "nodes, state, omega_c, grid, ceiling",
    [
        (_nodes(susceptibility_grid), VacuumState(), 2.0, FrequencyGrid.linear(-200.0, 200.0, 2001), 84),
        (_nodes(susceptibility_grid), VacuumState(), 1.0, FrequencyGrid.linear(-200.0, 200.0, 16001), 126),
        (_nodes(susceptibility_grid), ThermalState(1.0), 1.0, FrequencyGrid.linear(-5.0, 5.0, 101), 210),
        (_nodes(noise_spectrum_grid), ThermalState(1.0), 1.0, FrequencyGrid.linear(-5.0, 5.0, 41), 210),
        (_nodes(noise_spectrum_grid), TwoTemperatureState(2.0, 0.5), 1.0, FrequencyGrid.linear(-5.0, 5.0, 41), 252),
        (_fdt_xi_nodes, VacuumState(), 10.0, FrequencyGrid.linear(-5.0, 5.0, 41), 42),
    ]
    + [
        (_nodes(noise_spectrum_grid), ThermalState(float(t)), 1.0, FrequencyGrid.linear(-5.0, 5.0, 11), c)
        for t, c in _WIDE
    ]
    + [(_mean_force_nodes, TwoTemperatureState(*temps), 1.0, None, c) for temps, c in _MEAN],
    ids=["vacuum-2001", "vacuum-16001", "thermal-chi", "thermal-noise", "two-temperature-noise", "vacuum-xi-fdt"]
    + [f"thermal-noise-T{t}" for t, _ in _WIDE]
    + [f"mean-force-{t_phi:g}-{t_psi:g}" for (t_phi, t_psi), _ in _MEAN],
)
def test_shared_subdivision_stays_under_a_node_ceiling(nodes, state, omega_c, grid, ceiling):
    # a deterministic work bound: starting from whole pieces, with the stop
    # test only after one refinement round, took 105, 147, 252, 252, 294 and
    # 63 nodes here, 336, 420, 462 and 546 in the wide thermal windows and
    # 210, 294 and 378 for the mean force; placing nodes from the nearer of
    # both piece edges by psi(t) = t^3 (10 - 15 t + 6 t^2) instead of from
    # the kink took 147, 189, 294, 294 and 294, and 420, 504, 546 and 672 in
    # the wide thermal windows (46 T/hbar), where nodes placed from the kink
    # keep their digits at any width; integrating the whole support instead
    # of the half below w/2 took 315, 315, 525 and 483, and mapping each
    # whole-support piece affinely took 483, 567 and 609 (no thermal chi row
    # then)
    assert np.max(nodes(SinglePoleMirror(omega_c), state, grid)) <= ceiling


def test_grid_quadrature_memory_is_linear_in_grid_size():
    # about 0.36 kB per grid point; evaluating all nodes of a round in one
    # call peaked near 4.7 kB, one interval for all samples per call near 1.6 kB
    n = 16001
    grid = FrequencyGrid.symmetric(200.0, n)
    tracemalloc.start()
    try:
        susceptibility_grid(SinglePoleMirror(2.0), VacuumState(), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * n
