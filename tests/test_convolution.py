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
    Mirror,
    NonConvergenceError,
    PerfectMirror,
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
from vacmirror.response import _THERMAL_DECADES, _chi

QUAD = QuadratureConfig()
WINDOW = QuadratureConfig(window=10.0)


def _vacuum_rule(nu):
    return np.eye(2) / (4.0 * np.abs(nu)[..., None, None])


def _correlated_rule(nu):
    # vacuum diagonal plus a real, symmetric, decaying cross-correlation
    off = 0.3 * np.exp(-nu * nu)[..., None, None]
    return (np.eye(2) + off * (1.0 - np.eye(2))) / (4.0 * np.abs(nu)[..., None, None])


def _scalar(kernel, state, omega, quad, delta):
    """One QUADPACK call at ``omega`` over the support the batched path uses.

    The floor follows the natural scale of ``convolve``, cut off at the
    mirror scale ``delta``.
    """
    hbar = state.hbar
    temp = state.decay_scale() or 0.0
    theta = temp / hbar
    m = theta if delta is None else min(theta, delta)
    scale = hbar * (abs(omega) ** 3 + theta * m * abs(omega) + theta * m * m)
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
            ref = _scalar(kernel, state, w, quad, model.scale)
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
    def diagonal_rule(nu):
        return hbar * np.eye(2) / (4.0 * np.abs(nu)[..., None, None])

    def correlated_rule(nu):
        # complex cross-correlation with cplus(-w) = cplus(w)^T
        corr = 0.1j * np.sign(nu)[..., None, None]
        return hbar * (np.eye(2) + corr * np.array([[0.0, 1.0], [-1.0, 0.0]])) / (4.0 * np.abs(nu)[..., None, None])

    return {
        "vacuum": lambda: VacuumState(hbar),
        "thermal": lambda: ThermalState(temp, hbar),
        "two-temperature": lambda: TwoTemperatureState(temp, temp2, hbar),
        "custom diagonal": lambda: CustomState(diagonal_rule, hbar, diagonal=True),
        "custom correlated": lambda: CustomState(correlated_rule, hbar),
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
    # cplus(v) = hbar|v|/2 + E_phi(v) + E_psi(v), chi and xi are
    # O((|a| + |b|)(u(a) + u(b)) + u(a) u(b) / hbar) and C_FF is hbar times that
    nu = np.array([a, b])
    u_a, u_b = np.abs(hbar * np.abs(nu) / 2.0 + sum(state.excess(nu)))
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
    vac = VacuumState(hbar)
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
    th = ThermalState(temp, hbar)
    cff = noise_spectrum(SinglePoleMirror(omega_c), th, np.array([-w, w]))
    assert abs(cff[0] / cff[1] - np.exp(-x)) <= 1e-8 * np.exp(-x)


# (log10(T/hbar), frequencies) at T = Omega = 1: every listed frequency in
# one grid at T = hbar, one per other ratio; no negative one at T/hbar =
# 1e-3, where C_FF(-w) ~ e^(-hbar w/T) underflows
_CHI_REFERENCES = [(0, [0.5, 2.0, 3.5]), (-3, [2.0]), (4, [0.5]), (8, [3.5]), (15, [2.0]), (30, [0.5])]
_CFF_REFERENCES = [(0, [-2.0, 0.5, 3.0, 5.5]), (-3, [0.5]), (4, [-2.0]), (8, [3.0]), (15, [5.5]), (30, [-2.0])]


@pytest.mark.parametrize(
    "spectrum, reference, log_ratio, omegas",
    [(susceptibility_grid, oracles.thermal_chi_mp, *case) for case in _CHI_REFERENCES]
    + [(noise_spectrum_grid, oracles.thermal_cff_mp, *case) for case in _CFF_REFERENCES],
    ids=[f"chi-{k}" for k, _ in _CHI_REFERENCES] + [f"cff-{k}" for k, _ in _CFF_REFERENCES],
)
def test_thermal_spectra_match_30_digit_references(spectrum, reference, log_ratio, omegas):
    # the references integrate over the whole line, so this also checks the
    # thermal window of _THERMAL_DECADES and its geometric pieces
    hbar = 10.0**-log_ratio
    grid = omegas if len(omegas) > 1 else [omegas[0], omegas[0] + 1.0]
    spec = spectrum(SinglePoleMirror(1.0), ThermalState(1.0, hbar), FrequencyGrid(np.array(grid)))
    for k, w in enumerate(omegas):
        ref = reference(w, 1.0, 1.0, hbar)
        error = abs(spec.values[k] - ref)
        assert error <= spec.meta["abs_error"][k], (w, error, spec.meta["abs_error"][k])
        assert error <= 1e-10 * abs(ref), (w, error)


@pytest.mark.parametrize("temps", [(1.0, 1e-4), (1e3, 1e-3)], ids=["1-1e-4", "1e3-1e-3"])
def test_two_temperature_chi_matches_the_mean_of_30_digit_references(temps):
    # chi is linear in the excess, so each component contributes half the
    # one-temperature chi; the colder one's Matsubara pole at 2 pi i T/hbar
    # lies nearer the real axis than the mirror's, and nodes placed for the
    # hotter one's were 1.4e-8 off at (1e3, 1e-3) with no error reported
    grid = FrequencyGrid(np.array([2.0, 3.0]))
    spec = susceptibility_grid(SinglePoleMirror(1.0), TwoTemperatureState(*temps), grid)
    ref = sum(oracles.thermal_chi_mp(2.0, 1.0, temp) for temp in temps) / 2.0
    error = abs(spec.values[0] - ref)
    assert error <= spec.meta["abs_error"][0], (error, spec.meta["abs_error"][0])
    assert error <= 1e-10 * abs(ref), error


@pytest.mark.parametrize("hbar", [10.0**-k for k in range(15, 31)])
def test_thermal_spectra_reach_the_classical_limit_at_every_hbar(hbar):
    # at Omega = T = 1 the window is 46/hbar wide: chi -> i T Omega w and
    # C_FF -> 2 T^2 Omega, with corrections of order hbar Omega / T
    model, state = SinglePoleMirror(1.0), ThermalState(1.0, hbar)
    chi = susceptibility(model, state, 2.0)
    cff = noise_spectrum(model, state, 2.0)
    assert abs(chi - 2.0j) <= 1e-10 * 2.0, chi
    assert abs(cff - 2.0) <= 1e-10 * 2.0, cff


def test_thermal_floor_stays_below_the_value_past_the_cutoff():
    # Omega = T = hbar = 1e-6: T/hbar = 1e6 Omega, and chi ~ 2e-18 lies below
    # a floor of 1e-10 times a scale that ignores the cutoff (1e-16)
    chi = susceptibility(SinglePoleMirror(1e-6), ThermalState(1e-6, 1e-6), 2e-6)
    ref = 1e-6 * (1e-6) ** 3 * susceptibility(SinglePoleMirror(1.0), ThermalState(1e6), 2.0)
    assert abs(chi - ref) <= 1e-11 * abs(ref), (chi, ref)


def test_unresolvable_thermal_window_raises_naming_its_width():
    with pytest.raises(ValueError, match=r"susceptibility: .*T/\(hbar\*delta\) = 1e\+300"):
        susceptibility(SinglePoleMirror(1.0), ThermalState(1.0, 1e-300), 2.0)
    with pytest.raises(ValueError, match=r"noise_spectrum: .*T/\(hbar\*delta\) = 1e\+300"):
        noise_spectrum(SinglePoleMirror(1.0), ThermalState(1.0, 1e-300), 2.0)
    # with Omega = 4 the window's width in mirror scales, 46 T/(hbar Omega), differs from 46 T Omega/hbar
    with pytest.raises(ValueError, match=r"1\.15e\+13 mirror scales \(T/\(hbar\*delta\) = 2\.5e\+11\)"):
        susceptibility(SinglePoleMirror(4.0), ThermalState(1.0, hbar=1e-12), 2.0, QuadratureConfig(max_subdivisions=8))


def test_thermal_noise_calls_its_kernel_once_per_batch_of_nodes(monkeypatch):
    # the kernel reads the mirror once a call, on the stacked pairs (w', w - w')
    # of every node and sample of the call
    shapes = []
    amplitudes = SinglePoleMirror.amplitudes

    def counting(self, omega):
        shapes.append(np.shape(omega))
        return amplitudes(self, omega)

    monkeypatch.setattr(SinglePoleMirror, "amplitudes", counting)
    spec = noise_spectrum_grid(SinglePoleMirror(1.0), ThermalState(1.0), FrequencyGrid.symmetric(5.0, 41))
    evaluations = spec.meta["evaluations"]
    assert 0 < len(shapes) <= evaluations.max() / 21
    assert all(len(shape) == 3 and shape[0] == 2 for shape in shapes)
    assert sum(np.prod(shape) for shape in shapes) == 2 * evaluations.sum()


def _nodes(spectrum):
    return lambda model, state, grid: spectrum(model, state, grid).meta["evaluations"]


def _fdt_xi_nodes(model, state, grid):
    # at fdt's tolerance the vacuum xi converges on the starting halves
    quad = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    return vacmirror.fluctuations._xi(model, state, grid.omega, quad)[2]


def _mean_force_nodes(model, state, grid):
    return mean_force(model, state)[2]


class _AmplitudesOnly(Mirror):
    """A model that defines s and r only, so it declares no scale."""

    def __init__(self, inner):
        self.inner = inner

    def s(self, omega):
        return self.inner.s(omega)

    def r(self, omega):
        return self.inner.r(omega)


_SPECTRA = {"noise": noise_spectrum_grid, "chi": susceptibility_grid}
_WIDE = [("noise", "1e3", 210), ("noise", "1e5", 252), ("noise", "1e6", 252), ("noise", "1e8", 336)]
_WIDE += [("chi", "1e6", 252), ("chi", "1e8", 336)]
_MEAN = [((2.0, 0.5), 84), ((1e3, 1.0), 168), ((1e5, 1e4), 210)]
_POLE = SinglePoleMirror(1.0)


@pytest.mark.parametrize(
    "nodes, state, model, grid, ceiling, mean_ceiling",
    [
        (
            _nodes(susceptibility_grid), VacuumState(), SinglePoleMirror(2.0),
            FrequencyGrid.linear(-200.0, 200.0, 2001), 42, 42,
        ),
        (_nodes(susceptibility_grid), VacuumState(), _POLE, FrequencyGrid.linear(-200.0, 200.0, 16001), 42, 42),
        (_nodes(susceptibility_grid), ThermalState(1.0), _POLE, FrequencyGrid.linear(-5.0, 5.0, 101), 126, 126),
        (_nodes(noise_spectrum_grid), ThermalState(1.0), _POLE, FrequencyGrid.linear(-5.0, 5.0, 41), 126, 126),
        (
            _nodes(noise_spectrum_grid), TwoTemperatureState(2.0, 0.5), _POLE,
            FrequencyGrid.linear(-5.0, 5.0, 41), 126, 126,
        ),
        (_fdt_xi_nodes, VacuumState(), SinglePoleMirror(10.0), FrequencyGrid.linear(-5.0, 5.0, 41), 42, 42),
        (_nodes(susceptibility_grid), ThermalState(1.0, 1e-20), _POLE, FrequencyGrid.linear(-5.0, 5.0, 11), 588, 588),
        (
            _nodes(susceptibility_grid), VacuumState(), _AmplitudesOnly(SinglePoleMirror(1e-4)),
            FrequencyGrid.linear(-200.0, 200.0, 401), 294, 264,
        ),
    ]
    + [
        (_nodes(_SPECTRA[kind]), ThermalState(float(t)), _POLE, FrequencyGrid.linear(-5.0, 5.0, 11), c, c)
        for kind, t, c in _WIDE
    ]
    + [(_mean_force_nodes, TwoTemperatureState(*temps), _POLE, None, c, c) for temps, c in _MEAN],
    ids=["vacuum-2001", "vacuum-16001", "thermal-chi", "thermal-noise", "two-temperature-noise", "vacuum-xi-fdt"]
    + ["thermal-chi-hbar1e-20", "vacuum-no-scale"]
    + [f"thermal-{kind}-T{t}" for kind, t, _ in _WIDE]
    + [f"mean-force-{t_phi:g}-{t_psi:g}" for (t_phi, t_psi), _ in _MEAN],
)
def test_shared_subdivision_stays_under_a_node_ceiling(nodes, state, model, grid, ceiling, mean_ceiling):
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
    # then).  One outer thermal piece instead of the geometric ones took 210,
    # 210 and 252 in the three thermal rows, 420 and 504 at T = 1e6 and 1e8,
    # 168 for the mean force at (2, 0.5), and returned a wrong chi in 84
    # nodes at hbar = 1e-20, where the geometric pieces grow as log(T/hbar).
    # Refining every sample until the worst one met its tolerance took the
    # maximum for every sample (168 for the thermal noise); each sample
    # stopping at its own tolerance took 79.3, 99.8, 146.2, 126 and 203.9
    # nodes per sample on average in the first five rows, and no more than
    # before at the most.  Placing the nodes by start + width u^3 instead of
    # by a sinh map at the nearest pole's distance took 84, 126, 168, 126,
    # 210 and 756 at the most, 294, 378, 378 and 462, and 378 and 504 in the
    # wide thermal windows, and 126, 252 and 336 for the mean force; a model
    # without a scale keeps the u^3 map, as a sinh map at a fallback distance
    # took 2-2.7 times its nodes.  Samples with no support (w = 0 for chi,
    # w <= 0 in the vacuum) take none and are left out of the mean.
    counts = np.atleast_1d(nodes(model, state, grid))
    counts = counts[counts > 0]
    assert np.max(counts) <= ceiling
    assert np.mean(counts) <= mean_ceiling


@pytest.mark.parametrize("omega", [1e103, 1e150])
def test_vacuum_spectra_stay_right_at_very_large_frequencies(omega):
    # past |w| ~ 5.6e102 the cube in the tolerance floor's natural scale
    # would overflow, and numpy would warn (an error in this suite)
    model = SinglePoleMirror(1.0)
    chi = susceptibility(model, VacuumState(), omega)
    cff = noise_spectrum(model, VacuumState(), omega)
    assert abs(chi / oracles.chi_single_pole_mp(omega, 1.0) - 1.0) <= 1e-10
    assert abs(cff / oracles.cff_vacuum_mp(omega, 1.0) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "omega_c, omega, reference",
    [(1e-300, 1e10, oracles.chi_single_pole_mp(1e10, 1e-300)), (1e300, 1e-10, complex(oracles.chi_cubic(1e-10)))],
    ids=["pole-1e-300", "pole-1e300"],
)
def test_pole_distances_300_decades_from_the_span_keep_the_error_contract(omega_c, omega, reference):
    # span / d is 5e309, past the largest double, or 5e-311, a subnormal
    grid = FrequencyGrid(np.array([omega, 2.0 * omega]))
    spec = susceptibility_grid(SinglePoleMirror(omega_c), VacuumState(), grid)
    assert abs(spec.values[0] - reference) <= spec.meta["abs_error"][0]


@pytest.mark.parametrize("spectrum", [susceptibility, noise_spectrum, xi_spectrum])
@pytest.mark.parametrize("state", [VacuumState(), ThermalState(1.0)], ids=["vacuum", "thermal"])
def test_overflowing_kernels_raise_naming_the_frequency(spectrum, state):
    # from |w| ~ 1e155 the kernels overflow: one error names the sample, and
    # numpy warns of nothing on the way (warnings are errors here)
    with pytest.raises(NonConvergenceError, match=r"at omega=1e\+160: .*non-finite values encountered"):
        spectrum(SinglePoleMirror(1.0), state, np.array([2.0, 1e160]))


@pytest.mark.parametrize("temp", [1e6, 1e8])
def test_thermal_chi_reaches_its_classical_limit_in_wide_windows(temp):
    # windows of 46 T / hbar Omega = 4.6e7 and 4.6e9, where 1 - s s' + r r'
    # cancels to ~2 Omega^2 / w'^2; chi -> i T Omega w
    grid = FrequencyGrid.linear(-5.0, 5.0, 11)
    chi = susceptibility_grid(SinglePoleMirror(1.0), ThermalState(temp), grid)
    assert grid.omega[7] == 2.0
    assert abs(chi.values[7].imag / (temp * 2.0) - 1.0) <= 1e-6


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
