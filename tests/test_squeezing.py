import numpy as np
import pytest

from vacmirror import (
    MonochromaticOscillation,
    SinglePoleMirror,
    SingularFrequencyError,
    ThermalState,
    VacuumState,
    chi_kernel,
    delta_cout,
    delta_cout_vacuum,
    force_kernel,
    oscillation_line_strength,
    oscillation_squeeze_lines,
    secular_hamiltonian_kernel,
)
from vacmirror.core import ETA


def test_general_route_matches_vacuum_closed_form():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    rng = np.random.default_rng(8)
    w1, w2 = rng.uniform(0.1, 6.0, (200, 2)).T
    for sign in (1.0, -1.0):
        a = delta_cout(m, vac, sign * w1, sign * w2)
        b = delta_cout_vacuum(m, sign * w1, sign * w2)
        scale = np.maximum(np.max(np.abs(b), axis=(-2, -1)), 1.0)
        assert np.all(np.max(np.abs(a - b), axis=(-2, -1)) <= 1e-12 * scale)


def test_opposite_signs_give_exact_zero():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    assert np.array_equal(delta_cout_vacuum(m, 1.0, -2.0), np.zeros((2, 2)))
    mixed = delta_cout_vacuum(m, np.array([1.0, -0.5]), np.array([-2.0, 3.0]))
    assert np.array_equal(mixed, np.zeros((2, 2, 2)))
    assert np.max(np.abs(delta_cout(m, vac, 1.0, -2.0))) <= 1e-15
    assert np.max(np.abs(delta_cout(m, vac, -0.5, 3.0))) <= 1e-15


def test_delta_cout_singular_at_zero():
    m = SinglePoleMirror(1.0)
    with pytest.raises(SingularFrequencyError):
        delta_cout(m, VacuumState(), 0.0, 1.0)


def test_reality_constraint():
    m = SinglePoleMirror(1.0)
    th = ThermalState(0.8)
    rng = np.random.default_rng(4)
    for w1, w2 in rng.uniform(-5.0, 5.0, (100, 2)):
        a = delta_cout(m, th, w1, w2)
        b = delta_cout(m, th, -w1, -w2)
        assert np.allclose(b, np.conj(a), atol=1e-13 * max(1.0, np.max(np.abs(a))))


def test_trace_contraction_recovers_susceptibility_kernel():
    # w w' Tr[eta dC_out] reproduces the force-response kernel: the
    # commutator part of the covariance drops out of the trace
    m = SinglePoleMirror(1.0)
    rng = np.random.default_rng(6)
    for state in (VacuumState(), ThermalState(1.2)):
        for w1, w2 in rng.uniform(0.1, 5.0, (100, 2)):
            lhs = w1 * w2 * np.trace(ETA @ delta_cout(m, state, w1, w2))
            rhs = chi_kernel(m, state, w1, w2)
            assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)


def test_secular_kernel_is_weighted_force_kernel():
    m = SinglePoleMirror(2.0)
    w1, w2 = 1.3, -0.4
    assert np.allclose(
        secular_hamiltonian_kernel(m, w1, w2),
        w1 * w2 * force_kernel(m, w1, w2),
        atol=1e-15,
    )
    assert np.array_equal(secular_hamiltonian_kernel(m, 0.0, 2.0), np.zeros((2, 2)))


def test_squeeze_lines_sit_on_support_segments():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    osc = MonochromaticOscillation(amplitude=1.0, frequency=2.0)
    lines = oscillation_squeeze_lines(m, vac, osc, n_samples=17)
    assert len(lines) == 34
    for w, w2, mat in lines:
        assert np.isclose(abs(w + w2), 2.0)
        assert np.sign(w) == np.sign(w2)
        assert mat.shape == (2, 2)
        assert np.max(np.abs(mat)) > 0.0


def test_squeeze_lines_scale_linearly_with_amplitude():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    one = oscillation_squeeze_lines(m, vac, MonochromaticOscillation(1.0, 2.0), 5)
    two = oscillation_squeeze_lines(m, vac, MonochromaticOscillation(2.0, 2.0), 5)
    for (w_a, w2_a, mat_a), (w_b, w2_b, mat_b) in zip(one, two):
        assert w_a == w_b and w2_a == w2_b
        assert np.allclose(mat_b, 2.0 * mat_a)


def test_line_strength_vanishes_for_slow_drive():
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    strengths = []
    for w0 in (1.0, 0.1, 0.01, 0.001):
        st = oscillation_line_strength(
            m, vac, MonochromaticOscillation(amplitude=1.0, frequency=2.0 * w0)
        )
        assert set(st) == {-2.0 * w0, 2.0 * w0}
        assert np.isclose(st[2.0 * w0], st[-2.0 * w0], rtol=1e-12)
        strengths.append(st[2.0 * w0])
    assert all(a > b > 0.0 for a, b in zip(strengths, strengths[1:]))
    # the strength falls off linearly: segment length ~ w0, kernel bounded
    assert strengths[-1] < 2e-3 * strengths[0]
    assert np.isclose(strengths[3] / strengths[2], 0.1, rtol=0.02)
