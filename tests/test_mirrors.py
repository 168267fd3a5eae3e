import numpy as np
import pytest

from vacmirror import (
    FrequencyGrid,
    PerfectMirror,
    SinglePoleMirror,
    TabulatedMirror,
    validate_model,
)
from vacmirror.mirrors import Mirror


class AcausalMirror(Mirror):
    """Unitary, real, but with its pole in the upper half plane."""

    transparent = True

    def __init__(self, omega_c):
        self.omega_c = omega_c

    def s(self, omega):
        omega = np.asarray(omega, dtype=float)
        return omega / (omega - 1j * self.omega_c)

    def r(self, omega):
        omega = np.asarray(omega, dtype=float)
        return 1j * self.omega_c / (omega - 1j * self.omega_c)


def test_single_pole_hand_values():
    m = SinglePoleMirror(1.0)
    assert np.isclose(m.s(1.0), 0.5 - 0.5j, rtol=0.0, atol=1e-15)
    assert np.isclose(m.r(1.0), -0.5 - 0.5j, rtol=0.0, atol=1e-15)
    assert np.allclose(
        m.smatrix(1.0), [[0.5 - 0.5j, -0.5 - 0.5j], [-0.5 - 0.5j, 0.5 - 0.5j]]
    )


def test_single_pole_unitary_and_real():
    m = SinglePoleMirror(2.5)
    om = np.linspace(-30.0, 30.0, 601)
    assert np.allclose(np.abs(m.s(om)) ** 2 + np.abs(m.r(om)) ** 2, 1.0, atol=1e-14)
    assert np.allclose(m.s(-om), np.conj(m.s(om)), atol=1e-15)
    assert np.allclose(m.r(-om), np.conj(m.r(om)), atol=1e-15)


def test_single_pole_transparency_scales_with_cutoff():
    w = 100.0
    err1 = abs(SinglePoleMirror(1.0).s(w) - 1.0)
    err2 = abs(SinglePoleMirror(2.0).s(w) - 1.0)
    assert err1 < 0.02
    assert np.isclose(err2 / err1, 2.0, rtol=1e-3)
    assert abs(SinglePoleMirror(1.0).r(w)) < 0.02


def test_single_pole_validates_cutoff():
    with pytest.raises(ValueError):
        SinglePoleMirror(0.0)
    with pytest.raises(ValueError):
        SinglePoleMirror(-3.0)


def test_perfect_mirror_values():
    p = PerfectMirror()
    assert p.s(5.0) == 0.0
    assert p.r(-2.0) == -1.0
    assert np.array_equal(p.smatrix(0.7), np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert not p.transparent


def test_base_mirror_is_abstract():
    with pytest.raises(NotImplementedError):
        Mirror().s(1.0)


def test_tabulated_matches_analytic_source():
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 30.0, 601)
    tab = TabulatedMirror(om, m.s(om), m.r(om))
    probe = np.linspace(0.025, 29.9, 777)
    assert np.max(np.abs(tab.s(probe) - m.s(probe))) < 1e-5
    assert np.max(np.abs(tab.r(probe) - m.r(probe))) < 1e-5


def test_tabulated_conjugates_negative_frequencies():
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 10.0, 201)
    tab = TabulatedMirror(om, m.s(om), m.r(om))
    assert tab.s(-3.0) == np.conj(tab.s(3.0))


def test_tabulated_rejects_out_of_range():
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 10.0, 201)
    tab = TabulatedMirror(om, m.s(om), m.r(om))
    with pytest.raises(ValueError):
        tab.s(11.0)
    with pytest.raises(ValueError):
        tab.r(-10.5)


def test_tabulated_construction_validation():
    with pytest.raises(ValueError):
        TabulatedMirror(np.array([0.0, 1.0, 2.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        TabulatedMirror(np.array([-1.0, 0.0, 1.0, 2.0]), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        TabulatedMirror(np.array([0.0, 2.0, 1.0, 3.0]), np.zeros(4), np.zeros(4))


def test_tabulated_transparency_detection():
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 60.0, 601)
    assert TabulatedMirror(om, m.s(om), m.r(om)).transparent
    reflective = TabulatedMirror(om, np.zeros(601), -np.ones(601))
    assert not reflective.transparent
    forced = TabulatedMirror(om, m.s(om), m.r(om), transparent_hint=False)
    assert not forced.transparent


def test_from_csv_roundtrip(tmp_path):
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 20.0, 101)
    rows = np.column_stack(
        [om, m.s(om).real, m.s(om).imag, m.r(om).real, m.r(om).imag]
    )
    path = tmp_path / "mirror.csv"
    np.savetxt(path, rows, delimiter=",", header="omega,re_s,im_s,re_r,im_r", comments="")
    tab = TabulatedMirror.from_csv(path)
    assert np.isclose(tab.s(5.0), m.s(5.0), atol=1e-6)
    assert tab.transparent


def test_from_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad_header.csv"
    path.write_text("omega,s,r\n0,0,0\n1,0,0\n2,0,0\n3,0,0\n")
    with pytest.raises(ValueError, match="header"):
        TabulatedMirror.from_csv(path)


def test_validate_single_pole_passes():
    grid = FrequencyGrid.symmetric(50.0, 2001)
    report = validate_model(SinglePoleMirror(1.0), grid)
    assert report.passed
    assert report.reality <= 1e-14
    assert report.unitarity <= 1e-14
    assert report.causality < 0.05


def test_validate_reports_the_hilbert_tail_bound():
    model = SinglePoleMirror(1.0)
    # Re(s - 1) and Re r are even: on a symmetric grid the edge offset cancels
    assert validate_model(model, FrequencyGrid.symmetric(50.0, 2001)).tail_bound == 0.0
    om = np.linspace(-20.0, 50.0, 2001)
    report = validate_model(model, FrequencyGrid(om))
    edges = [np.real(f[0] - f[-1]) for f in (model.s(om) - 1.0, model.r(om))]
    assert np.isclose(report.tail_bound, max(map(abs, edges)) * 2.0 * np.log(2.0) / np.pi, rtol=1e-12)


def test_validate_perfect_fails_only_transparency():
    grid = FrequencyGrid.symmetric(50.0, 2001)
    report = validate_model(PerfectMirror(), grid)
    assert not report.passed
    assert report.checks["reality"]
    assert report.checks["unitarity"]
    assert report.checks["causality"]
    assert not report.checks["transparency"]


def test_validate_catches_upper_half_plane_pole():
    grid = FrequencyGrid.symmetric(50.0, 2001)
    report = validate_model(AcausalMirror(1.0), grid)
    assert report.checks["reality"]
    assert report.checks["unitarity"]
    assert not report.checks["causality"]
    assert report.causality > 1.0


def test_validate_catches_non_unitary_table():
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 60.0, 601)
    r = m.r(om).copy()
    r[::7] *= 1.3
    tab = TabulatedMirror(om, m.s(om), r)
    report = validate_model(tab, FrequencyGrid.symmetric(50.0, 2001), tol=1e-3)
    assert not report.checks["unitarity"]
    assert report.unitarity > 0.1
