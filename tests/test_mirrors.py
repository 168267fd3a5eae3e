import re

import numpy as np
import pytest

from vacmirror import (
    FrequencyGrid,
    PerfectMirror,
    SinglePoleMirror,
    TabulatedMirror,
    validate_model,
)
from oracles import hilbert_dense
from vacmirror.cli import main
from vacmirror.mirrors import Mirror


class AcausalMirror(Mirror):
    """Unitary, real, but with its pole in the upper half plane."""

    transparent = True

    def __init__(self, omega_c):
        self.omega_c = omega_c

    def amplitudes(self, omega):
        # (s - 1, r) with s = w / (w - i Omega): s - 1 = r
        r = 1j * self.omega_c / (np.asarray(omega, dtype=float) - 1j * self.omega_c)
        return r, r


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
    for method in (Mirror().s, Mirror().r, Mirror().amplitudes, Mirror().smatrix):
        with pytest.raises(NotImplementedError):
            method(1.0)

    class OnlyS(Mirror):
        def s(self, omega):
            return np.ones_like(omega, dtype=complex)

    # one side alone does not define the pair
    with pytest.raises(NotImplementedError):
        OnlyS().r(1.0)


def test_mirror_scale_is_the_width_of_its_structure():
    # thermal convolutions cut their outer piece from 4 scales out; None keeps one piece
    assert SinglePoleMirror(2.5).scale == 2.5
    assert PerfectMirror().scale is None
    assert Mirror().scale is None
    om = np.array([0.0, 0.5, 0.75, 2.0, 4.0])
    assert TabulatedMirror(om, np.ones(5), np.zeros(5)).scale == 0.25


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
    with pytest.raises(ValueError, match="frequency nan outside"):
        tab.amplitudes(np.array([1.0, np.nan]))


def test_tabulated_construction_validation():
    with pytest.raises(ValueError):
        TabulatedMirror(np.array([0.0, 1.0, 2.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        TabulatedMirror(np.array([-1.0, 0.0, 1.0, 2.0]), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        TabulatedMirror(np.array([0.0, 2.0, 1.0, 3.0]), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="sample arrays must match the frequency grid"):
        TabulatedMirror(np.arange(5.0), np.zeros(4), np.zeros(5))


def test_tabulated_transparency_detection():
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 60.0, 601)
    assert TabulatedMirror(om, m.s(om), m.r(om)).transparent
    reflective = TabulatedMirror(om, np.zeros(601), -np.ones(601))
    assert not reflective.transparent


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


def test_from_csv_rejects_four_columns(tmp_path):
    path = tmp_path / "four_columns.csv"
    path.write_text("omega,re_s,im_s,re_r,im_r\n" + "".join(f"{w},1,0,0\n" for w in range(5)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected 5 columns, got 4"):
        TabulatedMirror.from_csv(path)


@pytest.mark.parametrize(
    "cell, nrows, message",
    [
        ((5, 3), 101, r"sample 5 \(omega=1\) is not finite"),
        ((5, 0), 101, r"sample 5 \(omega=nan\) is not finite"),
        (None, 2, "tabulated mirror needs at least 4 sample frequencies"),
    ],
    ids=["nan-value", "nan-omega", "two-rows"],
)
def test_from_csv_rejects_bad_samples_naming_the_file(tmp_path, capsys, cell, nrows, message):
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 20.0, 101)
    rows = np.column_stack([om, m.s(om).real, m.s(om).imag, m.r(om).real, m.r(om).imag])
    if cell:
        rows[cell] = np.nan
    path = tmp_path / "mirror.csv"
    np.savetxt(path, rows[:nrows], delimiter=",", header="omega,re_s,im_s,re_r,im_r", comments="")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        TabulatedMirror.from_csv(path)
    assert main(["validate", "--model", "table", "--file", str(path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_validate_single_pole_passes():
    grid = FrequencyGrid.symmetric(50.0, 2001)
    report = validate_model(SinglePoleMirror(1.0), grid)
    assert report.passed
    assert report.reality <= 1e-14
    assert report.unitarity <= 1e-14
    assert report.causality < 0.05


@pytest.mark.parametrize("om", [np.linspace(-20.0, 50.0, 2001), np.linspace(0.0, 50.0, 2001)])
def test_validate_rejects_a_grid_not_symmetric_about_zero(om):
    # on [0, 50] the causal single pole scored 0.87 and failed the dispersion check
    with pytest.raises(ValueError, match="symmetric about zero"):
        validate_model(SinglePoleMirror(1.0), FrequencyGrid(om))


def test_validate_cli_rejects_a_grid_not_symmetric_about_zero(capsys):
    assert main(["validate", "--grid", "0:50:2001"]) == 2
    assert "error: grid [0, 50] must be symmetric about zero" in capsys.readouterr().err


def test_validate_accepts_symmetric_grids(tmp_path):
    # the default grid is -50:50:4001, the one the benchmark passes
    assert main(["validate", "--out", str(tmp_path / "report.csv")]) == 0
    # no sample at w = 0 is needed
    assert validate_model(SinglePoleMirror(1.0), FrequencyGrid(np.linspace(-50.0, 50.0, 4000))).passed


def test_validate_dispersion_residual_subtracts_the_edge_value():
    # Re(s - 1) enters the transform less its edge value, so that a constant
    # offset reads as causal; scored against the dense transform on the
    # middle half of a grid coarse enough that Re(s - 1) still has a slope
    # between the two outermost samples
    model = SinglePoleMirror(1.0)
    grid = FrequencyGrid.symmetric(20.0, 401)
    sigma = model.amplitudes(grid.omega)[0]
    predicted = -hilbert_dense(grid.omega, sigma.real - sigma.real[0])
    middle = slice(100, 301)
    norms = [np.linalg.norm(x[middle]) for x in (sigma.imag - predicted, sigma.imag, predicted)]
    expect = norms[0] / max(norms[1:])
    assert np.isclose(validate_model(model, grid).causality, expect, rtol=1e-9, atol=0.0)
    shifted = TabulatedMirror(grid.omega[200:], 1.0 + sigma[200:] + 0.25, sigma[200:])
    assert np.isclose(validate_model(shifted, grid).causality, expect, rtol=1e-9, atol=0.0)


def test_validate_scores_transparency_at_the_last_sample():
    # the last-but-one sample is fully reflecting, the last one transparent
    om = np.linspace(0.0, 20.0, 201)
    s, r = np.ones(om.size, complex), np.zeros(om.size, complex)
    s[-2], r[-2] = 0.0, 1.0
    report = validate_model(TabulatedMirror(om, s, r), FrequencyGrid.symmetric(20.0, 401))
    assert report.transparency <= 1e-12
    assert report.checks["transparency"]


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
