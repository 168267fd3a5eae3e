import numpy as np
import pytest

import oracles
from vacmirror import (
    FrequencyGrid,
    Spectrum,
    causality_report,
)


@pytest.fixture(scope="module")
def single_pole_spectrum():
    grid = FrequencyGrid.symmetric(200.0, 16001)
    vals = np.array([oracles.chi_single_pole(w, 2.0) for w in grid.omega])
    return Spectrum(grid, vals)


@pytest.fixture(scope="module")
def single_pole_report(single_pole_spectrum):
    return causality_report(single_pole_spectrum)


@pytest.fixture(scope="module")
def lorentzian_spectrum():
    grid = FrequencyGrid.symmetric(200.0, 16001)
    om = grid.omega
    return Spectrum(grid, (1.0 + 1j * om) / (1.0 + om * om))


def test_causal_response_passes_both_metrics(single_pole_report):
    rep = single_pole_report
    assert rep.mode == "inertial"
    assert rep.negative_time_fraction < 1e-3
    assert rep.kk_residual < 0.01
    assert rep.passes()


def test_acausal_cubic_fails_both_metrics():
    grid = FrequencyGrid.symmetric(200.0, 16001)
    vals = np.array([oracles.chi_cubic(w) for w in grid.omega])
    rep = causality_report(Spectrum(grid, vals))
    # a pure-imaginary odd law splits its energy evenly across t = 0 and has
    # no real part for the dispersion relation to reconstruct
    assert np.isclose(rep.negative_time_fraction, 0.5, atol=1e-6)
    assert np.isclose(rep.kk_residual, 1.0, atol=1e-6)
    assert not rep.passes()


def test_causal_lorentzian_passes_in_direct_mode(lorentzian_spectrum):
    rep = causality_report(lorentzian_spectrum)
    assert rep.mode == "direct"
    assert rep.negative_time_fraction < 1e-5
    assert rep.kk_residual < 1e-3
    assert rep.passes()


def test_mode_override_and_auto_detection(single_pole_spectrum, single_pole_report, lorentzian_spectrum):
    forced = causality_report(single_pole_spectrum, mode="inertial")
    assert single_pole_report.mode == forced.mode == "inertial"
    assert np.isclose(
        single_pole_report.negative_time_fraction, forced.negative_time_fraction
    )
    forced_direct = causality_report(lorentzian_spectrum, mode="inertial")
    assert forced_direct.mode == "inertial"


def test_report_fields(single_pole_report):
    rep = single_pole_report
    assert rep.t_exclusion > 0.0
    assert 0.0 <= rep.negative_energy <= rep.total_energy


def test_config_validation(lorentzian_spectrum):
    with pytest.raises(ValueError, match="mode"):
        causality_report(lorentzian_spectrum, mode="sideways")


def test_grid_requirements():
    asym = Spectrum(FrequencyGrid(np.linspace(0.0, 10.0, 201)), np.ones(201, dtype=complex))
    with pytest.raises(ValueError, match="symmetric"):
        causality_report(asym)
    small = Spectrum(FrequencyGrid.symmetric(5.0, 65), np.ones(65, dtype=complex))
    with pytest.raises(ValueError, match="samples"):
        causality_report(small)
