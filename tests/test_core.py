import math

import numpy as np
import pytest

from vacmirror import (
    ETA,
    CustomState,
    FrequencyGrid,
    QuadratureConfig,
    SinglePoleMirror,
    SingularFrequencyError,
    Spectrum,
    ThermalState,
    TwoTemperatureState,
    VacuumState,
    dagger,
    max_entry,
)
from vacmirror.core import ETA_COLS, ETA_ROWS, sign_closure


def test_eta_squares_to_identity():
    assert np.array_equal(ETA @ ETA, np.eye(2))


@pytest.mark.parametrize("shape", [(), (3,), (4, 5)], ids=["scalar", "stack", "grid"])
def test_sign_vectors_and_dagger_match_the_matrix_forms_bitwise(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    for got, want in (
        (x * ETA_COLS, x @ ETA),
        (x * ETA_ROWS, ETA @ x),
        (dagger(x), np.conj(np.swapaxes(x, -1, -2))),
    ):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(ETA, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda *hbar: VacuumState(*hbar),
        lambda *hbar: ThermalState(1.0, *hbar),
        lambda *hbar: TwoTemperatureState(1.0, 2.0, *hbar),
        lambda *hbar: CustomState(VacuumState().cplus, *hbar),
    ],
    ids=["vacuum", "thermal", "two-temperature", "custom"],
)
def test_every_state_validates_hbar(build, bad):
    assert build().hbar == 1.0
    assert build(2.5).hbar == 2.5
    with pytest.raises(ValueError, match=rf"^hbar must be positive and finite, got {bad}$"):
        build(bad)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: SinglePoleMirror(x),
        lambda x: ThermalState(x),
        lambda x: TwoTemperatureState(x, 1.0),
        lambda x: TwoTemperatureState(1.0, x),
        lambda x: VacuumState(x),
        lambda x: QuadratureConfig(abs_tol=x),
        lambda x: QuadratureConfig(rel_tol=x),
        lambda x: QuadratureConfig(window=x),
    ],
    ids=["omega_c", "temperature", "temp_phi", "temp_psi", "hbar", "abs_tol", "rel_tol", "window"],
)
def test_constructors_reject_non_finite_parameters(build, bad):
    build(1.0)
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_symmetric_grid_is_bitwise_symmetric():
    grid = FrequencyGrid.symmetric(5.0, 101)
    om = grid.omega
    assert om.size == 101
    assert om[50] == 0.0
    assert np.array_equal(om, -om[::-1])
    assert np.isclose(grid.spacing, 0.1)


@pytest.mark.parametrize(
    "omega",
    [
        FrequencyGrid.linear(-2.0, 2.0, 9).omega,
        np.linspace(0.0, 4.0, 9),
        np.linspace(-1.0, 3.0, 9),
        np.array([-0.0, 1.5, -3.0, 1.5]),
        np.array([[2.0, -2.0], [0.5, 0.0]]),
        np.array(0.7),
    ],
    ids=["symmetric", "from-zero", "lopsided", "signed-zero-and-repeats", "2d", "scalar"],
)
def test_sign_closure_holds_both_signs_of_every_frequency(omega):
    closed, at, mirror = sign_closure(omega)
    assert np.array_equal(closed[at], omega) and np.array_equal(closed[mirror], -omega)
    assert np.all(np.diff(closed) > 0) and np.array_equal(closed, -closed[::-1])
    assert not np.any(np.signbit(closed[closed == 0.0]))
    if omega.ndim == 1 and np.array_equal(omega, -omega[::-1]):
        assert closed.tobytes() == omega.tobytes()
        assert np.array_equal(mirror, at[::-1])
    with pytest.raises(ValueError, match="not finite"):
        sign_closure(np.append(omega, np.nan))


def test_spacing_is_exact_from_the_span():
    # a neighbour difference would leave ~1e-12 relative error here
    assert FrequencyGrid.symmetric(200.0, 16001).spacing == 400.0 / 16000


def test_symmetric_grid_rejects_bad_counts():
    with pytest.raises(ValueError):
        FrequencyGrid.symmetric(5.0, 100)
    with pytest.raises(ValueError):
        FrequencyGrid.symmetric(-1.0, 11)


@pytest.mark.parametrize("n", [5, 2001])
@pytest.mark.parametrize("w", [0.3, 0.5, 0.7, 0.9, 1.0])
def test_linear_grid_is_bitwise_sign_symmetric_below_one(w, n):
    # np.linspace(-w, w, n) is not, for 8 of these 10: -w:w must go through symmetric
    om = FrequencyGrid.linear(-w, w, n).omega
    assert np.array_equal(om, -om[::-1])


def test_linear_grid_dispatches_to_symmetric():
    grid = FrequencyGrid.linear(-3.0, 3.0, 7)
    assert np.array_equal(grid.omega, -grid.omega[::-1])
    plain = FrequencyGrid.linear(0.0, 1.0, 5)
    assert np.allclose(plain.omega, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError, match="at least two frequencies"):
        FrequencyGrid.linear(0.0, 1.0, 1)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_grids_name_a_non_finite_bound(bound):
    with pytest.raises(ValueError, match=f"w_min must be finite, got {bound}"):
        FrequencyGrid.linear(bound, 1.0, 5)
    with pytest.raises(ValueError, match=f"w_max must be finite, got {bound}"):
        FrequencyGrid.linear(-1.0, bound, 5)
    with pytest.raises(ValueError, match=f"w_max must be positive and finite, got {bound}"):
        FrequencyGrid.symmetric(bound, 5)


@pytest.mark.parametrize(
    "build",
    [lambda: FrequencyGrid.symmetric(1e308, 5), lambda: FrequencyGrid(np.array([-1e308, 0.0, 1e308]))],
    ids=["symmetric", "from-array"],
)
def test_grids_refuse_a_span_that_overflows(build):
    # the span 2e308 overflows; the spacing derived from it would be inf
    with pytest.raises(ValueError, match=r"grid span \[-1e\+308, 1e\+308\] is too wide: w_max - w_min overflows"):
        build()


def test_grid_rejects_nonuniform_or_unsorted():
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([2.0]))


def test_spectrum_shape_and_meta():
    grid = FrequencyGrid.symmetric(1.0, 5)
    with pytest.raises(ValueError):
        Spectrum(grid, np.zeros(4))
    spec = Spectrum(grid, np.ones(5))
    assert spec.values.dtype == complex
    assert np.array_equal(spec.omega, grid.omega)
    updated = spec.with_values(2.0 * spec.values, note="doubled")
    assert updated.meta["note"] == "doubled"
    assert np.allclose(updated.values, 2.0)


def test_dagger_and_max_entry():
    m = np.array([[1.0 + 2.0j, 3.0j], [4.0, 5.0 - 1.0j]])
    assert np.array_equal(dagger(m), m.conj().T)
    assert np.isclose(max_entry(m), np.sqrt(26.0))


def test_singular_frequency_error_is_value_error():
    assert issubclass(SingularFrequencyError, ValueError)
