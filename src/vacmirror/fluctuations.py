"""Force noise, the force commutator, and the fluctuation-dissipation check.

The radiation-pressure fluctuations on a motionless mirror are governed by
the two-frequency correlation kernel

    C_FF[w, w'] = 2 w^2 w'^2 Tr[F[w,w'] c(w) F[w,w']^dagger c(w')^T],

whose convolution C_FF(w) = integral dw'/(2 pi) C_FF[w', w - w'] is the force
noise spectrum.  For states diagonal in the doublet basis the trace collapses
to a sum over squared kernel entries weighted by W(v) = v^2 c(v),

    C_FF[w, w'] = 2 [ |alpha|^2 (W1 W1' + W2 W2') + |beta|^2 (W1 W2' + W2 W1') ],

which keeps every vacuum theta factor exact: negative-frequency vacuum noise
is identically zero, not small.

The antisymmetrized kernel is the force commutator.  It can be built either
from the noise kernel or from the susceptibility kernel,

    xi[w, w'] = (C_FF[w,w'] - C_FF[-w',-w]) / (2 hbar)
              = (chi[w,w'] - chi[-w,-w']) / (2 i),

and its convolution xi(w) ties noise to dissipation:

    xi(w) = (C_FF(w) - C_FF(-w)) / (2 hbar) = Im chi(w).

:func:`fdt_check` evaluates all three routes independently on a grid and
reports their maximum disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import FrequencyGrid, Spectrum, dagger
from .mirrors import Mirror
from .numerics import QuadratureConfig
from .pressure import alpha, beta, force_kernel
from .response import budgeted_spectrum, chi_kernel, convolve, fold, susceptibility
from .states import FieldState, VacuumState


def cff_kernel(model: Mirror, state: FieldState, omega, omega2):
    """Noise kernel C_FF[w, w'], symmetric in its arguments, elementwise over arrays.

    Diagonal states evaluate through the noise weights (exact zeros where the
    vacuum occupancy vanishes); general states use the full-covariance trace,
    which requires w, w' != 0.
    """
    if state.diagonal:
        a = alpha(model, omega, omega2)
        b = beta(model, omega, omega2)
        w1 = state.noise_weight(omega)
        w2 = state.noise_weight(omega2)
        return 2.0 * (
            np.abs(a) ** 2 * (w1[..., 0] * w2[..., 0] + w1[..., 1] * w2[..., 1])
            + np.abs(b) ** 2 * (w1[..., 0] * w2[..., 1] + w1[..., 1] * w2[..., 0])
        )
    w1 = np.asarray(omega, dtype=float)
    w2 = np.asarray(omega2, dtype=float)
    f = force_kernel(model, w1, w2)
    c_w2_t = np.swapaxes(state.cfull(w2), -1, -2)
    return 2.0 * w1**2 * w2**2 * np.trace(
        f @ state.cfull(w1) @ dagger(f) @ c_w2_t, axis1=-2, axis2=-1
    )


def commutator_kernel(
    model: Mirror,
    state: FieldState,
    omega,
    omega2,
    route: str = "noise",
):
    """Force commutator kernel xi[w, w'], elementwise over arrays.

    route="noise" antisymmetrizes the noise kernel (valid beyond Gaussian
    states); route="response" antisymmetrizes the susceptibility kernel.  The
    two must agree for the built-in states.
    """
    if route == "noise":
        hbar = state.context.hbar
        return (
            cff_kernel(model, state, omega, omega2)
            - cff_kernel(model, state, -omega2, -omega)
        ) / (2.0 * hbar)
    if route == "response":
        return (
            chi_kernel(model, state, omega, omega2)
            - chi_kernel(model, state, -omega, -omega2)
        ) / 2.0j
    raise ValueError(f"unknown route {route!r}")


def _real(values: np.ndarray, omega, what: str) -> np.ndarray:
    """Real parts of convolved spectra that must be real; raises on a residue."""
    residue = np.abs(values.imag) > 1e-10 * np.maximum(np.abs(values.real), 1e-300)
    if np.any(residue):
        k = int(np.argmax(residue))
        raise ValueError(
            f"{what} at w={np.ravel(omega)[k]:g} has imaginary residue {np.ravel(values)[k].imag:.3e}"
        )
    return values.real


def _noise(model: Mirror, state: FieldState, omega, quad: QuadratureConfig):
    kernel = partial(cff_kernel, model, state)
    values, abs_error, evaluations = convolve(kernel, omega, state, model, quad, "noise_spectrum")
    return _real(values, omega, "noise spectrum"), abs_error, evaluations


def noise_spectrum(
    model: Mirror,
    state: FieldState,
    omega,
    quad: QuadratureConfig = QuadratureConfig(),
):
    """Force noise spectrum C_FF(w), real and nonnegative, at a frequency or an array.

    Vacuum noise is exactly zero for w <= 0 (the vacuum damps mirror motion
    but cannot excite it); thermal spectra satisfy the detailed-balance ratio
    C_FF(-w)/C_FF(w) = e^{-hbar w / T}.  All frequencies are integrated in one
    vector quadrature.
    """
    return _noise(model, state, omega, quad)[0][()]


def xi_spectrum(
    model: Mirror,
    state: FieldState,
    omega,
    quad: QuadratureConfig = QuadratureConfig(),
):
    """Commutator spectrum xi(w): convolution of the commutator kernel.

    Real and odd in w; equals Im chi(w) when the fluctuation-dissipation
    relation holds.  In the vacuum the oddness holds by construction.
    """
    kernel = partial(commutator_kernel, model, state)

    def compute(w):
        return convolve(kernel, w, state, model, quad, "xi_spectrum")

    values = (fold(omega, compute, np.negative) if isinstance(state, VacuumState) else compute(omega))[0]
    return _real(values, omega, "commutator spectrum")[()]


def noise_spectrum_grid(
    model: Mirror,
    state: FieldState,
    grid: FrequencyGrid,
    quad: QuadratureConfig = QuadratureConfig(),
) -> Spectrum:
    """C_FF(w) sampled on a grid, as a Spectrum with per-sample error budgets."""
    return budgeted_spectrum(grid, "noise-spectrum", *_noise(model, state, grid.omega, quad))


@dataclass(frozen=True)
class FdtReport:
    """Three-route commutator spectra on a grid and their disagreement.

    Attributes
    ----------
    grid : FrequencyGrid
    xi_commutator : numpy.ndarray
        Route (a): convolution of the antisymmetrized noise kernel.
    xi_noise : numpy.ndarray
        Route (b): (C_FF(w) - C_FF(-w)) / (2 hbar).
    xi_chi : numpy.ndarray
        Route (c): Im chi(w).
    max_deviation : float
        Largest pairwise difference across the grid.
    peak : float
        max |xi| across routes, the natural scale for max_deviation.
    """

    grid: FrequencyGrid
    xi_commutator: np.ndarray
    xi_noise: np.ndarray
    xi_chi: np.ndarray
    max_deviation: float
    peak: float

    @property
    def relative_deviation(self) -> float:
        return self.max_deviation / max(self.peak, 1e-300)

    def passes(self, tol: float) -> bool:
        return self.relative_deviation <= tol


def fdt_check(
    model: Mirror,
    state: FieldState,
    grid: FrequencyGrid,
    quad: QuadratureConfig = QuadratureConfig(),
) -> FdtReport:
    """Evaluate the fluctuation-dissipation relation on a symmetric grid.

    Computes xi(w) three independent ways (commutator-kernel convolution,
    antisymmetrized noise spectra, imaginary part of the susceptibility) and
    reports the maximum pairwise deviation together with the peak magnitude
    it should be compared against.
    """
    om = grid.omega
    if not np.array_equal(om, -om[::-1]):
        raise ValueError("fdt_check needs a sign-symmetric grid")
    hbar = state.context.hbar

    xi_a = xi_spectrum(model, state, om, quad)
    cff = noise_spectrum(model, state, om, quad)
    xi_b = (cff - cff[::-1]) / (2.0 * hbar)
    xi_c = np.imag(susceptibility(model, state, om, quad))

    deviation = max(
        float(np.max(np.abs(xi_a - xi_b))),
        float(np.max(np.abs(xi_a - xi_c))),
        float(np.max(np.abs(xi_b - xi_c))),
    )
    peak = float(max(np.max(np.abs(xi_a)), np.max(np.abs(xi_b)), np.max(np.abs(xi_c))))
    return FdtReport(
        grid=grid,
        xi_commutator=xi_a,
        xi_noise=xi_b,
        xi_chi=xi_c,
        max_deviation=deviation,
        peak=peak,
    )
