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

The mean force, an integral of an even integrand, is the convolution at w = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import FrequencyGrid, Spectrum, dagger, frequency_pair
from .mirrors import Mirror
from .numerics import QuadratureConfig
from .pressure import _force_kernel, alpha_beta, mean_force_integrand
from .response import _chi, budgeted_spectrum, chi_kernel, convolve, fold
from .states import FieldState


def cff_kernel(model: Mirror, state: FieldState, omega, omega2):
    """Noise kernel C_FF[w, w'], symmetric in its arguments, elementwise over arrays.

    Diagonal states evaluate through the noise weights (exact zeros where the
    vacuum occupancy vanishes); general states use the full-covariance trace,
    which requires w, w' != 0.
    """
    if state.diagonal:
        a, b = alpha_beta(model, omega, omega2)
        w1 = state.noise_weight(omega)
        w2 = state.noise_weight(omega2)
        return 2.0 * (
            np.abs(a) ** 2 * (w1[..., 0] * w2[..., 0] + w1[..., 1] * w2[..., 1])
            + np.abs(b) ** 2 * (w1[..., 0] * w2[..., 1] + w1[..., 1] * w2[..., 0])
        )
    w1, w2 = frequency_pair(omega, omega2)
    f = _force_kernel(model, w1, w2)
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


def _xi(model: Mirror, state: FieldState, omega, quad: QuadratureConfig):
    # C_FF[a, b] = C_FF[b, a] for every state makes xi odd: xi(-w) = -xi(w)
    kernel = partial(commutator_kernel, model, state)
    values, abs_error, evaluations = fold(np.negative, kernel, omega, state, model, quad, "xi_spectrum")
    return _real(values, omega, "commutator spectrum"), abs_error, evaluations


def xi_spectrum(
    model: Mirror,
    state: FieldState,
    omega,
    quad: QuadratureConfig = QuadratureConfig(),
):
    """Commutator spectrum xi(w): convolution of the commutator kernel.

    Real and odd in w; equals Im chi(w) when the fluctuation-dissipation
    relation holds.  The oddness holds by construction: only w > 0 is
    integrated.
    """
    return _xi(model, state, omega, quad)[0][()]


def mean_force(model: Mirror, state: FieldState, quad: QuadratureConfig = QuadratureConfig()):
    """Mean force and its quadrature error: integral dw/(2 pi) of w^2 Tr[F(w, -w) cplus(w)].

    The integrand is even in w, so this is :func:`convolve` at w = 0, with
    the windows and error contract of every spectrum.  For diagonal states
    its vacuum parts cancel, so it decays thermally for any mirror, the
    perfect one included.  The force is exactly zero for isotropic states,
    and positive toward the colder side for two-temperature states with the
    hotter component incident from the left.
    """
    w = np.zeros(1)
    values, abs_error, _ = convolve(
        lambda a, b: mean_force_integrand(model, state, a), w, state, model, quad, "mean force"
    )
    return float(_real(values, w, "mean force")[0]), float(abs_error[0])


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
    error_budget : float
        Largest quadrature error estimate of any route at any frequency:
        route (b) carries (e(w) + e(-w)) / (2 hbar) from its noise samples.
        A max_deviation below it says nothing about the relation.
    """

    grid: FrequencyGrid
    xi_commutator: np.ndarray
    xi_noise: np.ndarray
    xi_chi: np.ndarray
    max_deviation: float
    peak: float
    error_budget: float

    @property
    def within_budget(self) -> bool:
        """Whether the routes agree to within their quadrature errors."""
        return self.max_deviation <= self.error_budget

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
    it should be compared against and the routes' quadrature error budget.
    """
    om = grid.omega
    if not np.array_equal(om, -om[::-1]):
        raise ValueError("fdt_check needs a sign-symmetric grid")
    hbar = state.context.hbar

    xi_a, err_a, _ = _xi(model, state, om, quad)
    cff, err_cff, _ = _noise(model, state, om, quad)
    xi_b = (cff - cff[::-1]) / (2.0 * hbar)
    err_b = (err_cff + err_cff[::-1]) / (2.0 * hbar)
    chi, err_c, _ = _chi(model, state, om, quad)
    xi_c = np.imag(chi)

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
        error_budget=float(max(np.max(err_a), np.max(err_b), np.max(err_c))),
    )
