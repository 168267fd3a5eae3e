"""Motional force response of the mirror.

A small displacement dq(t) around rest modifies the scattering to first
order, and the mean force responds linearly,

    <dF[w]> = chi(w) dq[w],
    chi(w)  = integral dw'/(2 pi) chi[w', w - w'],

with a two-frequency kernel that contracts the static force kernel with the
state's anticommutator spectrum.  For diagonal states the kernel takes the
cancellation-free form

    chi[w, w'] = i alpha(w, w') (w' u(w) + w u(w')),     u(v) = v^2 tr cplus(v),

regular at zero frequency even though cplus alone diverges there.  For the
vacuum, u(v) = hbar |v| / 2 makes the opposite-sign contributions cancel
exactly, leaving the bounded support w' in [0, w]; the perfect-mirror limit
of the resulting integral is the cubic law chi(w) = i hbar w^3 / (6 pi).
Like every convolved kernel, chi[w', w - w'] is even about w' = w/2, so
:func:`convolve` integrates the half of the support below w/2 and doubles it.

The same response can be derived in the comoving frame by perturbing the
input covariance instead of the S-matrix
(:func:`comoving_covariance_perturbation`); both contractions agree
identically, which :func:`chi_kernel_comoving` exposes for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .core import ETA, FrequencyGrid, Spectrum, finite, frequency_pair
from .mirrors import Mirror
from .numerics import QuadratureConfig, integrate_batch
from .pressure import _force_kernel, alpha
from .states import FieldState, VacuumState

# occupancy factor e^{-x} below double precision; sets thermal windows
_THERMAL_DECADES = 46.0


def _modulated(cov, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Modulated covariance i w c(w) eta + i w' eta c(-w'), per (w, w') pair.

    ``cov`` is a covariance spectrum (``cplus`` or ``cfull`` of a state),
    evaluated once on the stacked frequencies; ``w1`` and ``w2`` share a shape.
    """
    c_w, c_neg_w2 = cov(np.array([w1, -w2]))
    return 1j * (w1[..., None, None] * c_w @ ETA + w2[..., None, None] * ETA @ c_neg_w2)


def delta_smatrix(model: Mirror, omega, omega2) -> np.ndarray:
    """First-order scattering perturbation i w' (S(w) eta - eta S(w')).

    The returned matrix multiplies the trajectory weight dq[w - w']; at equal
    frequencies the diagonal cancels and only the off-diagonal -/+ 2 r
    structure survives, while w' = 0 gives the zero matrix.  Elementwise
    over frequency arrays, shape ``... + (2, 2)``.
    """
    w1, w2 = frequency_pair(omega, omega2)
    s_w, s_w2 = model.smatrix(np.array([w1, w2]))
    return 1j * w2[..., None, None] * (s_w @ ETA - ETA @ s_w2)


def chi_kernel(model: Mirror, state: FieldState, omega, omega2):
    """Two-frequency susceptibility kernel chi[w, w'], elementwise over arrays.

    Diagonal states use the cancelled weight form, finite for all arguments;
    general states fall back to the matrix trace
    w w' Tr[F (i w cplus(w) eta + i w' eta cplus(-w'))], which requires
    w, w' != 0.
    """
    if state.diagonal:
        a = alpha(model, omega, omega2)
        return 1j * a * (omega2 * state.chi_weight(omega) + omega * state.chi_weight(omega2))
    w1, w2 = frequency_pair(omega, omega2)
    f = _force_kernel(model, w1, w2)
    return w1 * w2 * np.trace(f @ _modulated(state.cplus, w1, w2), axis1=-2, axis2=-1)


def chi_kernel_symmetrized(model: Mirror, state: FieldState, omega, omega2):
    """Cross-check route: the explicitly symmetrized full-covariance trace.

    (w w'/2) Tr[F[w,w'] (i w c(w) eta + i w' eta c(-w'))
                + F[w',w] (i w' c(w') eta + i w eta c(-w))]

    The commutator parts of c cancel inside the symmetrized trace, so this
    equals :func:`chi_kernel` wherever both are defined (w, w' != 0).
    Elementwise over frequency arrays; both argument orders are stacked.
    """
    w1, w2 = frequency_pair(omega, omega2)
    first = np.array([w1, w2])
    second = first[::-1]
    t12, t21 = _force_kernel(model, first, second) @ _modulated(state.cfull, first, second)
    return w1 * w2 / 2.0 * np.trace(t12 + t21, axis1=-2, axis2=-1)


def comoving_covariance_perturbation(state: FieldState, omega, omega2) -> np.ndarray:
    """Input-covariance perturbation seen from the comoving frame.

    Returns -i w c(w) eta - i w' eta c(-w') per unit dq[w + w']: the mirror's
    motion makes the stationary input appear modulated.  Elementwise over
    frequency arrays, shape ``... + (2, 2)``; raises at zero frequency where
    the full covariance is singular.
    """
    return -_modulated(state.cfull, *frequency_pair(omega, omega2))


def chi_kernel_comoving(model: Mirror, state: FieldState, omega, omega2):
    """Susceptibility kernel computed in the comoving frame.

    i w i w' Tr[F[w,w'] dC_in[w,w']]; identical to :func:`chi_kernel` because
    the commutator parts of the full covariance drop out of the trace.
    Elementwise over frequency arrays.
    """
    w1, w2 = frequency_pair(omega, omega2)
    pert = -_modulated(state.cfull, w1, w2)  # dC_in, as comoving_covariance_perturbation
    f = _force_kernel(model, w1, w2)
    return (1j * w1) * (1j * w2) * np.trace(f @ pert, axis1=-2, axis2=-1)


def convolve(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    omegas,
    state: FieldState,
    model: Mirror,
    quad: QuadratureConfig,
    what: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """integral dw'/(2 pi) kernel(w', w - w') at every w, in one vector quadrature.

    Every convolved kernel is symmetric under argument exchange, so the
    integrand is even about w' = w/2: only the support below w/2 is
    integrated, with doubled weight, and the kink at max(0, w) falls in the
    mirror half.  Vacuum weights vanish outside [0, w], leaving [0, w/2];
    w <= 0 has empty support and gives exactly zero (chi and xi are folded
    onto w > 0 first).  Other states use [lo - reach, lo] and [lo, w/2],
    cut at the kink lo = min(0, w) so kinks line up across samples; reach
    is the larger of the thermal window and ``quad.window`` W (required
    without a decay scale), so the doubled half covers [-W, W].  At w = 0
    only [-reach, 0] is left, doubled: the whole line for an even integrand
    such as the mean force's.  The mirror's width-Omega structure sits at
    the kink (0 for the vacuum) and the far ends (the decayed tail, or w/2)
    are smooth, so a node at u in (0, 1) sits at kink +/- width * u^3 (Sidi
    1993): one subdivision fits all samples, at 84 nodes per vacuum chi
    sample on [-200, 200].  The natural scale hbar|w|^3 + T^2|w|/hbar +
    T^3/hbar^2 tightens ``abs_tol`` in :func:`integrate_batch`, whose
    values, QUADPACK error estimates of the doubled integrand and node
    counts are returned.
    """
    w = finite(omegas, what)
    hbar = state.context.hbar
    decay = state.decay_scale()
    temp = decay or 0.0
    scale = hbar * np.abs(w) ** 3 + (temp**2 * np.abs(w) + temp**3 / hbar) / hbar
    if isinstance(state, VacuumState):
        kink, spans = np.zeros_like(w), np.maximum(w, 0.0)[None] / 2.0
    else:
        if decay is None and quad.window is None:
            raise ValueError(
                f"{what} for a custom state has no known support bound; "
                "set QuadratureConfig.window explicitly"
            )
        reach = max(_THERMAL_DECADES * temp / hbar, quad.window or 0.0)
        kink = np.minimum(0.0, w)
        spans = np.stack([np.full_like(w, -reach), w / 2.0 - kink])
    live = spans.any(axis=0)
    x, kink, spans = w[live], kink[live], spans[:, live]
    spans = spans[spans.any(axis=1)]  # the upper piece at w = 0 is empty
    last = len(spans) - 1

    def integrand(t: np.ndarray, cols: slice) -> np.ndarray:
        # nodes never sit on a piece edge, so each lies inside one piece; it
        # is placed from the kink along the piece's signed span, to keep its
        # digits there even across a wide thermal piece
        piece = np.minimum(t.astype(int), last)
        u = (t - piece)[:, None]
        span = spans[:, cols][piece]
        wp = kink[cols] + span * u**3
        weight = 3.0 / np.pi * u**2 * np.abs(span)  # 2 d(u^3)/du / (2 pi)
        on = span != 0
        if on.all():
            return kernel(wp, x[cols] - wp) * weight
        # an empty piece (the upper one at w = 0) adds nothing, and the
        # kernel may be singular there
        out = np.zeros(wp.shape, dtype=complex)
        out[on] = kernel(wp[on], (x[cols] - wp)[on]) * weight[on]
        return out

    values = np.zeros(w.shape, dtype=complex)
    abs_error = np.zeros(w.shape)
    evaluations = np.zeros(w.shape, dtype=int)
    if x.size:
        values[live], abs_error[live], evaluations[live] = integrate_batch(
            integrand, float(last + 1), scale[live], x, quad, what, tuple(range(1, last + 1))
        )
    return values, abs_error, evaluations


def fold(reflect, kernel, omegas, state: FieldState, model: Mirror, quad: QuadratureConfig, what: str):
    """:func:`convolve` on the distinct |w| > 0 of ``omegas`` only, in one call.

    The results are spread back over ``omegas``, with ``reflect`` applied to
    the values at w < 0 and exact zeros at w = 0, so a symmetry such as
    chi(-w) = conj chi(w) holds bitwise.  Frequencies are checked before
    folding, so a non-finite one is named with its sign.
    """
    w = finite(omegas, what)
    mags, back = np.unique(np.abs(w), return_inverse=True)
    skip = int(mags.size > 0 and mags[0] == 0)  # w = 0 sorts first
    values, abs_error, evaluations = (
        np.concatenate([np.zeros(skip, part.dtype), part])[back].reshape(w.shape)
        for part in convolve(kernel, mags[skip:], state, model, quad, what)
    )
    return np.where(w < 0, reflect(values), values), abs_error, evaluations


def _chi(model: Mirror, state: FieldState, omega, quad: QuadratureConfig):
    return fold(np.conj, partial(chi_kernel, model, state), omega, state, model, quad, "susceptibility")


def susceptibility(
    model: Mirror,
    state: FieldState,
    omega,
    quad: QuadratureConfig = QuadratureConfig(),
):
    """Force susceptibility chi(w) = integral dw'/(2 pi) chi[w', w - w'].

    Parameters
    ----------
    model : Mirror
    state : FieldState
        Built-in diagonal states integrate through the cancellation-free
        kernel; thermal tails are windowed where the occupancy has decayed
        below double precision.
    omega : float or array of float
        Analysis frequencies, all integrated in one vector quadrature (see
        :func:`convolve`); the result has the same shape.  chi(0) = 0 and
        chi(-w) = conj(chi(w)) hold by construction.
    quad : QuadratureConfig

    Raises
    ------
    NonConvergenceError
        If the adaptive quadrature cannot meet its tolerance; the message
        names the worst frequency.
    ValueError
        For a non-finite frequency, or a custom state without
        ``quad.window``.
    """
    return _chi(model, state, omega, quad)[0][()]


def susceptibility_grid(
    model: Mirror,
    state: FieldState,
    grid: FrequencyGrid,
    quad: QuadratureConfig = QuadratureConfig(),
) -> Spectrum:
    """chi(w) sampled on a grid, as a Spectrum.

    Only the distinct |w| > 0 are integrated; negative frequencies are filled
    by conjugation, so on sign-symmetric grids the reality constraint holds
    bitwise.  ``meta["abs_error"]`` and ``meta["evaluations"]`` carry each
    sample's error estimate and the number of quadrature nodes evaluated.
    """
    return budgeted_spectrum(grid, "susceptibility", *_chi(model, state, grid.omega, quad))


def budgeted_spectrum(grid: FrequencyGrid, label: str, values, abs_error, evaluations) -> Spectrum:
    """A convolved Spectrum carrying ``meta["abs_error"]`` and ``meta["evaluations"]``."""
    return Spectrum(grid, values, {"label": label, "abs_error": abs_error, "evaluations": evaluations})


@dataclass(frozen=True)
class MonochromaticOscillation:
    """Trajectory dq(t) = amplitude * cos(frequency * t).

    Its spectrum is a pair of lines at +/- frequency, each carrying weight
    amplitude / 2 as a coefficient of 2 pi delta(w -/+ frequency).
    """

    amplitude: float
    frequency: float

    def __post_init__(self) -> None:
        if not self.frequency > 0:
            raise ValueError("oscillation frequency must be positive")

    def line_weights(self) -> tuple[tuple[float, float], ...]:
        half = self.amplitude / 2.0
        return ((-self.frequency, half), (self.frequency, half))


@dataclass(frozen=True)
class TabulatedSpectrum:
    """Trajectory given by complex spectral samples dq[w] on a symmetric grid.

    Reality of dq(t) requires dq[-w] = conj(dq[w]), verified at construction.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        om = self.grid.omega
        if vals.shape != om.shape:
            raise ValueError("trajectory samples must match the grid")
        if not np.array_equal(om, -om[::-1]):
            raise ValueError("tabulated trajectory needs a sign-symmetric grid")
        if not np.allclose(vals, np.conj(vals[::-1]), rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(vals)))):
            raise ValueError("trajectory spectrum violates dq[-w] = conj(dq[w])")
        object.__setattr__(self, "values", vals)


def motional_force_spectrum(
    model: Mirror,
    state: FieldState,
    traj,
    grid: FrequencyGrid,
    quad: QuadratureConfig = QuadratureConfig(),
) -> Spectrum:
    """Mean force spectrum <dF[w]> = chi(w) dq[w] for a trajectory.

    For :class:`TabulatedSpectrum` trajectories (whose grid must equal
    ``grid``) this is the pointwise product.  For
    :class:`MonochromaticOscillation` the output is a line spectrum: zero
    except at the grid samples nearest +/- frequency, whose values are the
    delta-line coefficients (amplitude/2) chi(+/- frequency); the exact lines
    are also listed in ``meta["lines"]``.
    """
    if isinstance(traj, TabulatedSpectrum):
        if not np.array_equal(traj.grid.omega, grid.omega):
            raise ValueError("trajectory grid must match the requested output grid")
        chi = susceptibility_grid(model, state, grid, quad)
        return chi.with_values(chi.values * traj.values, label="force-spectrum")
    if isinstance(traj, MonochromaticOscillation):
        vals = np.zeros(grid.size, dtype=complex)
        w_lines, weights = np.array(traj.line_weights()).T
        forces = weights * susceptibility(model, state, w_lines, quad)
        for w_line, force in zip(w_lines, forces):
            vals[int(np.argmin(np.abs(grid.omega - w_line)))] += force
        lines = list(zip(w_lines.tolist(), forces.tolist()))
        return Spectrum(
            grid,
            vals,
            {
                "label": "force-spectrum",
                "lines": tuple(lines),
                "delta_convention": "values are coefficients of 2*pi*delta(omega - line)",
            },
        )
    raise TypeError(f"unsupported trajectory type {type(traj).__name__}")
