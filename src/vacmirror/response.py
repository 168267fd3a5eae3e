"""Motional force response of the mirror.

A small displacement dq(t) around rest modifies the scattering to first
order, and the mean force responds linearly,

    <dF[w]> = chi(w) dq[w],
    chi(w)  = integral dw'/(2 pi) chi[w', w - w'],

with a two-frequency kernel that contracts the static force kernel with the
state's anticommutator spectrum.  For diagonal states the kernel takes the
cancellation-free form

    chi[w, w'] = i alpha(w, w') (w' u(w) + w u(w')),     u(v) = v^2 tr cplus(v),

regular at zero frequency even though cplus alone diverges there.  Its vacuum
part, u(v) = hbar |v| / 2, vanishes exactly for opposite signs, leaving the
bounded support w' in [0, w]; past it only the excess E_phi + E_psi of u
remains, and decays even for the perfect mirror, whose vacuum chi is the cubic
law chi(w) = i hbar w^3 / (6 pi).
Like every convolved kernel, chi[w', w - w'] is even about w' = w/2, so
:func:`convolve` integrates the half of the support below w/2 and doubles it.

The same response can be derived in the comoving frame by perturbing the
input covariance, by -i w c(w) eta - i w' eta c(-w'), instead of the
S-matrix; both contractions agree identically, which
:func:`chi_kernel_comoving` exposes for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FrequencyGrid, Spectrum, finite, frequency_pair
from .mirrors import Mirror
from .numerics import QuadratureConfig, integrate_batch
from .pressure import _alpha, _alpha_beta
from .states import FieldState, VacuumState

# occupancy factor e^{-x} below double precision; sets thermal windows
_THERMAL_DECADES = 46.0
# width ratio of successive outer pieces, the first 4 mirror scales wide
_GROWTH = 64.0


def _traced(a, b, cov, w):
    """w w' Tr[F (i w c(w) eta + i w' eta c(-w'))] per (w, w') pair in ``w``, F = [[a, b], [-b, -a]].

    It is i w w' (a d + b x), d = w tr c(w) + w' tr c(-w') and
    x = w (c01 + c10)(w) - w' (c01 + c10)(-w'), with the covariance ``cov``
    (``cplus`` or ``cfull`` of a state) evaluated once on the stacked frequencies.
    """
    c = cov(np.array([w[0], -w[1]]))
    t, x = c[..., 0, 0] + c[..., 1, 1], c[..., 0, 1] + c[..., 1, 0]
    return 1j * w[0] * w[1] * (a * (w[0] * t[0] + w[1] * t[1]) + b * (w[0] * x[0] - w[1] * x[1]))


def chi_kernel(model: Mirror, state: FieldState, omega, omega2):
    """Two-frequency susceptibility kernel chi[w, w'], elementwise over arrays.

    Diagonal states use the cancelled weight form, finite for all arguments;
    general states fall back to the trace
    w w' Tr[F (i w cplus(w) eta + i w' eta cplus(-w'))], read off F's
    entries (alpha, beta) by :func:`_traced`, which requires w, w' != 0.
    """
    w = frequency_pair(omega, omega2)
    if state.diagonal:
        a = _alpha(*model.amplitudes(w))
        weights = (0.5 * state.hbar) * (w[1] * np.abs(w[0]) + w[0] * np.abs(w[1]))
        if not isinstance(state, VacuumState):  # the vacuum has no excess; E_phi + E_psi at w and w'
            e = np.broadcast_to(np.add(*state.excess(w)), w.shape)
            weights = weights + (w[1] * e[0] + w[0] * e[1])
        a *= 1j  # in place: complex temporaries of numerics._CHUNK_ELEMENTS nodes cost page faults
        a *= weights
        return a
    return _traced(*_alpha_beta(model, w), state.cplus, w)


def chi_kernel_symmetrized(model: Mirror, state: FieldState, omega, omega2):
    """Cross-check route: the explicitly symmetrized full-covariance trace.

    (w w'/2) Tr[F[w,w'] (i w c(w) eta + i w' eta c(-w'))
                + F[w',w] (i w' c(w') eta + i w eta c(-w))]

    The commutator parts of c cancel inside the symmetrized trace, so this
    equals :func:`chi_kernel` wherever both are defined (w, w' != 0).
    Elementwise over frequency arrays; both argument orders are stacked in
    one covariance call, and F[w', w] = F[w, w']^T flips the sign of beta.
    """
    w = frequency_pair(omega, omega2)
    a, b = _alpha_beta(model, w)
    t = _traced(a, np.array([b, -b]), state.cfull, (w, w[::-1]))  # both orders, each (w, w') stacked
    return (t[0] + t[1]) / 2.0


def chi_kernel_comoving(model: Mirror, state: FieldState, omega, omega2):
    """Susceptibility kernel computed in the comoving frame.

    i w i w' Tr[F[w,w'] dC_in[w,w']], the trace of :func:`chi_kernel` with
    the full covariance in place of cplus: identical to it because the
    commutator part I hbar/(4 v) adds hbar/2 - hbar/2 = 0 to :func:`_traced`'s
    d and nothing to its x.  Elementwise over frequency arrays.
    """
    w = frequency_pair(omega, omega2)
    return _traced(*_alpha_beta(model, w), state.cfull, w)


def convolve(
    kernel: Callable[[Mirror, FieldState, np.ndarray, np.ndarray], np.ndarray],
    model: Mirror,
    state: FieldState,
    omegas,
    quad: QuadratureConfig,
    what: str,
    unit: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """integral dw'/(2 pi) kernel(model, state, w', w - w') at every w, in one vector quadrature.

    Every convolved kernel is symmetric under argument exchange, so the
    integrand is even about w' = w/2: only the support below w/2 is
    integrated, with doubled weight, and the kink at max(0, w) falls in the
    mirror half.  Vacuum weights vanish outside [0, w], leaving [0, w/2];
    w <= 0 has empty support and gives exactly zero (chi and xi are folded
    onto w > 0 first).  Other states use [lo - reach, lo] and [lo, w/2],
    cut at the kink lo = min(0, w) so kinks line up across samples; reach
    is the larger of the thermal window 46 T/hbar, T the largest of the
    state's ``temperatures``, and ``quad.window`` W (required without
    one), so the doubled half covers [-W, W].
    The outer piece is cut again at 4 delta, 4 delta 64, 4 delta 64^2, ...
    from the kink, delta the mirror's ``scale`` (None: no cuts), so its
    width-delta structure stays resolved at any T/hbar, in log(T/(hbar
    delta)) pieces, as many for every sample.  At w = 0 only the outer
    pieces are left, doubled: the whole line for an even integrand such as
    the mean force's; beside other samples its empty upper piece has zero
    width and places its nodes on the first piece, adding exact zeros.
    Each piece is one unit of t in :func:`integrate_batch`, and its nodes
    are placed from its end nearer the kink, where the structure is.  The
    kernels' singularities lie off the real axis there: the mirror's at a
    distance delta, the occupancy's Matsubara poles at 2 pi T/hbar.  So
    with d = min(delta, 2 pi T_min/hbar), T_min the state's smallest
    temperature (d = delta in the vacuum), a node at u in (0, 1) sits at
    start +/- d_k sinh(u A_k), A_k = asinh(width/d_k), with weight
    d_k A_k cosh(u A_k)/pi, which moves the pole away from the piece
    (Johnston & Elliott 2005); d_k = max(d, the piece's offset from the
    kink), so the inner and first outer pieces take d and each geometric
    one its cut.  Without a scale the node sits at start +/- width u^3,
    weight 3 width u^2/pi (Sidi 1993).  The samples share one set of
    interval positions, and each stops at its own tolerance: every vacuum
    chi sample on [-200, 200] converges on the starting halves, in 42
    nodes, and a thermal one at T = Omega = hbar = 1 in 126.  With
    theta = T/hbar and m = min(theta, delta), the natural scale
    hbar (|w|^3 + theta m |w| + theta m^2), times ``unit`` (hbar for the noise, C_FF = 2 hbar xi),
    tightens ``abs_tol`` in :func:`integrate_batch`, whose values, QUADPACK
    error estimates of the doubled integrand and node counts are returned.
    Cuts that need more intervals than ``quad.max_subdivisions`` raise
    ValueError naming T/(hbar delta); a budget too small for even one outer
    piece is left to :func:`integrate_batch`.
    """
    w = finite(omegas, what)
    hbar, scale = state.hbar, model.scale
    hottest = max(state.temperatures, default=None)
    theta = (hottest or 0.0) / hbar
    m = theta if scale is None else min(theta, scale)
    # capped where the cube stays finite, past which min(abs_tol, 1e-10 natural) = abs_tol (unit hbar > 1e-290 abs_tol)
    a = np.minimum(np.abs(w), 1e100)
    natural = unit * (hbar * (a**3 + theta * m * a + theta * m * m))
    if isinstance(state, VacuumState):
        kink, starts, spans = np.zeros_like(w), np.zeros(1), np.maximum(w, 0.0)[None] / 2.0
    else:
        if hottest is None and quad.window is None:
            raise ValueError(
                f"{what} for a custom state has no known support bound; "
                "set QuadratureConfig.window explicitly"
            )
        reach = max(_THERMAL_DECADES * theta, quad.window or 0.0)
        cuts, cut = [0.0], 4.0 * (scale or np.inf)
        while cut < reach:
            # with this cut: len(cuts) + 2 pieces, 2 intervals each (budgets under 4 fail in integrate_batch)
            if len(cuts) + 2 > quad.max_subdivisions // 2 >= 2:
                raise ValueError(
                    f"{what}: a window of {reach / scale:.3g} mirror scales (T/(hbar*delta) = "
                    f"{theta / scale:.3g}) needs more than {quad.max_subdivisions} intervals"
                )
            cuts.append(cut)
            cut *= _GROWTH
        cuts.append(reach)
        kink = np.minimum(0.0, w)
        # the outer pieces from the kink outward, each from its end nearer the kink, then the inner one
        starts = -np.array(cuts[:-1] + [0.0])
        spans = np.stack([np.full_like(w, -width) for width in np.diff(cuts)] + [w / 2.0 - kink])
    live = spans.any(axis=0)
    x, kink, spans = w[live], kink[live], spans[:, live]
    keep = spans.any(axis=1)  # the upper piece at w = 0 is empty
    starts, spans = starts[keep], spans[keep]
    last = len(spans) - 1
    empty = spans == 0
    # an empty piece keeps its zero width but places its nodes along the
    # first piece, where the kernel is regular, so they add exact zeros
    spans = np.where(empty, spans[:1], spans)
    origins = kink + starts[:, None]
    # a node at u in (0, 1) sits at origin + lengths shape(rates u), with
    # weight 2 / (2 pi) d(wp)/du = widths slope(rates u)
    if scale is None:  # span u^3
        rates, lengths, widths = np.ones_like(spans), spans, 3.0 / np.pi * np.abs(spans)
        shape, slope = (lambda z: z**3), np.square
    else:  # sign(span) d_k sinh(u A_k), d_k the nearest pole's distance or the piece's offset
        poles = [scale] + [2.0 * np.pi * temperature / hbar for temperature in state.temperatures]
        # |span| / d_k capped at 1e300, so that A_k and the nodes stay finite
        with np.errstate(over="ignore"):
            ratio = np.minimum(np.abs(spans) / np.maximum(min(poles), -starts)[:, None], 1e300)
        distance, rates = np.abs(spans) / ratio, np.arcsinh(ratio)
        lengths, widths = np.copysign(distance, spans), distance / np.pi * rates
        shape, slope = np.sinh, np.cosh
    widths = np.where(empty, 0.0, widths)

    def integrand(t: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # nodes never sit on a piece edge, so each lies inside one piece; it
        # is placed from the piece's end nearer the kink along its signed
        # span, to keep its digits there even across a wide thermal piece
        piece = np.minimum(t.astype(int), last)
        z = (t - piece)[:, None] * rates[:, cols][piece]
        wp = origins[:, cols][piece] + lengths[:, cols][piece] * shape(z)
        return kernel(model, state, wp, x[cols] - wp) * (slope(z) * widths[:, cols][piece])

    values = np.zeros(w.shape, dtype=complex)
    abs_error = np.zeros(w.shape)
    evaluations = np.zeros(w.shape, dtype=int)
    if x.size:
        values[live], abs_error[live], evaluations[live] = integrate_batch(
            integrand, last + 1, natural[live], x, quad, what
        )
    return values, abs_error, evaluations


def fold(reflect, kernel, model: Mirror, state: FieldState, omegas, quad: QuadratureConfig, what: str):
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
        for part in convolve(kernel, model, state, mags[skip:], quad, what)
    )
    return np.where(w < 0, reflect(values), values), abs_error, evaluations


def _chi(model: Mirror, state: FieldState, omega, quad: QuadratureConfig):
    return fold(np.conj, chi_kernel, model, state, omega, quad, "susceptibility")


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
        if not np.isfinite(self.amplitude):
            raise ValueError(f"oscillation amplitude must be finite, got {self.amplitude}")
        if not 0 < self.frequency < np.inf:
            raise ValueError(f"oscillation frequency must be positive and finite, got {self.frequency}")

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
    are also listed in ``meta["lines"]``.  A line more than half a spacing
    beyond the grid span has no nearest sample and raises ValueError.
    """
    if isinstance(traj, TabulatedSpectrum):
        if not np.array_equal(traj.grid.omega, grid.omega):
            raise ValueError("trajectory grid must match the requested output grid")
        chi = susceptibility_grid(model, state, grid, quad)
        return chi.with_values(chi.values * traj.values, label="force-spectrum")
    if isinstance(traj, MonochromaticOscillation):
        vals = np.zeros(grid.size, dtype=complex)
        w_lines, weights = np.array(traj.line_weights()).T
        lo, hi, half = grid.omega[0], grid.omega[-1], 0.5 * grid.spacing
        for w_line in w_lines:
            if not lo - half <= w_line <= hi + half:
                raise ValueError(f"line at omega={w_line:g} lies outside the grid span [{lo:g}, {hi:g}]")
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
