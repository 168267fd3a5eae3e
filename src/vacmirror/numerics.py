"""Vector quadrature, principal-value transforms, and inverse Fourier transforms.

Three operations used throughout the package:

* :func:`integrate_batch` integrates a vector of integrands, one per
  frequency sample, in one adaptive G10-K21 Gauss-Kronrod quadrature
  (QUADPACK's rule and error estimate, Piessens et al. 1983), starting from
  the halves of every piece; each refinement round evaluates all nodes of
  the intervals it splits in a few vector calls.  Each sample keeps the
  error contract of a scalar adaptive rule: its own estimate satisfies its
  own tolerance, and the call reports that estimate and the node count, or
  a :class:`NonConvergenceError` naming the worst frequency is raised.
* :func:`hilbert_transform` computes the windowed principal-value transform
  (1/pi) P int f(w') / (w' - w) dw' on a uniform grid, excising a symmetric
  neighborhood of the singularity and restoring it with a derivative
  correction.
* :func:`inverse_fourier_to_time` applies the package Fourier convention
  f(t) = int dw/(2*pi) f[w] exp(-i*w*t) to a sampled spectrum.

Both grid transforms are trapezoid rules on uniform grids, evaluated as FFT
convolutions in O(n log n) time and O(n) memory: the principal value as a
Toeplitz product, the inverse Fourier sum as a chirp-z transform.  The FFTs
are ``numpy.fft``, zero-padded to the next power of two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FrequencyGrid, Spectrum

_TINY = 1e-300


class NonConvergenceError(RuntimeError):
    """Quadrature failed to meet its tolerance.

    Attributes
    ----------
    best : complex
        Best available estimate of the integral.
    error_estimate : float
        Estimated absolute error of ``best``.
    """

    def __init__(self, message: str, best: complex, error_estimate: float):
        super().__init__(message)
        self.best = best
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for adaptive quadrature.

    Parameters
    ----------
    abs_tol, rel_tol : float
        The integral estimate must satisfy
        ``error <= max(abs_tol, rel_tol * |value|)``.
    max_subdivisions : int
        Upper bound on the intervals, the starting halves included.
    window : float, optional
        Half-width W: convolutions over states without a known decay scale
        integrate over at least [-W, W].
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200
    window: float | None = None

    def __post_init__(self) -> None:
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.window is not None and not 0 < self.window < np.inf:
            raise ValueError("window must be positive and finite when given")


# Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK qk21): the nonnegative
# nodes in descending order and their Kronrod weights; the 10-point Gauss
# rule uses every second node, starting from the second.
_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_HALF_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_HALF_GAUSS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_NODES = np.r_[_HALF_NODES, -_HALF_NODES[-2::-1]]
_KRONROD = np.r_[_HALF_KRONROD, _HALF_KRONROD[-2::-1]]
_GAUSS = np.r_[_HALF_GAUSS, _HALF_GAUSS[::-1]]  # at _NODES[1::2]

# node values per integrand call, in elements: a call takes the nodes of one or
# more whole intervals, for all samples or for a block of them.  The budget
# trades per-element cost against per-call overhead.  At 8190 complex elements
# each temporary is ~128 KiB, glibc's default mmap threshold: a standalone
# pressure.alpha call of that size takes 192 minor page faults and ~65 ns per
# element, one of 4096 elements none and ~23 ns.  Yet halving the budget
# doubles the calls, and lost in the benchmark (run_s medians, 4 pairs of 40 s
# runs, 2-core VM: vacuum-wideband 0.0281 -> 0.0314 s, thermal-spectra
# 0.0202 -> 0.0214 s), so it stays at 8192.  Its passes fault ~0 times: it
# frees an 8 MB array first, which raises glibc's dynamic trim and mmap
# thresholds.  A one-shot `vacmirror causality` (16001 points) is not covered:
# ~20,000 minor faults, 165-185 ms; ~1,370, 125-155 ms with both raised.
_CHUNK_ELEMENTS = 1 << 13
# intervals split in one refinement round at most
_MAX_SPLITS = 128


def _gauss_kronrod(f, a: np.ndarray, b: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """K21 integrals of ``f`` over [a_i, b_i] and their QUADPACK error estimates.

    ``f(t, cols)`` maps a vector of nodes to the values of the samples in
    the slice ``cols`` of range(m), one row per node.  Each call stays within
    the element budget, and its values are reduced before the next call.
    Returns two arrays of shape (intervals, m).
    """
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    values = np.empty((a.size, m), dtype=complex)
    errors = np.empty((a.size, m))
    width = min(m, max(1, _CHUNK_ELEMENTS // _NODES.size))
    step = max(1, _CHUNK_ELEMENTS // (_NODES.size * width))
    for lo in range(0, a.size, step):
        part = slice(lo, lo + step)
        h = half[part, None]
        t = (centre[part, None] + h * _NODES).ravel()
        for first in range(0, m, width):
            cols = slice(first, first + width)
            fv = f(t, cols).reshape(h.size, _NODES.size, -1)
            kronrod = np.einsum("j,ijk->ik", _KRONROD, fv)
            gauss = np.einsum("j,ijk->ik", _GAUSS, fv[:, 1::2])
            absolute = np.einsum("j,ijk->ik", _KRONROD, np.abs(fv))
            deviation = np.einsum("j,ijk->ik", _KRONROD, np.abs(fv - 0.5 * kronrod[:, None]))
            err = h * np.abs(kronrod - gauss)
            spread = h * deviation
            # QUADPACK: the |K - G| estimate, sharpened by (200 |K - G| / spread)^1.5
            # and floored by the rounding error of the sum
            ratio = 200.0 * err / np.where(spread > 0, spread, 1.0)
            err = np.where((spread > 0) & (err > 0), spread * np.minimum(1.0, ratio**1.5), err)
            rounding = 50.0 * np.finfo(float).eps * h * absolute
            errors[part, cols] = np.where(rounding > np.finfo(float).tiny, np.maximum(err, rounding), err)
            values[part, cols] = h * kronrod
    return values, errors


def integrate_batch(
    f: Callable[[np.ndarray, slice], np.ndarray],
    length: float,
    scale: np.ndarray,
    omegas: np.ndarray,
    cfg: QuadratureConfig,
    what: str,
    points: tuple[float, ...] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One adaptive Gauss-Kronrod quadrature over t in [0, length] of a vector integrand.

    ``f(t, cols)`` takes a vector of nodes t and a slice ``cols`` of the
    samples and returns the values of those samples at those nodes, one row
    per node; sample k belongs to frequency ``omegas[k]``.  All samples
    share one subdivision, which starts from the halves of every piece
    between ``points`` (kinks shared by all samples), and every interval
    carries a G10-K21 value and a QUADPACK error estimate per sample.
    Sample k has the target ``max(floor_k, rel_tol * |v_k|)``, with
    ``floor_k = min(abs_tol, 1e-10 * scale_k)`` (``abs_tol`` alone where
    ``scale_k = 0``) and v_k the running value.  Each refinement round
    splits the intervals whose errors, in units of the targets and in the
    max norm over samples, are largest: the worst one, and further ones
    while the errors left over exceed 1/8, at most 128, as
    ``scipy.integrate.quad_vec`` picks them.  All 21 nodes of all their
    halves are evaluated in a few calls of ``f``.  The rule stops once the
    scaled errors sum below 1/8, so each sample's own estimate is at most
    1/8 of its target.

    Returns
    -------
    values, abs_error, evaluations : numpy.ndarray
        Complex integrals, each sample's QUADPACK error estimate and the
        number of nodes at which ``f`` was evaluated (the same for every
        sample).

    Raises
    ------
    NonConvergenceError
        If more than ``cfg.max_subdivisions`` intervals are needed, a value
        is not finite, or an estimate exceeds its sample's target.
        The message names the worst sample as ``omega=...``; the exception
        carries its estimate and error.
    """
    scale = np.asarray(scale, dtype=float)
    floor = np.where(scale > 0, np.minimum(cfg.abs_tol, 1e-10 * scale), cfg.abs_tol)
    edges = np.unique(np.clip([0.0, *points, length], 0.0, length))
    # no estimate of a whole piece is trusted on its own: start from its halves
    edges = np.unique(np.r_[edges, 0.5 * (edges[:-1] + edges[1:])])
    a, b = edges[:-1].copy(), edges[1:].copy()
    parts, errors = _gauss_kronrod(f, a, b, scale.size)
    evaluations = a.size * _NODES.size
    converged, reason = False, "maximum number of subdivisions reached"
    while True:
        values = parts.sum(axis=0)
        target = np.maximum(floor, cfg.rel_tol * np.abs(values))
        scaled = np.max(errors / target, axis=1)
        total = scaled.sum()
        if not np.isfinite(total):
            reason = "non-finite values encountered"
            break
        if total < 0.125 and a.size <= cfg.max_subdivisions:
            converged = True
            break
        if a.size >= cfg.max_subdivisions:
            break
        order = np.argsort(-scaled, kind="stable")[:_MAX_SPLITS]
        before = np.cumsum(scaled[order]) - scaled[order]
        split = order[np.r_[True, before[1:] <= total - 0.125]]
        mid, right = 0.5 * (a[split] + b[split]), b[split]
        halves, half_errors = _gauss_kronrod(f, np.r_[a[split], mid], np.r_[mid, right], scale.size)
        evaluations += 2 * split.size * _NODES.size
        b[split] = mid
        a, b = np.r_[a, mid], np.r_[b, right]
        parts[split], errors[split] = halves[: split.size], half_errors[: split.size]
        parts = np.concatenate([parts, halves[split.size:]])
        errors = np.concatenate([errors, half_errors[split.size:]])
    abs_error = errors.sum(axis=0)
    excess = abs_error / target
    if converged and np.all(excess <= 1.0):
        return values, abs_error, np.full(values.shape, evaluations)
    if converged:
        reason = "error estimate exceeds tolerance"
    k = int(np.argmax(excess))  # a NaN counts as the largest
    raise NonConvergenceError(
        f"{what} at omega={float(omegas[k])!r}: quadrature did not converge: {reason}",
        best=complex(values[k]),
        error_estimate=float(abs_error[k]),
    )


def hilbert_transform(spectrum: Spectrum) -> Spectrum:
    """Windowed principal-value transform of a real sampled spectrum.

    Computes ``g(w) = (1/pi) P int f(w') / (w' - w) dw'`` over the grid span.
    At each sample the symmetric neighborhood [w - h, w + h] is excised and
    restored analytically: the principal value over the excised window equals
    2h f'(w) + O(h^3), estimated by the centered difference f[j+1] - f[j-1].
    The trapezoid sum is one FFT convolution with the Toeplitz kernel
    1/(k - j); each neighbor of the excised sample then loses h/2 of weight.

    Parameters
    ----------
    spectrum : Spectrum
        Real-valued samples on a uniform grid; imaginary parts are discarded.
        The input should decay toward the grid ends, otherwise the neglected
        tail dominates.

    Returns
    -------
    Spectrum
        Real-valued transform with ``meta["tail_bound"]`` set to an estimate
        of the neglected out-of-window contribution, assuming the input decays
        at least like 1/|w| beyond the grid.  A ``meta["warning"]`` entry is
        added (and a RuntimeWarning emitted) when that bound exceeds 1e-3 of
        the transform's peak magnitude.

    Notes
    -----
    Edge samples use one-sided excision and are less accurate; restrict
    quantitative use to the grid interior.
    """
    f = np.real(spectrum.values).astype(float)
    n = f.size
    size = 1 << (2 * n - 2).bit_length()  # the power of two >= 2n - 1
    # kernel[d] = 1/(k - j) at d = j - k, wrapped for d < 0
    inv = 1.0 / np.arange(1, n)
    kernel = np.zeros(size)
    kernel[1:n], kernel[size - n + 1:] = -inv, inv[::-1]
    trapezoid = np.r_[0.5 * f[0], f[1:-1], 0.5 * f[-1]]
    pv = np.fft.irfft(np.fft.rfft(trapezoid, size) * np.fft.rfft(kernel), size)[:n]
    zero, edge = np.pad(f, 1), np.pad(f, 1, mode="edge")
    out = (pv - 0.5 * (zero[2:] - zero[:-2]) + (edge[2:] - edge[:-2])) / np.pi

    # Tail estimate: if |f| ~ A/|w'| beyond the window, the out-of-window
    # contribution at interior samples is bounded by ~(2 ln 2 / pi) * |f_edge|.
    tail = (abs(f[0]) + abs(f[-1])) * (2.0 * np.log(2.0) / np.pi)
    meta: dict = {"tail_bound": tail}
    threshold = 1e-3 * max(np.max(np.abs(out)), _TINY)
    if tail > threshold:
        msg = (
            f"hilbert_transform: estimated out-of-window tail {tail:.3e} exceeds "
            f"{threshold:.3e}; widen the grid span"
        )
        meta["warning"] = msg
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return Spectrum(spectrum.grid, out.astype(complex), meta)


def _chirp(c: float, n: int) -> np.ndarray:
    """exp(-2 pi i c k^2) for k < n, with c k^2 reduced modulo 1: c is rounded
    to ``hi`` so that ``hi * k^2`` is exact, and only ``(c - hi) * k^2`` is not.
    The plain product would carry a phase error of eps * c * n^2 turns."""
    k2 = np.arange(n, dtype=np.int64) ** 2
    step = np.ldexp(1.0, int(np.frexp(c)[1]) - 53 + int(k2[-1]).bit_length())
    hi = np.round(c / step) * step
    k2 = k2.astype(float)
    return np.exp(-2j * np.pi * ((hi * k2) % 1.0 + (c - hi) * k2))


def _chirp_z(x: np.ndarray, c: float, m: int) -> np.ndarray:
    """y[i] = sum_k x[k] exp(-2 pi i c i k) for i < m (Bluestein's algorithm)."""
    n = x.size
    size = 1 << (n + m - 2).bit_length()  # the power of two >= n + m - 1
    w = _chirp(0.5 * c, max(n, m))
    kernel = np.zeros(size, dtype=complex)
    kernel[:m], kernel[size - n + 1:] = np.conj(w[:m]), np.conj(w[1:n][::-1])
    conv = np.fft.ifft(np.fft.fft(x * w[:n], size) * np.fft.fft(kernel), size)
    return conv[:m] * w[:m]


def inverse_fourier_to_time(spectrum: Spectrum, t: np.ndarray) -> np.ndarray:
    """Inverse transform f(t) = int dw/(2*pi) f[w] exp(-i*w*t), trapezoid rule.

    On uniform w and t grids the sum is a chirp-z transform, evaluated in
    O((n + nt) log(n + nt)) by Bluestein's algorithm.

    Parameters
    ----------
    spectrum : Spectrum
        Samples on a uniform grid spanning the support of interest.
    t : numpy.ndarray
        Uniformly spaced output times, one-dimensional, in either order.

    Returns
    -------
    numpy.ndarray
        Complex time samples, same length as ``t``.

    Raises
    ------
    ValueError
        If ``t`` is not one-dimensional and uniform to 1e-12 of max |t|.

    Warns
    -----
    RuntimeWarning
        When the requested time span exceeds the alias-free window 2*pi/dw
        implied by the grid spacing (by more than a relative 1e-12).
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"inverse_fourier_to_time: t must be one-dimensional, got shape {t.shape}")
    nt = t.size
    if nt == 0:
        return np.empty(0, dtype=complex)
    dt = (t[-1] - t[0]) / (nt - 1) if nt > 1 else 0.0
    if not np.max(np.abs(t - (t[0] + dt * np.arange(nt)))) <= 1e-12 * np.max(np.abs(t)):
        raise ValueError("inverse_fourier_to_time: t must be finite and uniformly spaced")
    dw = spectrum.grid.spacing
    span = abs(t[-1] - t[0])
    # a span of exactly one window may round a few ulps past it
    if span > 2.0 * np.pi / dw * (1.0 + 1e-12):
        warnings.warn(
            f"inverse_fourier_to_time: time span {span:.3g} exceeds the alias-free "
            f"window {2.0 * np.pi / dw:.3g} for grid spacing {dw:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    # t_i w_k = t_i w_0 + t_0 k dw + i k dt dw on the two grids
    n = spectrum.grid.size
    x = np.r_[0.5, np.ones(n - 2), 0.5] * dw / (2.0 * np.pi) * spectrum.values
    x = x * np.exp(-1j * t[0] * dw * np.arange(n))
    return np.exp(-1j * t * spectrum.omega[0]) * _chirp_z(x, dt * dw / (2.0 * np.pi), nt)
