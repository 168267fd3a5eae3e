"""Vector quadrature, principal-value transforms, and inverse Fourier transforms.

Three operations used throughout the package:

* :func:`integrate_batch` integrates a vector of integrands, one per
  frequency sample, in one adaptive Gauss-Kronrod quadrature
  (``scipy.integrate.quad_vec``).  Each sample keeps the error contract of a
  scalar adaptive rule: its estimate satisfies its own tolerance, and the
  call reports a per-sample error bound, or a :class:`NonConvergenceError`
  naming the worst frequency is raised.
* :func:`hilbert_transform` computes the windowed principal-value transform
  (1/pi) P int f(w') / (w' - w) dw' on a uniform grid, excising a symmetric
  neighborhood of the singularity and restoring it with a derivative
  correction.
* :func:`inverse_fourier_to_time` applies the package Fourier convention
  f(t) = int dw/(2*pi) f[w] exp(-i*w*t) to a sampled spectrum.

Both grid transforms are trapezoid rules on uniform grids, evaluated as FFT
convolutions in O(n log n) time and O(n) memory: the principal value as a
Toeplitz product, the inverse Fourier sum as a chirp-z transform.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.fft
import scipy.integrate

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
        Upper bound on adaptive interval splits.
    window : float, optional
        Half-width W: convolutions over states without a known decay scale
        integrate over at least [-W, W].
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200
    window: float | None = None

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.window is not None and not self.window > 0:
            raise ValueError("window must be positive when given")


def integrate_batch(
    f: Callable[[float], np.ndarray],
    length: float,
    scale: np.ndarray,
    omegas: np.ndarray,
    cfg: QuadratureConfig,
    what: str,
    points: tuple[float, ...] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One adaptive quadrature over t in [0, length] of a vector integrand.

    Sample k of ``f(t)`` belongs to frequency ``omegas[k]``.  All samples
    share the subdivision of ``scipy.integrate.quad_vec`` (max norm), and
    each is divided by its own target ``max(min(abs_tol, 1e-10 * scale_k),
    rel_tol * |v_k|)`` (``abs_tol`` alone where ``scale_k = 0``), with
    ``v_k`` from a coarse first pass; the pass is repeated once with the
    fine values if some ``v_k`` overshot.  The global error estimate ``err``
    of the scaled integrand then bounds every sample, ``err_k <= err *
    target_k``.  ``points`` are kinks shared by all samples.

    Returns
    -------
    values, abs_error, evaluations : numpy.ndarray
        Complex integrals, their error bounds ``err * target_k`` and the
        vector evaluations of ``f`` spent (the same for every sample).

    Raises
    ------
    NonConvergenceError
        If the rule stops short of its target or a bound exceeds its
        sample's tolerance.  The message names the worst sample as
        ``omega=...``; the exception carries its estimate and error.
    """
    scale = np.asarray(scale, dtype=float)
    floor = np.where(scale > 0, np.minimum(cfg.abs_tol, 1e-10 * scale), cfg.abs_tol)
    kwargs = dict(epsrel=0.0, norm="max", limit=cfg.max_subdivisions, points=points or None)

    def scaled(target):
        return scipy.integrate.quad_vec(
            lambda t: f(t) / target, 0.0, length, epsabs=1.0, full_output=True, **kwargs
        )

    coarse_target = np.maximum(1e-3 * scale, floor)
    coarse, _, info = scaled(coarse_target)
    neval = info.neval
    target = np.maximum(floor, cfg.rel_tol * np.abs(coarse * coarse_target))
    # a second pass runs only if the coarse values overshot some target
    for _ in range(2):
        res, err, info = scaled(target)
        neval += info.neval
        values = np.asarray(res * target, dtype=complex)
        abs_error = err * target
        excess = abs_error / np.maximum(floor, cfg.rel_tol * np.abs(values))
        if not info.success or np.all(excess <= 1.0):
            break
        target = np.maximum(floor, cfg.rel_tol * np.abs(values))
    if info.success and np.all(excess <= 1.0):
        return values, abs_error, np.full(values.shape, neval)
    if info.success:
        k, reason = int(np.argmax(excess)), "error estimate exceeds tolerance"
    else:
        k, reason = int(np.argmax(_sample_errors(lambda t: f(t) / target, info))), info.message
    raise NonConvergenceError(
        f"{what} at omega={float(omegas[k])!r}: quadrature did not converge: {reason}",
        best=complex(values[k]),
        error_estimate=float(abs_error[k]),
    )


def _sample_errors(f, info) -> np.ndarray:
    """Per-sample |Kronrod - Gauss| summed over the final intervals of a run."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    total = 0.0
    for (a, b), kronrod in zip(info.intervals, info.integrals):
        half = 0.5 * (b - a)
        gauss = half * sum(w * f(a + half * (1.0 + x)) for x, w in zip(nodes, weights))
        total = total + np.abs(kronrod - gauss)
    return total


def hilbert_transform(spectrum: Spectrum, cfg: QuadratureConfig | None = None) -> Spectrum:
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
    cfg : QuadratureConfig, optional
        If given, the tail bound is compared against ``0.1 * abs_tol`` to
        decide whether to warn; otherwise a relative heuristic is used.

    Returns
    -------
    Spectrum
        Real-valued transform with ``meta["tail_bound"]`` set to an estimate
        of the neglected out-of-window contribution, assuming the input decays
        at least like 1/|w| beyond the grid.  A ``meta["warning"]`` entry is
        added (and a RuntimeWarning emitted) when that bound is not small.

    Notes
    -----
    Edge samples use one-sided excision and are less accurate; restrict
    quantitative use to the grid interior.
    """
    f = np.real(spectrum.values).astype(float)
    n = f.size
    size = scipy.fft.next_fast_len(2 * n - 1, real=True)
    # kernel[d] = 1/(k - j) at d = j - k, wrapped for d < 0
    inv = 1.0 / np.arange(1, n)
    kernel = np.zeros(size)
    kernel[1:n], kernel[size - n + 1:] = -inv, inv[::-1]
    trapezoid = np.r_[0.5 * f[0], f[1:-1], 0.5 * f[-1]]
    pv = scipy.fft.irfft(scipy.fft.rfft(trapezoid, size) * scipy.fft.rfft(kernel), size)[:n]
    zero, edge = np.pad(f, 1), np.pad(f, 1, mode="edge")
    out = (pv - 0.5 * (zero[2:] - zero[:-2]) + (edge[2:] - edge[:-2])) / np.pi

    # Tail estimate: if |f| ~ A/|w'| beyond the window, the out-of-window
    # contribution at interior samples is bounded by ~(2 ln 2 / pi) * |f_edge|.
    tail = (abs(f[0]) + abs(f[-1])) * (2.0 * np.log(2.0) / np.pi)
    meta: dict = {"tail_bound": tail}
    scale = max(np.max(np.abs(out)), _TINY)
    threshold = 0.1 * cfg.abs_tol if cfg is not None else 1e-3 * scale
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
    size = scipy.fft.next_fast_len(n + m - 1)
    w = _chirp(0.5 * c, max(n, m))
    kernel = np.zeros(size, dtype=complex)
    kernel[:m], kernel[size - n + 1:] = np.conj(w[:m]), np.conj(w[1:n][::-1])
    conv = scipy.fft.ifft(scipy.fft.fft(x * w[:n], size) * scipy.fft.fft(kernel), size)
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
        implied by the grid spacing.
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
    if span > 2.0 * np.pi / dw:
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
