"""Vector quadrature, principal-value transforms, and inverse Fourier transforms.

Three operations used throughout the package:

* :func:`integrate_batch` integrates a vector of integrands, one per
  frequency sample, in one adaptive G10-K21 Gauss-Kronrod quadrature
  (QUADPACK's rule and error estimate, Piessens et al. 1983), starting from
  the halves of every piece; each refinement round evaluates all nodes of
  the intervals it splits in a few vector calls.  Each sample keeps the
  error contract of a scalar adaptive rule: it stops once its own estimate
  satisfies its own tolerance, and the call reports that estimate and its
  node count, or a :class:`NonConvergenceError` naming the worst frequency.
* :func:`hilbert_transform` computes the windowed principal-value transform
  (1/pi) P int f(w') / (w' - w) dw' of real samples on a uniform grid,
  excising a symmetric neighborhood of the singularity and restoring it
  with a derivative correction.  The grid spacing cancels, so it takes
  and returns plain arrays.
* :func:`inverse_fourier_to_time` applies the package Fourier convention
  f(t) = int dw/(2*pi) f[w] exp(-i*w*t) to a sampled spectrum.

Both grid transforms are trapezoid rules on uniform grids, evaluated with
``numpy.fft``: the principal value as a Toeplitz product, an FFT convolution
zero-padded to the next power of two (O(n log n)); the inverse Fourier sum,
on a grid symmetric about zero, as one length-m DFT (O(n + m log m)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Spectrum, require_symmetric


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
_RULES = np.array([_KRONROD, np.insert(_GAUSS, range(11), 0.0)])  # both rules, weights on _NODES
_ROUNDING, _TINY = 50.0 * np.finfo(float).eps, np.finfo(float).tiny

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


def _gauss_kronrod(f, a: np.ndarray, b: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 integrals of ``f`` over [a_i, b_i] and their QUADPACK error estimates.

    ``f(t, cols)`` maps a vector of nodes to the values of the samples
    ``cols``, a block of the sorted indices ``active``, one row per node.
    Each call stays within the element budget, and its values are reduced
    before the next.  Returns two arrays of shape (intervals, active.size).
    """
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    values = np.empty((a.size, active.size), dtype=complex)
    errors = np.empty((a.size, active.size))
    width = min(active.size, max(1, _CHUNK_ELEMENTS // _NODES.size))
    step = max(1, _CHUNK_ELEMENTS // (_NODES.size * width))
    for lo in range(0, a.size, step):
        part = slice(lo, lo + step)
        h = half[part, None]
        t = (centre[part, None] + h * _NODES).ravel()
        for first in range(0, active.size, width):
            block = slice(first, first + width)
            fv = np.ascontiguousarray(f(t, active[block])).reshape(h.size, _NODES.size, -1)
            # one real vector-matrix product per rule, over (re, im) pairs (a gemm adds ~0.2 MB of BLAS buffers)
            kind = complex if np.iscomplexobj(fv) else float
            kronrod, gauss = ((rule @ fv.astype(kind, copy=False).view(float)).view(kind) for rule in _RULES)
            absolute = _KRONROD @ np.abs(fv)
            deviation = _KRONROD @ np.abs(fv - 0.5 * kronrod[:, None])
            err = h * np.abs(kronrod - gauss)
            spread = h * deviation
            # QUADPACK: the |K - G| estimate, sharpened by (200 |K - G| / spread)^1.5
            # and floored by the rounding error of the sum
            ratio = 200.0 * err / np.where(spread > 0, spread, 1.0)
            err = np.where((spread > 0) & (err > 0), spread * np.minimum(1.0, ratio**1.5), err)
            rounding = _ROUNDING * h * absolute
            errors[part, block] = np.where(rounding > _TINY, np.maximum(err, rounding), err)
            values[part, block] = h * kronrod
    return values, errors


# an overflow or invalid value gives a non-finite estimate, reported below with its sample
@np.errstate(over="ignore", invalid="ignore")
def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    pieces: int,
    scale: np.ndarray,
    omegas: np.ndarray,
    cfg: QuadratureConfig,
    what: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One adaptive Gauss-Kronrod quadrature over t in [0, pieces] of a vector integrand.

    ``f(t, cols)`` takes a vector of nodes t and the sorted indices
    ``cols`` of some samples and returns their values at those nodes, one
    row per node; sample k belongs to frequency ``omegas[k]``.  The
    integrand may kink at every integer t: a caller maps one piece of its
    support onto each unit piece [k, k + 1].  All samples share one set of
    intervals, which starts from the halves of every unit piece, and every
    interval carries a G10-K21 value and a QUADPACK error estimate per
    sample.  Sample k has the target ``max(floor_k, rel_tol * |v_k|)``, with
    ``floor_k = min(abs_tol, 1e-10 * scale_k)`` (``abs_tol`` alone where
    ``scale_k = 0``) and v_k the running value, and stops once its errors
    sum below 1/8 of it: its value and error are then frozen.  Each
    refinement round splits the intervals whose errors, in units of the
    targets and in the max norm over the samples still active, are largest:
    the worst one, and further ones while the errors left over exceed 1/8,
    at most 128, as ``scipy.integrate.quad_vec`` picks them.  All 21 nodes
    of all their halves are evaluated for the active samples in a few calls
    of ``f``; a frozen sample keeps its value and error in one half and
    exact zeros in the other.

    Returns
    -------
    values, abs_error, evaluations : numpy.ndarray
        Complex integrals, each sample's QUADPACK error estimate, at most
        1/8 of its target, and its number of nodes evaluated.

    Raises
    ------
    NonConvergenceError
        If more than ``cfg.max_subdivisions`` intervals are needed or a
        value is not finite.
        The message names the worst sample as ``omega=...``; the exception
        carries its estimate and error.
    """
    scale = np.asarray(scale, dtype=float)
    floor = np.where(scale > 0, np.minimum(cfg.abs_tol, 1e-10 * scale), cfg.abs_tol)
    # no estimate of a whole piece is trusted on its own: start from its halves
    edges = np.arange(2 * pieces + 1) / 2.0
    a, b = edges[:-1], edges[1:].copy()  # b is cut in place
    active = np.arange(scale.size)
    parts, errors = _gauss_kronrod(f, a, b, active)
    evaluations = np.full(scale.size, a.size * _NODES.size)
    values, abs_error = parts.sum(axis=0), errors.sum(axis=0)
    reason = "maximum number of subdivisions reached"
    while True:
        target = np.maximum(floor, cfg.rel_tol * np.abs(values))
        own = abs_error / target
        if not np.isfinite(own).all():
            reason = "non-finite values encountered"
            break
        active = np.flatnonzero(own >= 0.125)
        if not active.size and a.size <= cfg.max_subdivisions:
            return values, abs_error, evaluations
        if a.size >= cfg.max_subdivisions:
            break
        scaled = (errors[:, active] / target[active]).max(axis=1)
        order = np.argsort(-scaled, kind="stable")[:_MAX_SPLITS]
        before = np.cumsum(scaled[order]) - scaled[order]
        keep = before <= scaled.sum() - 0.125
        keep[0] = True
        split = order[keep]
        n = split.size
        mid, right = 0.5 * (a[split] + b[split]), b[split]
        halves, half_errors = _gauss_kronrod(f, np.concatenate([a[split], mid]), np.concatenate([mid, right]), active)
        evaluations[active] += 2 * n * _NODES.size
        b[split] = mid
        a, b = np.concatenate([a, mid]), np.concatenate([b, right])
        # frozen samples keep their parent's value and error in the split row and exact zeros in the new one
        parts[split[:, None], active], errors[split[:, None], active] = halves[:n], half_errors[:n]
        parts, errors = (np.concatenate([x, np.zeros((n, scale.size), x.dtype)]) for x in (parts, errors))
        parts[-n:, active], errors[-n:, active] = halves[n:], half_errors[n:]
        values[active], abs_error[active] = parts[:, active].sum(axis=0), errors[:, active].sum(axis=0)
    k = int(np.argmax(abs_error / target))  # a NaN counts as the largest
    raise NonConvergenceError(
        f"{what} at omega={float(omegas[k])!r}: quadrature did not converge: {reason}",
        best=complex(values[k]),
        error_estimate=float(abs_error[k]),
    )


def hilbert_transform(values: np.ndarray) -> np.ndarray:
    """Windowed principal-value transform of real samples on a uniform grid.

    Computes ``g(w) = (1/pi) P int f(w') / (w' - w) dw'`` over the grid span.
    At each sample the symmetric neighborhood [w - h, w + h] is excised and
    restored analytically: the principal value over the excised window equals
    2h f'(w) + O(h^3), estimated by the centered difference f[j+1] - f[j-1].
    The trapezoid sum is one FFT convolution with the Toeplitz kernel
    1/(k - j); each neighbor of the excised sample then loses h/2 of weight.
    The spacing h cancels from both terms, so only the samples are passed.

    Parameters
    ----------
    values : numpy.ndarray
        Real samples f(w_j), one-dimensional, at least two.  Nothing beyond
        the grid span is added: the input should decay toward the grid ends,
        otherwise the neglected tail dominates.

    Returns
    -------
    numpy.ndarray
        The real transform g(w_j), same length as ``values``.  Complex,
        multi-dimensional or shorter input raises ValueError.

    Notes
    -----
    Edge samples use one-sided excision and are less accurate; restrict
    quantitative use to the grid interior.
    """
    f = np.asarray(values)
    if np.iscomplexobj(f) or f.ndim != 1 or f.size < 2:
        raise ValueError(f"hilbert_transform: needs 2 or more real samples in 1-d, got {f.dtype} {f.shape}")
    f = f.astype(float, copy=False)
    n = f.size
    size = 1 << (2 * n - 2).bit_length()  # the power of two >= 2n - 1
    # kernel[d] = 1/(k - j) at d = j - k, wrapped for d < 0
    inv = 1.0 / np.arange(1, n)
    kernel = np.zeros(size)
    kernel[1:n], kernel[size - n + 1:] = -inv, inv[::-1]
    trapezoid = np.concatenate([[0.5 * f[0]], f[1:-1], [0.5 * f[-1]]])
    pv = np.fft.irfft(np.fft.rfft(trapezoid, size) * np.fft.rfft(kernel), size)[:n]
    zero, edge = np.pad(f, 1), np.pad(f, 1, mode="edge")
    return (pv - 0.5 * (zero[2:] - zero[:-2]) + (edge[2:] - edge[:-2])) / np.pi


def inverse_fourier_to_time(spectrum: Spectrum, m: int, nt: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse transform f(t) = int dw/(2*pi) f[w] exp(-i*w*t), trapezoid rule, on a DFT time grid.

    Sample k of a grid symmetric about zero sits at w_k = (k - n//2)*dw, so at
    t_j = 2*pi*j / (m*dw) the sum is a length-m DFT of the weighted samples
    folded modulo m, exactly, as exp(-2*pi*i*k*j/m) is m-periodic in k.

    Parameters
    ----------
    spectrum : Spectrum
        Samples on a uniform grid symmetric about zero that samples w = 0.
    m, nt : int
        The DFT length, m time steps to the alias-free period 2*pi/dw, and
        the number of times, odd and at most m, centred on t = 0.

    Returns
    -------
    t, f : numpy.ndarray
        The times t_j, |j| <= (nt - 1)/2, and the complex samples f(t_j).
        Any other grid, or an even nt or one past m, raises ValueError.
    """
    om = spectrum.omega
    require_symmetric(om)
    n = om.size
    if om[n // 2] != 0.0 or nt % 2 == 0 or not 0 < nt <= m:
        raise ValueError(f"inverse_fourier_to_time: needs w = 0 sampled and odd nt <= m, got n={n}, nt={nt}, m={m}")
    dw = spectrum.grid.spacing
    x = dw / (2.0 * np.pi) * spectrum.values
    x[[0, -1]] *= 0.5  # the trapezoid's end weights
    # sample k at index (k - n//2) mod m of whole periods, zero between w >= 0 and w < 0, summed over them
    folded = np.zeros(-(-n // m) * m, dtype=complex)
    folded[:n - n // 2], folded[folded.size - n // 2:] = x[n // 2:], x[:n // 2]
    j = np.arange(nt) - nt // 2
    return 2.0 * np.pi / (m * dw) * j, np.fft.fft(folded.reshape(-1, m).sum(axis=0))[j % m]
