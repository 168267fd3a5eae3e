"""Squeezing-like modification of the output field by a moving mirror.

To first order in the displacement, the output covariance acquires a
two-frequency perturbation proportional to the trajectory's spectral weight
dq[w + w'],

    dC_out[w, w'] = -i w' (S(w) eta - eta S(-w')) c(-w') S(w')
                    -i w  S(w) c(w) (eta S(w') - S(-w) eta),

per unit dq.  Over the vacuum this collapses to

    dC_out[w, w'] = (i hbar / 2) (theta(w) - theta(-w')) F[w', w],

supported only where the two frequencies share a sign: the mirror creates or
destroys correlated pairs, never a single quantum.  For an oscillation
dq(t) = dq0 cos(2 w0 t) the support is the pair of segments w + w' = +/-2 w0,
and the coupling is the Hamiltonian-weighted kernel w w' F[w, w'] paired with
dq[-w - w'].  Every measure of the line strength vanishes as w0 -> 0, which
is the covariance-level statement that a slowly moving mirror does not
squeeze the vacuum.
"""

from __future__ import annotations

import numpy as np

from .core import ETA_COLS, ETA_ROWS, frequency_pair
from .mirrors import Mirror
from .pressure import _force_kernel
from .response import MonochromaticOscillation
from .states import FieldState


def delta_cout(model: Mirror, state: FieldState, omega, omega2) -> np.ndarray:
    """Output-covariance perturbation per unit dq[w + w'], general route.

    Contracts the first-order scattering with the state's full covariance,
    elementwise over frequency arrays (shape ``... + (2, 2)``); raises at
    zero frequency where the covariance is singular.
    """
    w = frequency_pair(omega, omega2)
    both = np.concatenate([w, -w])  # w, w', -w, -w'
    s = model.smatrix(both)
    s_eta, eta_s = s * ETA_COLS, ETA_ROWS * s
    left = -1j * w[::-1][..., None, None] * np.array([s_eta[0] - eta_s[3], s[0]])
    right = np.array([s[1], eta_s[1] - s_eta[2]])
    t = left @ state.cfull(both[3::-3]) @ right  # both terms, stacked, at -w' and w
    return t[0] + t[1]


def delta_cout_vacuum(model: Mirror, omega, omega2, hbar: float = 1.0) -> np.ndarray:
    """Vacuum closed form (i hbar/2)(theta(w) - theta(-w')) F[w', w].

    Independent of the general route; the two must agree over the vacuum.
    Exactly zero when the frequencies have opposite signs.  Elementwise over
    frequency arrays, shape ``... + (2, 2)``; ``hbar`` is checked as a state's.
    """
    if not 0 < hbar < np.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    w = frequency_pair(omega, omega2)
    signs = np.sign(w)  # theta(w) - theta(-w') = (sign(w) + sign(w')) / 2 exactly, theta(0) = 1/2
    prefactor = np.multiply(0.25j * hbar, signs[0] + signs[1])
    # F[w', w] = F[w, w']^T bitwise: alpha is symmetric and beta flips sign exactly
    return prefactor[..., None, None] * _force_kernel(model, w).mT


def _interior(total: float, k: int) -> np.ndarray:
    """The k - 1 interior samples total * j/k of the segment [0, total]; finite for every finite total."""
    return total * (np.arange(1, k) / k)


def oscillation_squeeze_lines(
    model: Mirror,
    state: FieldState,
    osc: MonochromaticOscillation,
) -> list[tuple[float, float, np.ndarray]]:
    """Support lines of the output perturbation for an oscillating mirror.

    Enumerates (w, w', dq0/2 * dC_out) triples sampled along the two segments
    w + w' = +/- frequency with sign(w) = sign(w'); opposite-sign pairs are
    excluded because the vacuum kernel vanishes there.

    Parameters
    ----------
    model, state : Mirror, FieldState
    osc : MonochromaticOscillation
        The trajectory; its ``frequency`` is the line sum |w + w'|.
    """
    out: list[tuple[float, float, np.ndarray]] = []
    for total, weight in osc.line_weights():
        ws = _interior(total, 34)  # 33 samples: the segment's endpoints sit at zero frequency
        mats = weight * delta_cout(model, state, ws, total - ws)
        out += [(float(w), float(total - w), m) for w, m in zip(ws, mats)]
    return out


def oscillation_line_strength(
    model: Mirror,
    state: FieldState,
    osc: MonochromaticOscillation,
) -> dict[float, float]:
    """Integrated Frobenius norm of each line's kernel along its support.

    The trapezoid rule runs over 129 interior samples of each segment.

    The segment length scales with the oscillation frequency while the kernel
    stays bounded, so both strengths tend to zero as the drive slows down.
    Returns {line sum: strength}.
    """
    strengths: dict[float, float] = {}
    for total, weight in osc.line_weights():
        ws = _interior(total, 130)
        mats = weight * delta_cout(model, state, ws, total - ws)
        # a power-of-two scale per matrix, exact, keeps tiny entries from underflowing when squared
        scale = np.ldexp(1.0, np.frexp(np.max(np.abs(mats), axis=(-2, -1)))[1])
        norms = scale * np.linalg.norm(mats / scale[:, None, None], axis=(-2, -1))
        # ws descends for the negative line; |.| restores the positive measure
        strengths[total] = float(abs(np.trapezoid(norms, ws)))
    return strengths
