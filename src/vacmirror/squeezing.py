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
from .pressure import force_kernel
from .response import MonochromaticOscillation
from .states import FieldState


def delta_cout(model: Mirror, state: FieldState, omega, omega2) -> np.ndarray:
    """Output-covariance perturbation per unit dq[w + w'], general route.

    Contracts the first-order scattering with the state's full covariance,
    elementwise over frequency arrays (shape ``... + (2, 2)``); raises at
    zero frequency where the covariance is singular.
    """
    w1, w2 = frequency_pair(omega, omega2)
    s = model.smatrix(np.array([w1, w2, -w1, -w2]))
    s_w, s_w2, s_neg_w, s_neg_w2 = s[0], s[1], s[2], s[3]
    left = -1j * np.array([w2, w1])[..., None, None] * np.array([s_w * ETA_COLS - ETA_ROWS * s_neg_w2, s_w])
    right = np.array([s_w2, ETA_ROWS * s_w2 - s_neg_w * ETA_COLS])
    t = left @ state.cfull(np.array([-w2, w1])) @ right  # both terms, stacked
    return t[0] + t[1]


def delta_cout_vacuum(model: Mirror, omega, omega2, hbar: float = 1.0) -> np.ndarray:
    """Vacuum closed form (i hbar/2)(theta(w) - theta(-w')) F[w', w].

    Independent of the general route; the two must agree over the vacuum.
    Exactly zero when the frequencies have opposite signs.  Elementwise over
    frequency arrays, shape ``... + (2, 2)``.
    """
    sign_factor = np.heaviside(omega, 0.5) - np.heaviside(-omega2, 0.5)
    prefactor = np.multiply(0.5j * hbar, sign_factor)
    # F[w', w] = F[w, w']^T bitwise: alpha is symmetric and beta flips sign exactly
    return prefactor[..., None, None] * np.swapaxes(force_kernel(model, omega, omega2), -1, -2)


def secular_hamiltonian_kernel(model: Mirror, omega, omega2) -> np.ndarray:
    """Coupling kernel w w' F[w, w'] paired with dq[-w - w'].

    Its trace contraction with input covariances gives the time-integrated
    coupling energy; the w w' prefactor zeroes the kernel whenever either
    frequency vanishes, and the swap rule follows the force kernel's.
    Elementwise over frequency arrays, shape ``... + (2, 2)``.
    """
    return np.multiply(omega, omega2)[..., None, None] * force_kernel(model, omega, omega2)


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
        # 33 interior samples per segment: its endpoints sit at zero frequency
        ws = total * np.arange(1, 34) / 34
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
        ws = total * np.arange(1, 130) / 130
        norms = np.linalg.norm(weight * delta_cout(model, state, ws, total - ws), axis=(-2, -1))
        # ws descends for the negative line; |.| restores the positive measure
        strengths[total] = float(abs(np.trapezoid(norms, ws)))
    return strengths
