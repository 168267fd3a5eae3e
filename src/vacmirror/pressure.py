"""Radiation-pressure force kernel for a motionless mirror.

The force exerted by the field on a static scatterer is governed by the
two-frequency kernel

    F[w, w'] = eta - S(w') eta S(w)
             = [[ alpha,  beta],
                [-beta, -alpha]],

    alpha = 1 - s(w) s(w') + r(w) r(w') = r r' - sigma sigma' - (sigma + sigma'),
    beta  = s(w) r(w') - r(w) s(w')     = (r' - r) + (sigma r' - r sigma'),

evaluated on sigma = s - 1 and r, which keep their digits where 1 - s s'
cancels (the single pole has sigma = r, so alpha = -(r + r') exactly).
alpha is symmetric and beta antisymmetric under argument swap, giving the
exchange rules F[w,w']^T = F[w',w] = eta F[w,w'] eta and
F[w,w']^dagger = F[-w',-w].  For unitary models the kernel additionally
satisfies the product identities

    F F^dagger = F eta + eta F^dagger,
    F^dagger F = eta F + F^dagger eta,

whose residuals :func:`unitarity_identities` reports.  Both sides are
[[n, -/+p], [-/+p, n]] and [[2 Re alpha, -/+2 Re beta], ...], with
n = |alpha|^2 + |beta|^2 and p = 2 Re(alpha conj(beta)), so both identities
reduce to |alpha|^2 + |beta|^2 = 2 Re alpha and Re(alpha conj(beta)) = Re beta.
The mean pressure in a stationary state contracts F(w, -w) with the state's
anticommutator spectrum; the energy-exchange kernel G(w, -w) = I - S(-w) S(w)
vanishes for every unitary, real model, expressing that a static mirror
exchanges no net energy with a stationary field.
"""

from __future__ import annotations

import numpy as np

from .core import finite, frequency_pair
from .mirrors import Mirror
from .states import FieldState


def _alpha(sigma, r):
    zero = 0.0 if sigma is r else r[0] * r[1] - sigma[0] * sigma[1]  # s - 1 = r: an exact 0, skipped
    return zero - (sigma[0] + sigma[1])


def _alpha_beta(model: Mirror, w: np.ndarray):
    sigma, r = model.amplitudes(w)
    beta = r[1] - r[0]  # plus sigma r' - r sigma', an exact 0 skipped when sigma is r
    return _alpha(sigma, r), beta if sigma is r else beta + (sigma[0] * r[1] - r[0] * sigma[1])


def alpha_beta(model: Mirror, omega, omega2):
    """(alpha, beta) at (w, w'), elementwise, from one amplitude call on both arguments."""
    return _alpha_beta(model, frequency_pair(omega, omega2))


def _force_kernel(model: Mirror, w: np.ndarray) -> np.ndarray:
    """:func:`force_kernel` of the pairs ``w`` already checked and stacked by ``frequency_pair``."""
    a, b = _alpha_beta(model, w)
    out = np.empty(np.shape(a) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = a, b
    out[..., 1, 0], out[..., 1, 1] = -b, -a
    return out


def alpha(model: Mirror, omega, omega2):
    """Diagonal kernel entry 1 - s(w)s(w') + r(w)r(w'), vectorized, in its sigma form.

    The susceptibility kernel needs alpha alone, so beta is not formed here.
    """
    return _alpha(*model.amplitudes(frequency_pair(omega, omega2)))


def force_kernel(model: Mirror, omega, omega2) -> np.ndarray:
    """F[w, w'] = [[alpha, beta], [-beta, -alpha]], shape ``np.broadcast(w, w').shape + (2, 2)``."""
    return _force_kernel(model, frequency_pair(omega, omega2))


def unitarity_identities(model: Mirror, omega, omega2) -> tuple[np.ndarray, np.ndarray]:
    """Max-entry residuals of the two product identities, one per (w, w') pair.

    Both identities reduce to the module docstring's two conditions, so both
    residuals are max(|n - 2 Re alpha|, 2 |Re(alpha conj(beta)) - Re beta|),
    one array returned twice.  Both vanish identically for unitary models; a
    non-unitary model (a tabulated mirror with rescaled reflection, say)
    yields nonzero residuals, which is how tests detect it.
    """
    a, b = alpha_beta(model, omega, omega2)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    res = np.maximum(np.abs(ar * ar + ai * ai + br * br + bi * bi - 2.0 * ar), 2.0 * np.abs(ar * br + ai * bi - br))
    return res, res


def energy_exchange_kernel(model: Mirror, omega) -> np.ndarray:
    """G(w, -w) = I - S(-w) S(w); zero for unitary, real models, elementwise over arrays.

    Its diagonal is -(sigma_ + sigma + sigma_ sigma + r_ r), its off-diagonal
    -(r_ + r + sigma_ r + r_ sigma), the subscript marking -w.
    """
    w = finite(omega)
    (sm, sigma), (rm, r) = model.amplitudes(np.array([-w, w]))
    out = np.empty(w.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = -(sm + sigma + sm * sigma + rm * r)
    out[..., 0, 1] = out[..., 1, 0] = -(rm + r + sm * r + rm * sigma)
    return out


def mean_force_integrand(model: Mirror, state: FieldState, omega):
    """w^2 Tr[F(w, -w) cplus(w)], evaluated in cancellation-free form.

    The trace is alpha (c00 - c11) + beta (c10 - c01) on the entries of
    cplus(w).  For diagonal states it collapses to
    alpha(w, -w) * (E_phi(w) - E_psi(w)), with E the components' excess over
    the vacuum (see :meth:`FieldState.excess`); for isotropic states (vacuum,
    thermal) the two components are equal and the integrand is exactly zero
    pointwise.
    """
    w = np.asarray(omega, dtype=float)
    if not state.diagonal:
        (a, b), c = alpha_beta(model, w, -w), state.cplus(w)
        return w * w * (a * (c[..., 0, 0] - c[..., 1, 1]) + b * (c[..., 1, 0] - c[..., 0, 1]))
    phi, psi = state.excess(w)
    return alpha(model, w, -w) * (phi - psi)
