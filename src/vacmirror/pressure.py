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

whose residuals :func:`unitarity_identities` reports.  The mean pressure in a
stationary state contracts F(w, -w) with the state's anticommutator spectrum;
the energy-exchange kernel G(w, -w) = I - S(-w) S(w) vanishes for every
unitary, real model, expressing that a static mirror exchanges no net energy
with a stationary field.
"""

from __future__ import annotations

import numpy as np

from .core import ETA_COLS, ETA_ROWS, EYE2, dagger, finite, frequency_pair
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

    Both identities read P Q - (P eta + eta Q), for (P, Q) = (F, F^dagger)
    and (F^dagger, F), evaluated stacked; each residual is the largest
    absolute entry of its pair's 2x2 identity.  Both vanish identically for
    unitary models; a non-unitary model (a tabulated mirror with rescaled
    reflection, say) yields nonzero residuals, which is how tests detect it.
    """
    f = force_kernel(model, omega, omega2)
    p = np.array([f, dagger(f)])
    res = np.abs(p @ p[::-1] - (p * ETA_COLS + ETA_ROWS * p[::-1])).max(axis=(-2, -1))
    return res[0], res[1]


def energy_exchange_kernel(model: Mirror, omega) -> np.ndarray:
    """G(w, -w) = I - S(-w) S(w); zero for unitary, real models, elementwise over arrays."""
    w = finite(omega)
    s = model.smatrix(np.array([-w, w]))
    return EYE2 - s[0] @ s[1]


def mean_force_integrand(model: Mirror, state: FieldState, omega):
    """w^2 Tr[F(w, -w) cplus(w)], evaluated in cancellation-free form.

    For diagonal states the trace collapses to
    alpha(w, -w) * (E_phi(w) - E_psi(w)), with E the components' excess over
    the vacuum (see :meth:`FieldState.excess`); for isotropic states (vacuum,
    thermal) the two components are equal and the integrand is exactly zero
    pointwise.
    """
    w = np.asarray(omega, dtype=float)
    if not state.diagonal:
        return w * w * np.trace(force_kernel(model, w, -w) @ state.cplus(w), axis1=-2, axis2=-1)
    phi, psi = state.excess(w)
    return alpha(model, w, -w) * (phi - psi)
