"""Radiation-pressure force kernel for a motionless mirror.

The force exerted by the field on a static scatterer is governed by the
two-frequency kernel

    F[w, w'] = eta - S(w') eta S(w)
             = [[ alpha,  beta],
                [-beta, -alpha]],

    alpha = 1 - s(w) s(w') + r(w) r(w'),
    beta  = s(w) r(w') - r(w) s(w').

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

from .core import ETA, EYE2, dagger, finite
from .mirrors import Mirror
from .states import FieldState


def _alpha_beta(model: Mirror, w1: np.ndarray, w2: np.ndarray):
    (s1, r1), (s2, r2) = model.amplitudes(w1), model.amplitudes(w2)
    return 1.0 - s1 * s2 + r1 * r2, s1 * r2 - r1 * s2


def alpha_beta(model: Mirror, omega, omega2):
    """(alpha, beta) at (w, w'), elementwise, from one amplitude call per argument."""
    return _alpha_beta(model, finite(omega), finite(omega2))


def _force_kernel(model: Mirror, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """:func:`force_kernel` of frequencies already checked, as ``frequency_pair`` returns them."""
    a, b = _alpha_beta(model, w1, w2)
    out = np.empty(np.shape(a) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = a, b
    out[..., 1, 0], out[..., 1, 1] = -b, -a
    return out


def alpha(model: Mirror, omega, omega2):
    """Diagonal kernel entry 1 - s(w)s(w') + r(w)r(w'), vectorized.

    The susceptibility kernel needs alpha alone, so beta is not formed here.
    """
    (s1, r1), (s2, r2) = model.amplitudes(finite(omega)), model.amplitudes(finite(omega2))
    return 1.0 - s1 * s2 + r1 * r2


def force_kernel(model: Mirror, omega, omega2) -> np.ndarray:
    """F[w, w'] = [[alpha, beta], [-beta, -alpha]], shape ``np.broadcast(w, w').shape + (2, 2)``."""
    return _force_kernel(model, finite(omega), finite(omega2))


def unitarity_identities(model: Mirror, omega, omega2) -> tuple[np.ndarray, np.ndarray]:
    """Max-entry residuals of the two product identities, one per (w, w') pair.

    Elementwise over frequency arrays: each residual is the largest absolute
    entry of its pair's 2x2 identity.  Both vanish identically for unitary
    models; a non-unitary model (for example a tabulated mirror with
    rescaled reflection) yields nonzero residuals, which is how tests detect
    the broken symmetry.
    """
    f = force_kernel(model, omega, omega2)
    fd = dagger(f)
    res_a = np.max(np.abs(f @ fd - (f @ ETA + ETA @ fd)), axis=(-2, -1))
    res_b = np.max(np.abs(fd @ f - (ETA @ f + fd @ ETA)), axis=(-2, -1))
    return res_a, res_b


def energy_exchange_kernel(model: Mirror, omega) -> np.ndarray:
    """G(w, -w) = I - S(-w) S(w); zero for unitary, real models, elementwise over arrays."""
    return EYE2 - model.smatrix(-omega) @ model.smatrix(omega)


def mean_force_integrand(model: Mirror, state: FieldState, omega):
    """w^2 Tr[F(w, -w) cplus(w)], evaluated in cancellation-free form.

    For diagonal states the trace collapses to
    alpha(w, -w) * (W_phi(w) - W_psi(w)) with W the per-component chi-type
    weights; for isotropic states (vacuum, thermal) the two components are
    equal and the integrand is exactly zero pointwise.
    """
    w = np.asarray(omega, dtype=float)
    if not state.diagonal:
        return w * w * np.trace(force_kernel(model, w, -w) @ state.cplus(w), axis1=-2, axis2=-1)
    nw = state.noise_weight(w)
    # v^2 cplus = v^2 (c - cminus); the cminus parts of the two components are
    # equal and cancel in the difference, so the noise weights serve directly
    return alpha(model, w, -w) * (nw[..., 0] - nw[..., 1])
