"""Closed-form and brute-force references shared by the tests.

Everything here is derived independently of the library's integration
routines: the single-pole forms are analytic antiderivatives of the vacuum
kernel, the trapezoid integrators resample the kernels at fixed high
resolution, and :func:`integrate` is a scalar adaptive quadrature (one
QUADPACK call per integrand) against which the batched vector quadrature is
compared sample by sample.
"""

import warnings
from typing import Callable

import numpy as np
import scipy.integrate

from vacmirror.numerics import NonConvergenceError, QuadratureConfig
from vacmirror.pressure import alpha, beta


def chi_single_pole(omega, omega_c, hbar=1.0):
    """Vacuum susceptibility of the single-pole mirror, any real frequency."""
    w = float(omega)
    if w == 0.0:
        return 0.0 + 0.0j
    if w < 0.0:
        return complex(np.conj(chi_single_pole(-w, omega_c, hbar)))
    oc = float(omega_c)
    log = np.log((w + 1j * oc) / (1j * oc))
    bracket = w - (2j * oc * (w + 1j * oc) / (w + 2j * oc)) * log
    return complex((1j * hbar * oc / (2.0 * np.pi)) * (1j * w - 2.0 * oc) * bracket)


def xi_single_pole(omega, omega_c, hbar=1.0):
    """Im chi(w) for the single-pole mirror over the vacuum; odd in w."""
    w = float(omega)
    if w == 0.0:
        return 0.0
    if w < 0.0:
        return -xi_single_pole(-w, omega_c, hbar)
    oc = float(omega_c)
    return float(
        (hbar * oc**2 / np.pi)
        * ((w / 2.0) * np.log1p(w**2 / oc**2) - w + oc * np.arctan(w / oc))
    )


def chi_cubic(omega, hbar=1.0):
    """Perfect-mirror limit i hbar w^3 / 6 pi."""
    return 1j * hbar * np.asarray(omega, dtype=float) ** 3 / (6.0 * np.pi)


def cff_vacuum(omega, omega_c, hbar=1.0):
    """One-sided vacuum noise spectrum 2 hbar theta(w) xi(w), single pole."""
    w = float(omega)
    if w <= 0.0:
        return 0.0
    return 2.0 * hbar * xi_single_pole(w, omega_c, hbar)


def trapezoid_chi(model, state, omega, lo, hi, n=200_001):
    """chi(w) by fixed trapezoid over the diagonal-state kernel."""
    wp = np.linspace(lo, hi, n)
    u = state.chi_weight
    vals = 1j * alpha(model, wp, omega - wp) * (
        (omega - wp) * u(wp) + wp * u(omega - wp)
    )
    return complex(np.trapezoid(vals, wp) / (2.0 * np.pi))


def trapezoid_cff(model, state, omega, lo, hi, n=200_001):
    """C_FF(w) by fixed trapezoid over the diagonal-state noise kernel."""
    wp = np.linspace(lo, hi, n)
    a2 = np.abs(alpha(model, wp, omega - wp)) ** 2
    b2 = np.abs(beta(model, wp, omega - wp)) ** 2
    w1 = state.noise_weight(wp)
    w2 = state.noise_weight(omega - wp)
    vals = 2.0 * (
        a2 * (w1[..., 0] * w2[..., 0] + w1[..., 1] * w2[..., 1])
        + b2 * (w1[..., 0] * w2[..., 1] + w1[..., 1] * w2[..., 0])
    )
    return float(np.trapezoid(vals, wp) / (2.0 * np.pi))


def integrate(
    f: Callable[[float], complex],
    a: float,
    b: float,
    cfg: QuadratureConfig = QuadratureConfig(),
    points: tuple[float, ...] | None = None,
) -> tuple[complex, float]:
    """Adaptive quadrature of a complex-valued integrand on [a, b].

    The scalar reference for ``vacmirror.numerics.integrate_batch``: one
    ``scipy.integrate.quad`` call per integrand.

    Parameters
    ----------
    f : callable
        Integrand, real argument to complex value, finite on [a, b].
    a, b : float
        Finite integration bounds, a < b.
    cfg : QuadratureConfig
        Tolerances and subdivision limit.
    points : tuple of float, optional
        Interior break points (kinks) passed to the adaptive rule.

    Returns
    -------
    value : complex
    error_estimate : float
        Conservative absolute error estimate.

    Raises
    ------
    NonConvergenceError
        If the adaptive rule reports trouble or the error estimate exceeds
        ``max(abs_tol, rel_tol * |value|)``.  The exception carries the best
        estimate and its error.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("bounds must be finite; window infinite-support integrands first")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    pts = None
    if points:
        inside = sorted(p for p in points if a < p < b)
        pts = inside or None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", scipy.integrate.IntegrationWarning)
        # targets are halved so a marginal quadpack termination still lands
        # inside the tolerances enforced below
        val, err = scipy.integrate.quad(
            f,
            a,
            b,
            epsabs=0.5 * cfg.abs_tol,
            epsrel=0.5 * cfg.rel_tol,
            limit=cfg.max_subdivisions,
            points=pts,
            complex_func=True,
        )
    val = complex(val)
    err = abs(complex(err).real) + abs(complex(err).imag)
    trouble = [w for w in caught if issubclass(w.category, scipy.integrate.IntegrationWarning)]
    bound = max(cfg.abs_tol, cfg.rel_tol * abs(val))
    if trouble or err > bound:
        reason = str(trouble[0].message) if trouble else (
            f"error estimate {err:.3e} exceeds tolerance {bound:.3e}"
        )
        raise NonConvergenceError(
            f"quadrature on [{a:g}, {b:g}] did not converge: {reason}",
            best=val,
            error_estimate=err,
        )
    return val, err
