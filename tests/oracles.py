"""Closed-form and brute-force references shared by the tests.

Everything here is derived independently of the library's integration
routines: the single-pole forms are analytic antiderivatives of the vacuum
kernel, also evaluated in 40-digit arithmetic, the mean forces are Binet's
formula (single pole, 30 digits) and the Stefan-Boltzmann law (perfect
mirror), :func:`thermal_chi_mp` and
:func:`thermal_cff_mp` integrate the thermal kernels over the whole real
line in 30-digit arithmetic, the trapezoid integrators resample the kernels
at fixed high resolution, :func:`integrate` is a scalar adaptive quadrature
(one QUADPACK call per integrand) against which the batched vector
quadrature is compared sample by sample, and :func:`hilbert_dense` and
:func:`inverse_fourier_dense` evaluate the grid transforms as explicit
matrix products, block by block, against which the FFT versions are
compared.
"""

import warnings
from typing import Callable

import mpmath
import numpy as np
import scipy.integrate

from vacmirror.numerics import NonConvergenceError, QuadratureConfig
from vacmirror.pressure import alpha, alpha_beta


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


def _one_sided_force_single_pole(temp, omega_c, hbar):
    z = mpmath.mpf(hbar) * omega_c / (2 * mpmath.pi * temp)
    bracket = mpmath.log(z) - 1 / (2 * z) - mpmath.digamma(z)
    return mpmath.mpf(hbar) * mpmath.mpf(omega_c) ** 2 / mpmath.pi * bracket / 2


def mean_force_single_pole(temp_phi, temp_psi, omega_c, hbar=1.0):
    """Two-temperature mean force on the single pole, by Binet's formula, in 30 digits.

    int_0^inf t dt / ((t^2 + z^2)(e^{2 pi t} - 1)) = (ln z - 1/(2z) - psi(z)) / 2
    (DLMF 5.9.16) with z = hbar Omega / (2 pi T) turns the integral of
    2 |r|^2 (hbar |w| / 2)(nbar_phi - nbar_psi) / 2 pi into the difference
    of the one-sided pressures (hbar Omega^2 / pi) B(z), B the bracket / 2.
    """
    with mpmath.workdps(30):
        return float(
            _one_sided_force_single_pole(temp_phi, omega_c, hbar)
            - _one_sided_force_single_pole(temp_psi, omega_c, hbar)
        )


def one_sided_force_single_pole(temp, omega_c, hbar=1.0):
    """The pressure of one side's thermal field alone, the scale the difference cancels from."""
    with mpmath.workdps(30):
        return float(_one_sided_force_single_pole(temp, omega_c, hbar))


def mean_force_perfect(temp_phi, temp_psi, hbar=1.0):
    """One-dimensional Stefan-Boltzmann pressure pi (T_phi^2 - T_psi^2) / (6 hbar)."""
    return np.pi * (temp_phi**2 - temp_psi**2) / (6.0 * hbar)


def chi_perfect_thermal(omega, temp, hbar=1.0):
    """Thermal perfect-mirror susceptibility i (hbar w^3 / 6 pi + 2 pi w T^2 / 3 hbar).

    With alpha = 2 the thermal part of the kernel integrates to
    (2 i w / pi) int hbar |v| nbar(v) dv over the real line.
    """
    w = np.asarray(omega, dtype=float)
    return 1j * (hbar * w**3 / (6.0 * np.pi) + 2.0 * np.pi * w * temp**2 / (3.0 * hbar))


def cff_vacuum(omega, omega_c, hbar=1.0):
    """One-sided vacuum noise spectrum 2 hbar theta(w) xi(w), single pole."""
    w = float(omega)
    if w <= 0.0:
        return 0.0
    return 2.0 * hbar * xi_single_pole(w, omega_c, hbar)


def chi_single_pole_mp(omega, omega_c, hbar=1.0):
    """:func:`chi_single_pole` at w > 0 in 40-digit arithmetic.

    The float form loses digits to cancellation at small w/omega_c, about
    2e-9 relative at w/omega_c = 1e-3; the closed form itself is exact.
    """
    with mpmath.workdps(40):
        w, oc, h = (mpmath.mpf(v) for v in (omega, omega_c, hbar))
        log = mpmath.log((w + 1j * oc) / (1j * oc))
        bracket = w - (2j * oc * (w + 1j * oc) / (w + 2j * oc)) * log
        return complex((1j * h * oc / (2 * mpmath.pi)) * (1j * w - 2 * oc) * bracket)


def cff_vacuum_mp(omega, omega_c, hbar=1.0):
    """:func:`cff_vacuum` at w > 0 in 40-digit arithmetic, from the closed form of xi."""
    with mpmath.workdps(40):
        w, oc, h = (mpmath.mpf(v) for v in (omega, omega_c, hbar))
        xi = (h * oc**2 / mpmath.pi) * ((w / 2) * mpmath.log1p(w**2 / oc**2) - w + oc * mpmath.atan(w / oc))
        return float(2 * h * xi)


def _thermal_mp(kernel, omega, omega_c, temp, hbar):
    """integral dw'/(2 pi) kernel(s, r, u, W, w', w - w') over the real line, 30 digits.

    s, r are the single-pole amplitudes; u(v) = (hbar v/2) coth(hbar v/2T)
    and W(v) = hbar v / (2 (1 - e^{-hbar v/T})) the thermal chi and noise
    weights.  The line is split at 0 and w, where the weights have kinks.
    """
    with mpmath.workdps(30):
        w, oc, t, h = (mpmath.mpf(v) for v in (omega, omega_c, temp, hbar))

        def s(v):
            return v / (v + 1j * oc)

        def r(v):
            return -1j * oc / (v + 1j * oc)

        def u(v):
            return t if v == 0 else h * v / (2 * mpmath.tanh(h * v / (2 * t)))

        def weight(v):
            return t / 2 if v == 0 else h * v / (2 * -mpmath.expm1(-h * v / t))

        def integrand(x):
            return kernel(s, r, u, weight, x, w - x) / (2 * mpmath.pi)

        cuts = sorted({mpmath.mpf(0), w})
        return mpmath.quad(integrand, [-mpmath.inf, *cuts, mpmath.inf])


def thermal_chi_mp(omega, omega_c, temp, hbar=1.0):
    """Thermal chi(w) of the single-pole mirror, independent 30-digit reference."""

    def kernel(s, r, u, weight, w1, w2):
        a = 1 - s(w1) * s(w2) + r(w1) * r(w2)
        return 1j * a * (w2 * u(w1) + w1 * u(w2))

    return complex(_thermal_mp(kernel, omega, omega_c, temp, hbar))


def thermal_cff_mp(omega, omega_c, temp, hbar=1.0):
    """Thermal C_FF(w) of the single-pole mirror, independent 30-digit reference."""

    def kernel(s, r, u, weight, w1, w2):
        a = 1 - s(w1) * s(w2) + r(w1) * r(w2)
        b = s(w1) * r(w2) - r(w1) * s(w2)
        return 4 * weight(w1) * weight(w2) * (abs(a) ** 2 + abs(b) ** 2)

    return float(mpmath.re(_thermal_mp(kernel, omega, omega_c, temp, hbar)))


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
    b2 = np.abs(alpha_beta(model, wp, omega - wp)[1]) ** 2
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


def _pv_weights(omega):
    """Trapezoid weights for the full grid."""
    h = omega[1] - omega[0]
    w = np.full(omega.size, h)
    w[0] = w[-1] = h / 2
    return w


def hilbert_dense(omega, f, chunk=256):
    """Excised-trapezoid principal value (1/pi) P int f(w')/(w' - w) dw' as a
    dense matrix product; the reference for ``numerics.hilbert_transform``."""
    om = np.asarray(omega, dtype=float)
    f = np.asarray(f, dtype=float)
    n = om.size
    h = (om[-1] - om[0]) / (n - 1)
    wts = _pv_weights(om)
    out = np.empty(n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        idx = np.arange(start, stop)
        dist = om[None, :] - om[idx, None]
        wrow = np.broadcast_to(wts, (idx.size, n)).copy()
        rows = np.arange(idx.size)
        # excise the sample itself and half-weight the neighbors, which become
        # endpoints of the two remaining trapezoid runs
        wrow[rows, idx] = 0.0
        left = idx - 1
        ok = left >= 0
        wrow[rows[ok], left[ok]] = np.where(left[ok] == 0, 0.0, h / 2)
        right = idx + 1
        ok = right <= n - 1
        wrow[rows[ok], right[ok]] = np.where(right[ok] == n - 1, 0.0, h / 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(dist == 0.0, 0.0, f[None, :] / np.where(dist == 0.0, 1.0, dist))
        corr = f[np.minimum(idx + 1, n - 1)] - f[np.maximum(idx - 1, 0)]
        out[start:stop] = (np.sum(wrow * g, axis=1) + corr) / np.pi
    return out


def inverse_fourier_dense(omega, values, t, chunk=256):
    """Trapezoid sum int dw/(2 pi) f[w] exp(-i w t) as a dense matrix product;
    the reference for ``numerics.inverse_fourier_to_time``."""
    om = np.asarray(omega, dtype=float)
    t = np.asarray(t, dtype=float)
    weighted = _pv_weights(om) / (2.0 * np.pi) * np.asarray(values, dtype=complex)
    out = np.empty(t.size, dtype=complex)
    for start in range(0, t.size, chunk):
        stop = min(start + chunk, t.size)
        out[start:stop] = np.exp(-1j * np.outer(t[start:stop], om)) @ weighted
    return out
