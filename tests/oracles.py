"""Closed-form and brute-force references shared by the tests.

Everything here is derived independently of the library's integration
routines: the single-pole forms are analytic antiderivatives of the vacuum
kernel, also evaluated in 40-digit arithmetic, as are the single-pole force
kernel entries :func:`alpha_beta_single_pole_mp`, the mean forces are Binet's
formula (single pole, 30 digits) and the Stefan-Boltzmann law (perfect
mirror), :func:`bose_weights_mp` evaluates the thermal weights from the
Bose occupancy in 30-digit arithmetic, :func:`thermal_chi_mp` and
:func:`thermal_cff_mp` integrate the thermal kernels over the whole real
line in 30-digit arithmetic, the trapezoid integrators resample the kernels
at fixed high resolution, :func:`integrate` is a scalar adaptive quadrature
(one QUADPACK call per integrand) against which the batched vector
quadrature is compared sample by sample, and :func:`hilbert_dense` and
:func:`inverse_fourier_dense` evaluate the grid transforms as explicit
matrix products, block by block, against which the FFT versions are
compared.  :func:`xi_from_squeezing` integrates the squared output
perturbation of the general squeezing route with a fixed Gauss-Legendre
rule.  :func:`unitarity_residuals_matrix`, :func:`energy_exchange_matrix`
and :func:`modulated_trace` evaluate the kernel routes that work on the
force kernel's entries as stacked 2x2 matrix products instead.
"""

import warnings
from typing import Callable

import mpmath
import numpy as np
import scipy.integrate

from vacmirror.core import ETA, dagger
from vacmirror.numerics import NonConvergenceError, QuadratureConfig
from vacmirror.pressure import alpha, alpha_beta, force_kernel
from vacmirror.squeezing import delta_cout


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


def chi_perfect_thermal(omega, temp_phi, temp_psi, hbar=1.0):
    """Thermal perfect-mirror susceptibility i (hbar w^3 / 6 pi + pi w (T_phi^2 + T_psi^2) / 3 hbar).

    With alpha = 2 the thermal part of the kernel integrates to
    (2 i w / pi) int (E_phi + E_psi)(v) dv over the real line, where
    E = (hbar |v| / 2) nbar integrates to pi^2 T^2 / (6 hbar).
    """
    w = np.asarray(omega, dtype=float)
    return 1j * (hbar * w**3 / (6.0 * np.pi) + np.pi * w * (temp_phi**2 + temp_psi**2) / (3.0 * hbar))


def xi_from_squeezing(model, state, omega, nodes=200):
    """(1 / 2 pi hbar) int_0^w dw' w' (w - w') ||dC_out[w', w - w']||_F^2 for w > 0.

    Over the vacuum this is Im chi(w): the dissipation read off the
    squeezing of the output field.  ``nodes``-point Gauss-Legendre rule on
    [0, w]; ``delta_cout`` is the general route through the state's full
    covariance and the S-matrices.
    """
    x, weights = np.polynomial.legendre.leggauss(nodes)
    wp = 0.5 * omega * (x + 1.0)
    norm2 = np.sum(np.abs(delta_cout(model, state, wp, omega - wp)) ** 2, axis=(-2, -1))
    integral = 0.5 * omega * np.sum(weights * wp * (omega - wp) * norm2)
    return float(integral / (2.0 * np.pi * state.hbar))


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


def alpha_beta_single_pole_mp(omega, omega2, omega_c):
    """(1 - s s' + r r', s r' - r s') of the single pole at (w, w'), in 40-digit arithmetic."""
    with mpmath.workdps(40):
        w1, w2, oc = (mpmath.mpf(v) for v in (omega, omega2, omega_c))
        s1, s2 = w1 / (w1 + 1j * oc), w2 / (w2 + 1j * oc)
        r1, r2 = -1j * oc / (w1 + 1j * oc), -1j * oc / (w2 + 1j * oc)
        return complex(1 - s1 * s2 + r1 * r2), complex(s1 * r2 - r1 * s2)


def unitarity_residuals_matrix(model, omega, omega2):
    """Max-entry residuals of F F^dagger - (F eta + eta F^dagger) and F^dagger F - (eta F + F^dagger eta)."""
    f = force_kernel(model, omega, omega2)
    fd = dagger(f)
    return tuple(np.abs(p @ q - (p @ ETA + ETA @ q)).max(axis=(-2, -1)) for p, q in ((f, fd), (fd, f)))


def energy_exchange_matrix(model, omega):
    """G(w, -w) = I - S(-w) S(w) as a product of the scattering matrices."""
    w = np.asarray(omega, dtype=float)
    return np.eye(2) - model.smatrix(-w) @ model.smatrix(w)


def modulated_trace(model, cov, omega, omega2):
    """w w' Tr[F (i w c(w) eta + i w' eta c(-w'))] as 2x2 products, with the sum of its terms' magnitudes.

    The terms w w' F_ij (i w c(w) eta)_ji and w w' F_ij (i w' eta c(-w'))_ji
    can be far larger than the trace, whose rounding error scales with them.
    """
    w1, w2 = np.broadcast_arrays(np.asarray(omega, dtype=float), np.asarray(omega2, dtype=float))
    f = force_kernel(model, w1, w2)
    p = 1j * w1[..., None, None] * cov(w1) @ ETA
    q = 1j * w2[..., None, None] * ETA @ cov(-w2)
    trace = w1 * w2 * np.trace(f @ (p + q), axis1=-2, axis2=-1)
    terms = np.abs(w1 * w2) * np.sum(np.abs(f) * (np.abs(p) + np.abs(q)).mT, axis=(-2, -1))
    return trace, terms


def bose_weights_mp(nu, temp, hbar=1.0):
    """Thermal weights (E(v), W(v)) at v != 0 from the Bose occupancy, 30 digits.

    The excess E(v) = (hbar|v|/2) nbar and W(v) = (hbar|v|/2)(nbar + theta(v)),
    nbar = 1/(e^{hbar|v|/T} - 1): the textbook forms, not the closed forms
    the library evaluates.
    """
    with mpmath.workdps(30):
        v, t, h = (mpmath.mpf(x) for x in (nu, temp, hbar))
        base = h * abs(v) / 2
        nbar = 1 / mpmath.expm1(h * abs(v) / t)
        return base * nbar, base * (nbar + (1 if v > 0 else 0))


def _thermal_mp(kernel, omega, omega_c, temp, hbar):
    """integral dw'/(2 pi) kernel(amplitudes, u, W, w', w - w') over the real line, 30 digits.

    amplitudes(v) is the single-pole pair (s, r); u(v) = (hbar v/2) coth(hbar v/2T)
    and W(v) = hbar v / (2 (1 - e^{-hbar v/T})) the thermal chi and noise
    weights.  The line is split at 0 and w, where the weights have kinks,
    and cut again at p +/- Omega 4^k / 64 around both (around w only while
    4^k / 64 <= 4 |w| / Omega: farther out the cuts around 0 serve both), so
    that the width-Omega structure at the kinks, the thermal plateau and
    its decay each fall on pieces of their own size at any T/hbar.  Each
    piece is one Gauss-Legendre quadrature of degree at most 10.  Past
    100 T/hbar from both kinks the occupancy is below e^-100, and what is
    left, the vacuum kernel, vanishes there: the integral stops.  The
    kernel cancels to ~(Omega/w')^2 of its terms far out, so it is
    evaluated with twice as many extra digits as the window has decades.
    A single tanh-sinh quadrature over [-inf, 0, w, inf] in 30 digits was
    off by 5e-8 at T/hbar = 1e4, w = 0.5, from the noise of that
    cancellation far out.
    """
    with mpmath.workdps(30):
        w, oc, t, h = (mpmath.mpf(v) for v in (omega, omega_c, temp, hbar))
        reach = 100 * t / h
        extra = 2 * max(0, int(mpmath.log10(reach / oc)) + 1)

        def amplitudes(v):
            pole = 1 / (v + 1j * oc)
            return v * pole, -1j * oc * pole

        def u(v):
            return t if v == 0 else h * v / (2 * mpmath.tanh(h * v / (2 * t)))

        def weight(v):
            return t / 2 if v == 0 else h * v / (2 * -mpmath.expm1(-h * v / t))

        def integrand(x):
            with mpmath.extradps(extra):
                return kernel(amplitudes, u, weight, x, w - x) / (2 * mpmath.pi)

        lo, hi = min(0, w) - reach, max(0, w) + reach
        cuts, step = {mpmath.mpf(0), w}, oc / 64
        while step < hi - lo:
            cuts |= {step, -step} | ({w + step, w - step} if step <= 4 * abs(w) else set())
            step *= 4
        points = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
        return mpmath.quad(integrand, points, method="gauss-legendre", maxdegree=10)


def thermal_chi_mp(omega, omega_c, temp, hbar=1.0):
    """Thermal chi(w) of the single-pole mirror, independent 30-digit reference."""

    def kernel(amplitudes, u, weight, w1, w2):
        (s1, r1), (s2, r2) = amplitudes(w1), amplitudes(w2)
        return 1j * (1 - s1 * s2 + r1 * r2) * (w2 * u(w1) + w1 * u(w2))

    return complex(_thermal_mp(kernel, omega, omega_c, temp, hbar))


def thermal_cff_mp(omega, omega_c, temp, hbar=1.0):
    """Thermal C_FF(w) of the single-pole mirror, independent 30-digit reference."""

    def kernel(amplitudes, u, weight, w1, w2):
        (s1, r1), (s2, r2) = amplitudes(w1), amplitudes(w2)
        a, b = 1 - s1 * s2 + r1 * r2, s1 * r2 - r1 * s2
        return 4 * weight(w1) * weight(w2) * (a.real**2 + a.imag**2 + b.real**2 + b.imag**2)

    return float(mpmath.re(_thermal_mp(kernel, omega, omega_c, temp, hbar)))


def trapezoid_chi(model, state, omega, lo, hi, n=200_001):
    """chi(w) by fixed trapezoid over the diagonal-state kernel, u(v) = v^2 tr cplus(v)."""
    wp = np.linspace(lo, hi, n)

    def u(v):
        return state.hbar * np.abs(v) / 2.0 + sum(state.excess(v))

    vals = 1j * alpha(model, wp, omega - wp) * (
        (omega - wp) * u(wp) + wp * u(omega - wp)
    )
    return complex(np.trapezoid(vals, wp) / (2.0 * np.pi))


def trapezoid_cff(model, state, omega, lo, hi, n=200_001):
    """C_FF(w) by fixed trapezoid over the diagonal-state noise kernel."""
    wp = np.linspace(lo, hi, n)
    a2 = np.abs(alpha(model, wp, omega - wp)) ** 2
    b2 = np.abs(alpha_beta(model, wp, omega - wp)[1]) ** 2
    phi1, psi1 = state.noise_weight(wp)
    phi2, psi2 = state.noise_weight(omega - wp)
    vals = 2.0 * (a2 * (phi1 * phi2 + psi1 * psi2) + b2 * (phi1 * psi2 + psi1 * phi2))
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
    """Trapezoid weights for the full grid, with the spacing of its span."""
    h = (omega[-1] - omega[0]) / (omega.size - 1)
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


def inverse_fourier_dense(omega, values, m, nt, chunk=256):
    """Trapezoid sum int dw/(2 pi) f[w] exp(-i w t) as a dense matrix product
    on an odd symmetric grid w_k = k dw, at t_j = 2 pi j / (m dw) for
    |j| <= nt // 2; the reference for ``numerics.inverse_fourier_to_time``.
    The phase w_k t_j = 2 pi k j / m is reduced modulo m in integers, so no
    rounding grows with |w t|."""
    om = np.asarray(omega, dtype=float)
    k = np.arange(om.size) - om.size // 2
    j = np.arange(nt) - nt // 2
    weights = np.full(om.size, (om[-1] - om[0]) / (om.size - 1))
    weights[[0, -1]] /= 2
    weighted = weights / (2.0 * np.pi) * np.asarray(values, dtype=complex)
    out = np.empty(nt, dtype=complex)
    for start in range(0, nt, chunk):
        turns = np.outer(j[start:start + chunk], k) % m / m
        out[start:start + chunk] = np.exp(-2j * np.pi * turns) @ weighted
    return out
