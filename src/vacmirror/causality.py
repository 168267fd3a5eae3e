"""Time-domain causality diagnostics for response spectra.

A causal response function is analytic in the upper half plane, which shows
up in two testable ways on a sampled spectrum: its inverse Fourier transform is
supported at positive times, and its real and imaginary parts are Hilbert
transforms of each other.  Both checks are performed on the acceleration
response a(w) = -chi(w)/w^2 when the input grows like w^2 at the band edge
(the generic case for a mirror with inertia), after subtracting the
high-frequency plateau and tapering the band edges so the finite window does
not masquerade as acausal ringing.

The dispersion check is once subtracted and anchored at w = 0,

    Re a(w) - Re a(0)  vs  w * H[Im a(w') / w'](w),

which converges on a finite window even though the unsubtracted transform
would pick up an O(1/W) offset from the truncated tails.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Spectrum
from .numerics import hilbert_transform, inverse_fourier_to_time


# fraction of each band edge smoothed to zero by a cosine ramp
_TAPER_FRAC = 0.15
# fraction of each band edge used to fit the real plateau mu + c/|w|
_FIT_FRAC = 0.10
# half-width of the excluded window around t = 0, in units of pi/w_max:
# window-limited resolution makes times below this scale meaningless
_EXCLUSION_MULT = 8.0
# fraction of the band (around zero) scored by the dispersion residual
_INTERIOR_FRAC = 0.25
# time samples for the energy-fraction metric
_NT = 4001


@dataclass(frozen=True)
class CausalityReport:
    """Outcome of the two causality metrics on one spectrum.

    Attributes
    ----------
    mode : str
        Resolved preprocessing mode ("inertial" or "direct").
    negative_time_fraction : float
        Energy at t < -t_exclusion over energy at |t| > t_exclusion.
    kk_residual : float
        Relative l2 mismatch of the once-subtracted dispersion relation
        over the scored interior band.
    tail_bound : float
        Estimate of the out-of-window contribution the Hilbert transform of
        Im a(w)/w neglects (``meta["tail_bound"]`` of that transform).
    plateau : float
        Real high-frequency plateau removed before transforming.
    t_exclusion : float
        Half-width of the ignored window around t = 0.
    negative_energy, total_energy : float
        The raw energies behind the fraction, for reporting.
    """

    mode: str
    negative_time_fraction: float
    kk_residual: float
    tail_bound: float
    plateau: float
    t_exclusion: float
    negative_energy: float
    total_energy: float

    def passes(self, neg_tol: float = 1e-3, kk_tol: float = 0.01) -> bool:
        return self.negative_time_fraction < neg_tol and self.kk_residual < kk_tol


def _fill_zero(om: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Replace samples at w = 0 by the average of their neighbours."""
    out = values.copy()
    for j in np.flatnonzero(om == 0.0):
        lo = max(j - 1, 0)
        hi = min(j + 1, om.size - 1)
        out[j] = 0.5 * (out[lo] + out[hi])
    return out


def _cosine_taper(n: int, frac: float) -> np.ndarray:
    window = np.ones(n)
    k = int(round(frac * n))
    if k > 1:
        ramp = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, k)))
        window[:k] = ramp
        window[-k:] = ramp[::-1]
    return window


def _subtract_plateau(om: np.ndarray, values: np.ndarray, frac: float) -> tuple[np.ndarray, float]:
    """Fit Re values ~ mu + c/|w| on the band edges and remove mu."""
    n = om.size
    k = max(3, int(round(frac * n)))
    sel = np.r_[0:k, n - k:n]
    x = np.abs(om[sel])
    basis = np.column_stack([np.ones_like(x), 1.0 / x])
    coef, *_ = np.linalg.lstsq(basis, values[sel].real, rcond=None)
    return values - coef[0], float(coef[0])


def causality_report(spectrum: Spectrum, mode: str = "auto") -> CausalityReport:
    """Score a sampled response spectrum against both causality metrics.

    Parameters
    ----------
    spectrum : Spectrum
        Response samples on a sign-symmetric uniform grid containing w = 0.
    mode : str
        "inertial" divides by -w^2 first, "direct" uses the spectrum as is,
        "auto" picks by comparing edge magnitude against the interior median.

    Returns
    -------
    CausalityReport

    Examples
    --------
    >>> from vacmirror import FrequencyGrid, SinglePoleMirror, VacuumState
    >>> from vacmirror.response import susceptibility_grid
    >>> grid = FrequencyGrid.symmetric(200.0, 16001)
    >>> chi = susceptibility_grid(SinglePoleMirror(2.0), VacuumState(), grid)
    >>> causality_report(chi).passes()
    True
    """
    if mode not in ("auto", "inertial", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    om = spectrum.omega
    values = spectrum.values
    n = om.size
    if n < 128:
        raise ValueError("causality metrics need at least 128 samples")
    if not np.isclose(om[0], -om[-1], rtol=0.0, atol=1e-12 * abs(om[-1])):
        raise ValueError("grid must be symmetric about zero")
    mid = n // 2
    if om[mid] != 0.0:
        raise ValueError("grid must contain the zero frequency")
    w_max = float(om[-1])

    if mode == "auto":
        k = max(3, n // 50)
        edge = max(float(np.mean(np.abs(values[:k]))), float(np.mean(np.abs(values[-k:]))))
        interior = np.abs(values[np.abs(om) <= 0.25 * w_max])
        mode = "inertial" if edge > 2.0 * float(np.median(interior)) else "direct"

    if mode == "inertial":
        safe = np.where(om == 0.0, 1.0, om)
        a = _fill_zero(om, np.where(om == 0.0, 0.0, -values / safe**2))
    else:
        a = values.astype(complex)

    a, plateau = _subtract_plateau(om, a, _FIT_FRAC)
    a = a * _cosine_taper(n, _TAPER_FRAC)

    # energy fraction at negative times, t on [-pi/5dw, pi/5dw] sign-symmetric
    dw = spectrum.grid.spacing
    dt = 2.0 * np.pi / (5.0 * dw) / (_NT - 1)
    t = dt * (np.arange(_NT) - 0.5 * (_NT - 1))
    signal = inverse_fourier_to_time(Spectrum(spectrum.grid, a), t)
    power = np.abs(signal) ** 2
    t_excl = _EXCLUSION_MULT * np.pi / w_max
    # a sample on the window edge (default grids place one there) counts as
    # inside, whichever way its rounding falls
    outside = np.abs(t) > t_excl * (1.0 + 1e-9)
    neg_energy = float(power[outside & (t < 0.0)].sum() * dt)
    total_energy = float(power[outside].sum() * dt)
    fraction = neg_energy / total_energy if total_energy > 0.0 else 0.0

    # once-subtracted dispersion relation anchored at w = 0
    safe = np.where(om == 0.0, 1.0, om)
    m = _fill_zero(om, np.where(om == 0.0, 0.0, a.imag / safe))
    # the tail warning is silenced because its bound is reported
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        transformed = hilbert_transform(Spectrum(spectrum.grid, m.astype(complex)))
    predicted = om * transformed.values.real
    anchored = a.real - a.real[mid]
    band = np.abs(om) <= _INTERIOR_FRAC * w_max
    mismatch = np.linalg.norm(anchored[band] - predicted[band])
    denom = max(np.linalg.norm(anchored[band]), np.linalg.norm(predicted[band]), 1e-300)

    return CausalityReport(
        mode=mode,
        negative_time_fraction=float(fraction),
        kk_residual=float(mismatch / denom),
        tail_bound=float(transformed.meta["tail_bound"]),
        plateau=plateau,
        t_exclusion=float(t_excl),
        negative_energy=neg_energy,
        total_energy=total_energy,
    )
