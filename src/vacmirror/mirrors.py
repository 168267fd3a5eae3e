"""Mirror scattering models.

A motionless mirror is a frequency-dependent two-by-two S-matrix acting on
the counterpropagating field doublet,

    S(w) = [[s(w), r(w)],
            [r(w), s(w)]],

with s the transmission and r the reflection amplitude.  Physically admissible
models satisfy four conditions on the real frequency axis:

* reality:      s(-w) = conj(s(w)), r(-w) = conj(r(w))
* unitarity:    |s|^2 + |r|^2 = 1 and s conj(r) + r conj(s) = 0
* causality:    s(w) - 1 and r(w) analytic in the upper half plane, checked
                here through windowed dispersion relations on the real line
* transparency: s -> 1, r -> 0 as |w| -> infinity

:class:`SinglePoleMirror` satisfies all four exactly and has
:class:`PerfectMirror` (s = 0, r = -1, not transparent) as its large-cutoff
limit.  :class:`TabulatedMirror` interpolates sampled data and is the vehicle
for deliberately broken models in tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .core import FrequencyGrid, Spectrum, max_entry
from .numerics import hilbert_transform


class Mirror:
    """A frequency-dependent scattering matrix.

    Subclasses implement :meth:`s` and :meth:`r` as vectorized maps from real
    frequency to complex amplitude, and set :attr:`transparent` to declare
    whether (s, r) -> (1, 0) at high frequency.  Instances are immutable and
    safe to share between workers.
    """

    transparent: bool = False

    def s(self, omega):
        raise NotImplementedError

    def r(self, omega):
        raise NotImplementedError

    def smatrix(self, omega) -> np.ndarray:
        """The symmetric matrix [[s, r], [r, s]], shape ``np.shape(omega) + (2, 2)``."""
        s = self.s(omega)
        r = self.r(omega)
        out = np.empty(np.shape(s) + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = s
        out[..., 0, 1] = out[..., 1, 0] = r
        return out


@dataclass(frozen=True)
class SinglePoleMirror(Mirror):
    """Transparent mirror with a single cutoff scale.

        s(w) = w / (w + i*Omega),    r(w) = -i*Omega / (w + i*Omega)

    The only pole sits at w = -i*Omega in the lower half plane, so the model
    is causal; it is exactly unitary and real, reflects perfectly at w = 0,
    and becomes transparent for |w| >> Omega.  The limit Omega -> infinity
    recovers the perfect mirror at any fixed frequency, with entrywise error
    O(|w|/Omega).

    Parameters
    ----------
    omega_c : float
        Cutoff frequency Omega > 0.
    """

    omega_c: float

    transparent = True

    def __post_init__(self) -> None:
        if not self.omega_c > 0:
            raise ValueError(f"cutoff frequency must be positive, got {self.omega_c}")

    def s(self, omega):
        omega = np.asarray(omega, dtype=float)
        return omega / (omega + 1j * self.omega_c)

    def r(self, omega):
        omega = np.asarray(omega, dtype=float)
        return -1j * self.omega_c / (omega + 1j * self.omega_c)


@dataclass(frozen=True)
class PerfectMirror(Mirror):
    """Totally reflecting mirror: s = 0, r = -1 at every frequency.

    Not transparent at high frequency, so operations whose integrands need
    decay (mean force over a state, thermal susceptibility) refuse it; the
    vacuum response and noise integrals stay finite because their support is
    bounded by the analysis frequency.
    """

    def s(self, omega):
        return np.zeros_like(np.asarray(omega, dtype=float), dtype=complex)

    def r(self, omega):
        return np.full_like(np.asarray(omega, dtype=float), -1.0, dtype=complex)


class TabulatedMirror(Mirror):
    """Mirror defined by sampled (s, r) data on w >= 0, cubic interpolation.

    Reality is enforced by construction: only nonnegative frequencies are
    stored and negative ones are served as complex conjugates.  Queries
    outside the sampled range raise, rather than extrapolate.

    Parameters
    ----------
    omega_grid : numpy.ndarray
        Ascending sample frequencies, first entry >= 0.
    s_samples, r_samples : numpy.ndarray
        Complex amplitudes at the sample frequencies.
    transparent_hint : bool, optional
        Declares whether the tabulated data approaches (s, r) = (1, 0) at its
        upper end; consumed by operations that need integrand decay.  When
        omitted, it is read off the last sample.
    """

    def __init__(
        self,
        omega_grid: np.ndarray,
        s_samples: np.ndarray,
        r_samples: np.ndarray,
        transparent_hint: bool | None = None,
    ):
        om = np.asarray(omega_grid, dtype=float)
        sv = np.asarray(s_samples, dtype=complex)
        rv = np.asarray(r_samples, dtype=complex)
        if om.ndim != 1 or om.size < 4:
            raise ValueError("tabulated mirror needs at least 4 sample frequencies")
        if om[0] < 0 or not np.all(np.diff(om) > 0):
            raise ValueError("sample frequencies must be ascending and >= 0")
        if sv.shape != om.shape or rv.shape != om.shape:
            raise ValueError("sample arrays must match the frequency grid")
        self.omega_grid = om
        self.s_samples = sv
        self.r_samples = rv
        if transparent_hint is None:
            # the table's upper edge declares whether it has left the
            # reflective regime
            transparent_hint = bool(abs(sv[-1] - 1.0) < 0.5 and abs(rv[-1]) < 0.5)
        self.transparent = bool(transparent_hint)
        self._s_spline = CubicSpline(om, sv)
        self._r_spline = CubicSpline(om, rv)

    @classmethod
    def from_csv(cls, path: str | Path, transparent_hint: bool | None = None) -> "TabulatedMirror":
        """Load samples from a CSV file with header omega,re_s,im_s,re_r,im_r."""
        path = Path(path)
        with path.open() as fh:
            header = fh.readline().strip().lower().replace(" ", "")
            expected = "omega,re_s,im_s,re_r,im_r"
            if header != expected:
                raise ValueError(f"{path}: expected header '{expected}', got '{header}'")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[1] != 5:
            raise ValueError(f"{path}: expected 5 columns, got {data.shape[1]}")
        return cls(
            omega_grid=data[:, 0],
            s_samples=data[:, 1] + 1j * data[:, 2],
            r_samples=data[:, 3] + 1j * data[:, 4],
            transparent_hint=transparent_hint,
        )

    def _eval(self, spline, omega):
        omega = np.asarray(omega, dtype=float)
        mag = np.abs(omega)
        if np.any(mag > self.omega_grid[-1]) or np.any(mag < self.omega_grid[0]):
            bad = mag[(mag > self.omega_grid[-1]) | (mag < self.omega_grid[0])]
            raise ValueError(
                f"frequency {bad.flat[0]:g} outside tabulated range "
                f"[{self.omega_grid[0]:g}, {self.omega_grid[-1]:g}]"
            )
        vals = np.asarray(spline(mag), dtype=complex)
        return np.where(omega >= 0, vals, np.conj(vals))

    def s(self, omega):
        return self._eval(self._s_spline, omega)

    def r(self, omega):
        return self._eval(self._r_spline, omega)


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the model conditions on a frequency grid.

    All residuals are max-entry deviations over the grid; ``causality`` is the
    relative dispersion-relation mismatch of s - 1 and r (see
    :func:`validate_model`), and ``tail_bound`` the larger estimate of the
    out-of-window contribution its two Hilbert transforms neglect, in units
    of the amplitudes.  ``passed`` aggregates the individual flags.
    """

    reality: float
    unitarity: float
    symmetry: float
    causality: float
    tail_bound: float
    transparency: float
    transparent_expected: bool
    tol: float
    causality_tol: float
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name in ("reality", "unitarity", "symmetry", "causality", "transparency"):
            flag = "pass" if self.checks[name] else "FAIL"
            out.append(f"{name:12s} residual={getattr(self, name):.3e}  {flag}")
        return out


def _dispersion_residual(omega: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Relative mismatch between Im f and -H[Re f] on the grid interior, and
    the transform's tail bound.

    For f analytic in the upper half plane with decay on the real line the
    real and imaginary parts are Hilbert-transform partners.  The real part is
    the one fed through the transform because it decays faster (1/w^2 vs 1/w
    for the mirror amplitudes), keeping window truncation negligible; its
    edge asymptote is subtracted first so that a frequency-independent offset
    (a delta response in time, causal) does not register as a violation.
    The tail warning is silenced because its bound is returned instead.
    """
    grid = FrequencyGrid(omega)
    re = np.real(values)
    re = re - (re[0] + re[-1]) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        h = hilbert_transform(Spectrum(grid, re.astype(complex)))
    im_pred = -np.real(h.values)
    im_true = np.imag(values)
    n = omega.size
    sl = slice(n // 4, n - n // 4)
    num = np.linalg.norm(im_true[sl] - im_pred[sl])
    den = max(np.linalg.norm(im_true[sl]), np.linalg.norm(im_pred[sl]), 1e-12)
    return float(num / den), float(h.meta["tail_bound"])


def validate_model(
    model: Mirror,
    grid: FrequencyGrid,
    tol: float = 1e-10,
    causality_tol: float = 0.05,
) -> ValidationReport:
    """Check reality, unitarity, symmetry, causality, and transparency.

    Parameters
    ----------
    model : Mirror
    grid : FrequencyGrid
        Test frequencies; use a symmetric grid so the reality check pairs
        samples exactly and the dispersion check sees both signs.
    tol : float
        Pass threshold for the algebraic residuals (reality, unitarity,
        symmetry).
    causality_tol : float
        Pass threshold for the dispersion-relation residual.  Looser than
        ``tol`` because the windowed Hilbert transform carries an O(1/W)
        truncation error absent from the pointwise algebraic checks.

    Returns
    -------
    ValidationReport
        Violations are reported, never raised.
    """
    om = grid.omega
    s = np.asarray(model.s(om), dtype=complex)
    r = np.asarray(model.r(om), dtype=complex)

    s_neg = np.asarray(model.s(-om), dtype=complex)
    r_neg = np.asarray(model.r(-om), dtype=complex)
    reality = max(max_entry(s_neg - np.conj(s)), max_entry(r_neg - np.conj(r)))

    unitarity = max(
        max_entry(np.abs(s) ** 2 + np.abs(r) ** 2 - 1.0),
        max_entry(s * np.conj(r) + r * np.conj(s)),
    )

    # the [[s, r], [r, s]] structure is symmetric by construction; verify the
    # matrix evaluation path agrees with the amplitude path
    sub = om[:: max(1, om.size // 16)]
    mats = model.smatrix(sub)
    symmetry = max(
        max_entry(mats - np.swapaxes(mats, -1, -2)),
        max_entry(mats[:, 0, 0] - np.asarray(model.s(sub))),
        max_entry(mats[:, 0, 1] - np.asarray(model.r(sub))),
    )

    (res_s, tail_s), (res_r, tail_r) = _dispersion_residual(om, s - 1.0), _dispersion_residual(om, r)
    causality = max(res_s, res_r)

    w_edge = max(abs(om[0]), abs(om[-1]))
    transparency = max(abs(complex(model.s(w_edge)) - 1.0), abs(complex(model.r(w_edge))))

    checks = {
        "reality": reality <= tol,
        "unitarity": unitarity <= tol,
        "symmetry": symmetry <= tol,
        "causality": causality <= causality_tol,
        # a transparent model approaches (1, 0) at the grid edge; residual
        # ~ Omega/w_edge must at least have left the reflective regime
        "transparency": bool(model.transparent) and transparency < 0.5,
    }
    return ValidationReport(
        reality=reality,
        unitarity=unitarity,
        symmetry=symmetry,
        causality=causality,
        tail_bound=max(tail_s, tail_r),
        transparency=transparency,
        transparent_expected=bool(model.transparent),
        tol=tol,
        causality_tol=causality_tol,
        checks=checks,
    )
