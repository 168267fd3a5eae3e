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

A model implements :meth:`Mirror.amplitudes`, the pair (s, r) from one
evaluation, or both :meth:`Mirror.s` and :meth:`Mirror.r`; every consumer
calls ``amplitudes`` once per frequency argument.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FrequencyGrid, Spectrum, max_entry
from .numerics import hilbert_transform

# pass threshold of validate_model's relative dispersion-relation residual
_CAUSALITY_TOL = 0.05


class Mirror:
    """A frequency-dependent scattering matrix.

    Subclasses implement :meth:`amplitudes`, a vectorized map from real
    frequency to the complex pair (s, r), or both :meth:`s` and :meth:`r`,
    and set :attr:`transparent` to declare whether (s, r) -> (1, 0) at high
    frequency, which :func:`validate_model` scores.  Instances are immutable
    and safe to share between workers.
    """

    transparent: bool = False

    def amplitudes(self, omega):
        """(s(w), r(w)); by default one :meth:`s` and one :meth:`r` call, for models overriding both."""
        if type(self).s is Mirror.s or type(self).r is Mirror.r:
            raise NotImplementedError(f"{type(self).__name__} implements neither amplitudes nor both s and r")
        return self.s(omega), self.r(omega)

    def s(self, omega):
        return self.amplitudes(omega)[0]

    def r(self, omega):
        return self.amplitudes(omega)[1]

    def smatrix(self, omega) -> np.ndarray:
        """The symmetric matrix [[s, r], [r, s]], shape ``np.shape(omega) + (2, 2)``."""
        s, r = self.amplitudes(omega)
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
        if not 0 < self.omega_c < np.inf:
            raise ValueError(f"cutoff frequency must be positive and finite, got {self.omega_c}")

    def amplitudes(self, omega):
        omega = np.asarray(omega, dtype=float)
        inv = 1.0 / (omega + 1j * self.omega_c)
        return omega * inv, -1j * self.omega_c * inv


@dataclass(frozen=True)
class PerfectMirror(Mirror):
    """Totally reflecting mirror: s = 0, r = -1 at every frequency.

    Not transparent at high frequency, yet every convolution stays finite:
    the vacuum response and noise have support bounded by the analysis
    frequency, and thermal integrands decay with the occupancy.
    """

    def amplitudes(self, omega):
        return np.zeros(np.shape(omega), complex), np.full(np.shape(omega), -1.0, complex)


class TabulatedMirror(Mirror):
    """Mirror defined by sampled (s, r) data on w >= 0, cubic interpolation.

    Reality is enforced by construction: only nonnegative frequencies are
    stored and negative ones are served as complex conjugates.  Queries
    outside the sampled range raise, rather than extrapolate.  scipy's
    ``CubicSpline`` is imported only when a table is built.

    Parameters
    ----------
    omega_grid : numpy.ndarray
        Ascending sample frequencies, first entry >= 0.
    s_samples, r_samples : numpy.ndarray
        Complex amplitudes at the sample frequencies.
    transparent_hint : bool, optional
        Declares whether the tabulated data approaches (s, r) = (1, 0) at its
        upper end, as :func:`validate_model` scores it.  When omitted, it is
        read off the last sample.
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
        if sv.shape != om.shape or rv.shape != om.shape:
            raise ValueError("sample arrays must match the frequency grid")
        bad = np.flatnonzero(~(np.isfinite(om) & np.isfinite(sv) & np.isfinite(rv)))
        if bad.size:
            raise ValueError(f"sample {bad[0]} (omega={om[bad[0]]:g}) is not finite")
        if om[0] < 0 or not np.all(np.diff(om) > 0):
            raise ValueError("sample frequencies must be ascending and >= 0")
        self.omega_grid = om
        self.s_samples = sv
        self.r_samples = rv
        if transparent_hint is None:
            # the table's upper edge declares whether it has left the
            # reflective regime
            transparent_hint = bool(abs(sv[-1] - 1.0) < 0.5 and abs(rv[-1]) < 0.5)
        self.transparent = bool(transparent_hint)
        from scipy.interpolate import CubicSpline
        self._spline = CubicSpline(om, np.stack([sv, rv], axis=-1))

    @classmethod
    def from_csv(cls, path: str | Path, transparent_hint: bool | None = None) -> "TabulatedMirror":
        """Load samples from a CSV file with header omega,re_s,im_s,re_r,im_r; errors name the file."""
        path = Path(path)
        try:
            with path.open() as fh:
                header = fh.readline().strip().lower().replace(" ", "")
                expected = "omega,re_s,im_s,re_r,im_r"
                if header != expected:
                    raise ValueError(f"expected header '{expected}', got '{header}'")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            if data.shape[1] != 5:
                raise ValueError(f"expected 5 columns, got {data.shape[1]}")
            return cls(
                omega_grid=data[:, 0],
                s_samples=data[:, 1] + 1j * data[:, 2],
                r_samples=data[:, 3] + 1j * data[:, 4],
                transparent_hint=transparent_hint,
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def amplitudes(self, omega):
        omega = np.asarray(omega, dtype=float)
        mag = np.abs(omega)
        lo, hi = self.omega_grid[0], self.omega_grid[-1]
        outside = ~((mag >= lo) & (mag <= hi))
        if outside.any():
            raise ValueError(f"frequency {omega[outside].flat[0]:g} outside tabulated range [{lo:g}, {hi:g}]")
        vals = np.asarray(self._spline(mag), dtype=complex)
        vals = np.where((omega >= 0)[..., None], vals, np.conj(vals))
        return vals[..., 0], vals[..., 1]


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
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


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
        symmetry).  The dispersion-relation residual passes at or below a
        fixed 0.05, looser because the windowed Hilbert transform carries an
        O(1/W) truncation error absent from the pointwise algebraic checks.

    Returns
    -------
    ValidationReport
        Violations are reported, never raised.
    """
    om = grid.omega
    s, r = (np.asarray(a, dtype=complex) for a in model.amplitudes(om))
    s_neg, r_neg = model.amplitudes(-om)
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
        max_entry(mats[:, 0, :] - np.stack(model.amplitudes(sub), axis=-1)),
    )

    (res_s, tail_s), (res_r, tail_r) = _dispersion_residual(om, s - 1.0), _dispersion_residual(om, r)
    causality = max(res_s, res_r)

    w_edge = max(abs(om[0]), abs(om[-1]))
    s_edge, r_edge = model.amplitudes(w_edge)
    transparency = max(abs(complex(s_edge) - 1.0), abs(complex(r_edge)))

    checks = {
        "reality": reality <= tol,
        "unitarity": unitarity <= tol,
        "symmetry": symmetry <= tol,
        "causality": causality <= _CAUSALITY_TOL,
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
        checks=checks,
    )
