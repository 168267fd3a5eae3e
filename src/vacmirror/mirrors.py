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
                here through windowed dispersion relations on a real grid
                symmetric about zero
* transparency: s -> 1, r -> 0 as |w| -> infinity

:class:`SinglePoleMirror` satisfies all four exactly and has
:class:`PerfectMirror` (s = 0, r = -1, not transparent) as its large-cutoff
limit.  :class:`TabulatedMirror` interpolates sampled data and is the vehicle
for deliberately broken models in tests.

A model implements :meth:`Mirror.amplitudes`, the pair (s - 1, r) from one
evaluation, on which the paper states transparency and causality and on
which the force kernel is free of cancellation; or both :meth:`Mirror.s` and
:meth:`Mirror.r`.  Every kernel calls ``amplitudes`` once per call, on all of
its frequencies stacked.

:attr:`Mirror.scale`, the width of a model's structure, sets where thermal
convolutions cut their outer piece and, in every state, the vacuum included,
the pole distance of the sinh map placing their nodes
(:func:`vacmirror.response.convolve`); without it they take a u^3 map.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FrequencyGrid, max_entry, require_symmetric
from .numerics import hilbert_transform

# pass threshold of validate_model's relative dispersion-relation residual
_CAUSALITY_TOL = 0.05


class Mirror:
    """A frequency-dependent scattering matrix.

    Subclasses implement :meth:`amplitudes`, a vectorized map from real
    frequency to the complex pair (s - 1, r), or both :meth:`s` and :meth:`r`,
    and set :attr:`transparent` to declare whether (s, r) -> (1, 0) at high
    frequency, which :func:`validate_model` scores.  A model with frequency
    structure must set :attr:`scale` to its width: with the default None,
    thermal spectra where T/hbar far exceeds that width (small hbar) can be
    wrong with no error, and every spectrum takes more nodes: up to 294 in
    place of 42 per vacuum chi sample for ``SinglePoleMirror(1e-4)`` read
    through s and r.  Instances are immutable and safe to share.
    """

    transparent: bool = False
    scale: float | None = None

    def amplitudes(self, omega):
        """(s(w) - 1, r(w)); by default one :meth:`s` and one :meth:`r` call, for models overriding both.

        With s - 1 = r exactly, one array may be returned twice: the kernels then skip what cancels.
        """
        if type(self).s is Mirror.s or type(self).r is Mirror.r:
            raise NotImplementedError(f"{type(self).__name__} implements neither amplitudes nor both s and r")
        return self.s(omega) - 1.0, self.r(omega)

    def s(self, omega):
        return 1.0 + self.amplitudes(omega)[0]

    def r(self, omega):
        return self.amplitudes(omega)[1]

    def smatrix(self, omega) -> np.ndarray:
        """The symmetric matrix [[s, r], [r, s]], shape ``np.shape(omega) + (2, 2)``."""
        sigma, r = self.amplitudes(omega)
        out = np.empty(np.shape(sigma) + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1.0 + sigma
        out[..., 0, 1] = out[..., 1, 0] = r
        return out


@dataclass(frozen=True)
class SinglePoleMirror(Mirror):
    """Transparent mirror with a single cutoff scale.

        s(w) = w / (w + i*Omega),    r(w) = -i*Omega / (w + i*Omega)

    so s - 1 = r exactly.  The only pole sits at w = -i*Omega in the lower
    half plane, so the model is causal; it is exactly unitary and real,
    reflects perfectly at w = 0, and becomes transparent for |w| >> Omega.
    The limit Omega -> infinity recovers the perfect mirror at any fixed
    frequency, with entrywise error O(|w|/Omega).

    Parameters
    ----------
    omega_c : float
        Cutoff frequency Omega > 0.
    """

    omega_c: float

    transparent = True
    scale = property(lambda self: self.omega_c)

    def __post_init__(self) -> None:
        if not 0 < self.omega_c < np.inf:
            raise ValueError(f"cutoff frequency must be positive and finite, got {self.omega_c}")

    def amplitudes(self, omega):
        r = (-1j * self.omega_c) / (np.asarray(omega, dtype=float) + 1j * self.omega_c)
        return r, r


@dataclass(frozen=True)
class PerfectMirror(Mirror):
    """Totally reflecting mirror: s = 0, r = -1 at every frequency.

    Not transparent at high frequency, yet every convolution stays finite:
    the vacuum response and noise have support bounded by the analysis
    frequency, and thermal integrands decay with the occupancy.
    """

    def amplitudes(self, omega):
        return (np.full(np.shape(omega), -1.0, complex),) * 2


class TabulatedMirror(Mirror):
    """Mirror defined by sampled (s, r) data on w >= 0, cubic interpolation of (s - 1, r).

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

    ``transparent`` is read off the last sample: whether the table has
    reached (s, r) = (1, 0) at its upper end, as :func:`validate_model`
    scores it.  ``scale`` is the smallest sample spacing.
    """

    def __init__(self, omega_grid: np.ndarray, s_samples: np.ndarray, r_samples: np.ndarray):
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
        self.transparent = bool(abs(sv[-1] - 1.0) < 0.5 and abs(rv[-1]) < 0.5)
        self.scale = float(np.min(np.diff(om)))
        from scipy.interpolate import CubicSpline
        self._spline = CubicSpline(om, np.stack([sv - 1.0, rv], axis=-1))

    @classmethod
    def from_csv(cls, path: str | Path) -> "TabulatedMirror":
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
    :func:`validate_model`).  ``passed`` aggregates the individual flags.
    """

    reality: float
    unitarity: float
    symmetry: float
    causality: float
    transparency: float
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _dispersion_residual(values: np.ndarray) -> float:
    """Relative mismatch between Im f and -H[Re f] on the grid interior.

    For f analytic in the upper half plane with decay on the real line the
    real and imaginary parts are Hilbert-transform partners.  The real part is
    the one fed through the transform because it decays faster (1/w^2 vs 1/w
    for the mirror amplitudes), keeping window truncation negligible; its
    edge asymptote is subtracted first so that a frequency-independent offset
    (a delta response in time, causal) does not register as a violation; on
    a symmetric grid it zeroes both edge samples of the even real part.
    """
    re = np.real(values)
    im_pred = -hilbert_transform(re - (re[0] + re[-1]) / 2)
    im_true = np.imag(values)
    n = values.size
    sl = slice(n // 4, n - n // 4)
    num = np.linalg.norm(im_true[sl] - im_pred[sl])
    den = max(np.linalg.norm(im_true[sl]), np.linalg.norm(im_pred[sl]), 1e-12)
    return float(num / den)


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
        Test frequencies, symmetric about zero, else ValueError: on any other
        span the dispersion check reads its own truncation as a violation.
        Transparency is scored at the last sample.
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
    require_symmetric(om)
    pm = model.amplitudes(np.array([om, -om]))  # row 0 at the grid, row 1 at its negation
    (sigma, sigma_neg), (r, r_neg) = (np.asarray(a, dtype=complex) for a in pm)
    reality = max(max_entry(sigma_neg - np.conj(sigma)), max_entry(r_neg - np.conj(r)))

    s = 1.0 + sigma
    unitarity = max(
        max_entry(np.abs(s) ** 2 + np.abs(r) ** 2 - 1.0),
        max_entry(s * np.conj(r) + r * np.conj(s)),
    )

    # the [[s, r], [r, s]] structure is symmetric by construction; verify the
    # matrix evaluation path agrees with the amplitude path
    step = max(1, om.size // 16)
    mats = model.smatrix(om[::step])
    symmetry = max(
        max_entry(mats - np.swapaxes(mats, -1, -2)),
        max_entry(mats[:, 0, :] - np.stack([s[::step], r[::step]], axis=-1)),
    )

    causality = max(_dispersion_residual(sigma), _dispersion_residual(r))
    transparency = max(abs(complex(sigma[-1])), abs(complex(r[-1])))

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
        transparency=transparency,
        checks=checks,
    )
