"""Shared value types: frequency grids and sampled spectra.

Everything downstream works on the two-component doublet of counterpropagating
field amplitudes, so the two-by-two identity and the propagation metric
eta = diag(1, -1) live here, together with small containers that keep grids
and sampled spectra associated.  The one physical constant, hbar, is a
field of each input state (:class:`vacmirror.states.FieldState`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

ETA = np.diag([1.0, -1.0])
EYE2 = np.eye(2)
ETA_COLS = np.array([1.0, -1.0], dtype=complex)  # x @ ETA == x * ETA_COLS, bitwise
ETA_ROWS = ETA_COLS[:, None]  # ETA @ x == x * ETA_ROWS, bitwise


class SingularFrequencyError(ValueError):
    """Raised when a quantity with a 1/w singularity is evaluated at w = 0."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose acting on the last two axes."""
    return m.mT.conj()


def max_entry(m: np.ndarray) -> float:
    """Largest absolute entry, as a plain float."""
    return float(np.max(np.abs(m)))


def finite(omega, what: str = "kernel") -> np.ndarray:
    """``omega`` as a float array; a non-finite sample raises ValueError, named as passed."""
    w = np.asarray(omega, dtype=float)
    # kernels are also called one scalar pair at a time, where .all() would dominate
    if not (math.isfinite(w) if w.ndim == 0 else np.count_nonzero(np.isfinite(w)) == w.size):
        raise ValueError(f"{what} at omega={float(w[~np.isfinite(w)][0])!r}: frequency is not finite")
    return w


def require_symmetric(omega: np.ndarray) -> None:
    """Raise ValueError unless a grid spans [-W, W], to 1e-12 of W, as dispersion checks need."""
    if not np.isclose(omega[0], -omega[-1], rtol=0.0, atol=1e-12 * abs(omega[-1])):
        raise ValueError(f"grid [{omega[0]:g}, {omega[-1]:g}] must be symmetric about zero")


def frequency_pair(omega, omega2) -> np.ndarray:
    """The two arguments of a two-frequency kernel as finite float arrays of one shape, stacked.

    Arguments of equal shape, scalars included, are not broadcast, which
    keeps the per-pair call cheap; ``w1, w2 = frequency_pair(...)`` unpacks.
    """
    w1, w2 = finite(omega), finite(omega2)
    if w1.shape != w2.shape:
        w1, w2 = np.broadcast_arrays(w1, w2)
    return np.array([w1, w2])


def sign_closure(omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted ``closed`` holding +/-w for each w, with ``closed[at] == omega == -closed[mirror]``.

    Built from the distinct |w|, it holds no -0.0, and a sign-symmetric grid
    is its own closure, bitwise.
    """
    w = finite(omega, "sign closure")
    mags, back = np.unique(np.abs(w), return_inverse=True)
    positive = mags[int(mags.size > 0 and mags[0] == 0) :]  # w = 0 sorts first
    plus, minus = positive.size + back, mags.size - 1 - back
    at, mirror = np.where(w < 0, minus, plus), np.where(w < 0, plus, minus)
    return np.concatenate([-positive[::-1], mags]), at.reshape(w.shape), mirror.reshape(w.shape)


def _require_span(w_min: float, w_max: float) -> None:
    """Raise ValueError if w_max - w_min overflows: a grid's spacing derives from its span."""
    if math.isinf(w_max - w_min):
        raise ValueError(f"grid span [{w_min}, {w_max}] is too wide: w_max - w_min overflows")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid.

    Parameters
    ----------
    omega : numpy.ndarray
        Strictly increasing, uniformly spaced sample frequencies.

    Notes
    -----
    Use :meth:`symmetric` for grids meant to span [-W, W]: it constructs the
    negative half as the exact negation of the positive half, so reflection
    symmetries hold bitwise rather than to rounding error.
    """

    omega: np.ndarray

    def __post_init__(self) -> None:
        om = np.asarray(self.omega, dtype=float)
        if om.ndim != 1 or om.size < 2:
            raise ValueError("grid needs at least two frequencies")
        _require_span(float(om[0]), float(om[-1]))
        d = np.diff(om)
        if not np.all(d > 0):
            raise ValueError("grid frequencies must be strictly increasing")
        if not np.max(np.abs(d - d[0])) <= 1e-9 * abs(d[0]):  # np.allclose(d, d[0], rtol=1e-9, atol=0)
            raise ValueError("grid must be uniformly spaced")
        object.__setattr__(self, "omega", om)

    @classmethod
    def symmetric(cls, w_max: float, n: int) -> "FrequencyGrid":
        """Grid of n points on [-w_max, w_max] with exact sign symmetry.

        n must be odd so that w = 0 is a sample point.
        """
        if not 0 < w_max < math.inf:
            raise ValueError(f"w_max must be positive and finite, got {w_max}")
        if n < 3 or n % 2 == 0:
            raise ValueError("symmetric grid needs an odd point count >= 3")
        half = np.linspace(0.0, w_max, (n + 1) // 2)
        om = np.concatenate([-half[:0:-1], half])
        return cls(om)

    @classmethod
    def linear(cls, w_min: float, w_max: float, n: int) -> "FrequencyGrid":
        """Grid of n points on [w_min, w_max]; symmetric spans get exact signs."""
        for name, bound in (("w_min", w_min), ("w_max", w_max)):
            if not math.isfinite(bound):
                raise ValueError(f"{name} must be finite, got {bound}")
        _require_span(float(w_min), float(w_max))  # before linspace, which would overflow
        if n < 2:
            raise ValueError("grid needs at least two frequencies")
        if w_min == -w_max and w_max > 0 and n % 2 == 1:
            return cls.symmetric(w_max, n)
        return cls(np.linspace(w_min, w_max, n))

    @property
    def spacing(self) -> float:
        """(w_max - w_min) / (n - 1), free of a neighbour difference's rounding."""
        return float((self.omega[-1] - self.omega[0]) / (self.omega.size - 1))

    @property
    def size(self) -> int:
        return int(self.omega.size)


@dataclass(frozen=True)
class Spectrum:
    """Complex samples of a frequency-domain quantity on a grid.

    Parameters
    ----------
    grid : FrequencyGrid
        Sample frequencies.
    values : numpy.ndarray
        Complex samples, same length as the grid.
    meta : dict
        Free-form diagnostics (error bounds, node counts) attached by producers.
    """

    grid: FrequencyGrid
    values: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid size {self.grid.size}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def omega(self) -> np.ndarray:
        return self.grid.omega

    def with_values(self, values: np.ndarray, **meta: Any) -> "Spectrum":
        """Same grid, new samples; meta is merged over the existing entries."""
        merged = dict(self.meta)
        merged.update(meta)
        return Spectrum(self.grid, values, merged)
