"""Shared value types: physics context, frequency grids, sampled spectra.

Everything downstream works on the two-component doublet of counterpropagating
field amplitudes, so the two-by-two identity and the propagation metric
eta = diag(1, -1) live here, together with small containers that keep grids
and sampled spectra associated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

ETA = np.diag([1.0, -1.0])
EYE2 = np.eye(2)


class SingularFrequencyError(ValueError):
    """Raised when a quantity with a 1/w singularity is evaluated at w = 0."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose acting on the last two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def max_entry(m: np.ndarray) -> float:
    """Largest absolute entry, as a plain float."""
    return float(np.max(np.abs(m)))


def frequency_pair(omega, omega2) -> tuple[np.ndarray, np.ndarray]:
    """The two arguments of a two-frequency kernel as float arrays of one shape.

    Arguments of equal shape, scalars included, are not broadcast, which
    keeps the per-pair call cheap; ``np.array([w1, w2])`` then stacks them.
    """
    w1, w2 = np.asarray(omega, dtype=float), np.asarray(omega2, dtype=float)
    if w1.shape != w2.shape:
        w1, w2 = np.broadcast_arrays(w1, w2)
    return w1, w2


@dataclass(frozen=True)
class PhysicsContext:
    """Physical constants for a computation.

    Parameters
    ----------
    hbar : float
        Reduced Planck constant in the unit system of the caller.  The field
        propagation speed is fixed to 1, so frequencies and wavenumbers are
        interchangeable.
    """

    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")


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
        d = np.diff(om)
        if not np.all(d > 0):
            raise ValueError("grid frequencies must be strictly increasing")
        if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniformly spaced")
        object.__setattr__(self, "omega", om)

    @classmethod
    def symmetric(cls, w_max: float, n: int) -> "FrequencyGrid":
        """Grid of n points on [-w_max, w_max] with exact sign symmetry.

        n must be odd so that w = 0 is a sample point.
        """
        if w_max <= 0:
            raise ValueError("w_max must be positive")
        if n < 3 or n % 2 == 0:
            raise ValueError("symmetric grid needs an odd point count >= 3")
        half = np.linspace(0.0, w_max, (n + 1) // 2)
        om = np.concatenate([-half[:0:-1], half])
        return cls(om)

    @classmethod
    def linear(cls, w_min: float, w_max: float, n: int) -> "FrequencyGrid":
        """Grid of n points on [w_min, w_max]; symmetric spans get exact signs."""
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

    def __len__(self) -> int:
        return self.omega.size


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
        Free-form diagnostics (error bounds, warnings) attached by producers.
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
