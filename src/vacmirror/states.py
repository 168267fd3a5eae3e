"""Stationary input-field states as covariance spectra.

A stationary Gaussian state of the counterpropagating doublet is described by
its frequency-diagonal covariance c(w), split into a state-dependent
anticommutator part and a universal commutator part:

    c(w) = cplus(w) + cminus(w),      cminus(w) = I * hbar / (4 w).

The anticommutator part satisfies cplus(-w) = cplus(w)^T and is Hermitian
positive semidefinite.  Built-in states (vacuum, thermal, two-temperature) are
diagonal in the doublet basis, which downstream kernels exploit through two
weights that stay finite where cplus alone diverges:

* :meth:`FieldState.chi_weight`  u(v) = v^2 tr cplus(v), entering the
  susceptibility kernel as i*alpha*(w' u(w) + w u(w')),
* :meth:`FieldState.noise_weight` W(v) = v^2 c(v) (diagonal entries),
  entering the noise kernel as 2 Tr[F W(w) F^dagger W(w')].

Both weights absorb the w^2 prefactors of the force kernels, so integrands
built from them are regular at zero frequency and, for the vacuum, vanish
identically outside bounded support instead of through catastrophic
cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import EYE2, PhysicsContext, SingularFrequencyError


def _diag2(a, b=None) -> np.ndarray:
    """Matrices diag(a, b) of shape ``np.shape(a) + (2, 2)``; b defaults to a."""
    if b is None:
        return np.asarray(a)[..., None, None] * EYE2
    return np.stack([a, b], axis=-1)[..., None] * EYE2


def _nonzero(omega, what: str) -> np.ndarray:
    """``omega`` as a float array; raises at zero frequency where ``what`` diverges."""
    nu = np.asarray(omega, dtype=float)
    if np.count_nonzero(nu) < nu.size:
        raise SingularFrequencyError(f"{what} diverges at omega = 0")
    return nu


def _occupancy(x):
    """Bose occupancy 1/(e^x - 1) for x > 0, safe against overflow."""
    x = np.asarray(x, dtype=float)
    safe = np.where((x > 0.0) & (x < 700.0), x, 1.0)
    return np.where(x < 700.0, 1.0 / np.expm1(safe), 0.0) * np.where(x > 0.0, 1.0, np.nan)


class FieldState:
    """Base class for stationary states of the input field.

    Subclasses provide :meth:`cplus`; the commutator part, full covariance,
    and the scalar weights derive from it; covariances take a frequency or an
    array of them and have shape ``np.shape(omega) + (2, 2)``.  ``diagonal``
    declares that cplus(w) is diagonal in the doublet basis at every
    frequency, enabling the cancellation-free kernel forms.
    """

    context: PhysicsContext
    diagonal: bool = True

    def cplus(self, omega) -> np.ndarray:
        raise NotImplementedError

    def cminus(self, omega) -> np.ndarray:
        """Universal commutator spectrum I*hbar/(4 w), state independent."""
        return _diag2(self.context.hbar / (4.0 * _nonzero(omega, "cminus")))

    def cfull(self, omega) -> np.ndarray:
        """Full covariance c = cplus + cminus."""
        return self.cplus(omega) + self.cminus(omega)

    def chi_weight(self, nu):
        """u(v) = v^2 tr cplus(v), vectorized, finite and even in v."""
        raise NotImplementedError

    def noise_weight(self, nu):
        """Diagonal entries of v^2 c(v) as an array of shape (..., 2)."""
        raise NotImplementedError

    def decay_scale(self) -> float | None:
        """Largest temperature driving the weights' high-frequency tails.

        None means the weights have bounded support structure (vacuum), so
        integrals over them need no thermal window.
        """
        return None


@dataclass(frozen=True)
class VacuumState(FieldState):
    """Ground state of the field: cplus(w) = I*hbar/(4|w|).

    The full covariance I*theta(w)*hbar/(2 w) is one-sided: negative
    frequencies carry no excitation, so the vacuum can absorb energy from the
    mirror but never excite it.
    """

    context: PhysicsContext = field(default_factory=PhysicsContext)

    def cplus(self, omega) -> np.ndarray:
        nu = _nonzero(omega, "vacuum cplus")
        return _diag2(self.context.hbar / (4.0 * np.abs(nu)))

    def chi_weight(self, nu):
        nu = np.asarray(nu, dtype=float)
        return self.context.hbar * np.abs(nu) / 2.0

    def noise_weight(self, nu):
        nu = np.asarray(nu, dtype=float)
        w = self.context.hbar * np.abs(nu) / 2.0 * np.heaviside(nu, 0.5)
        return np.stack([w, w], axis=-1)


def _thermal_chi_weight(nu, temperature: float, hbar: float):
    """u(v) = (hbar|v|/2)(1 + 2 nbar), with the equipartition limit u(0) = T."""
    nu = np.asarray(nu, dtype=float)
    base = hbar * np.abs(nu) / 2.0
    x = hbar * np.abs(np.where(nu == 0.0, 1.0, nu)) / temperature
    return np.where(nu == 0.0, temperature, base * (1.0 + 2.0 * _occupancy(x)))


def _thermal_noise_weight(nu, temperature: float, hbar: float):
    """w(v) = (hbar|v|/2)(nbar + theta(v)), continuous with w(0) = T/2."""
    nu = np.asarray(nu, dtype=float)
    base = hbar * np.abs(nu) / 2.0
    x = hbar * np.abs(np.where(nu == 0.0, 1.0, nu)) / temperature
    return np.where(
        nu == 0.0,
        temperature / 2.0,
        base * (_occupancy(x) + np.heaviside(nu, 0.5)),
    )


@dataclass(frozen=True)
class ThermalState(FieldState):
    """Both field components at a common temperature.

    cplus(w) = I * (hbar/4|w|) * (1 + 2 nbar),  nbar = 1/(e^{hbar|w|/T} - 1),

    which interpolates between the vacuum (T -> 0) and the classical
    equipartition plateau u(0) = T.  The full covariance satisfies detailed
    balance c(-w) = e^{-hbar w/T} c(w).
    """

    temperature: float
    context: PhysicsContext = field(default_factory=PhysicsContext)

    def __post_init__(self) -> None:
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")

    def cplus(self, omega) -> np.ndarray:
        mag = np.abs(_nonzero(omega, "thermal cplus"))
        hbar = self.context.hbar
        nbar = _occupancy(hbar * mag / self.temperature)
        return _diag2(hbar / (4.0 * mag) * (1.0 + 2.0 * nbar))

    def chi_weight(self, nu):
        return _thermal_chi_weight(nu, self.temperature, self.context.hbar)

    def noise_weight(self, nu):
        w = _thermal_noise_weight(nu, self.temperature, self.context.hbar)
        return np.stack([w, w], axis=-1)

    def decay_scale(self) -> float | None:
        return self.temperature


@dataclass(frozen=True)
class TwoTemperatureState(FieldState):
    """Right- and left-moving components thermalized at different temperatures.

    The doublet stays uncorrelated (cplus diagonal) but anisotropic, so the
    mean radiation pressure no longer vanishes: the hotter side pushes.
    """

    temp_phi: float
    temp_psi: float
    context: PhysicsContext = field(default_factory=PhysicsContext)

    def __post_init__(self) -> None:
        if not (0 < self.temp_phi < np.inf and 0 < self.temp_psi < np.inf):
            raise ValueError("both temperatures must be positive and finite")

    def cplus(self, omega) -> np.ndarray:
        mag = np.abs(_nonzero(omega, "cplus"))
        hbar = self.context.hbar
        pref = hbar / (4.0 * mag)
        return _diag2(
            pref * (1.0 + 2.0 * _occupancy(hbar * mag / self.temp_phi)),
            pref * (1.0 + 2.0 * _occupancy(hbar * mag / self.temp_psi)),
        )

    def chi_weight(self, nu):
        u_phi = _thermal_chi_weight(nu, self.temp_phi, self.context.hbar)
        u_psi = _thermal_chi_weight(nu, self.temp_psi, self.context.hbar)
        return (u_phi + u_psi) / 2.0

    def noise_weight(self, nu):
        w_phi = _thermal_noise_weight(nu, self.temp_phi, self.context.hbar)
        w_psi = _thermal_noise_weight(nu, self.temp_psi, self.context.hbar)
        return np.stack([w_phi, w_psi], axis=-1)

    def decay_scale(self) -> float | None:
        return max(self.temp_phi, self.temp_psi)


class CustomState(FieldState):
    """State defined by a user-supplied anticommutator rule.

    Parameters
    ----------
    cplus_rule : callable
        Map from a frequency array to complex 2x2 matrices of shape
        ``np.shape(nu) + (2, 2)``; :meth:`cplus` is one call of it.
    context : PhysicsContext
    diagonal : bool
        Declare the rule diagonal to enable the weight-based kernel forms.
    probe_frequencies : sequence of float
        Frequencies at which the state invariants (Hermiticity, positive
        semidefiniteness, cplus(-w) = cplus(w)^T) are verified at
        construction, in one call of the rule; violations raise immediately.
    """

    def __init__(
        self,
        cplus_rule: Callable[[np.ndarray], np.ndarray],
        context: PhysicsContext = PhysicsContext(),
        diagonal: bool = False,
        probe_frequencies: Sequence[float] = (0.1, 1.0, 3.0, 10.0),
    ):
        self.context = context
        self.diagonal = bool(diagonal)
        self._rule = cplus_rule
        probes = np.asarray(probe_frequencies, dtype=float)
        c, c_neg = self.cplus(np.array([probes, -probes]))
        c_t = np.swapaxes(c, -1, -2)
        residuals = {
            "cplus({}) is not Hermitian": c - c_t.conj(),
            "cplus({}) is not positive semidefinite": np.minimum(np.linalg.eigvalsh(c), 0.0)[..., None],
            "cplus(-w) != cplus(w)^T at w = {}": c_neg - c_t,
        }
        if self.diagonal:
            residuals["cplus({}) declared diagonal but is not"] = c * (1.0 - EYE2)
        tol = 1e-10 * np.maximum(np.max(np.abs(c), axis=(-2, -1)), 1e-300)
        for message, residual in residuals.items():
            bad = np.max(np.abs(residual), axis=(-2, -1)) > tol
            if bad.any():
                raise ValueError(message.format(probes[np.argmax(bad)]))

    def cplus(self, omega) -> np.ndarray:
        nu = np.asarray(omega, dtype=float)
        c = np.asarray(self._rule(nu), dtype=complex)
        if c.shape != nu.shape + (2, 2):
            raise ValueError(f"cplus rule must return 2x2 matrices, shape {nu.shape + (2, 2)}; got {c.shape}")
        return c

    def chi_weight(self, nu):
        nu = np.asarray(nu, dtype=float)
        return nu * nu * np.trace(self.cplus(nu), axis1=-2, axis2=-1).real

    def noise_weight(self, nu):
        nu = np.asarray(nu, dtype=float)[..., None]
        diag = np.real(np.diagonal(self.cplus(nu[..., 0]), axis1=-2, axis2=-1))
        return diag * nu * nu + self.context.hbar * nu / 4.0
