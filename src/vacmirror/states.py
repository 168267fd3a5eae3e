"""Stationary input-field states as covariance spectra.

A stationary Gaussian state of the counterpropagating doublet is described by
its frequency-diagonal covariance c(w), split into a state-dependent
anticommutator part and a universal commutator part:

    c(w) = cplus(w) + cminus(w),      cminus(w) = I * hbar / (4 w).

Every state carries its own ``hbar`` (default 1), checked positive and finite
where the state is built.  The anticommutator part satisfies
cplus(-w) = cplus(w)^T and is Hermitian positive semidefinite.  Built-in
states (vacuum, thermal, two-temperature) are diagonal in the doublet basis,
which downstream kernels exploit through two weights that stay finite where
cplus alone diverges:

* :meth:`FieldState.chi_weight`  u(v) = v^2 tr cplus(v), entering the
  susceptibility kernel as i*alpha*(w' u(w) + w u(w')),
* :meth:`FieldState.noise_weight` W(v) = v^2 c(v) (diagonal entries),
  entering the noise kernel as 2 Tr[F W(w) F^dagger W(w')].

Both weights absorb the w^2 prefactors of the force kernels, so integrands
built from them are regular at zero frequency and, for the vacuum, vanish
identically outside bounded support instead of through catastrophic
cancellation.

A thermal component with occupancy nbar = 1/(e^{hbar|v|/T} - 1) has one closed
form per weight, by 1 + 2 nbar = coth y and nbar + 1 = 1/(1 - e^-z):
u(v) = (hbar|v|/2)(1 + 2 nbar) = T y coth y with y = hbar|v|/2T, and
W(v) = (hbar|v|/2)(nbar + theta(v)) = (T/2) z/(1 - e^-z) with z = hbar v/T.
The thermal and two-temperature states share one implementation over their
tuple of temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EYE2, SingularFrequencyError


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


class FieldState:
    """Base class for stationary states of the input field.

    Subclasses provide :meth:`cplus`; the commutator part, full covariance,
    and the scalar weights derive from it; covariances take a frequency or an
    array of them and have shape ``np.shape(omega) + (2, 2)``.  ``hbar`` is
    the reduced Planck constant in the caller's units (the field propagates
    at speed 1).  ``diagonal`` declares that cplus(w) is diagonal in the
    doublet basis at every frequency, enabling the cancellation-free kernel
    forms.
    """

    hbar: float
    diagonal: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.hbar < np.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")

    def cplus(self, omega) -> np.ndarray:
        raise NotImplementedError

    def cminus(self, omega) -> np.ndarray:
        """Universal commutator spectrum I*hbar/(4 w), state independent."""
        return _diag2(self.hbar / (4.0 * _nonzero(omega, "cminus")))

    def cfull(self, omega) -> np.ndarray:
        """Full covariance c = cplus + cminus: cplus with hbar/(4 w) added on the diagonal."""
        nu = _nonzero(omega, "cfull")
        return self.cplus(nu) + _diag2(self.hbar / (4.0 * nu))

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

    hbar: float = 1.0

    def cplus(self, omega) -> np.ndarray:
        nu = _nonzero(omega, "vacuum cplus")
        return _diag2(self.hbar / (4.0 * np.abs(nu)))

    def chi_weight(self, nu):
        return (0.5 * self.hbar) * np.abs(nu)

    def noise_weight(self, nu):
        nu = np.asarray(nu, dtype=float)
        w = self.hbar * np.abs(nu) / 2.0 * np.heaviside(nu, 0.5)
        return np.stack([w, w], axis=-1)


def _thermal_chi_weight(nu, temperature: float, hbar: float):
    """u(v) = T y coth y = (hbar|v|/2)(1 + 2 nbar), y = hbar|v|/2T; u(0) = T exactly."""
    y = np.abs(np.asarray(nu, dtype=float)) * (hbar / (2.0 * temperature))
    return temperature * np.divide(y, np.tanh(y), out=np.ones_like(y), where=y != 0)


def _thermal_noise_weight(nu, temperature: float, hbar: float):
    """W(v) = (T/2) z / (1 - e^-z) = (hbar|v|/2)(nbar + theta(v)), z = hbar v/T; W(0) = T/2 exactly."""
    z = np.asarray(nu, dtype=float) * (hbar / temperature)
    # below z ~ -709 the denominator overflows: z / -inf is the decayed occupancy, an exact +0
    with np.errstate(over="ignore"):
        denominator = -np.expm1(-z)
    return temperature / 2.0 * np.divide(z, denominator, out=np.ones_like(z), where=z != 0)


class _Thermal(FieldState):
    """Components in thermal equilibrium, at ``temperatures``: (T,) for both or (T_phi, T_psi).

    A single temperature serves both components and is evaluated once.
    """

    temperatures: tuple[float, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        for temperature in self.temperatures:
            if not 0 < temperature < np.inf:
                raise ValueError(f"temperature must be positive and finite, got {temperature}")

    def cplus(self, omega) -> np.ndarray:
        nu = _nonzero(omega, "thermal cplus")
        # u / (2 v^2), divided twice so that v^2 cannot overflow or underflow
        return _diag2(*[_thermal_chi_weight(nu, t, self.hbar) / nu / (2.0 * nu) for t in self.temperatures])

    def chi_weight(self, nu):
        u = [_thermal_chi_weight(nu, t, self.hbar) for t in self.temperatures]
        return u[0] if len(u) == 1 else (u[0] + u[1]) / 2.0

    def noise_weight(self, nu):
        w = [_thermal_noise_weight(nu, t, self.hbar) for t in self.temperatures]
        return np.stack([w[0], w[-1]], axis=-1)

    def decay_scale(self) -> float | None:
        return max(self.temperatures)


@dataclass(frozen=True)
class ThermalState(_Thermal):
    """Both field components at a common temperature.

    cplus(w) = I * (hbar/4|w|) * (1 + 2 nbar),  nbar = 1/(e^{hbar|w|/T} - 1),

    which interpolates between the vacuum (T -> 0) and the classical
    equipartition plateau u(0) = T.  The full covariance satisfies detailed
    balance c(-w) = e^{-hbar w/T} c(w).
    """

    temperature: float
    hbar: float = 1.0

    @property
    def temperatures(self) -> tuple[float, ...]:
        return (self.temperature,)


@dataclass(frozen=True)
class TwoTemperatureState(_Thermal):
    """Right- and left-moving components thermalized at different temperatures.

    The doublet stays uncorrelated (cplus diagonal) but anisotropic, so the
    mean radiation pressure no longer vanishes: the hotter side pushes.
    """

    temp_phi: float
    temp_psi: float
    hbar: float = 1.0

    @property
    def temperatures(self) -> tuple[float, ...]:
        return (self.temp_phi, self.temp_psi)


class CustomState(FieldState):
    """State defined by a user-supplied anticommutator rule.

    Parameters
    ----------
    cplus_rule : callable
        Map from a frequency array to complex 2x2 matrices of shape
        ``np.shape(nu) + (2, 2)``; :meth:`cplus` is one call of it.
    hbar : float
    diagonal : bool
        Declare the rule diagonal to enable the weight-based kernel forms.

    The state invariants (Hermiticity, positive semidefiniteness,
    cplus(-w) = cplus(w)^T) are verified at construction, at w = 0.1, 1, 3
    and 10, in one call of the rule; violations raise immediately.
    """

    def __init__(
        self,
        cplus_rule: Callable[[np.ndarray], np.ndarray],
        hbar: float = 1.0,
        diagonal: bool = False,
    ):
        self.hbar = hbar
        self.diagonal = bool(diagonal)
        self._rule = cplus_rule
        self.__post_init__()
        probes = np.array([0.1, 1.0, 3.0, 10.0])
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
        return diag * nu * nu + self.hbar * nu / 4.0
