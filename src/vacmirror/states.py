"""Stationary input-field states as covariance spectra.

A stationary Gaussian state of the counterpropagating doublet is described by
its frequency-diagonal covariance c(w), split into a state-dependent
anticommutator part and a universal commutator part:

    c(w) = cplus(w) + I * hbar / (4 w).

Every state carries its own ``hbar`` (default 1), checked positive and finite
where the state is built.  The anticommutator part satisfies
cplus(-w) = cplus(w)^T and is Hermitian positive semidefinite.  Built-in
states (vacuum, thermal, two-temperature) are diagonal in the doublet basis,
and such a state is defined by one weight per component, its excess over
the vacuum,

    E_i(v) = v^2 cplus_ii(v) - hbar |v| / 4,

even in v and finite where cplus alone diverges.  It implements
:meth:`FieldState.excess`; cplus, cfull and every weight the force kernels
need follow from the excess.  The full covariance is one-sided in its
vacuum part,

    cfull_ii(v) = hbar theta(v) / (2|v|) + E_i(v) / v^2 = W_i(v) / v^2,

and the weights absorb the w^2 prefactors: the noise weight
W_i(v) = (hbar/2) max(v, 0) + E_i(v) (:meth:`FieldState.noise_weight`), and
v^2 tr cplus(v) = hbar|v|/2 + E_phi + E_psi in the susceptibility kernel.
The vacuum parts are written out exactly, so integrands built from them
are regular at zero frequency, vacuum terms cancel identically instead of to
rounding, and only the excess reaches past the vacuum's bounded support.

A thermal component with occupancy nbar = 1/(e^y - 1), y = hbar|v|/T, has
E(v) = (hbar|v|/2) nbar = (T/2) y/(e^y - 1), with E(0) = T/2 (the classical
equipartition plateau) and E exactly 0 once e^y overflows; the vacuum has
E = 0.  The thermal and two-temperature states share one implementation over
their tuple of temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EYE2, SingularFrequencyError


def _diag2(a, b=None) -> np.ndarray:
    """Matrices diag(a, b) of shape ``np.shape(a) + (2, 2)``, exactly 0 off the diagonal; b defaults to a."""
    out = np.zeros(np.shape(a) + (2, 2))
    out[..., 0, 0], out[..., 1, 1] = a, a if b is None else b
    return out


def _nonzero(omega, what: str) -> np.ndarray:
    """``omega`` as a float array; raises at zero frequency where ``what`` diverges."""
    nu = np.asarray(omega, dtype=float)
    if np.count_nonzero(nu) < nu.size:
        raise SingularFrequencyError(f"{what} diverges at omega = 0")
    return nu


class FieldState:
    """Base class for stationary states of the input field.

    Covariances take a frequency or an array of them and have shape
    ``np.shape(omega) + (2, 2)``; a diagonal state derives its :meth:`cplus`
    and :meth:`cfull` from :meth:`excess`.  ``hbar`` is the reduced Planck
    constant in the caller's units (the field propagates at speed 1).
    ``diagonal`` declares that cplus(w) is diagonal in the doublet basis at
    every frequency, enabling the cancellation-free kernel forms.
    ``temperatures`` are those of a thermal excess, none for the vacuum and
    custom states: the largest sets the thermal window, the smallest the
    Matsubara pole nearest the real axis.
    """

    hbar: float
    diagonal: bool = True
    temperatures: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.hbar < np.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")

    def _covariance(self, omega, what: str, full: bool) -> np.ndarray:
        """diag(c_phi, c_psi) in one pass, exactly 0 off the diagonal even where an entry is inf.

        cplus_ii = hbar/(4|v|) + E_i/v^2 and cfull_ii = hbar theta(v)/(2|v|) + E_i/v^2
        = W_i/v^2: cfull's vacuum part is written one-sided, exactly 0 below
        zero, so no inf meets another of opposite sign.
        """
        nu = _nonzero(omega, what)
        vacuum = np.maximum((0.5 * self.hbar) / nu, 0.0) if full else (0.25 * self.hbar) / np.abs(nu)
        # c_i = vacuum + E_i/v/v, divided twice so that v^2 cannot overflow or underflow
        c = [vacuum] if isinstance(self, VacuumState) else [vacuum + e / nu / nu for e in self.excess(nu)]
        return _diag2(*c)

    def cplus(self, omega) -> np.ndarray:
        """Anticommutator spectrum diag(c_phi, c_psi), c_i(v) = hbar/(4|v|) + E_i(v)/v^2."""
        return self._covariance(omega, "cplus", False)

    def cfull(self, omega) -> np.ndarray:
        """Full covariance c = cplus + I hbar/(4 v): c_i(v) = hbar theta(v)/(2|v|) + E_i(v)/v^2 on the diagonal."""
        return self._covariance(omega, "cfull", True)

    def excess(self, nu):
        """(E_phi(v), E_psi(v)), E_i = v^2 cplus_ii(v) - hbar|v|/4: finite, even in v.

        Each entry is an array of ``np.shape(nu)`` or a scalar that
        broadcasts against it.
        """
        raise NotImplementedError

    def noise_weight(self, nu):
        """(W_phi(v), W_psi(v)), arrays of the diagonal of v^2 c(v): (hbar/2) max(v, 0) + E_i(v)."""
        nu = np.asarray(nu, dtype=float)
        vacuum = (0.5 * self.hbar) * np.maximum(nu, 0.0)
        return tuple(vacuum + e for e in self.excess(nu))


@dataclass(frozen=True)
class VacuumState(FieldState):
    """Ground state of the field: cplus(w) = I*hbar/(4|w|).

    The full covariance I*theta(w)*hbar/(2 w) is one-sided: negative
    frequencies carry no excitation, so the vacuum can absorb energy from the
    mirror but never excite it.
    """

    hbar: float = 1.0

    def excess(self, nu):
        return 0.0, 0.0


def _excess(nu, temperature: float, hbar: float):
    """E(v) = (T/2) y / (e^y - 1) = (hbar|v|/2) nbar, y = hbar|v|/T; E(0) = T/2 exactly."""
    # past y ~ 709 the denominator overflows: y / inf is the decayed occupancy,
    # an exact +0, also where y itself overflows, capped as inf / inf is NaN;
    # at y = 0, 0/0 is NaN, and fmin takes the limit 1 instead
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.minimum(np.abs(np.asarray(nu, dtype=float)) * (hbar / temperature), 1e300)
        return temperature / 2.0 * np.fmin(y / np.expm1(y), 1.0)


class _Thermal(FieldState):
    """Components in thermal equilibrium, at ``temperatures``: (T,) for both or (T_phi, T_psi).

    A single temperature serves both components and is evaluated once.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        for temperature in self.temperatures:
            if not 0 < temperature < np.inf:
                raise ValueError(f"temperature must be positive and finite, got {temperature}")

    def excess(self, nu):
        e = [_excess(nu, t, self.hbar) for t in self.temperatures]
        return e[0], e[-1]


@dataclass(frozen=True)
class ThermalState(_Thermal):
    """Both field components at a common temperature.

    cplus(w) = I * (hbar/4|w|) * (1 + 2 nbar),  nbar = 1/(e^{hbar|w|/T} - 1),

    which interpolates between the vacuum (T -> 0) and the classical
    equipartition plateau E(0) = T/2 of each component's excess.  The full
    covariance satisfies detailed balance c(-w) = e^{-hbar w/T} c(w).
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
        Declare the rule diagonal to enable the weight-based kernel forms,
        which read the excess of the rule's diagonal over the vacuum.

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

    def _covariance(self, omega, what: str, full: bool) -> np.ndarray:
        nu = _nonzero(omega, what) if full else np.asarray(omega, dtype=float)  # the rule may hold at 0
        c = np.asarray(self._rule(nu), dtype=complex)
        if c.shape != nu.shape + (2, 2):
            raise ValueError(f"cplus rule must return 2x2 matrices, shape {nu.shape + (2, 2)}; got {c.shape}")
        return c + _diag2((0.25 * self.hbar) / nu) if full else c

    def excess(self, nu):
        nu = np.asarray(nu, dtype=float)
        diag = np.real(np.diagonal(self.cplus(nu), axis1=-2, axis2=-1))
        e = diag * (nu * nu)[..., None] - (0.25 * self.hbar) * np.abs(nu)[..., None]
        return e[..., 0], e[..., 1]
