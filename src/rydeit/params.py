"""Parameter records, unit conventions and the Van der Waals pair potential.

Unit conventions (fixed throughout the package):

* frequencies and decay rates in units of gamma = gamma12 = gamma22/2,
  the coherence decay rate of the probe transition,
* lengths in micrometers,
* atomic density in um^-3,
* the Van der Waals coefficient C6 in gamma*um^6.

The pair potential is k(r) = -C6/r^6, so C6 > 0 is attractive.
"""
from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

__all__ = [
    "AtomParams",
    "RelaxationConstants",
    "InteractionParams",
    "StatePreset",
    "SingularParameterError",
    "C6_PRESETS",
    "relaxation_constants",
    "delta3_column",
    "stacked",
    "effective_T",
    "effective_T_dispersive",
    "vdw_potential",
    "omega_c_for_state",
    "default_gamma23",
    "blockade_radius",
]

# Effective C6 values (gamma*um^6) for the nD_5/2 states, keyed by
# principal quantum number; the control Rabi frequency is pinned to
# 3*gamma at n = 50 and follows the n^-3/2 dipole scaling elsewhere.
C6_PRESETS: dict[int, float] = {46: 2400.0, 50: 5000.0, 56: 15000.0, 61: 36000.0}

_OMEGA_C_REF_N = 50
_OMEGA_C_REF = 3.0


class SingularParameterError(ValueError):
    """Raised when a parameter combination makes a solve singular."""


def default_gamma23(gamma12: float, gamma13: float, gamma33: float) -> float:
    """Default Raman coherence decay, gamma23 = gamma12 + gamma13 - gamma33/2.

    This rule is realizable by a Lindblad dissipator only at gamma33 = 0:
    with the radiative gamma22 = 2 gamma12, any gamma33 > 0 implies a
    negative level-2 pure dephasing rate (-gamma33/4), which
    ``oracle._jump_operators`` rejects. The Lindblad-consistent alternative
    is gamma12 + gamma13 (with gamma33 <= 2 gamma13); which convention the
    paper intends is not settled.
    """
    return gamma12 + gamma13 - gamma33 / 2.0


_BUILTIN_NUMBERS = (float, int, complex)


def _require_finite(record, names: tuple[str, ...]) -> None:
    """Reject a non-numeric or non-finite value of any field in ``names``.

    The exact builtin types skip the slower ``numbers.Number`` ABC check;
    every other type (bool, numpy scalars, Fraction, Decimal, ...) takes it.
    """
    for name in names:
        value = getattr(record, name)
        if type(value) not in _BUILTIN_NUMBERS and not isinstance(value, numbers.Number):
            raise TypeError(f"{name} must be a number, got {value!r}")
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class AtomParams:
    """Drive, detuning and decay parameters of a single driven atom.

    All rates are in units of gamma; ``gamma12`` must be exactly 1 and
    ``gamma22`` defaults to 2 (radiative intermediate state). ``gamma23``
    defaults to ``gamma12 + gamma13 - gamma33/2`` when left as None. Every
    field must be a finite number.
    """

    omega_p: complex = 0.0
    omega_c: float = 3.0
    delta2: float = -25.0
    delta3: float = 1.0 / 3.0
    gamma13: float = 0.1
    gamma23: float | None = None
    gamma33: float = 0.0
    gamma12: float = 1.0
    gamma22: float | None = None

    def __post_init__(self):
        if self.gamma12 != 1.0:
            raise ValueError("gamma12 must be 1: all frequencies are in units of gamma")
        if self.gamma22 is None:
            object.__setattr__(self, "gamma22", 2.0 * self.gamma12)
        if self.gamma23 is None:
            object.__setattr__(
                self, "gamma23", default_gamma23(self.gamma12, self.gamma13, self.gamma33)
            )
        _require_finite(self, _ATOM_FIELDS)
        if self.omega_c < 0:
            raise ValueError("omega_c must be non-negative")
        for name in ("gamma12", "gamma13", "gamma23", "gamma22", "gamma33"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def with_omega_p(self, omega_p: complex) -> "AtomParams":
        return replace(self, omega_p=omega_p)

    def gamma(self, a: int, b: int) -> float:
        """Coherence/population decay rate for the (a, b) matrix element."""
        key = (min(a, b), max(a, b))
        return {
            (1, 2): self.gamma12,
            (1, 3): self.gamma13,
            (2, 3): self.gamma23,
            (2, 2): self.gamma22,
            (3, 3): self.gamma33,
            (1, 1): 0.0,
        }[key]


_ATOM_FIELDS = tuple(f.name for f in fields(AtomParams))


@dataclass(frozen=True)
class RelaxationConstants:
    """Complex relaxation constants Gamma_ab = gamma_ab - i(Delta_b - Delta_a)."""

    Gamma12: complex
    Gamma13: complex
    Gamma23: complex


@dataclass(frozen=True)
class InteractionParams:
    """Van der Waals coefficient and atomic density, both finite."""

    c6: float
    eta: float = 0.04

    def __post_init__(self):
        _require_finite(self, _INTERACTION_FIELDS)
        if self.eta <= 0:
            raise ValueError("atomic density eta must be positive")


_INTERACTION_FIELDS = tuple(f.name for f in fields(InteractionParams))


@dataclass(frozen=True)
class StatePreset:
    """Rydberg-state preset: C6 from the tabulated values, omega_c from the
    n^-3/2 dipole scaling anchored at omega_c(50) = 3."""

    n: int
    c6: float = field(init=False)
    omega_c: float = field(init=False)

    def __post_init__(self):
        if self.n not in C6_PRESETS:
            raise ValueError(f"no preset for n={self.n}; known: {sorted(C6_PRESETS)}")
        object.__setattr__(self, "c6", C6_PRESETS[self.n])
        object.__setattr__(self, "omega_c", omega_c_for_state(self.n))


def delta3_column(params: AtomParams, delta3=None) -> SimpleNamespace:
    """``params`` along a column of two-photon detunings: every field of
    ``params``, with delta3 replaced by the 1-d float array ``delta3``
    (default: the column of one row at ``params.delta3``).

    Both stacked paths take a column: a scan's zero-probe points, and each
    round of its lockstep finite-probe solve (points differing only in
    omega_p and delta3). ``relaxation_constants``, the weak-probe
    observables and ``blochgen``'s block gathers broadcast over it.
    """
    d3 = np.array(params.delta3 if delta3 is None else delta3, dtype=float, ndmin=1)
    if d3.ndim != 1 or not np.isfinite(d3).all():
        raise ValueError("delta3 must be a 1-d sequence of finite numbers")
    return SimpleNamespace(**{**vars(params), "delta3": d3})


def stacked(evaluate, items: list, errors: tuple) -> list:
    """``evaluate(items)``: one value per item, from one stacked evaluation.
    If that raises one of ``errors``, a list of one takes the error as its
    value, and a longer one is evaluated item by item, so each failing item
    gets the error it gets alone (a scan's columns, each lockstep round)."""
    try:
        return evaluate(items)
    except errors as exc:
        if len(items) == 1:
            return [exc]
        return [stacked(evaluate, [item], errors)[0] for item in items]


def relaxation_constants(params: AtomParams) -> RelaxationConstants:
    """Gamma_ab = gamma_ab - i(Delta_b - Delta_a), with Delta_1 = 0; arrays
    along a ``delta3_column``."""
    d1, d2, d3 = 0.0, params.delta2, params.delta3
    return RelaxationConstants(
        Gamma12=params.gamma12 - 1j * (d2 - d1),
        Gamma13=params.gamma13 - 1j * (d3 - d1),
        Gamma23=params.gamma23 - 1j * (d3 - d2),
    )


def effective_T(params: AtomParams) -> complex:
    """Effective relaxation constant of the Rydberg transition,
    T = Gamma13 + omega_c^2 / Gamma12 (light shift + power broadening)."""
    rc = relaxation_constants(params)
    if rc.Gamma12 == 0:
        raise SingularParameterError("Gamma12 = 0: effective T undefined")
    return rc.Gamma13 + params.omega_c**2 / rc.Gamma12


def effective_T_dispersive(params: AtomParams) -> complex:
    """Dispersive-regime approximation of T: Re T ~ gamma13 + omega_c^2/delta2^2,
    -Im T ~ delta3 - omega_c^2/delta2."""
    if params.delta2 == 0:
        raise SingularParameterError("delta2 = 0: dispersive approximation undefined")
    re = params.gamma13 + params.omega_c**2 / params.delta2**2
    im = -(params.delta3 - params.omega_c**2 / params.delta2)
    return re + 1j * im


def vdw_potential(r: float, c6: float) -> float:
    """Van der Waals pair potential k(r) = -c6 / r^6 (units gamma; r in um)."""
    if r <= 0:
        raise ValueError("separation r must be positive")
    return -c6 / r**6


def omega_c_for_state(n: int) -> float:
    """Control Rabi frequency for principal quantum number n at constant
    control irradiance: omega_c(n) = 3 * (50/n)^(3/2)."""
    if n <= 0:
        raise ValueError("principal quantum number must be positive")
    return _OMEGA_C_REF * (_OMEGA_C_REF_N / n) ** 1.5


def blockade_radius(params: AtomParams, c6: float) -> float:
    """Length scale where |k(r)| = |T|: r_b = (c6 / |T|)^(1/6)."""
    t = effective_T(params)
    return (abs(c6) / abs(t)) ** (1.0 / 6.0)
