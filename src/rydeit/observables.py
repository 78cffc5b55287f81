"""Derived blockade observables.

Normalized susceptibilities, the complex blockade count n_b extracted from
the coherence, the real scaling parameter nb_tilde extracted from the
Rydberg population, and the linear coefficients (xi1, xi2) relating the two.

All functions here are pure reductions of already-solved averages, except
that observable_set also solves the non-interacting references; the
weak-probe limit helpers take the parameters and their perturbative
cascade instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noninteracting import (
    PerturbativeCoefficients,
    perturbative_coefficients,
    steady_state_three_level,
    steady_state_two_level,
)
from .params import AtomParams, relaxation_constants

__all__ = [
    "DegenerateNormalizationError",
    "ObservableSet",
    "susceptibility",
    "s_norm",
    "s_real",
    "nb_from_sigma",
    "nb_tilde",
    "nb_tilde_unblocked",
    "xi_coefficients",
    "nb_weak_probe",
    "nb_tilde_weak_probe",
    "nb_tilde_raman_contribution",
    "observable_set",
]

_DEGEN_TOL = 1e-300


class DegenerateNormalizationError(ValueError):
    """The two- and three-level references coincide (no control field)."""


def susceptibility(sigma12: complex, omega_p: complex) -> complex:
    """Reduced susceptibility sigma12 / omega_p.

    At omega_p = 0 the ratio is an undefined 0/0; callers should use the
    weak-probe coefficient s12_1 instead.
    """
    if omega_p == 0:
        raise ValueError(
            "susceptibility is 0/0 at zero probe; use the weak-probe "
            "coefficient instead"
        )
    return complex(sigma12) / omega_p


def s_norm(sigma12: complex, sigma12_3lev: complex, sigma12_2lev: complex) -> complex:
    """Normalized coherence (sigma12 - 2lev) / (3lev - 2lev).

    Equals 1 for a non-interacting gas and 0 in the fully blockaded limit.
    """
    den = sigma12_3lev - sigma12_2lev
    if abs(den) <= _DEGEN_TOL:
        raise DegenerateNormalizationError(
            "two- and three-level coherences coincide (zero control field?)"
        )
    return (complex(sigma12) - sigma12_2lev) / den


def s_real(chi: complex, chi_3lev: complex, chi_2lev: complex) -> float:
    """Real-part analogue of s_norm: normalized dispersive response.

    In a single-mode cavity this equals the normalized resonance shift.
    """
    den = np.real(chi_3lev) - np.real(chi_2lev)
    if abs(den) <= _DEGEN_TOL:
        raise DegenerateNormalizationError(
            "two- and three-level dispersive responses coincide"
        )
    return float((np.real(chi) - np.real(chi_2lev)) / den)


def nb_from_sigma(
    sigma12: complex, sigma12_3lev: complex, sigma12_2lev: complex, sigma33: float
) -> complex:
    """Complex blockade count n_b from the coherence deficit.

    Inverts the weighted-average form
    sigma12 = sigma12_3lev + p_r n_b (sigma12_2lev - sigma12_3lev)
    with p_r = sigma33.
    """
    if sigma33 <= 0:
        raise ValueError("n_b is undefined without Rydberg excitation")
    den = sigma33 * (sigma12_2lev - sigma12_3lev)
    if abs(den) <= _DEGEN_TOL:
        raise DegenerateNormalizationError(
            "two- and three-level coherences coincide (zero control field?)"
        )
    return (complex(sigma12) - sigma12_3lev) / den


def nb_tilde(sigma33: float, sigma33_3lev: float) -> float:
    """Real scaling parameter (sigma33_3lev - sigma33) / sigma33^2.

    Positive in the blockade regime (interactions suppress excitation).
    This is the low-intensity definition normalized by the interacting
    excitation probability; it coincides with nb_tilde_unblocked as the
    probe power goes to zero.
    """
    if sigma33 <= 0:
        raise ValueError("nb_tilde is undefined without Rydberg excitation")
    return float((sigma33_3lev - sigma33) / sigma33**2)


def nb_tilde_unblocked(sigma33: float, sigma33_3lev: float) -> float:
    """Scaling parameter normalized by the unblocked excitation probability.

    (sigma33_3lev - sigma33) / sigma33_3lev^2: the number of atoms removed
    from the excitable pool per unblocked excitation. Identical to nb_tilde
    at weak probe; at finite intensity this is the variant that decreases
    monotonically with probe power like Re n_b does, so it is the one
    reported in intensity sweeps.
    """
    if sigma33_3lev <= 0:
        raise ValueError("nb_tilde is undefined without Rydberg excitation")
    return float((sigma33_3lev - sigma33) / sigma33_3lev**2)


def _population_transfer_coefficient(params: AtomParams) -> complex:
    """Complex constant c with nb_tilde = Re[c n_b] at weak probe.

    Obtained by inserting the weak-probe identity
    V13 = i omega_p omega_c p3 n_b / Gamma12 into the V13/V31 contribution
    to the collisional population deficit and dividing by sigma33^2 with
    sigma33 ~ p3 = |omega_p|^2 s33_2.
    """
    rc = relaxation_constants(params)
    pc = perturbative_coefficients(params)
    denom = params.gamma23 * pc.s33_2 * (rc.Gamma12 * rc.Gamma13 + params.omega_c**2)
    return np.conj(rc.Gamma23) / denom


def xi_coefficients(params: AtomParams) -> tuple[float, float]:
    """Linear coefficients (xi1, xi2) in nb_tilde = xi1 Re n_b + xi2 Im n_b.

    xi1 = Re c and xi2 = -Im c for the weak-probe population-transfer
    coefficient c, so the relation holds with the principal-branch n_b
    (whose imaginary part is negative in the dispersive regime considered
    here, making xi2 negative as returned).
    """
    c = _population_transfer_coefficient(params)
    return float(c.real), float(-c.imag)


def nb_weak_probe(
    params: AtomParams, pc: PerturbativeCoefficients, v13_3: complex
) -> complex:
    """Exact weak-probe limit of the coherence-deficit n_b.

    Algebraically identical to inverting the weighted-average definition on
    the exact third-order collisional coherence: n_b = V13^(3) Gamma12 /
    (i omega_c s33_2). Differs from the resolvent closed form by the ladder
    truncation error of the latter (about 6% at omega_c = 3, delta2 = -25).
    ``pc`` is ``perturbative_coefficients(params)``; along a
    ``delta3_column``, ``pc`` is its ``perturbative_column`` and ``v13_3``
    one value per row, and the result is an array.
    """
    rc = relaxation_constants(params)
    return v13_3 * rc.Gamma12 / (1j * params.omega_c * pc.s33_2)


def nb_tilde_weak_probe(
    params: AtomParams, pc: PerturbativeCoefficients, v13_3: complex
) -> float:
    """Weak-probe limit of nb_tilde from the V13/V31 deficit channel.

    Excludes the (sub-percent) Raman-integral channel and fifth-order
    corrections. ``pc`` is ``perturbative_coefficients(params)``; it takes
    a column as ``nb_weak_probe`` does.
    """
    rc = relaxation_constants(params)
    # Re[c n_b] with n_b eliminated in favor of V13^(3)
    deficit = np.real(
        rc.Gamma12 * np.conj(rc.Gamma23) * 1j * v13_3
        / (params.gamma23 * params.omega_c * (rc.Gamma12 * rc.Gamma13 + params.omega_c**2))
    )
    return -deficit / pc.s33_2.real**2


def nb_tilde_raman_contribution(params: AtomParams, v23: complex, sigma33: float) -> float:
    """Contribution of the Raman integrals V23 and V32 to nb_tilde.

    Their combined contribution to the population deficit is
    Re[conj(Gamma23) V23 / (gamma23 omega_c)]; small (< 3%) compared with
    the V13/V31 channel at low probe intensity.
    """
    if sigma33 <= 0:
        raise ValueError("undefined without Rydberg excitation")
    rc = relaxation_constants(params)
    deficit = np.real(np.conj(rc.Gamma23) * v23 / (params.gamma23 * params.omega_c))
    return float(-deficit / sigma33**2)


@dataclass(frozen=True)
class ObservableSet:
    """Derived quantities at one solved operating point."""

    chi: complex
    chi_3lev: complex
    chi_2lev: complex
    S: float
    S_norm: complex
    nb: complex
    nb_tilde: float
    p_r: float


def observable_set(params: AtomParams, state) -> ObservableSet:
    """Assemble the observable set from a solved interacting state.

    ``state`` is the interacting single-atom solution (SingleAtomState); the
    non-interacting three-level and two-level references are solved here at
    the same parameters.
    """
    wp = params.omega_p
    if wp == 0:
        raise ValueError(
            "observable_set needs a finite probe; use the weak-probe "
            "limit helpers at zero probe"
        )
    state_3lev = steady_state_three_level(params)
    state_2lev = steady_state_two_level(params)
    chi = susceptibility(state.sigma12, wp)
    chi3 = susceptibility(state_3lev.sigma12, wp)
    chi2 = susceptibility(state_2lev.sigma12, wp)
    s33 = float(state.sigma33.real)
    s33_3 = float(state_3lev.sigma33.real)
    return ObservableSet(
        chi=chi,
        chi_3lev=chi3,
        chi_2lev=chi2,
        S=s_real(chi, chi3, chi2),
        S_norm=s_norm(state.sigma12, state_3lev.sigma12, state_2lev.sigma12),
        nb=nb_from_sigma(state.sigma12, state_3lev.sigma12, state_2lev.sigma12, s33),
        nb_tilde=nb_tilde_unblocked(s33, s33_3),
        p_r=s33,
    )
