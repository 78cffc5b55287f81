"""Steady-state dispersive optical nonlinearity of a cold Rydberg-EIT gas.

The package solves the optical Bloch equations of a driven three-level
ladder gas with Van der Waals interactions between Rydberg atoms, using a
two-body correlation closure: pair correlators are solved exactly in the
interaction strength, reduced to four self-consistent collisional feedback
integrals, and fed back into the single-atom steady state.

Layers, from the bottom up:

* params: parameter records, presets, relaxation constants.
* blochgen: generates the single-atom and 36-component pair equations from
  commutator algebra (no hand-transcribed coefficients).
* noninteracting: reference steady states and the weak-probe cascade.
* quadrature: radial integrals of k(R) weights over the -C6/R^6 tail
  (reference paths for the closed forms).
* perturbative: exact third-order interacting solution and closed forms.
* collisional: the full nonlinear solver (Schur reduction + spectral
  resolvent integrals + continuation in probe intensity).
* oracle: independent dense two-atom Lindblad steady state for validation.
* observables: normalized susceptibilities and blockade scaling numbers.
* scan / cli / validate: sweeps, CSV emission, and built-in checks.
"""
from .collisional import (
    CollisionalIntegrals,
    ConvergenceError,
    solve_collisional_integrals,
    solve_interacting,
)
from .noninteracting import (
    PerturbativeCoefficients,
    SingleAtomState,
    perturbative_coefficients,
    steady_state_three_level,
    steady_state_two_level,
)
from .observables import (
    ObservableSet,
    nb_from_sigma,
    nb_tilde,
    nb_tilde_unblocked,
    observable_set,
    s_norm,
    s_real,
    susceptibility,
    xi_coefficients,
)
from .oracle import TwoAtomState, order_extract, two_atom_steady_state
from .params import (
    C6_PRESETS,
    AtomParams,
    InteractionParams,
    SingularParameterError,
    StatePreset,
    blockade_radius,
    effective_T,
    relaxation_constants,
)
from .perturbative import (
    chi3_interacting,
    collisional_integral_V13_order3,
    nb_closed_form,
)
from .scan import ScanConfig, ScanResultRow, run_figure, run_scan, write_csv

__version__ = "0.1.0"

__all__ = [
    "AtomParams",
    "InteractionParams",
    "StatePreset",
    "C6_PRESETS",
    "SingularParameterError",
    "relaxation_constants",
    "effective_T",
    "blockade_radius",
    "SingleAtomState",
    "PerturbativeCoefficients",
    "steady_state_two_level",
    "steady_state_three_level",
    "perturbative_coefficients",
    "chi3_interacting",
    "collisional_integral_V13_order3",
    "nb_closed_form",
    "CollisionalIntegrals",
    "ConvergenceError",
    "solve_collisional_integrals",
    "solve_interacting",
    "TwoAtomState",
    "two_atom_steady_state",
    "order_extract",
    "ObservableSet",
    "observable_set",
    "susceptibility",
    "s_norm",
    "s_real",
    "nb_from_sigma",
    "nb_tilde",
    "nb_tilde_unblocked",
    "xi_coefficients",
    "ScanConfig",
    "ScanResultRow",
    "run_scan",
    "run_figure",
    "write_csv",
    "__version__",
]
