"""Non-interacting steady states and the weak-probe perturbative cascade.

Provides the two-level and three-level single-atom steady states (linear
solves of the generated Bloch system) and the expansion coefficients of the
averages in powers of the probe field:

    sigma_12 = Wp (s12_1 + |Wp|^2 s12_3 + ...),
    sigma_33 = |Wp|^2 s33_2 + ...,  etc.

Coefficients are "reduced": the leading probe monomial is divided out, so
they are probe-independent numbers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blochgen import (
    _CM,
    _CP,
    _SM,
    _SP,
    _V_COUPLING,
    SINGLE_INDEX,
    generate_single_atom_equations,
)
from .params import AtomParams, SingularParameterError, relaxation_constants

__all__ = [
    "SingleAtomState",
    "PerturbativeCoefficients",
    "solve_single_system",
    "steady_state_two_level",
    "steady_state_three_level",
    "perturbative_coefficients",
]

_POP_TOL = 1e-10


@dataclass(frozen=True)
class SingleAtomState:
    """The 8 complex single-atom averages (sigma_11 implied by the trace)."""

    values: np.ndarray  # ordered as SINGLE_LABELS

    def __getitem__(self, label) -> complex:
        return complex(self.values[SINGLE_INDEX[label]])

    @property
    def sigma12(self):
        return self[(1, 2)]

    @property
    def sigma21(self):
        return self[(2, 1)]

    @property
    def sigma13(self):
        return self[(1, 3)]

    @property
    def sigma31(self):
        return self[(3, 1)]

    @property
    def sigma23(self):
        return self[(2, 3)]

    @property
    def sigma32(self):
        return self[(3, 2)]

    @property
    def sigma22(self):
        return self[(2, 2)]

    @property
    def sigma33(self):
        return self[(3, 3)]

    @property
    def sigma11(self):
        return 1.0 - self.sigma22 - self.sigma33

    def check_physical(self, tol: float = _POP_TOL):
        """Hermiticity and population bounds (valid for conjugate-consistent V)."""
        v = self.values
        for lab in ((1, 2), (1, 3), (2, 3)):
            a, b = lab
            if abs(v[SINGLE_INDEX[lab]] - np.conj(v[SINGLE_INDEX[(b, a)]])) > 1e-8:
                raise ValueError(f"hermiticity violated for sigma{a}{b}")
        for pop in (self.sigma22.real, self.sigma33.real):
            if pop < -tol:
                raise ValueError("negative population")
        if self.sigma22.real + self.sigma33.real > 1.0 + tol:
            raise ValueError("populations exceed unity")
        return self


def solve_single_system(params: AtomParams, v4=None) -> SingleAtomState:
    """Solve 0 = C(wp) sigma + S(wp) + B V for the 8 averages."""
    sys8 = generate_single_atom_equations(params)
    wp = params.omega_p
    rhs = sys8.source(wp, np.conj(wp)).copy()
    if v4 is not None:
        rhs = rhs + sys8.v_coupling @ np.asarray(v4, dtype=complex)
    mat = sys8.matrix(wp, np.conj(wp))
    try:
        sol = np.linalg.solve(mat, -rhs)
    except np.linalg.LinAlgError as exc:
        raise _singular_single_atom(params, exc) from exc
    return SingleAtomState(values=sol)


def _singular_single_atom(params: AtomParams, exc) -> SingularParameterError:
    return SingularParameterError(
        f"singular single-atom system at omega_c={params.omega_c}, "
        f"delta2={params.delta2}, delta3={params.delta3}: {exc}"
    )


def steady_state_three_level(params: AtomParams) -> SingleAtomState:
    """Non-interacting three-level steady state (V = 0)."""
    return solve_single_system(params, v4=None)


def steady_state_two_level(params: AtomParams) -> SingleAtomState:
    """Two-level steady state: level 3 removed, control field ignored.

    Solves the closed (sigma12, sigma21, sigma22) system directly so it stays
    an independent cross-check of the generated three-level equations.
    """
    wp = params.omega_p
    g12 = relaxation_constants(params).Gamma12
    # unknowns x = (s12, s21, s22)
    mat = np.array(
        [
            [-g12, 0.0, 2j * wp],
            [0.0, -np.conj(g12), -2j * np.conj(wp)],
            [1j * np.conj(wp), -1j * wp, -params.gamma22],
        ],
        dtype=complex,
    )
    rhs = np.array([-1j * wp, 1j * np.conj(wp), 0.0], dtype=complex)
    try:
        s12, s21, s22 = np.linalg.solve(mat, -rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularParameterError("singular two-level system") from exc
    vals = np.zeros(8, dtype=complex)
    vals[SINGLE_INDEX[(1, 2)]] = s12
    vals[SINGLE_INDEX[(2, 1)]] = s21
    vals[SINGLE_INDEX[(2, 2)]] = s22
    return SingleAtomState(values=vals)


@dataclass(frozen=True)
class PerturbativeCoefficients:
    """Reduced weak-probe expansion coefficients of the single-atom averages."""

    s12_1: complex
    s13_1: complex
    s21_1: complex
    s31_1: complex
    s22_2: complex
    s33_2: complex
    s23_2: complex
    s32_2: complex
    s12_3: complex  # non-interacting third-order coefficient
    s13_3: complex

    def reconstruct_sigma12(self, omega_p: complex) -> complex:
        x = abs(omega_p) ** 2
        return omega_p * (self.s12_1 + x * self.s12_3)


_NET_P1 = ((1, 2), (1, 3))
_NET_M1 = ((2, 1), (3, 1))
_NET_0 = ((2, 2), (3, 3), (2, 3), (3, 2))


def _cascade_constants():
    """Parameter-free parts of the single-atom cascade, from the generator's
    constants: flat positions in c0 of the diagonal blocks of each order
    ([net +1, net -1] stacked, then net 0), the order-1 right-hand sides
    -sp, -sm, and the probe blocks that feed orders 2 and 3."""
    p1, m1, n0 = ([SINGLE_INDEX[lab] for lab in labs]
                  for labs in (_NET_P1, _NET_M1, _NET_0))

    def flat(rows):
        return np.ravel_multi_index(np.ix_(rows, rows), (8, 8))

    parts = (
        np.stack([flat(p1), flat(m1)]),
        flat(n0),
        np.stack([-_SP[p1], -_SM[m1]])[..., None],
        _CP[np.ix_(n0, m1)],
        _CM[np.ix_(n0, p1)],
        _CP[np.ix_(p1, n0)],
        _V_COUPLING[p1, 0],
    )
    for arr in parts:
        arr.flags.writeable = False
    return parts


(_FLAT_O1, _FLAT_O2, _RHS_O1, _CP_0M, _CM_0P, _CP_P0,
 _V13_P1) = _cascade_constants()


def perturbative_coefficients(
    params: AtomParams, v13_3: complex = 0.0
) -> PerturbativeCoefficients:
    """Order-by-order cascade of the single-atom system.

    ``v13_3`` is the reduced third-order collisional integral; pass
    ``perturbative.collisional_integral_V13_order3`` (the closed-form pole
    sum, whose radial quadrature is its reference) to obtain the interacting
    third-order susceptibility coefficient, or leave 0 for the
    non-interacting one. A singular block raises ``SingularParameterError``.

    Only the diagonal blocks of c0 depend on the parameters; they are read
    from the generated system at precomputed flat positions, and every
    other block is an import-time constant. The label-by-label block
    construction it reproduces byte for byte is kept in the tests.
    """
    c0 = generate_single_atom_equations(params).c0

    def solve(a, rhs):
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise _singular_single_atom(params, exc) from exc

    # order 1: net +1 and net -1, driven by the Wp and Wp* constant sources
    a_1 = c0.take(_FLAT_O1)
    x_1 = solve(a_1, _RHS_O1)[..., 0]
    x_p1, x_m1 = x_1

    # order 2: net 0, sourced by order-1 coherences through the probe terms
    x_0 = solve(c0.take(_FLAT_O2), -(_CP_0M @ x_m1 + _CM_0P @ x_p1))

    # order 3: net +1, sourced by order-2 populations/Raman coherence,
    # plus the third-order collisional integral in the sigma13 equation
    x_p3 = solve(a_1[0], -(_CP_P0 @ x_0 + _V13_P1 * v13_3))

    (s12_1, s13_1), (s21_1, s31_1) = x_1.tolist()
    s22_2, s33_2, s23_2, s32_2 = x_0.tolist()
    s12_3, s13_3 = x_p3.tolist()
    return PerturbativeCoefficients(
        s12_1=s12_1, s13_1=s13_1, s21_1=s21_1, s31_1=s31_1,
        s22_2=s22_2, s33_2=s33_2, s23_2=s23_2, s32_2=s32_2,
        s12_3=s12_3, s13_3=s13_3,
    )
