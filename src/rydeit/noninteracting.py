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
    _S0,
    _SM,
    _SP,
    _V_COUPLING,
    SINGLE_INDEX,
    c0_blocks,
    c0_matrix,
)
from .params import (
    AtomParams,
    SingularParameterError,
    delta3_column,
    relaxation_constants,
)

__all__ = [
    "SingleAtomState",
    "PerturbativeCoefficients",
    "single_atom_operands",
    "solve_sigma",
    "solve_single_system",
    "steady_state_two_level",
    "steady_state_three_level",
    "perturbative_column",
    "perturbative_coefficients",
    "unphysical",
]

_POP_TOL = 1e-10
_HERMITIAN_PAIRS = ((1, 2), (1, 3), (2, 3))
_UNPHYSICAL = (*(f"hermiticity violated for sigma{a}{b}" for a, b in _HERMITIAN_PAIRS),
               "negative population", "populations exceed unity")


def unphysical(values, tol: float = _POP_TOL) -> np.ndarray:
    """The physical conditions the 8 averages along the trailing axis of
    ``values`` fail, one bool per message of ``_UNPHYSICAL``: hermiticity
    of each coherence pair to 1e-8, sigma22 and sigma33 >= -tol, and
    sigma22 + sigma33 <= 1 + tol."""
    v = np.asarray(values)
    at = {lab: v[..., i] for lab, i in SINGLE_INDEX.items()}
    hermitian = [np.abs(at[(a, b)] - np.conj(at[(b, a)])) > 1e-8 for a, b in _HERMITIAN_PAIRS]
    p22, p33 = at[(2, 2)].real, at[(3, 3)].real
    return np.stack([*hermitian, (p22 < -tol) | (p33 < -tol), p22 + p33 > 1.0 + tol], axis=-1)


@dataclass(frozen=True)
class SingleAtomState:
    """The 8 complex single-atom averages (sigma_11 implied by the trace)."""

    values: np.ndarray  # ordered as SINGLE_LABELS

    def __getitem__(self, label) -> complex:
        return complex(self.values.item(SINGLE_INDEX[label]))

    @property
    def sigma12(self):
        return self[(1, 2)]

    @property
    def sigma13(self):
        return self[(1, 3)]

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
        """Hermiticity and population bounds: raises ``ValueError`` with the
        message of the first condition of ``unphysical`` that fails."""
        failed = np.flatnonzero(unphysical(self.values, tol))
        if len(failed):
            raise ValueError(_UNPHYSICAL[failed[0]])
        return self


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec over leading stack axes; one BLAS gemv per matrix, as for
    an unstacked 2-d @ 1-d product."""
    return (mat @ vec[..., None])[..., 0]


def single_atom_operands(params, wp, wpc) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) = (c0 + wp cp + wpc cm, s0 + wp sp + wpc sm), the operands of
    the single-atom system of ``params`` at (wp, wpc), c0 gathered from K8.
    For a ``delta3_column``, wp and wpc hold one amplitude per row and
    each operand has a leading row axis."""
    w = np.asarray(wp)[..., None, None]
    wc = np.asarray(wpc)[..., None, None]
    return c0_matrix(params) + w * _CP + wc * _CM, _S0 + w[..., 0] * _SP + wc[..., 0] * _SM


def solve_sigma(params, operands, v4) -> np.ndarray:
    """The 8 averages solving 0 = C sigma + S + B V at every row of
    ``operands`` = (C, S) of ``params``, V the matching row of ``v4``
    (None: no feedback), as one stacked solve. A singular C raises
    ``SingularParameterError``."""
    mat, rhs = operands
    if v4 is not None:
        rhs = rhs + _matvec(_V_COUPLING, np.asarray(v4, dtype=complex))
    try:
        return np.linalg.solve(mat, -rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise _singular_single_atom(params, exc) from exc


def solve_single_system(params: AtomParams, v4=None) -> SingleAtomState:
    """``solve_sigma`` at the one parameter set ``params``."""
    wp = params.omega_p
    return SingleAtomState(
        values=solve_sigma(params, single_atom_operands(params, wp, np.conj(wp)), v4))


def _singular_single_atom(params: AtomParams, exc) -> SingularParameterError:
    delta3 = params.delta3
    if np.ndim(delta3):  # a delta3_column
        delta3 = delta3[0] if len(delta3) == 1 else f"one of {len(delta3)} values"
    return SingularParameterError(
        f"singular single-atom system at omega_c={params.omega_c}, "
        f"delta2={params.delta2}, delta3={delta3}: {exc}"
    )


def steady_state_three_level(params: AtomParams) -> SingleAtomState:
    """Non-interacting three-level steady state (V = 0)."""
    return solve_single_system(params, v4=None)


def steady_state_two_level(params, wp=None) -> SingleAtomState:
    """Two-level steady state: level 3 removed, control field ignored.

    Solves the closed (sigma12, sigma21, sigma22) system directly so it stays
    an independent cross-check of the generated three-level equations. The
    probe amplitude ``wp`` defaults to ``params.omega_p``; with one amplitude
    per row of a column, ``values`` has a leading row axis, from one stacked
    solve whose rows are byte-identical to solving each alone.
    """
    wp = np.asarray(params.omega_p if wp is None else wp)
    wpc = np.conj(wp)
    g12 = relaxation_constants(params).Gamma12
    # unknowns x = (s12, s21, s22)
    mat = np.zeros(wp.shape + (3, 3), dtype=complex)
    mat[..., 0, 0] = -g12
    mat[..., 0, 2] = 2j * wp
    mat[..., 1, 1] = -np.conj(g12)
    mat[..., 1, 2] = -2j * wpc
    mat[..., 2, 0] = 1j * wpc
    mat[..., 2, 1] = -1j * wp
    mat[..., 2, 2] = -params.gamma22
    rhs = np.zeros(wp.shape + (3,), dtype=complex)
    rhs[..., 0] = -1j * wp
    rhs[..., 1] = 1j * wpc
    try:
        x = np.linalg.solve(mat, -rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularParameterError("singular two-level system") from exc
    vals = np.zeros(wp.shape + (8,), dtype=complex)
    vals[..., [SINGLE_INDEX[lab] for lab in ((1, 2), (2, 1), (2, 2))]] = x
    return SingleAtomState(values=vals)


@dataclass(frozen=True)
class PerturbativeCoefficients:
    """Reduced weak-probe expansion coefficients of the single-atom averages:
    Python complex numbers, or arrays along a column (``perturbative_column``)."""

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
    constants: the rows of the diagonal blocks of each order (net +1, net
    -1, net 0), the order-1 right-hand sides -sp, -sm, and the probe blocks
    that feed orders 2 and 3."""
    p1, m1, n0 = (np.array([SINGLE_INDEX[lab] for lab in labs])
                  for labs in (_NET_P1, _NET_M1, _NET_0))
    parts = (
        p1, m1, n0,
        np.stack([-_SP[p1], -_SM[m1]])[..., None],
        _CP[np.ix_(n0, m1)],
        _CM[np.ix_(n0, p1)],
        _CP[np.ix_(p1, n0)],
        _V_COUPLING[p1, 0],
    )
    for arr in parts:
        arr.flags.writeable = False
    return parts


(_ROWS_P1, _ROWS_M1, _ROWS_0, _RHS_O1, _CP_0M, _CM_0P, _CP_P0,
 _V13_P1) = _cascade_constants()
_C0_BLOCKS = c0_blocks(_ROWS_P1, _ROWS_M1, _ROWS_0)


def perturbative_column(params, v13_3=0.0) -> PerturbativeCoefficients:
    """The order-by-order cascade of the single-atom system at every row of
    a ``delta3_column``: each field is an array along the column.

    ``v13_3`` is the reduced third-order collisional integral, a scalar or
    one value per row; pass ``perturbative.collisional_integral_V13_column``
    (the closed-form pole sum, whose radial quadrature is its reference) to
    obtain the interacting third-order susceptibility coefficient, or leave
    0 for the non-interacting one. A singular block raises
    ``SingularParameterError``.

    Only the diagonal blocks of c0 depend on the parameters; they are
    gathered from K8 (``blochgen.c0_blocks``), and every other block is an
    import-time constant. Each order is one stacked solve over the column,
    and the probe blocks hold only 0, +-i and +-2i, so every product is
    exact and each row is byte-identical to solving it alone. The
    label-by-label block construction it reproduces byte for byte is kept
    in the tests.
    """
    return PerturbativeCoefficients(*np.ascontiguousarray(_cascade(params, v13_3).T))


def _cascade(params, v13_3) -> np.ndarray:
    """``perturbative_column`` as one row of the ten coefficients, in field
    order, per row of the column."""
    a_p1, a_m1, a_0 = _C0_BLOCKS(params)
    try:
        # order 1: net +1 and net -1, driven by the Wp and Wp* constant sources
        x_1 = np.linalg.solve(np.stack([a_p1, a_m1], axis=1), _RHS_O1)[..., 0]
        x_p1, x_m1 = x_1[:, 0, :, None], x_1[:, 1, :, None]
        # order 2: net 0, sourced by order-1 coherences through the probe terms
        x_0 = np.linalg.solve(a_0, -(_CP_0M @ x_m1 + _CM_0P @ x_p1))
        # order 3: net +1, sourced by order-2 populations/Raman coherence,
        # plus the third-order collisional integral in the sigma13 equation
        src3 = _CP_P0 @ x_0 + _V13_P1[:, None] * np.asarray(v13_3)[..., None, None]
        x_p3 = np.linalg.solve(a_p1, -src3)
    except np.linalg.LinAlgError as exc:
        raise _singular_single_atom(params, exc) from exc
    return np.concatenate([x_1.reshape(-1, 4), x_0[..., 0], x_p3[..., 0]], axis=1)


def perturbative_coefficients(
    params: AtomParams, v13_3: complex = 0.0
) -> PerturbativeCoefficients:
    """``perturbative_column`` at the one parameter set ``params``, as
    Python complex numbers."""
    return PerturbativeCoefficients(*_cascade(delta3_column(params), v13_3)[0].tolist())
