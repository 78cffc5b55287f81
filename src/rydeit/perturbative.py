"""Exact interacting third-order solution (weak-probe pair cascade).

Solves the interaction-resolved two-body correlators order by order in the
probe field at fixed pair interaction strength k, integrates the leading
collisional integral over the Van der Waals potential, and provides the
closed-form blockade observables that follow from it.

All correlator coefficients are reduced: the leading probe monomial
Omega_p^a (Omega_p*)^b is divided out.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .blochgen import (
    PAIR_INDEX,
    PAIR_LABELS,
    SINGLE_INDEX,
    canonical_pair,
    generate_pair_equations,
    grade_order,
)
from .noninteracting import PerturbativeCoefficients, perturbative_coefficients
from .params import (
    AtomParams,
    InteractionParams,
    SingularParameterError,
    effective_T,
    relaxation_constants,
)
from .quadrature import RadialQuadratureResult, vdw_k_integral

__all__ = [
    "ORDER2_LABELS",
    "ORDER3_NETP1_LABELS",
    "BranchAmbiguityError",
    "pair_correlators_order2",
    "pair_correlators_order3",
    "ss1333_ladder_approximation",
    "collisional_integral_V13_order3",
    "Chi3Result",
    "chi3_interacting",
    "nb_closed_form",
    "nb_closed_form_dispersive",
    "ib_quadrature",
]

ORDER2_LABELS = tuple(lab for lab in PAIR_LABELS if grade_order(lab)[1] == 2)
ORDER3_NETP1_LABELS = tuple(
    lab for lab in PAIR_LABELS if grade_order(lab) == (1, 3)
)
assert len(ORDER2_LABELS) == 10 and len(ORDER3_NETP1_LABELS) == 8

_SS1333 = canonical_pair((1, 3), (3, 3))


class BranchAmbiguityError(ValueError):
    """The square-root branch is ambiguous (resonant pair excitation)."""


def _principal_sqrt(z: complex, what: str) -> complex:
    z = complex(z)
    if z.imag == 0.0 and z.real < 0.0:
        raise BranchAmbiguityError(
            f"{what} lies on the negative real axis: branch ambiguous "
            "(resonant pair-excitation regime)"
        )
    return complex(np.sqrt(z))


@dataclass(frozen=True)
class _Ss1333Kernel:
    """ss^(3)_{13,33}(k) in closed form from the k = 0 pair blocks.

    In each order the interaction enters only through two P columns,
    A + U (kD) U^T with U selecting them and D their ``kdiag`` values, so the
    Woodbury identity gives the order-2 solution as

        x2(k) = x2(0) - Z2 c(k),   c(k) = (I + kD2 W2)^-1 kD2 x2_P(0),

    with Z2 = A2^-1 U2 and W2 = U2^T Z2, and push-through gives the two P
    components of the order-3 solution as

        x3_P(k) = (I + W3 kD3)^-1 (h0 - HZ c(k)),   W3 = U3^T A3^-1 U3,

    where h0 = x3_P(0) and HZ = -U3^T A3^-1 F Z2 carries the order-2
    correction through the order-3 source -F x2(k) into the P right-hand
    side. Only P components are formed, so nothing cancels deep in the
    blockade core. The first order-3 P column is ss_{13,33}. Every
    coefficient is a Python complex: a node costs two 2x2 solves in scalar
    arithmetic.
    """

    d2: tuple   # (d0, d1): kdiag of the two order-2 P columns
    w2: tuple   # W2 row-major (w00, w01, w10, w11)
    x2p: tuple  # x2_P(0)
    h0: tuple   # x3_P(0)
    hz: tuple   # HZ row-major
    d3: tuple   # kdiag of the two order-3 P columns, ss_{13,33} first
    w3: tuple   # W3 row-major

    def __call__(self, k) -> complex:
        k = float(k)  # a numpy float would make every product a numpy scalar op
        d0, d1 = self.d2
        w00, w01, w10, w11 = self.w2
        e0 = k * d0
        e1 = k * d1
        m00 = 1.0 + e0 * w00
        m01 = e0 * w01
        m10 = e1 * w10
        m11 = 1.0 + e1 * w11
        det = _checked_det(m00 * m11 - m01 * m10, 2, k)
        p0, p1 = self.x2p
        r0 = e0 * p0
        r1 = e1 * p1
        c0 = (m11 * r0 - m01 * r1) / det
        c1 = (m00 * r1 - m10 * r0) / det

        h0, h1 = self.h0
        z00, z01, z10, z11 = self.hz
        y0 = h0 - (z00 * c0 + z01 * c1)
        y1 = h1 - (z10 * c0 + z11 * c1)
        g0, g1 = self.d3
        w00, w01, w10, w11 = self.w3
        f0 = k * g0
        f1 = k * g1
        n00 = 1.0 + w00 * f0
        n01 = w01 * f1
        n10 = w10 * f0
        n11 = 1.0 + w11 * f1
        det = _checked_det(n00 * n11 - n01 * n10, 3, k)
        return (n11 * y0 - n01 * y1) / det


def _checked_det(det: complex, order: int, k: float) -> complex:
    if det == 0 or not cmath.isfinite(det):
        raise SingularParameterError(
            f"singular order-{order} pair system at k={k} (2x2 determinant {det})"
        )
    return det


def _solve_at_k0(a: np.ndarray, rhs: np.ndarray, order: int) -> np.ndarray:
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularParameterError(f"singular order-{order} pair system at k=0") from exc


def _ss1333_kernel(a2, kdiag2, src2, a3, kdiag3, src3, from_o2) -> _Ss1333Kernel:
    p2 = np.flatnonzero(kdiag2)
    target = ORDER3_NETP1_LABELS.index(_SS1333)
    p3 = [target] + [i for i in np.flatnonzero(kdiag3) if i != target]
    assert len(p2) == 2 and len(p3) == 2 and kdiag3[target] != 0
    # A2^-1 [-src2 | U2]
    sol2 = _solve_at_k0(a2, np.column_stack([-src2, np.eye(len(src2))[:, p2]]), 2)
    x2, z2 = sol2[:, 0], sol2[:, 1:]
    # A3^-1 [-src3 - F x2(0) | -F Z2 | U3]
    rhs3 = np.column_stack([-src3 - from_o2 @ x2, -from_o2 @ z2, np.eye(len(src3))[:, p3]])
    sol3 = _solve_at_k0(a3, rhs3, 3)[p3]

    def scalars(arr):
        return tuple(complex(v) for v in np.ravel(arr))

    return _Ss1333Kernel(
        d2=scalars(kdiag2[p2]), w2=scalars(z2[p2]), x2p=scalars(x2[p2]),
        h0=scalars(sol3[:, 0]), hz=scalars(sol3[:, 1:3]),
        d3=scalars(kdiag3[p3]), w3=scalars(sol3[:, 3:]),
    )


@dataclass(frozen=True)
class _CascadeTables:
    """Probe-graded blocks of the generated pair system for one parameter set."""

    o2_rows: np.ndarray
    o2_a: np.ndarray
    o2_kdiag: np.ndarray
    o2_src: np.ndarray          # constant source vector built from sigma^(1)
    o3_rows: np.ndarray
    o3_a: np.ndarray
    o3_kdiag: np.ndarray
    o3_src_single: np.ndarray   # source from sigma^(2)
    o3_from_o2: np.ndarray      # coupling matrix applied to the order-2 solution
    ss1333: _Ss1333Kernel


def _cascade_tables(
    params: AtomParams, pc: PerturbativeCoefficients
) -> _CascadeTables:
    """Order-2/3 pair systems at ``params``; ``pc`` is the single-atom
    cascade at the same parameters, which supplies the sources."""
    ps = generate_pair_equations(params)
    x1 = {
        (1, 2): pc.s12_1, (1, 3): pc.s13_1,
        (2, 1): pc.s21_1, (3, 1): pc.s31_1,
    }
    x2 = {
        (2, 2): pc.s22_2, (3, 3): pc.s33_2,
        (2, 3): pc.s23_2, (3, 2): pc.s32_2,
    }

    o2 = np.array([PAIR_INDEX[lab] for lab in ORDER2_LABELS])
    o3 = np.array([PAIR_INDEX[lab] for lab in ORDER3_NETP1_LABELS])

    # order-2 source: probe-graded single-atom terms with first-order values
    src2 = np.zeros(len(o2), dtype=complex)
    for i, lab in enumerate(ORDER2_LABELS):
        r = PAIR_INDEX[lab]
        nu = grade_order(lab)[0]
        for m, (net_m, ord_m) in ((m, grade_order(m)) for m in x1):
            col = SINGLE_INDEX[m]
            if ord_m == 1 and net_m == nu - 1:
                src2[i] += ps.srcp[r, col] * x1[m]
            if ord_m == 1 and net_m == nu + 1:
                src2[i] += ps.srcm[r, col] * x1[m]

    # order-3 single-atom source: second-order populations/Raman coherences
    src3 = np.zeros(len(o3), dtype=complex)
    for i, lab in enumerate(ORDER3_NETP1_LABELS):
        r = PAIR_INDEX[lab]
        for m, val in x2.items():
            src3[i] += ps.srcp[r, SINGLE_INDEX[m]] * val

    # order-3 coupling to the order-2 pair solution: Wp pulls net 0,
    # Wp* pulls net +2
    from_o2 = np.zeros((len(o3), len(o2)), dtype=complex)
    for j, lab2 in enumerate(ORDER2_LABELS):
        net2 = grade_order(lab2)[0]
        c = PAIR_INDEX[lab2]
        if net2 == 0:
            from_o2[:, j] = ps.ap[o3, c]
        elif net2 == 2:
            from_o2[:, j] = ps.am[o3, c]

    o2_a = ps.a0[np.ix_(o2, o2)]
    o3_a = ps.a0[np.ix_(o3, o3)]
    return _CascadeTables(
        o2_rows=o2,
        o2_a=o2_a,
        o2_kdiag=ps.kdiag[o2],
        o2_src=src2,
        o3_rows=o3,
        o3_a=o3_a,
        o3_kdiag=ps.kdiag[o3],
        o3_src_single=src3,
        o3_from_o2=from_o2,
        ss1333=_ss1333_kernel(
            o2_a, ps.kdiag[o2], src2, o3_a, ps.kdiag[o3], src3, from_o2
        ),
    )


def _order2(t: _CascadeTables, k: float) -> np.ndarray:
    mat = t.o2_a + k * np.diag(t.o2_kdiag)
    try:
        return np.linalg.solve(mat, -t.o2_src)
    except np.linalg.LinAlgError as exc:
        raise SingularParameterError(f"singular order-2 pair system at k={k}") from exc


def pair_correlators_order2(params: AtomParams, k: float) -> dict:
    """Reduced second-order two-body correlators at interaction strength k."""
    t = _cascade_tables(params, perturbative_coefficients(params))
    return dict(zip(ORDER2_LABELS, _order2(t, k)))


def pair_correlators_order3(params: AtomParams, k: float) -> dict:
    """Reduced third-order net-+1 two-body correlators at interaction k.

    Returns the eight coefficients ss^(3)_{1b,mn} for 1b in {12, 13} and
    mn in {22, 33, 23, 32}.
    """
    t = _cascade_tables(params, perturbative_coefficients(params))
    src = t.o3_src_single + t.o3_from_o2 @ _order2(t, k)
    mat = t.o3_a + k * np.diag(t.o3_kdiag)
    try:
        x = np.linalg.solve(mat, -src)
    except np.linalg.LinAlgError as exc:
        raise SingularParameterError(f"singular order-3 pair system at k={k}") from exc
    return dict(zip(ORDER3_NETP1_LABELS, x))


def ss1333_order3(params: AtomParams, k: float) -> complex:
    """Reduced ss^(3)_{13,33} at interaction k, from the closed-form kernel
    (``pair_correlators_order3`` is the full-solve reference)."""
    return _cascade_tables(params, perturbative_coefficients(params)).ss1333(k)


def ss1333_ladder_approximation(params: AtomParams, k: float) -> complex:
    """Dispersive closed form ss^(3)_{13,33} ~ s13^(1) s33^(2) T / (T + ik)."""
    t = effective_T(params)
    pc = perturbative_coefficients(params)
    return pc.s13_1 * pc.s33_2 * t / (t + 1j * k)


def collisional_integral_V13_order3(
    params: AtomParams,
    pc: PerturbativeCoefficients,
    interaction: InteractionParams,
    rel_tol: float = 1e-8,
) -> tuple[complex, RadialQuadratureResult]:
    """Reduced V13^(3) = eta Int d^3R k ss^(3)_{13,33}(k(R)) by quadrature.

    ``pc`` is ``perturbative_coefficients(params)``, which callers usually
    need as well, so it is evaluated once per parameter set.
    """
    if interaction.c6 == 0.0:
        return 0.0, RadialQuadratureResult(0.0, 0.0, 0, True)
    k_scale = abs(effective_T(params))
    res = vdw_k_integral(
        _cascade_tables(params, pc).ss1333,
        interaction.c6, interaction.eta, k_scale, rel_tol=rel_tol,
    )
    return res.value, res


@dataclass(frozen=True)
class Chi3Result:
    """Third-order susceptibility coefficients (per unit Wp |Wp|^2)."""

    s12_3_total: complex
    s12_3_noninteracting: complex
    s12_3_collisional: complex
    s12_3_collisional_direct: complex  # from the closed-form V13 map
    v13_3: complex


def chi3_interacting(params: AtomParams, interaction: InteractionParams) -> Chi3Result:
    """Total third-order coefficient of sigma_12, interactions included.

    The collisional part is computed both through the full cascade with the
    V13^(3) source and through the direct weak-probe map
    -omega_c / (Gamma13 Gamma12 + omega_c^2) * V13^(3).
    """
    pc0 = perturbative_coefficients(params)
    v13_3, _ = collisional_integral_V13_order3(params, pc0, interaction)
    pc = perturbative_coefficients(params, v13_3=v13_3)
    rc = relaxation_constants(params)
    denom = rc.Gamma13 * rc.Gamma12 + params.omega_c**2
    direct = -params.omega_c / denom * v13_3
    return Chi3Result(
        s12_3_total=pc.s12_3,
        s12_3_noninteracting=pc0.s12_3,
        s12_3_collisional=pc.s12_3 - pc0.s12_3,
        s12_3_collisional_direct=direct,
        v13_3=v13_3,
    )


def nb_closed_form(params: AtomParams, interaction: InteractionParams) -> complex:
    """Blockade count n_b = 2 pi^2 eta / (3 sqrt(iT / c6)), principal branch."""
    t = effective_T(params)
    root = _principal_sqrt(1j * t / interaction.c6, "iT/C6")
    return 2.0 * np.pi**2 * interaction.eta / (3.0 * root)


def nb_closed_form_dispersive(params: AtomParams, interaction: InteractionParams) -> complex:
    """Dispersive-regime n_b with T replaced by its real detuning part."""
    eff_det = params.delta3 - params.omega_c**2 / params.delta2
    root = _principal_sqrt(eff_det / interaction.c6, "effective detuning / C6")
    return 2.0 * np.pi**2 * interaction.eta / (3.0 * root)


def ib_quadrature(
    params: AtomParams, interaction: InteractionParams, rel_tol: float = 1e-8
) -> RadialQuadratureResult:
    """Direct quadrature of I_b = eta Int d^3R ik / (T + ik)."""
    t = effective_T(params)
    return vdw_k_integral(
        lambda k: 1j / (t + 1j * k),
        interaction.c6, interaction.eta, abs(t), rel_tol=rel_tol,
    )
