"""Exact interacting third-order solution (weak-probe pair cascade).

Solves the interaction-resolved two-body correlators order by order in the
probe field at fixed pair interaction strength k, evaluates the leading
collisional integral over the Van der Waals potential in closed form (a sum
over the four poles of the rational kernel ss^(3)_{13,33}(k); the radial
quadrature is its tested reference), and holds the closed form of the
radial resolvent integral, ``F_lambda``. The closed-form blockade count
``nb_closed_form`` is that integral at the single-pole closure's pole iT;
the collisional solver evaluates it at the eigenvalues of its reduced
pair system.

Production and references. Weak-probe rows evaluate a scan's zero-probe
points as one column over delta3 (``params.delta3_column``):
``collisional_integral_V13_column`` builds the kernels of every row with
one stacked solve per probe order on the k = 0 blocks of the pair system,
built from blocks of the generator's K36 (``blochgen.a0_blocks``), and
turns the solutions into the kernels' rational coefficients (a cubic
numerator over two quadratic determinants) with elementwise array
arithmetic. ``_pole_sum`` integrates every row with one array formula,
the divided difference of num F over the kernel's four poles, whether
they are simple, coincident or nearly so.
``collisional_integral_V13_order3`` and ``chi3_interacting`` are the
column of one row. Every parameter-free part (source terms, the order-2
to order-3 coupling, the unit columns of the right-hand sides) is an
import-time constant. The references are tested against that path and
never run on it: the full order-2/3 pair solves
``pair_correlators_order2/3``, on the same gathered k = 0 blocks (at one
parameter set) plus k diag(kdiag), with the same sources, check the
coefficients pointwise (the kernel's ``__call__`` is a Horner evaluation
of them), and the adaptive radial quadrature
``collisional_integral_V13_order3_quadrature`` checks the pole sum. The
label-by-label constructions the constants reproduce byte for
byte are kept in the tests.

All correlator coefficients are reduced: the leading probe monomial
Omega_p^a (Omega_p*)^b is divided out.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .blochgen import (
    _AM,
    _AP,
    _KDIAG,
    _SRCM,
    _SRCP,
    PAIR_INDEX,
    PAIR_LABELS,
    SINGLE_INDEX,
    a0_blocks,
    canonical_pair,
    grade_order,
)
from .noninteracting import PerturbativeCoefficients, perturbative_coefficients
from .params import (
    AtomParams,
    InteractionParams,
    SingularParameterError,
    delta3_column,
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
    "F_lambda",
    "collisional_integral_V13_column",
    "collisional_integral_V13_order3",
    "collisional_integral_V13_order3_quadrature",
    "Chi3Result",
    "chi3_interacting",
    "nb_closed_form",
]

ORDER2_LABELS = tuple(lab for lab in PAIR_LABELS if grade_order(lab)[1] == 2)
ORDER3_NETP1_LABELS = tuple(
    lab for lab in PAIR_LABELS if grade_order(lab) == (1, 3)
)
assert len(ORDER2_LABELS) == 10 and len(ORDER3_NETP1_LABELS) == 8

_SS1333 = canonical_pair((1, 3), (3, 3))


class BranchAmbiguityError(ValueError):
    """The square-root branch is ambiguous (resonant pair excitation)."""


def F_lambda(lam, interaction: InteractionParams):
    """Radial resolvent integral eta Int d^3R k/(k - lambda), closed form
    (2 pi^2 eta / 3) sqrt(C6/lambda) for k = -C6/R^6, principal branch;
    elementwise over an array of eigenvalues. A Python scalar ``lam`` keeps
    Python's complex division. C6/lambda on the negative real axis, the
    branch cut, raises ``BranchAmbiguityError``; C6 = 0 gives 0. Otherwise
    the integral diverges at lambda = 0, which raises
    ``SingularParameterError``."""
    if interaction.c6 == 0.0:
        return np.zeros_like(lam, dtype=complex)
    if np.any(lam == 0):
        raise SingularParameterError("lambda = 0: the resolvent integral diverges")
    z = interaction.c6 / lam
    if np.any((np.imag(z) == 0.0) & (np.real(z) < 0.0)):
        raise BranchAmbiguityError("C6/lambda lies on the negative real axis: branch "
                                   "ambiguous (resonant pair-excitation regime)")
    return 2.0 * np.pi**2 * interaction.eta / 3.0 * np.sqrt(z)


def _components(x) -> np.ndarray:
    """The components on the last axis of ``x`` as contiguous leading rows."""
    return np.array(np.moveaxis(np.asarray(x, dtype=complex), -1, 0))


@dataclass(frozen=True)
class _Ss1333Kernel:
    """ss^(3)_{13,33}(k) = num(k) / (det2(k) det3(k)), a cubic over two
    quadratics, as the coefficients the pole sum integrates.

    ``num`` holds the four coefficients of the numerator in ascending
    powers of k; ``det2`` and ``det3`` hold (a1, a2) of 1 + a1 k + a2 k^2.
    The coefficients sit on the last axis, so a kernel is one row (shapes
    (4,), (2,), (2,)) or a column of them (a leading row axis); ``kernel[i]``
    is row i. Production and reference kernels are built by
    ``from_woodbury``; the pointwise ``__call__`` takes one row.
    """

    num: np.ndarray
    det2: np.ndarray
    det3: np.ndarray

    @classmethod
    def from_woodbury(cls, d2, w2, x2p, h0, hz, d3, w3) -> "_Ss1333Kernel":
        """The kernel from the Woodbury blocks of the k = 0 pair systems.

        In each order the interaction enters only through two P columns,
        A + U (kD) U^T with U selecting them and D their ``kdiag`` values, so
        the Woodbury identity gives the order-2 solution as

            x2(k) = x2(0) - Z2 c(k),   c(k) = (I + kD2 W2)^-1 kD2 x2_P(0),

        with Z2 = A2^-1 U2 and W2 = U2^T Z2, and push-through gives the two P
        components of the order-3 solution as

            x3_P(k) = (I + W3 kD3)^-1 (h0 - HZ c(k)),   W3 = U3^T A3^-1 U3,

        where h0 = x3_P(0) and HZ = -U3^T A3^-1 F Z2 carries the order-2
        correction through the order-3 source -F x2(k) into the P
        right-hand side. The first order-3 P column is ss_{13,33}.

        Each argument holds its components on the last axis, with any
        leading (row) axes shared by all of them, so one call builds a whole
        column elementwise: ``d2``/``d3`` the kdiag values of the two
        order-2/3 P columns (ss_{13,33} first), ``x2p`` = x2_P(0), ``h0``,
        and the 2x2 matrices ``w2`` = W2, ``hz`` = HZ, ``w3`` = W3
        row-major. det2 = det(I + kD2 W2) and det3 = det(I + W3 kD3) are
        quadratic in k; det2 c(k) is quadratic, so is det2 y(k) = h0 det2 -
        HZ (det2 c), and the numerator det3 ss = n11 y0 - n01 y1, with n11,
        n01 the entries of I + W3 kD3, is cubic.
        """
        d0, d1 = _components(d2)
        w00, w01, w10, w11 = _components(w2)
        g0, g1 = _components(d3)
        v00, v01, v10, v11 = _components(w3)
        det2 = (d0 * w00 + d1 * w11, d0 * d1 * (w00 * w11 - w01 * w10))
        det3 = (g0 * v00 + g1 * v11, g0 * g1 * (v00 * v11 - v01 * v10))
        p0, p1 = _components(x2p)
        z00, z01, z10, z11 = _components(hz)
        h00, h01 = _components(h0)
        e2 = (1.0, *det2)  # det2 in ascending powers of k
        c0 = (0.0, d0 * p0, d0 * d1 * (w11 * p0 - w01 * p1))
        c1 = (0.0, d1 * p1, d0 * d1 * (w00 * p1 - w10 * p0))
        y0 = [h00 * e2[j] - (z00 * c0[j] + z01 * c1[j]) for j in range(3)]
        y1 = [h01 * e2[j] - (z10 * c0[j] + z11 * c1[j]) for j in range(3)]
        num = (
            y0[0],
            y0[1] + g1 * (v11 * y0[0] - v01 * y1[0]),
            y0[2] + g1 * (v11 * y0[1] - v01 * y1[1]),
            g1 * (v11 * y0[2] - v01 * y1[2]),
        )
        return cls(*(np.stack(np.broadcast_arrays(*parts), axis=-1)
                     for parts in (num, det2, det3)))

    def __getitem__(self, i) -> "_Ss1333Kernel":
        return _Ss1333Kernel(self.num[i], self.det2[i], self.det3[i])

    def __call__(self, k) -> complex:
        k = float(k)  # Python scalars throughout: the quadrature calls this per node
        (a1, a2), (b1, b2) = self.det2.tolist(), self.det3.tolist()
        det2 = _checked_det(1.0 + k * (a1 + k * a2), 2, k)
        det3 = _checked_det(1.0 + k * (b1 + k * b2), 3, k)
        n0, n1, n2, n3 = self.num.tolist()
        return (n0 + k * (n1 + k * (n2 + k * n3))) / (det2 * det3)


def _roots(a1: np.ndarray, a2: np.ndarray) -> tuple:
    """The roots of 1 + a1 k + a2 k^2 along a column, where a2 != 0, free of
    cancellation: q = -(a1 +/- s)/2, s = sqrt(a1^2 - 4 a2), with the sign
    that maximizes |q|, and the roots q/a2 and 1/q."""
    s = np.sqrt(a1 * a1 - 4.0 * a2)
    plus, minus = a1 + s, a1 - s
    q = -0.5 * np.where(np.abs(plus) >= np.abs(minus), plus, minus)
    return q / a2, 1.0 / q


def _pole_sum(kernel: _Ss1333Kernel, interaction: InteractionParams) -> np.ndarray:
    """eta Int d^3R k ss(k(R)) at every row of a kernel column: one
    divided difference over the kernel's four poles rho_i.

    ss = num / (a2 b2 prod_i (k - rho_i)) and eta Int d^3R k / (k - rho) =
    F(rho), so the integral is (num F)[rho0, ..., rho3] / (a2 b2). By
    Leibniz's rule that is sum_j num[rho0..rho_j] F[rho_j..rho3], with the
    poles in ascending |rho| (in another order the terms cancel). num's
    divided differences are polynomials in the poles. F is proportional to
    1/t, t = sqrt(sigma rho) with sigma = sign(C6) and Re t > 0 off the
    branch cut, so F's are closed forms in the t_i free of cancellation:

        F[rho2, rho3] = -sigma F(rho3) / (t2 (t2 + t3)),
        F[rho1..rho3] = F(rho3) (t1 + t2 + t3)
                        / (t1 t2 (t1 + t2) (t1 + t3) (t2 + t3)),
        F[rho0..rho3] = -sigma F(rho3) (e1 e2 - e3)
                        / (t0 t1 t2 prod_{i<j} (t_i + t_j)),

    e_n the elementary symmetric sums of the four t_i. Simple, coincident
    and nearly coincident poles take the same formula. A pole on the branch
    cut raises ``BranchAmbiguityError`` (``F_lambda``); a determinant of
    lower degree (a2 or b2 zero) raises ``SingularParameterError``, since
    the radial integral then diverges at the core.
    """
    (a1, a2), (b1, b2) = kernel.det2.T, kernel.det3.T
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.stack([*_roots(a1, a2), *_roots(b1, b2)], axis=-1)
    if not np.isfinite(rho).all():
        raise SingularParameterError("the kernel's denominator has lower degree "
                                     "(a2 b2 = 0): its radial integral diverges")
    # ascending |rho|, by a sorting network (a first np.argsort costs more)
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        a, b = rho[:, i], rho[:, j]
        swap = np.abs(a) > np.abs(b)
        rho[:, i], rho[:, j] = np.where(swap, b, a), np.where(swap, a, b)
    f3 = F_lambda(rho, interaction)[:, 3]  # at every pole, for the branch test
    sigma = 1.0 if interaction.c6 > 0 else -1.0
    t0, t1, t2, t3 = np.sqrt(sigma * rho).T
    r0, r1, r2, _ = rho.T
    n0, n1, n2, n3 = kernel.num.T
    # e1 e2 - e3 = t0 u (t0 + u) + s123, u = t1 + t2 + t3
    u, s23 = t1 + t2 + t3, t2 + t3
    s123 = (t1 + t2) * (t1 + t3) * s23
    total = (
        (n0 + r0 * (n1 + r0 * (n2 + r0 * n3))) * -sigma * (t0 * u * (t0 + u) + s123)
        / (t0 * t1 * t2 * (t0 + t1) * (t0 + t2) * (t0 + t3) * s123)
        + (n1 + n2 * (r0 + r1) + n3 * (r0 * r0 + r0 * r1 + r1 * r1)) * u / (t1 * t2 * s123)
        + (n2 + n3 * (r0 + r1 + r2)) * -sigma / (t2 * s23)
        + n3
    )
    return f3 * total / (a2 * b2)


def _checked_det(det: complex, order: int, k: float) -> complex:
    if det == 0 or not cmath.isfinite(det):
        raise SingularParameterError(
            f"singular order-{order} pair system at k={k} (2x2 determinant {det})"
        )
    return det


def _solve_pair_block(a: np.ndarray, rhs: np.ndarray, order: int, k=0) -> np.ndarray:
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularParameterError(f"singular order-{order} pair system at k={k}") from exc


# first- and second-order single-atom sources, in the order of x1 / x2 in
# ``_cascade_sources``
_X1_LABELS = ((1, 2), (1, 3), (2, 1), (3, 1))
_X2_LABELS = ((2, 2), (3, 3), (2, 3), (3, 2))


def _cascade_constants():
    """Parameter-free parts of the order-2/3 pair cascade, built once from
    the generator's constants.

    ``src2`` holds (i, coeff, j): order-2 row i gains coeff * x1[j], where
    coeff is an entry of srcp pulling a first-order label of net nu - 1 or
    of srcm pulling one of net nu + 1; ``src3`` holds (i, coeff, j):
    order-3 row i gains coeff * x2[j], coeff an entry of srcp. Terms are
    listed in the order they accumulate. ``from_o2`` couples the order-2 solution into the
    order-3 rows: ``ap`` on its net-0 columns, ``am`` on its net +2 ones.
    ``rows2``/``rows3`` are the pair rows of the two k = 0 blocks (which
    ``blochgen.a0_blocks`` builds), and ``rhs2``/``rhs3`` hold the unit
    columns U2/U3 of the kernel's right-hand sides.
    """
    o2 = np.array([PAIR_INDEX[lab] for lab in ORDER2_LABELS])
    o3 = np.array([PAIR_INDEX[lab] for lab in ORDER3_NETP1_LABELS])
    src2 = []
    for i, lab in enumerate(ORDER2_LABELS):
        nu = grade_order(lab)[0]
        for j, m in enumerate(_X1_LABELS):
            net_m, ord_m = grade_order(m)
            for src, net in ((_SRCP, nu - 1), (_SRCM, nu + 1)):
                if ord_m == 1 and net_m == net:
                    src2.append((i, complex(src[PAIR_INDEX[lab], SINGLE_INDEX[m]]), j))
    src3 = tuple(
        (i, complex(_SRCP[PAIR_INDEX[lab], SINGLE_INDEX[m]]), j)
        for i, lab in enumerate(ORDER3_NETP1_LABELS)
        for j, m in enumerate(_X2_LABELS)
    )
    net2 = np.array([grade_order(lab)[0] for lab in ORDER2_LABELS])
    net0, netp2 = np.flatnonzero(net2 == 0), np.flatnonzero(net2 == 2)
    from_o2 = np.zeros((len(o3), len(o2)), dtype=complex)
    from_o2[:, net0] = _AP[np.ix_(o3, np.take(o2, net0))]
    from_o2[:, netp2] = _AM[np.ix_(o3, np.take(o2, netp2))]

    kdiag2, kdiag3 = _KDIAG[o2], _KDIAG[o3]
    p2 = np.flatnonzero(kdiag2)
    target = ORDER3_NETP1_LABELS.index(_SS1333)
    p3 = np.array([target] + [i for i in np.flatnonzero(kdiag3) if i != target])
    assert len(p2) == 2 and len(p3) == 2 and kdiag3[target] != 0
    rhs2 = np.zeros((len(o2), 3), dtype=complex)
    rhs2[p2, [1, 2]] = 1.0
    rhs3 = np.zeros((len(o3), 5), dtype=complex)
    rhs3[p3, [3, 4]] = 1.0

    arrays = dict(from_o2=from_o2, neg_from_o2=-from_o2, rows2=o2, rows3=o3,
                  kdiag2=kdiag2, kdiag3=kdiag3, p2=p2, p3=p3, rhs2=rhs2, rhs3=rhs3)
    for arr in arrays.values():
        arr.flags.writeable = False
    return SimpleNamespace(src2=tuple(src2), src3=src3,
                           d2=tuple(kdiag2[p2].tolist()),
                           d3=tuple(kdiag3[p3].tolist()), **arrays)


_CASCADE = _cascade_constants()
_A0_BLOCKS = a0_blocks(_CASCADE.rows2, _CASCADE.rows3)


def _cascade_sources(pc: PerturbativeCoefficients) -> tuple:
    """The order-2 source and the order-3 single-atom source, shapes (10, n)
    and (8, n), from the single-atom cascade ``pc`` of n rows (a
    ``perturbative_column``, or one row of Python numbers). Each entry is
    a sum of exact products (the coefficients are +-i and +-2i) in the
    listed order, so every row gets the bytes it gets alone."""
    x1 = np.array([pc.s12_1, pc.s13_1, pc.s21_1, pc.s31_1], dtype=complex)
    x2 = np.array([pc.s22_2, pc.s33_2, pc.s23_2, pc.s32_2], dtype=complex)
    x1, x2 = x1.reshape(4, -1), x2.reshape(4, -1)
    src2 = np.zeros((len(ORDER2_LABELS), x1.shape[1]), dtype=complex)
    for i, coeff, j in _CASCADE.src2:
        src2[i] += coeff * x1[j]
    src3 = np.zeros((len(ORDER3_NETP1_LABELS), x2.shape[1]), dtype=complex)
    for i, coeff, j in _CASCADE.src3:
        src3[i] += coeff * x2[j]
    return src2, src3


def _ss1333_kernel(params, pc: PerturbativeCoefficients) -> _Ss1333Kernel:
    """The closed-form kernels along a ``delta3_column`` ``params``, with
    ``pc`` its single-atom cascade: one stacked solve per order on the
    k = 0 blocks of a0, built from blocks of K36 (``blochgen.a0_blocks``);
    everything else is constant."""
    src2, src3 = _cascade_sources(pc)
    a2, a3 = _A0_BLOCKS(params)
    # A2^-1 [-src2 | U2]
    rhs2 = np.array(np.broadcast_to(_CASCADE.rhs2, (len(a2), *_CASCADE.rhs2.shape)))
    rhs2[..., 0] = -src2.T
    sol2 = _solve_pair_block(a2, rhs2, 2)
    # A3^-1 [-src3 - F x2(0) | -F Z2 | U3]
    rhs3 = np.array(np.broadcast_to(_CASCADE.rhs3, (len(a3), *_CASCADE.rhs3.shape)))
    rhs3[..., 0] = -src3.T
    rhs3[..., 0] -= sol2[..., 0] @ _CASCADE.from_o2.T
    rhs3[..., 1:3] = _CASCADE.neg_from_o2 @ sol2[..., 1:]
    sol3 = _solve_pair_block(a3, rhs3, 3)

    x2p, w2 = sol2[:, _CASCADE.p2, 0], sol2[:, _CASCADE.p2, 1:]
    h0, hz, w3 = (sol3[:, _CASCADE.p3, cols] for cols in (0, slice(1, 3), slice(3, 5)))
    return _Ss1333Kernel.from_woodbury(
        d2=_CASCADE.d2, w2=w2.reshape(-1, 4), x2p=x2p, h0=h0,
        hz=hz.reshape(-1, 4), d3=_CASCADE.d3, w3=w3.reshape(-1, 4),
    )


def pair_correlators_order2(params: AtomParams, k: float) -> dict:
    """Reduced second-order two-body correlators at interaction strength k
    (full solve; the reference for the closed-form kernel)."""
    a2, _ = _A0_BLOCKS(params)
    src2, _ = _cascade_sources(perturbative_coefficients(params))
    x2 = _solve_pair_block(a2 + k * np.diag(_CASCADE.kdiag2), -src2[:, 0], 2, k)
    return dict(zip(ORDER2_LABELS, x2))


def pair_correlators_order3(params: AtomParams, k: float) -> dict:
    """Reduced third-order net-+1 two-body correlators at interaction k
    (full solve; the reference for the closed-form kernel).

    Returns the eight coefficients ss^(3)_{1b,mn} for 1b in {12, 13} and
    mn in {22, 33, 23, 32}.
    """
    a2, a3 = _A0_BLOCKS(params)
    src2, src3 = _cascade_sources(perturbative_coefficients(params))
    mat2 = a2 + k * np.diag(_CASCADE.kdiag2)
    x2 = _solve_pair_block(mat2, -src2[:, 0], 2, k)
    src = src3[:, 0] + _CASCADE.from_o2 @ x2
    mat3 = a3 + k * np.diag(_CASCADE.kdiag3)
    return dict(zip(ORDER3_NETP1_LABELS, _solve_pair_block(mat3, -src, 3, k)))


def _one_kernel(params: AtomParams, pc: PerturbativeCoefficients) -> _Ss1333Kernel:
    """The kernel at the one parameter set ``params`` (a column of one)."""
    return _ss1333_kernel(delta3_column(params), pc)[0]


def ss1333_order3(params: AtomParams, k: float) -> complex:
    """Reduced ss^(3)_{13,33} at interaction k, from the closed-form kernel
    (``pair_correlators_order3`` is the full-solve reference)."""
    return _one_kernel(params, perturbative_coefficients(params))(k)


def ss1333_ladder_approximation(params: AtomParams, k: float) -> complex:
    """Dispersive closed form ss^(3)_{13,33} ~ s13^(1) s33^(2) T / (T + ik)."""
    t = effective_T(params)
    pc = perturbative_coefficients(params)
    return pc.s13_1 * pc.s33_2 * t / (t + 1j * k)


def collisional_integral_V13_column(
    params, pc: PerturbativeCoefficients, interaction: InteractionParams
) -> np.ndarray:
    """Reduced V13^(3) at every row of a ``delta3_column`` ``params``, with
    ``pc = perturbative_column(params)``: the kernels of the column and
    their pole sums (``_pole_sum``), each step stacked over the rows."""
    if interaction.c6 == 0.0:
        return np.zeros(len(params.delta3), dtype=complex)
    return _pole_sum(_ss1333_kernel(params, pc), interaction)


def collisional_integral_V13_order3(
    params: AtomParams,
    pc: PerturbativeCoefficients,
    interaction: InteractionParams,
) -> complex:
    """Reduced V13^(3) = eta Int d^3R k ss^(3)_{13,33}(k(R)) in closed form,
    as a sum of F_lambda over the four poles of the kernel: the column of
    one row of ``collisional_integral_V13_column``.

    ``pc`` is ``perturbative_coefficients(params)``, which callers usually
    need as well, so it is evaluated once per parameter set.
    ``collisional_integral_V13_order3_quadrature`` is the reference.
    """
    return complex(collisional_integral_V13_column(
        delta3_column(params), pc, interaction)[0])


def collisional_integral_V13_order3_quadrature(
    params: AtomParams,
    pc: PerturbativeCoefficients,
    interaction: InteractionParams,
    rel_tol: float = 1e-8,
) -> tuple[complex, RadialQuadratureResult]:
    """The same V13^(3) by adaptive radial quadrature of the kernel
    (validation path for ``collisional_integral_V13_order3``)."""
    if interaction.c6 == 0.0:
        return 0.0, RadialQuadratureResult(0.0, 0.0, 0, True)
    k_scale = abs(effective_T(params))
    res = vdw_k_integral(
        _one_kernel(params, pc), interaction.c6, interaction.eta, k_scale,
        rel_tol=rel_tol,
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
    v13_3 = collisional_integral_V13_order3(params, pc0, interaction)
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
    """Blockade count n_b = F(iT): the resolvent integral ``F_lambda`` at
    the pole lambda = iT of the single-pole closure (T = ``effective_T``),
    (2 pi^2 eta / 3) sqrt(C6/(iT)) on the principal branch. For C6 > 0 that
    is (pi/2) N_bl exp(-i arg(iT)/2), N_bl = eta (4 pi/3) R_b^3 the atoms in
    a blockade sphere of radius R_b = ``blockade_radius`` (|k(R_b)| = |T|).
    0 at C6 = 0, as ``F_lambda``; otherwise T = 0 raises
    ``SingularParameterError`` and C6/(iT) on the negative real axis
    ``BranchAmbiguityError``."""
    return complex(F_lambda(1j * effective_T(params), interaction))
