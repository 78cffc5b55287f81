"""Independent brute-force references.

* exact two-atom master-equation steady state at a fixed pair interaction
  (dense 81-dimensional Liouvillian, no closure or truncation),
* weak-probe expansion coefficients read off a contour in the complex
  probe amplitude (``_contour_coefficients``),
* re-export of the independent-node-family radial quadrature.

These deliberately share no code with the generated Bloch systems: the
Hamiltonian and dissipator are written in the Schroedinger picture and the
steady state is obtained from the vectorized Liouvillian. The Hamiltonian
takes (wp, wpc) as independent inputs: wpc = conj(wp) is physical, and
wp = wpc = a continues every average analytically to complex a.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import AtomParams, SingularParameterError
from .quadrature import vdw_k_integral_reference as quadrature_reference

__all__ = [
    "TwoAtomState",
    "two_atom_steady_state",
    "quadrature_reference",
]


def _e(a: int, b: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[a - 1, b - 1] = 1.0
    return m


def _single_hamiltonian(p: AtomParams, wp: complex, wpc: complex) -> np.ndarray:
    return (
        -p.delta2 * _e(2, 2)
        - p.delta3 * _e(3, 3)
        + wpc * _e(1, 2)
        + wp * _e(2, 1)
        + p.omega_c * (_e(2, 3) + _e(3, 2))
    )


def _jump_operators(p: AtomParams) -> list[np.ndarray]:
    """Lindblad operators reproducing the Bloch-equation decay rates.

    Population decay 2->1 and 3->1 plus pure dephasing on each level chosen
    so the three coherence decay rates gamma12, gamma13, gamma23 come out
    right: with d_ab the dephasing part of gamma_ab, level n dephases at
    2*x_n with x_n solving d_ab = x_a + x_b.
    """
    d12 = p.gamma12 - p.gamma22 / 2.0
    d13 = p.gamma13 - p.gamma33 / 2.0
    d23 = p.gamma23 - (p.gamma22 + p.gamma33) / 2.0
    x1 = (d12 + d13 - d23) / 2.0
    x2 = (d12 + d23 - d13) / 2.0
    x3 = (d13 + d23 - d12) / 2.0
    for name, x in (("level-1", x1), ("level-2", x2), ("level-3", x3)):
        if x < -1e-12:
            raise SingularParameterError(
                f"coherence decay rates are not realizable by dephasing: "
                f"{name} rate {x} < 0"
            )
    ops = []
    if p.gamma22 > 0:
        ops.append(np.sqrt(p.gamma22) * _e(1, 2))
    if p.gamma33 > 0:
        ops.append(np.sqrt(p.gamma33) * _e(1, 3))
    for n, x in ((1, x1), (2, x2), (3, x3)):
        if x > 1e-15:
            ops.append(np.sqrt(2.0 * x) * _e(n, n))
    return ops


def _liouvillian(p: AtomParams, k: float, wp: complex, wpc: complex) -> np.ndarray:
    """Vectorized generator for the two-atom density matrix (row-major vec)."""
    i3 = np.eye(3, dtype=complex)
    i9 = np.eye(9, dtype=complex)
    h1 = _single_hamiltonian(p, wp, wpc)
    h = np.kron(h1, i3) + np.kron(i3, h1) + k * np.kron(_e(3, 3), _e(3, 3))

    def left(a):
        return np.kron(a, i9)

    def right(a):
        return np.kron(i9, a.T)

    lv = -1j * (left(h) - right(h))
    jumps = [np.kron(c, i3) for c in _jump_operators(p)]
    jumps += [np.kron(i3, c) for c in _jump_operators(p)]
    for c in jumps:
        cd = c.conj().T
        lv += np.kron(c, c.conj()) - 0.5 * (left(cd @ c) + right(cd @ c))
    return lv


@dataclass(frozen=True)
class TwoAtomState:
    """Exact 9x9 two-atom density matrix and derived averages."""

    rho: np.ndarray
    k: float

    def pair_average(self, l1, l2) -> complex:
        """<sigma^1_{ab} sigma^2_{mn}> = Tr[rho (E_ab x E_mn)]."""
        (a, b), (m, n) = l1, l2
        return complex(np.trace(self.rho @ np.kron(_e(a, b), _e(m, n))))

    def single_average(self, label) -> complex:
        return complex(np.trace(self.rho @ np.kron(_e(*label), np.eye(3))))


def _steady_state(params: AtomParams, k: float, wp: complex, wpc: complex) -> TwoAtomState:
    """Unit-trace steady state at any (wp, wpc); raises on a rank-deficient
    Liouvillian, a residual above 1e-9 or a trace off by more than 1e-8."""
    lv = _liouvillian(params, k, wp, wpc)
    # steady state: Lv rho = 0 with unit trace (the appended row), via least squares
    n = 81
    a = np.vstack([lv, np.eye(9, dtype=complex).reshape(1, n)])
    sol, _, rank, _ = np.linalg.lstsq(a, np.eye(n + 1, dtype=complex)[-1], rcond=None)
    if rank < n:
        raise SingularParameterError(
            f"two-atom Liouvillian rank-deficient (rank {rank} < {n})"
        )
    resid = np.max(np.abs(lv @ sol))
    if resid > 1e-9:
        raise SingularParameterError(f"steady-state residual {resid} too large")
    rho = sol.reshape(9, 9)
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise ValueError(f"trace {np.trace(rho)} != 1")
    return TwoAtomState(rho=rho, k=k)


def two_atom_steady_state(params: AtomParams, k: float) -> TwoAtomState:
    """Exact, Hermitian and positive steady state of two driven atoms with
    pair interaction k (k = -c6/r^6 at separation r: ``vdw_potential``)."""
    wp = params.omega_p
    st = _steady_state(params, k, wp, np.conj(wp))
    if np.max(np.abs(st.rho - st.rho.conj().T)) > 1e-8:
        raise ValueError("density matrix not Hermitian")
    w = np.linalg.eigvalsh(0.5 * (st.rho + st.rho.conj().T))
    if w.min() < -1e-8:
        raise ValueError(f"density matrix not positive: min eig {w.min()}")
    return st


def _contour_coefficients(f, grade, r: float, n: int):
    """Taylor coefficients c[j] (j < n) of f about a = 0 from the trapezoidal
    rule at the n nodes r exp(2 pi i j/n), called in order (a stateful f can
    carry a root round |a| = r); exact up to the aliased c_{j+n} r^n
    (Trefethen & Weideman, SIAM Review 56 (2014) 385). f(a) returns a value
    or a 1-D array; value i holds only the powers grade_i, grade_i + 2, ...
    (grade: an int or one per value); n is even, so aliasing keeps parity.
    Also returns wrong: the largest wrong-grade mode |c_j| r^j over the
    largest right-grade one."""
    nodes = r * np.exp(2j * np.pi * np.arange(n) / n)
    modes = np.fft.fft([f(a) for a in nodes], axis=0) / n  # c_j r^j
    j = np.arange(n).reshape((n,) + (1,) * (modes.ndim - 1))
    off = (j < grade) | ((j - grade) % 2 == 1)
    size = np.abs(modes)
    wrong = np.where(off, size, 0.0).max(axis=0) / np.where(off, 0.0, size).max(axis=0)
    return modes / r**j, wrong
