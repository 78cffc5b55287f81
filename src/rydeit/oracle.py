"""Independent brute-force references.

* exact two-atom master-equation steady state at a fixed separation
  (dense 81-dimensional Liouvillian, no closure or truncation),
* Richardson-style extraction of probe-power expansion coefficients,
* re-export of the independent-node-family radial quadrature.

These deliberately share no code with the generated Bloch systems: the
Hamiltonian and dissipator are written in the Schroedinger picture and the
steady state is obtained from the vectorized Liouvillian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import AtomParams, SingularParameterError, vdw_potential
from .quadrature import vdw_k_integral_reference as quadrature_reference

__all__ = [
    "TwoAtomState",
    "two_atom_steady_state",
    "order_extract",
    "quadrature_reference",
]


def _e(a: int, b: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[a - 1, b - 1] = 1.0
    return m


def _single_hamiltonian(p: AtomParams) -> np.ndarray:
    wp = p.omega_p
    return (
        -p.delta2 * _e(2, 2)
        - p.delta3 * _e(3, 3)
        + np.conj(wp) * _e(1, 2)
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


def _liouvillian(p: AtomParams, k: float) -> np.ndarray:
    """Vectorized generator for the two-atom density matrix (row-major vec)."""
    i3 = np.eye(3, dtype=complex)
    i9 = np.eye(9, dtype=complex)
    h1 = _single_hamiltonian(p)
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

    def __post_init__(self):
        r = self.rho
        if abs(np.trace(r) - 1.0) > 1e-8:
            raise ValueError(f"trace {np.trace(r)} != 1")
        if np.max(np.abs(r - r.conj().T)) > 1e-8:
            raise ValueError("density matrix not Hermitian")
        w = np.linalg.eigvalsh(0.5 * (r + r.conj().T))
        if w.min() < -1e-8:
            raise ValueError(f"density matrix not positive: min eig {w.min()}")

    def pair_average(self, l1, l2) -> complex:
        """<sigma^1_{ab} sigma^2_{mn}> = Tr[rho (E_ab x E_mn)]."""
        (a, b), (m, n) = l1, l2
        op = np.kron(_e(a, b), _e(m, n))
        return complex(np.trace(self.rho @ op))

    def single_average(self, label) -> complex:
        a, b = label
        op = np.kron(_e(a, b), np.eye(3))
        return complex(np.trace(self.rho @ op))


def two_atom_steady_state(params: AtomParams, r: float | None = None,
                          c6: float = 0.0, k: float | None = None) -> TwoAtomState:
    """Exact steady state of two driven atoms at separation r (or fixed k).

    Either pass ``r`` with ``c6`` (the interaction is k = -c6/r^6), or pass
    ``k`` directly.
    """
    if k is None:
        if r is None:
            raise ValueError("pass either r (with c6) or k")
        k = vdw_potential(r, c6)
    lv = _liouvillian(params, k)
    # steady state: Lv rho = 0 with unit trace, via least squares
    n = 81
    trace_row = np.zeros(n, dtype=complex)
    for i in range(9):
        trace_row[i * 9 + i] = 1.0
    a = np.vstack([lv, trace_row[None, :]])
    b = np.zeros(n + 1, dtype=complex)
    b[-1] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < n:
        raise SingularParameterError(
            f"two-atom Liouvillian rank-deficient (rank {rank} < {n})"
        )
    rho = sol.reshape(9, 9)
    resid = np.max(np.abs(lv @ sol))
    if resid > 1e-9:
        raise SingularParameterError(f"steady-state residual {resid} too large")
    return TwoAtomState(rho=rho, k=k)


def order_extract(f, order: int, base: float = 1e-2, levels: int = 4,
                  rtol: float = 1e-6):
    """Leading coefficient of f(x) = c x^order + O(x^(order+2)) as x -> 0.

    ``f`` maps a real probe amplitude x > 0 to a complex value whose
    expansion contains only every other power beyond the leading one (the
    probe-grading structure), so Richardson extrapolation runs in x^2.
    Returns (coefficient, error_estimate); raises if the extrapolation
    does not settle to ``rtol``.
    """
    xs = np.array([base / 2.0**j for j in range(levels)])
    g = np.array([f(x) / x**order for x in xs], dtype=complex)
    t = xs**2
    # Neville table in x^2; err compares the last two extrapolation columns
    tab = g.copy()
    prev_top = complex(g[-1])
    for m in range(1, levels):
        prev_top = complex(tab[-1])
        tab = tab[1:] + (tab[1:] - tab[:-1]) * t[m:] / (t[:-m] - t[m:])
    est = complex(tab[0])
    err = abs(est - prev_top)
    scale = max(abs(est), 1e-300)
    if err > 10 * rtol * scale:
        raise SingularParameterError(
            f"order-{order} extraction did not converge: estimate {est}, "
            f"spread {err}"
        )
    return est, err
