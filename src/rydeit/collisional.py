"""Self-consistent collisional integrals beyond the perturbative expansion.

The 36 two-body correlator equations split into 10 P rows (carrying the
diagonal interaction term k * P_m) and 26 Q rows. Eliminating Q by a Schur
complement gives k P = M P + Rtilde(V), where the reduced source Rtilde is
a quadratic polynomial in the four feedback integrals V13, V31, V23, V32
(the single-atom averages are themselves affine in V). Projecting on the
eigenrows of M^T turns the radial integral of each eigencomponent into the
closed form F(lambda), leaving a 4-dimensional complex fixed-point problem

    V = select( U^-1 [F(lambda_m) * (U Rtilde(V))_m] )

solved by damped iteration with probe-amplitude continuation and a Newton
fallback.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blochgen import (
    P_LABELS,
    PAIR_INDEX,
    PAIR_LABELS,
    Q_LABELS,
    V_LABELS,
    PairSystem,
    SingleAtomSystem,
    canonical_pair,
    generate_pair_equations,
    generate_single_atom_equations,
)
from .noninteracting import (
    SingleAtomState,
    _singular_single_atom,
    solve_single_system,
)
from .params import AtomParams, InteractionParams, SingularParameterError
from .perturbative import F_lambda
from .quadrature import vdw_k_integral

__all__ = [
    "PQSystem",
    "SpectralSystem",
    "CollisionalIntegrals",
    "ConvergenceError",
    "assemble_PQ",
    "schur_reduce",
    "spectral_decompose",
    "F_lambda",
    "F_lambda_quadrature",
    "solve_collisional_integrals",
    "solve_interacting",
    "solve_pair_at_k",
]

_COND_C_MAX = 1e12
_COND_U_MAX = 1e10
_EIG_RESID = 1e-10

_P_IDX = np.array([PAIR_INDEX[lab] for lab in P_LABELS])
_Q_IDX = np.array([PAIR_INDEX[lab] for lab in Q_LABELS])


def _block_positions(rows, cols):
    """Flat positions of the (rows, cols) block in the raveled pair matrix."""
    flat = np.ravel_multi_index(np.ix_(rows, cols), (len(PAIR_LABELS),) * 2)
    flat.flags.writeable = False
    return flat


# a, b, c, d blocks of the P/Q partition, gathered by one ``take`` each
_FLAT_PP = _block_positions(_P_IDX, _P_IDX)
_FLAT_PQ = _block_positions(_P_IDX, _Q_IDX)
_FLAT_QQ = _block_positions(_Q_IDX, _Q_IDX)
_FLAT_QP = _block_positions(_Q_IDX, _P_IDX)

# positions of the feedback correlators ss_{a3,33} = V_a3 in the P block
_FEEDBACK_COLS = tuple(
    P_LABELS.index(canonical_pair(lab, (3, 3))) for lab in V_LABELS
)


class ConvergenceError(RuntimeError):
    """The nonlinear solve for the collisional integrals did not converge."""


@dataclass(frozen=True)
class PQSystem:
    """Row-partitioned pair system at a fixed probe amplitude.

    P rows are rescaled so they read k P_m = a P + b Q + R_m; Q rows read
    0 = c Q + d P + Rn. ``sources`` returns (R, Rn) for given V from the
    operands fixed by the probe amplitude, evaluated once here: the
    single-atom C, S and B, and the pair Ssrc. ``feedback_cols``
    maps (V13, V31, V23, V32) onto P positions. The partition is
    structural, so the labels and positions are constants.
    """

    p_labels = P_LABELS
    q_labels = Q_LABELS
    feedback_cols = _FEEDBACK_COLS

    params: AtomParams
    a: np.ndarray  # 10 x 10
    b: np.ndarray  # 10 x 26
    c: np.ndarray  # 26 x 26
    d: np.ndarray  # 26 x 10
    p_rowscale: np.ndarray
    single_matrix: np.ndarray   # 8 x 8 C(wp, wpc)
    single_source: np.ndarray   # 8 S(wp, wpc)
    v_coupling: np.ndarray      # 8 x 4 B
    pair_source: np.ndarray     # 36 x 8 Ssrc(wp, wpc)
    _pair_system: object

    def _sigma(self, v4) -> np.ndarray:
        """The 8 averages solving 0 = C sigma + S + B V at this V."""
        try:
            return np.linalg.solve(
                self.single_matrix, -(self.single_source + self.v_coupling @ v4))
        except np.linalg.LinAlgError as exc:
            raise _singular_single_atom(self.params, exc) from exc

    def single_state(self, v4) -> SingleAtomState:
        """``_sigma`` as a ``SingleAtomState``."""
        return SingleAtomState(values=self._sigma(v4))

    def sources(self, v4) -> tuple[np.ndarray, np.ndarray]:
        """(R, Rn) source vectors; quadratic in the four components of v4."""
        v4 = np.asarray(v4, dtype=complex)
        sigma = self._sigma(v4)
        full = self.pair_source @ sigma + self._pair_system.ladder_source(v4, sigma)
        return self.p_rowscale * full[_P_IDX], full[_Q_IDX]


# At gamma33 = 0 the Q block is exactly singular: the {33,33} correlator
# equation degenerates to the source-free constraint ss_{23,33} = ss_{32,33}
# (the Rydberg pair state neither decays nor couples to the probe), and the
# degeneracy cascades through the doubly-excited sector. A tiny Rydberg
# decay restores invertibility; the induced relative error on observables
# is of the same order.
GAMMA33_REGULARIZATION = 1e-6


def regularize(params: AtomParams) -> AtomParams:
    """Replace an exactly zero gamma33 by the tiny regularizing value."""
    if params.gamma33 != 0.0:
        return params
    return replace(params, gamma33=GAMMA33_REGULARIZATION)


def assemble_PQ(params: AtomParams) -> PQSystem:
    """Partition the generated 36-row system into the P/Q block form and
    evaluate the single-atom and pair source operands at the probe."""
    return _assemble_PQ(params, params.omega_p, np.conj(params.omega_p),
                        *_generate(params))


def _generate(params: AtomParams) -> tuple[PairSystem, SingleAtomSystem]:
    """The generated pair and single-atom systems of ``params``. Only
    c0/a0 depend on the parameters, and not on the probe, so one generation
    serves every probe amplitude of a parameter set."""
    return generate_pair_equations(params), generate_single_atom_equations(params)


def _assemble_PQ(params: AtomParams, wp: complex, wpc: complex,
                 ps: PairSystem, sys8: SingleAtomSystem) -> PQSystem:
    """``assemble_PQ`` at (wp, wpc) from the generated systems ``ps`` and
    ``sys8`` of ``params``; wp = wpc = a continues it to complex a."""
    amat = ps.matrix(wp, wpc)
    # P row m reads 0 = (A ss)_m + kdiag_m k ss_m + src_m; divide by
    # -kdiag_m to isolate k ss_m on the left.
    rowscale = -1.0 / ps.kdiag[_P_IDX]
    return PQSystem(
        params=params,
        a=rowscale[:, None] * amat.take(_FLAT_PP),
        b=rowscale[:, None] * amat.take(_FLAT_PQ),
        c=amat.take(_FLAT_QQ),
        d=amat.take(_FLAT_QP),
        p_rowscale=rowscale,
        single_matrix=sys8.matrix(wp, wpc),
        single_source=sys8.source(wp, wpc),
        v_coupling=sys8.v_coupling,
        pair_source=ps.single_source_matrix(wp, wpc),
        _pair_system=ps,
    )


@dataclass(frozen=True)
class ReducedSystem:
    """k P = M P + Rtilde(V) with Q eliminated."""

    pq: PQSystem
    m: np.ndarray        # 10 x 10 Schur complement a - b c^-1 d
    alpha: np.ndarray    # -b c^-1

    def rtilde(self, v4) -> np.ndarray:
        r_p, r_q = self.pq.sources(v4)
        return r_p + self.alpha @ r_q


def schur_reduce(pq: PQSystem) -> ReducedSystem:
    """Eliminate the Q block: M = a - b c^-1 d."""
    cond = np.linalg.cond(pq.c)
    if not np.isfinite(cond) or cond > _COND_C_MAX:
        raise SingularParameterError(
            f"Q block ill-conditioned (cond={cond:.3g}) at omega_c="
            f"{pq.params.omega_c}, delta2={pq.params.delta2}, "
            f"delta3={pq.params.delta3}"
        )
    alpha = -np.linalg.solve(pq.c.T, pq.b.T).T
    return ReducedSystem(pq=pq, m=pq.a + alpha @ pq.d, alpha=alpha)


@dataclass(frozen=True)
class SpectralSystem:
    """Eigenrows of M^T and per-eigenvalue radial integrals."""

    reduced: ReducedSystem
    eigenvalues: np.ndarray  # 10
    u: np.ndarray            # 10 x 10, rows are eigenvectors of M^T
    cond_u: float

    def feedback_map(self, interaction: InteractionParams):
        """Return G(v4) = lu @ (f * (u @ rtilde(v4))), the spectral
        prediction for the feedback V: f = F(lambda) and lu, the feedback
        rows of U^-1, are built once per probe amplitude, and G composes
        them with ``ReducedSystem.rtilde``, the one evaluation of Rtilde(V).
        """
        f = np.array(
            [F_lambda(lam, interaction) for lam in self.eigenvalues]
        )
        u = self.u
        lu = np.linalg.inv(u)[_FEEDBACK_COLS, :]
        rtilde = self.reduced.rtilde
        return lambda v4: lu @ (f * (u @ rtilde(v4)))


def spectral_decompose(reduced: ReducedSystem) -> SpectralSystem:
    m = reduced.m
    w, vecs = np.linalg.eig(m.T)
    u = vecs.T
    # residual of M^T v = lambda v per eigenpair, scaled by ||M||
    resid = np.max(
        np.abs(m.T @ vecs - vecs * w[None, :])
    ) / max(np.linalg.norm(m), 1e-300)
    if resid > _EIG_RESID:
        raise SingularParameterError(
            f"eigendecomposition residual {resid:.3g} exceeds {_EIG_RESID}"
        )
    cond_u = np.linalg.cond(u)
    if not np.isfinite(cond_u) or cond_u > _COND_U_MAX:
        raise SingularParameterError(
            f"eigenvector matrix near-defective (cond={cond_u:.3g}); "
            "perturb detunings or decay rates slightly"
        )
    return SpectralSystem(
        reduced=reduced, eigenvalues=w, u=u, cond_u=float(cond_u)
    )


def F_lambda_quadrature(lam: complex, interaction: InteractionParams,
                        rel_tol: float = 1e-9) -> complex:
    """Same integral by direct radial quadrature (validation path)."""
    res = vdw_k_integral(
        lambda k: 1.0 / (k - lam), interaction.c6, interaction.eta,
        abs(lam), rel_tol=rel_tol,
    )
    return res.value


@dataclass(frozen=True)
class CollisionalIntegrals:
    """The four feedback integrals and solve diagnostics."""

    v13: complex
    v31: complex
    v23: complex
    v32: complex
    iterations: int
    residual: float
    continuation_steps: int
    used_newton: bool

    @property
    def v4(self) -> np.ndarray:
        return np.array([self.v13, self.v31, self.v23, self.v32])


_DAMPING = 0.5
_MAX_ITER_PER_STAGE = 100
_MIN_STEP = 1.0 / (8.0 * 50 * 50)  # of the target intensity
_MAX_STAGES = 16 * 50


def _damped_iterate(g, v0, tol):
    """Damped fixed-point iteration; returns (v, iters, resid, converged)."""
    v = np.asarray(v0, dtype=complex)
    prev_resid = np.inf
    keep = 1.0 - _DAMPING
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, _MAX_ITER_PER_STAGE + 1):
            gv = g(v)
            if not np.isfinite(gv).all():
                return v, it, np.inf, False
            resid = np.abs(gv - v).max() / max(np.abs(gv).max(), 1e-300)
            if resid < tol:
                return gv, it, resid, True
            if resid > 10.0 * prev_resid:
                return v, it, resid, False  # diverging, caller escalates
            prev_resid = min(prev_resid, resid)
            v = keep * v + _DAMPING * gv
    return v, _MAX_ITER_PER_STAGE, prev_resid, False


def _newton(g, v0, max_iter, tol):
    """Guarded Newton on the 8 real unknowns of V - G(V) = 0, FD Jacobian.

    Steps are backtracked until the residual norm decreases, which keeps
    the iteration on the root branch it was warm-started on instead of
    jumping to a distant (unphysical) solution of the polynomial system.
    """

    def to_real(v):
        return np.concatenate([v.real, v.imag])

    def to_complex(x):
        return x[:4] + 1j * x[4:]

    def res(x):
        v = to_complex(x)
        with np.errstate(over="ignore", invalid="ignore"):
            out = to_real(v - g(v))
        return np.where(np.isfinite(out), out, 1e300)

    x = to_real(np.asarray(v0, dtype=complex))
    r = res(x)
    for it in range(1, max_iter + 1):
        scale = max(np.max(np.abs(x)), 1.0)
        rnorm = np.linalg.norm(r)
        if np.max(np.abs(r)) < tol * scale:
            return to_complex(x), it, float(np.max(np.abs(r)) / scale), True
        jac = np.empty((8, 8))
        for j in range(8):
            h = 1e-7 * max(abs(x[j]), 1e-3)
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (res(xp) - r) / h
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return to_complex(x), it, float(np.max(np.abs(r)) / scale), False
        alpha = 1.0
        while alpha > 1e-4:
            xn = x + alpha * dx
            rn = res(xn)
            if np.linalg.norm(rn) < (1.0 - 0.25 * alpha) * rnorm:
                break
            alpha *= 0.5
        else:
            return to_complex(x), it, float(np.max(np.abs(r)) / scale), False
        x, r = xn, rn
    scale = max(np.max(np.abs(x)), 1.0)
    return to_complex(x), max_iter, float(np.max(np.abs(r)) / scale), False


def solve_collisional_integrals(
    params: AtomParams,
    interaction: InteractionParams,
    tol: float = 1e-10,
) -> CollisionalIntegrals:
    """Solve the nonlinear self-consistency V = G(V) for V13, V31, V23, V32.

    The probe intensity is continued from 0 (V = 0, the non-interacting
    root) to its target in stages of at most a quarter, each warm-started
    by a secant predictor and building G once. The stages differ only in
    the probe, so the equations are generated once per solve. A stage runs
    damped fixed-point iteration (``_DAMPING``, at most
    ``_MAX_ITER_PER_STAGE`` iterations), then finite-difference Newton; it
    is accepted on a conjugation-symmetric, physical root, else the step
    halves. This pins the physical root. ``ConvergenceError`` is raised when the step falls
    below ``_MIN_STEP`` = 1/(8*50^2) or after more than ``_MAX_STAGES`` =
    16*50 stages.
    """
    wp = params.omega_p
    if interaction.c6 == 0.0 or wp == 0:
        return CollisionalIntegrals(0j, 0j, 0j, 0j, 0, 0.0, 0, False)
    params = regularize(params)
    systems = _generate(params)

    def stage_at(x):
        # x is the intensity fraction; amplitudes scale as sqrt(x)
        p = params.with_omega_p(wp * np.sqrt(x))
        pq = _assemble_PQ(p, p.omega_p, np.conj(p.omega_p), *systems)
        spec = spectral_decompose(schur_reduce(pq))
        return spec.feedback_map(interaction), spec.reduced.pq

    def root_ok(v, pq):
        # the physical branch is conjugation-symmetric: V31 = conj(V13),
        # V32 = conj(V23); spurious polynomial roots are not, and they
        # typically reconstruct unphysical populations
        scale = max(np.max(np.abs(v)), 1e-300)
        dev = max(abs(v[1] - np.conj(v[0])), abs(v[3] - np.conj(v[2])))
        if dev > max(1e-3 * scale, 1e-13):
            return False
        try:
            pq.single_state(v).check_physical(tol=1e-6)
        except ValueError:
            return False
        return True

    total_iters = 0
    used_newton = False
    steps = 0
    v = np.zeros(4, dtype=complex)
    history = [(0.0, v)]  # solved (x, V) pairs for secant prediction
    x = 0.0
    dx = 0.25
    while x < 1.0 and steps <= _MAX_STAGES:
        x_try = min(1.0, x + dx)
        # secant warm start from the last two accepted points
        if len(history) >= 2:
            (x0, v0), (x1, v1) = history[-2], history[-1]
            v_pred = v1 + (v1 - v0) * (x_try - x1) / (x1 - x0)
        else:
            v_pred = history[-1][1]
        g, pq = stage_at(x_try)
        v_new, it, resid, conv = _damped_iterate(g, v_pred, tol)
        total_iters += it
        if not conv:
            v_new, it, resid, conv = _newton(g, v_pred, max_iter=50, tol=tol)
            total_iters += it
            used_newton = True
        steps += 1
        if conv and root_ok(v_new, pq):
            x = x_try
            v = v_new
            history.append((x, v))
            if it <= 12:
                dx = min(2.0 * dx, 0.25)
        else:
            dx *= 0.5
            if dx < _MIN_STEP:
                raise ConvergenceError(
                    f"collisional solve stalled at intensity fraction {x:.4g} "
                    f"(step {dx:.2g}) after {total_iters} iterations; "
                    f"last residual {resid:.3g}"
                )
    if x < 1.0:
        raise ConvergenceError(
            f"collisional solve failed after {total_iters} iterations; "
            f"reached intensity fraction {x:.4g}, last residual {resid:.3g}"
        )
    return CollisionalIntegrals(
        v13=complex(v[0]), v31=complex(v[1]),
        v23=complex(v[2]), v32=complex(v[3]),
        iterations=total_iters, residual=float(resid),
        continuation_steps=steps, used_newton=used_newton,
    )


def solve_interacting(
    params: AtomParams, interaction: InteractionParams, tol: float = 1e-10
) -> tuple[SingleAtomState, CollisionalIntegrals]:
    """High-level entry: solve V self-consistently, then the averages."""
    v = solve_collisional_integrals(params, interaction, tol=tol)
    return solve_single_system(params, v4=v.v4), v


def solve_pair_at_k(params: AtomParams, k: float, v4=None) -> dict:
    """Direct 36x36 solve of the pair system at fixed interaction k.

    Validation path for the Schur/spectral machinery; returns all 36
    correlators. ``v4`` supplies the ladder feedback integrals (default 0).
    """
    ps = generate_pair_equations(params)
    v4 = np.zeros(4, dtype=complex) if v4 is None else np.asarray(v4, complex)
    sigma = solve_single_system(params, v4=v4).values
    wp = params.omega_p
    mat = ps.matrix(wp, np.conj(wp)) + k * np.diag(ps.kdiag)
    rhs = ps.single_source_matrix(wp, np.conj(wp)) @ sigma
    rhs = rhs + ps.ladder_source(v4, sigma)
    try:
        sol = np.linalg.solve(mat, -rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularParameterError(f"singular pair system at k={k}") from exc
    return dict(zip(PAIR_LABELS, sol))
