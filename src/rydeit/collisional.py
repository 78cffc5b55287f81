"""Self-consistent collisional integrals beyond the perturbative expansion.

The 36 two-body correlator equations split into 10 P rows (carrying the
diagonal interaction term k * P_m) and 26 Q rows. Eliminating Q by a Schur
complement gives k P = M P + Rtilde(V), where the reduced source Rtilde is
a quadratic polynomial in the four feedback integrals V13, V31, V23, V32
(the single-atom averages are themselves affine in V: ``noninteracting``'s
one solve, ``solve_sigma``). Projecting on the eigenrows of M^T turns the
radial integral of each eigencomponent into the closed form F(lambda),
leaving a 4-dimensional complex fixed-point problem

    V = select( U^-1 [F(lambda_m) * (U Rtilde(V))_m] )

solved by damped iteration with probe-amplitude continuation and a Newton
fallback. One function builds a stage's G, ``feedback_map``: the P/Q
partition (``assemble_PQ``), the Schur complement (``schur_reduce``), the
eigenrows of M^T (``spectral_decompose``), then the ``FeedbackMap``.

A scan's finite-probe points are solved in lockstep
(``solve_collisional_column``): each keeps its own continuation, and a
round builds the stages of all unfinished points as one stack over their
``params.delta3_column`` and evaluates their G as one stack. Each stacked
operation treats a point's slice as it treats that point alone (the same
BLAS kernel on the same memory order, the same scalar arithmetic), so
every digit a point outputs does not depend on the other points of its
stack. ``solve_collisional_integrals`` is the column solve of one point.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .blochgen import (
    _AM,
    _AP,
    _K36,
    _KDIAG,
    _SRC0,
    _SRCM,
    _SRCP,
    P_LABELS,
    PAIR_INDEX,
    PAIR_LABELS,
    Q_LABELS,
    V_LABELS,
    a0_blocks,
    canonical_pair,
    generate_pair_equations,
    ladder_source,
)
from .noninteracting import (
    SingleAtomState,
    _matvec,
    single_atom_operands,
    solve_sigma,
    solve_single_system,
    unphysical,
)
from .params import AtomParams, InteractionParams, SingularParameterError, delta3_column, stacked
from .perturbative import BranchAmbiguityError, F_lambda
from .quadrature import vdw_k_integral

__all__ = [
    "PQSystem",
    "FeedbackMap",
    "CollisionalIntegrals",
    "ConvergenceError",
    "assemble_PQ",
    "feedback_map",
    "schur_reduce",
    "spectral_decompose",
    "F_lambda",
    "F_lambda_quadrature",
    "solve_collisional_column",
    "solve_collisional_integrals",
    "solve_interacting",
    "solve_pair_at_k",
]

_COND_C_MAX = 1e12
_COND_U_MAX = 1e10
_EIG_RESID = 1e-10

_P_IDX = np.array([PAIR_INDEX[lab] for lab in P_LABELS])
_Q_IDX = np.array([PAIR_INDEX[lab] for lab in Q_LABELS])
# P row m reads 0 = (A ss)_m + kdiag_m k ss_m + src_m; dividing by
# -kdiag_m isolates k ss_m on the left
_P_ROWSCALE = -1.0 / _KDIAG[_P_IDX]

# a, b, c, d blocks of the P/Q partition: ap's and am's as constants; a0's
# a and c gathered from K36, b and d (no diagonal entry) omega_c K36's
_PQ_BLOCKS = ((_P_IDX, _P_IDX), (_P_IDX, _Q_IDX), (_Q_IDX, _Q_IDX), (_Q_IDX, _P_IDX))
_PROBE_PQ_BLOCKS = tuple((_AP[np.ix_(*rc)], _AM[np.ix_(*rc)]) for rc in _PQ_BLOCKS)
_A0_PQ_DIAG = a0_blocks(_P_IDX, _Q_IDX)
_K36_PQ_OFF = (_K36[np.ix_(_P_IDX, _Q_IDX)], _K36[np.ix_(_Q_IDX, _P_IDX)])

# positions of the feedback correlators ss_{a3,33} = V_a3 in the P block
_FEEDBACK_COLS = tuple(
    P_LABELS.index(canonical_pair(lab, (3, 3))) for lab in V_LABELS
)


class ConvergenceError(RuntimeError):
    """The nonlinear solve for the collisional integrals did not converge."""


# the typed failures of one point's solve; anything else is a programming
# error and propagates
_SOLVE_ERRORS = (ConvergenceError, SingularParameterError, BranchAmbiguityError)


def _bad_row(bad) -> int | None:
    """The first row flagged in ``bad`` (a bool, or one per stacked row)."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if len(hits) else None


@dataclass(frozen=True)
class PQSystem:
    """Row-partitioned pair system at a fixed probe amplitude.

    P rows are rescaled so they read k P_m = a P + b Q + R_m; Q rows read
    0 = c Q + d P + Rn. The sources (R, Rn) are quadratic in V through the
    pair Ssrc and the single-atom sigma(V) (``FeedbackMap.rtilde``).

    A stack of systems, one per point of a lockstep solve, has a leading
    axis on every array; ``params`` is then their ``delta3_column``.
    """

    params: object
    a: np.ndarray               # 10 x 10
    b: np.ndarray               # 10 x 26
    c: np.ndarray               # 26 x 26
    d: np.ndarray               # 26 x 10
    pair_source: np.ndarray     # 36 x 8 Ssrc(wp, wpc)


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


def assemble_PQ(params, wp, wpc) -> PQSystem:
    """The P/Q block form of the pair system of ``params`` at (wp, wpc),
    and the pair source there; wp = wpc = a continues it to complex a.
    Only a0 depends on ``params``: its diagonal P and Q blocks are gathered
    from K36 (``blochgen``), its off-diagonal ones are omega_c times
    K36's, shared by a stack, and every probe part is a read-only constant.

    For a stack, ``params`` is a ``delta3_column``, and wp and wpc are
    arrays with one amplitude per row."""
    w = np.asarray(wp)[..., None, None]
    wc = np.asarray(wpc)[..., None, None]

    def block(probe, a0):
        # the block of a0 + w ap + wc am, from the same block of each part,
        # summed in place
        ap, am = probe
        out = w * ap
        out += a0
        out += wc * am
        return out

    a0, c0 = _A0_PQ_DIAG(params)
    # + 0.0 as in the gather, which adds the zero off-diagonal of diag(g)
    b0, d0 = (params.omega_c * k + 0.0 for k in _K36_PQ_OFF)
    a, b, c, d = map(block, _PROBE_PQ_BLOCKS, (a0, b0, c0, d0))
    return PQSystem(
        params=params, a=_P_ROWSCALE[:, None] * a, b=_P_ROWSCALE[:, None] * b, c=c, d=d,
        pair_source=_SRC0 + w * _SRCP + wc * _SRCM,
    )


def schur_reduce(pq: PQSystem) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the Q block: (M, alpha) with M = a - b c^-1 d the Schur
    complement and alpha = -b c^-1, so k P = M P + R + alpha Rn. Over a
    stack, an ill-conditioned Q block raises for its first point."""
    cond = np.linalg.cond(pq.c)
    row = _bad_row(~np.isfinite(cond) | (cond > _COND_C_MAX))
    if row is not None:
        p = pq.params
        raise SingularParameterError(
            f"Q block ill-conditioned (cond={np.ravel(cond)[row]:.3g}) at "
            f"omega_c={p.omega_c}, delta2={p.delta2}, delta3={np.ravel(p.delta3).tolist()[row]}"
        )
    # -b c^-1 as the transpose of a C-ordered solve, as each point alone has it
    alpha = np.swapaxes(
        -np.linalg.solve(np.swapaxes(pq.c, -1, -2), np.swapaxes(pq.b, -1, -2)),
        -1, -2)
    return pq.a + alpha @ pq.d, alpha


def spectral_decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose M^T: (eigenvalues, U), U's rows its eigenvectors.
    Over a stack, a failed check raises for its first point."""
    m_t = np.swapaxes(m, -1, -2)
    w, vecs = np.linalg.eig(m_t)
    u = np.swapaxes(vecs, -1, -2)
    # residual of M^T v = lambda v per eigenpair, scaled by ||M||
    norm = np.linalg.norm(m, axis=(-2, -1))
    resid = np.abs(m_t @ vecs - vecs * w[..., None, :]).max(axis=(-2, -1)) / np.maximum(
        norm, 1e-300)
    row = _bad_row(resid > _EIG_RESID)
    if row is not None:
        raise SingularParameterError(
            f"eigendecomposition residual {np.ravel(resid)[row]:.3g} exceeds {_EIG_RESID}"
        )
    cond_u = np.linalg.cond(u)
    row = _bad_row(~np.isfinite(cond_u) | (cond_u > _COND_U_MAX))
    if row is not None:
        raise SingularParameterError(
            f"eigenvector matrix near-defective (cond={np.ravel(cond_u)[row]:.3g}); "
            "perturb detunings or decay rates slightly"
        )
    return w, u


@dataclass(frozen=True)
class FeedbackMap:
    """G(v4) = lu @ (f * (u @ rtilde(v4))), the spectral prediction for
    the feedback V. It keeps the source operands (params, the single-atom
    (C, S) of ``single_atom_operands``, the pair Ssrc), not the P/Q blocks.
    Over a stack, one call evaluates every point's G at its row of v4; a
    leading batch of v4 broadcasts."""

    params: object
    single: tuple
    pair_source: np.ndarray
    alpha: np.ndarray
    u: np.ndarray
    f: np.ndarray
    lu: np.ndarray

    def sigma(self, v4) -> np.ndarray:
        """``solve_sigma`` at this V, one row per point of a stack. A
        singular C raises ``SingularParameterError``."""
        return solve_sigma(self.params, self.single, v4)

    def rtilde(self, v4) -> np.ndarray:
        """Rtilde(V) = R + alpha Rn, the reduced source; the sources R, Rn
        are quadratic in the four components of v4."""
        v4 = np.asarray(v4, dtype=complex)
        sigma = self.sigma(v4)
        full = _matvec(self.pair_source, sigma) + ladder_source(v4, sigma)
        return _P_ROWSCALE * full[..., _P_IDX] + _matvec(self.alpha, full[..., _Q_IDX])

    def __call__(self, v4) -> np.ndarray:
        return _matvec(self.lu, self.f * _matvec(self.u, self.rtilde(v4)))

    def rows(self, idx) -> FeedbackMap:
        """The stacked map at ``idx`` (a slice, an index array, or one index)
        of its leading axis. Indexing the leading axis keeps each matrix's
        memory order, which BLAS picks its kernel, and so its rounding, by;
        its params slice the parent's column, unvalidated."""
        return FeedbackMap(
            params=SimpleNamespace(
                **{**vars(self.params), "delta3": np.atleast_1d(self.params.delta3[idx])}),
            single=tuple(op[idx] for op in self.single), pair_source=self.pair_source[idx],
            alpha=self.alpha[idx], u=self.u[idx], f=self.f[idx], lu=self.lu[idx])


def feedback_map(params, wp, wpc, interaction: InteractionParams) -> FeedbackMap:
    """The stage's G of ``params`` at (wp, wpc) (stacked as for
    ``assemble_PQ``): ``assemble_PQ`` -> ``schur_reduce`` ->
    ``spectral_decompose``, then f = F(lambda), one ``F_lambda`` over the
    eigenvalues, and lu, the feedback rows of U^-1, once per probe
    amplitude."""
    pq = assemble_PQ(params, wp, wpc)
    m, alpha = schur_reduce(pq)
    w, u = spectral_decompose(m)
    f = F_lambda(w, interaction)
    lu = np.ascontiguousarray(np.linalg.inv(u)[..., _FEEDBACK_COLS, :])
    return FeedbackMap(
        params=params, single=single_atom_operands(params, wp, wpc),
        pair_source=pq.pair_source, alpha=alpha, u=u, f=f, lu=lu)


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


# V = 0 with no iteration: the root without interactions or probe
_NO_FEEDBACK = CollisionalIntegrals(0j, 0j, 0j, 0j, 0, 0.0, 0, False)

_DAMPING = 0.5
_MAX_ITER_PER_STAGE = 100
_MIN_STEP = 1.0 / (8.0 * 50 * 50)  # of the target intensity
_MAX_STAGES = 16 * 50
_NEWTON_MAX_ITER = 50


def _damped_iterate(g: FeedbackMap, v0, tol):
    """Damped fixed-point iteration of every point of the stacked map ``g``
    from its row of ``v0``, with one stacked G evaluation per iteration.
    A point stops when it converges, diverges or its G goes non-finite,
    and stopped points leave the stack. Returns (v, iters, resid,
    converged = resid < tol), one row or entry per point."""
    v = np.array(v0, dtype=complex)
    n = len(v)
    iters = np.full(n, _MAX_ITER_PER_STAGE)
    resid = np.full(n, np.inf)  # the smallest residual yet, until a point stops
    live = np.arange(n)
    g_live = g
    keep = 1.0 - _DAMPING
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, _MAX_ITER_PER_STAGE + 1):
            v_live = v[live]
            gv = g_live(v_live)
            finite = np.isfinite(gv).all(axis=-1)
            r = np.abs(gv - v_live).max(axis=-1) / np.maximum(np.abs(gv).max(axis=-1), 1e-300)
            r[~finite] = np.inf
            conv = r < tol
            stop = ~finite | conv | (r > 10.0 * resid[live])  # diverging: caller escalates
            go = ~stop
            v[live[conv]] = gv[conv]
            v[live[go]] = keep * v_live[go] + _DAMPING * gv[go]
            resid[live] = np.where(stop, r, np.minimum(resid[live], r))
            iters[live[stop]] = it
            if stop.any():
                live = live[go]
                if not len(live):
                    break
                g_live = g.rows(live)
    return v, iters, resid, resid < tol


def _newton(g, v0, tol):
    """Guarded Newton on the 8 real unknowns of V - G(V) = 0 of an
    unstacked G, FD Jacobian from one G call at the 8 perturbed vectors.

    Steps are backtracked until the residual norm decreases, which keeps
    the iteration on the root branch it was warm-started on instead of
    jumping to a distant (unphysical) solution of the polynomial system.
    A non-finite iterate or residual stops it unconverged.
    """

    def to_real(v):
        return np.concatenate([v.real, v.imag], axis=-1)

    def to_complex(x):
        return x[..., :4] + 1j * x[..., 4:]

    def res(x):
        v = to_complex(x)
        with np.errstate(over="ignore", invalid="ignore"):
            out = to_real(v - g(v))
        return np.where(np.isfinite(out), out, 1e300)

    x = to_real(np.asarray(v0, dtype=complex))
    r = res(x)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if not (np.isfinite(x).all() and np.isfinite(r).all()):
            return to_complex(x), it, np.inf, False
        scale = max(np.max(np.abs(x)), 1.0)
        rnorm = np.linalg.norm(r)
        if np.max(np.abs(r)) < tol * scale:
            return to_complex(x), it, float(np.max(np.abs(r)) / scale), True
        h = 1e-7 * np.maximum(np.abs(x), 1e-3)
        xp = np.tile(x, (8, 1))  # row j: x with x_j + h_j
        np.fill_diagonal(xp, x + h)
        jac = ((res(xp) - r) / h[:, None]).T
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
    return to_complex(x), _NEWTON_MAX_ITER, float(np.max(np.abs(r)) / scale), False


def _physical_roots(v, conv, g: FeedbackMap) -> np.ndarray:
    """Whether each row of ``v``, converged where ``conv``, is on the
    physical branch at its stage of the stacked ``g``. That branch is
    conjugation-symmetric: V31 = conj(V13), V32 = conj(V23); spurious
    polynomial roots are not, and they typically reconstruct unphysical
    populations. The σ solve takes V = 0 off the finite, symmetric rows; it
    cannot raise, as the stage's first damped iteration solved σ with the
    same C (whose singularity does not depend on V) at every row."""
    scale = np.maximum(np.abs(v).max(axis=-1), 1e-300)
    dev = np.maximum(np.abs(v[:, 1] - np.conj(v[:, 0])), np.abs(v[:, 3] - np.conj(v[:, 2])))
    ok = conv & np.isfinite(v).all(axis=-1) & ~(dev > np.maximum(1e-3 * scale, 1e-13))
    sigma = g.sigma(np.where(ok[:, None], v, 0))
    return ok & ~unphysical(sigma, tol=1e-6).any(axis=-1)


@dataclass
class _Continuation:
    """One point's intensity continuation from 0 to its probe: the solved
    intensity fraction ``x``, the step ``dx``, the last two solved (x, V)
    for the secant predictor, and the counts so far."""

    params: AtomParams  # regularized
    x: float = 0.0
    dx: float = 0.25
    steps: int = 0
    iterations: int = 0
    used_newton: bool = False
    resid: float = np.inf
    solved: list = field(default_factory=lambda: [(0.0, np.zeros(4, dtype=complex))])

    @property
    def running(self) -> bool:
        return self.x < 1.0 and self.steps <= _MAX_STAGES

    def plan(self) -> tuple:
        """(x, V predicted at x) of the next stage, from the secant through
        the last two solved points."""
        x_try = min(1.0, self.x + self.dx)
        if len(self.solved) < 2:
            return x_try, self.solved[-1][1]
        (x0, v0), (x1, v1) = self.solved
        return x_try, v1 + (v1 - v0) * (x_try - x1) / (x1 - x0)

    def advance(self, x_try, v_new, its, resid, accepted) -> None:
        """Finish the stage at ``x_try``: count the iterations of its phases
        (``its``: damped iteration, then Newton if that failed), then accept
        ``v_new`` if it is a converged physical root, else halve the step."""
        self.iterations += sum(its)
        self.used_newton |= len(its) > 1
        self.steps += 1
        self.resid = resid
        if accepted:
            self.x = x_try
            self.solved = [self.solved[-1], (x_try, v_new)]
            if its[-1] <= 12:
                self.dx = min(2.0 * self.dx, 0.25)
        else:
            self.dx *= 0.5
            if self.dx < _MIN_STEP:
                raise ConvergenceError(
                    f"collisional solve stalled at intensity fraction {self.x:.4g} "
                    f"(step {self.dx:.2g}) after {self.iterations} iterations; "
                    f"last residual {self.resid:.3g}"
                )

    def result(self) -> CollisionalIntegrals:
        if self.x < 1.0:
            raise ConvergenceError(
                f"collisional solve failed after {self.iterations} iterations; "
                f"reached intensity fraction {self.x:.4g}, last residual {self.resid:.3g}"
            )
        v = self.solved[-1][1]
        return CollisionalIntegrals(
            v13=complex(v[0]), v31=complex(v[1]),
            v23=complex(v[2]), v32=complex(v[3]),
            iterations=self.iterations, residual=float(self.resid),
            continuation_steps=self.steps, used_newton=self.used_newton,
        )


def _trial(conts: list, interaction: InteractionParams, tol) -> list:
    """``advance``'s arguments for the next stage of each of ``conts``, from
    one stacked trial that changes none of them: the stages at the planned
    intensities over one ``delta3_column``, the damped iterations, Newton on
    the rows where that failed, and the root test."""
    plans = [cont.plan() for cont in conts]
    # amplitudes scale as sqrt(x), x the intensity fraction
    amps = [cont.params.omega_p * np.sqrt(x) for cont, (x, _) in zip(conts, plans)]
    g = feedback_map(delta3_column(conts[0].params, [cont.params.delta3 for cont in conts]),
                     np.array(amps, dtype=complex),
                     np.array([np.conj(a) for a in amps], dtype=complex), interaction)
    v, iters, resid, conv = _damped_iterate(g, [v_pred for _, v_pred in plans], tol)
    its = [[int(it)] for it in iters]
    for r in np.flatnonzero(~conv):
        v[r], it, resid[r], conv[r] = _newton(g.rows(r), plans[r][1], tol)
        its[r].append(it)
    accepted = _physical_roots(v, conv, g)
    return [(x, v[r], its[r], resid[r], accepted[r]) for r, (x, _) in enumerate(plans)]


def _round(live: dict, interaction: InteractionParams, tol) -> dict:
    """Take every continuation of ``live`` (index: continuation) one stage
    further; returns the points that finished, each with its result or
    typed error. A typed error in the stacked trial is each point's own
    (``params.stacked``) and changes no continuation."""
    trials = stacked(lambda conts: _trial(conts, interaction, tol), list(live.values()),
                     _SOLVE_ERRORS)
    finished = {}
    for (i, cont), trial in zip(live.items(), trials):
        if isinstance(trial, Exception):
            finished[i] = trial
            continue
        try:
            cont.advance(*trial)
            if not cont.running:
                finished[i] = cont.result()
        except ConvergenceError as exc:
            finished[i] = exc
    return finished


def solve_collisional_column(points, interaction: InteractionParams,
                             tol: float = 1e-10) -> list:
    """Solve V = G(V) at every parameter set in ``points``, in lockstep.

    Returns one entry per point: its ``CollisionalIntegrals``, or the typed
    error (``ConvergenceError``, ``SingularParameterError``,
    ``BranchAmbiguityError``) its solve raised. Either is the one the point
    gets when solved alone, bit for bit and counts included.

    Each point runs the continuation of ``solve_collisional_integrals``.
    A round takes every unfinished point one stage further. It builds their
    stage operators as one stack and runs their damped iterations with one
    stacked G per iteration (``_damped_iterate``), runs Newton on the rows
    where that failed and one stacked root test. A typed error in that
    stacked trial sends the round point by point (``params.stacked``), so
    only the failing point fails, with its own error. Every stage is built
    over one ``delta3_column``, so the points may differ only in omega_p
    and delta3; other differences raise ``ValueError``.
    """
    shared = [{**vars(params), "omega_p": 0, "delta3": 0} for params in points]
    if any(fields != shared[0] for fields in shared):
        raise ValueError("points of a column may differ only in omega_p and delta3")
    out = [None] * len(points)
    live = {}
    for i, params in enumerate(points):
        if interaction.c6 == 0.0 or params.omega_p == 0:
            out[i] = _NO_FEEDBACK
            continue
        live[i] = _Continuation(regularize(params))
    while live:
        for i, result in _round(live, interaction, tol).items():
            out[i] = result
            del live[i]
    return out


def solve_collisional_integrals(
    params: AtomParams,
    interaction: InteractionParams,
    tol: float = 1e-10,
) -> CollisionalIntegrals:
    """Solve the nonlinear self-consistency V = G(V) for V13, V31, V23, V32.

    The probe intensity is continued from 0 (V = 0, the non-interacting
    root) to its target in stages of at most a quarter, each warm-started
    by a secant predictor and building G once. A stage runs damped
    fixed-point iteration (``_DAMPING``, at most ``_MAX_ITER_PER_STAGE``
    iterations), then finite-difference Newton; it is accepted on a
    conjugation-symmetric, physical root, else the step halves. This pins
    the physical root. ``ConvergenceError`` is raised when the step falls
    below ``_MIN_STEP`` = 1/(8*50^2) or after more than ``_MAX_STAGES`` =
    16*50 stages. This is ``solve_collisional_column`` on one point.
    """
    (result,) = solve_collisional_column([params], interaction, tol)
    if isinstance(result, Exception):
        raise result
    return result


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
    rhs = rhs + ladder_source(v4, sigma)
    try:
        sol = np.linalg.solve(mat, -rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularParameterError(f"singular pair system at k={k}") from exc
    return dict(zip(PAIR_LABELS, sol))
