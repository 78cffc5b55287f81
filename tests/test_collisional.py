"""Nonlinear feedback solver: Schur reduction, spectral integrals, roots."""
import numpy as np
import pytest

from rydeit import (
    AtomParams,
    InteractionParams,
    StatePreset,
    solve_collisional_integrals,
    solve_interacting,
)
from rydeit import collisional, noninteracting
from rydeit.collisional import (
    F_lambda,
    F_lambda_quadrature,
    GAMMA33_REGULARIZATION,
    ConvergenceError,
    _SOLVE_ERRORS,
    _P_IDX,
    _Q_IDX,
    _assemble_PQ,
    _newton,
    assemble_PQ,
    regularize,
    schur_reduce,
    solve_pair_at_k,
    solve_collisional_column,
    spectral_decompose,
)
from rydeit.params import SingularParameterError


class TestSchurReduction:
    @pytest.mark.parametrize("k", [-0.05, -1.3, -40.0, -2000.0])
    def test_reduced_solve_matches_full_36x36(self, k):
        """(k - M) P = Rtilde must reproduce the P components of the direct
        36-dimensional solve at fixed interaction strength."""
        p = AtomParams(omega_p=0.3, omega_c=3.0, gamma33=0.05)
        red = schur_reduce(assemble_PQ(p))
        v4 = np.array([0.01 - 0.002j, 0.01 + 0.002j, 1e-4, 1e-4])
        rhs = red.rtilde(v4)
        p_sol = np.linalg.solve(k * np.eye(10) - red.m, rhs)
        full = solve_pair_at_k(p, k, v4=v4)
        worst = max(
            abs(p_sol[i] - full[lab]) / max(abs(full[lab]), 1e-300)
            for i, lab in enumerate(red.pq.p_labels)
        )
        assert worst < 1e-8

    def test_regularization_only_touches_zero_gamma33(self):
        p = AtomParams(gamma33=0.0)
        assert regularize(p).gamma33 == GAMMA33_REGULARIZATION
        p2 = AtomParams(gamma33=0.3)
        assert regularize(p2) is p2


class TestAssemblePQ:
    @pytest.mark.parametrize("state, gamma33, a", [
        (50, 0.0, 0.3), (46, 0.05, 0.0), (61, 0.0, np.sqrt(0.5)),
        (56, 0.01, 0.2 + 0.1j), (50, 1e-6, 0.05j),
    ])
    def test_blocks_match_ix_gather_bytewise(self, state, gamma33, a):
        """The flat-position ``take`` gathers the same a, b, c, d bytes as
        ``amat[np.ix_(rows, cols)]`` (with the P rows rescaled)."""
        preset = StatePreset(state)
        p = AtomParams(omega_p=a, omega_c=preset.omega_c, gamma33=gamma33)
        for wp, wpc in ((a, np.conj(a)), (a, a)):
            ps = collisional.generate_pair_equations(p)
            pq = _assemble_PQ(p, wp, wpc, ps, collisional.generate_single_atom_equations(p))
            amat = ps.matrix(wp, wpc)
            rowscale = -1.0 / ps.kdiag[_P_IDX]
            want = {
                "a": rowscale[:, None] * amat[np.ix_(_P_IDX, _P_IDX)],
                "b": rowscale[:, None] * amat[np.ix_(_P_IDX, _Q_IDX)],
                "c": amat[np.ix_(_Q_IDX, _Q_IDX)],
                "d": amat[np.ix_(_Q_IDX, _P_IDX)],
            }
            for name, block in want.items():
                got = getattr(pq, name)
                assert got.shape == block.shape and got.dtype == block.dtype
                assert got.tobytes() == block.tobytes(), name


class TestSpectralIntegrals:
    @pytest.mark.parametrize("lam", [1.0 + 2.0j, -3.0 + 0.5j, 0.2 - 4.0j])
    def test_resolvent_closed_form(self, lam, inter50):
        closed = F_lambda(lam, inter50)
        quad = F_lambda_quadrature(lam, inter50)
        assert closed == pytest.approx(quad, rel=1e-6)


class TestFeedbackMap:
    @pytest.mark.parametrize("state", [46, 50, 61])
    def test_bit_identical_to_plain_composition(self, state):
        """The per-stage G must reproduce lu @ (f * (u @ rtilde(v))) exactly:
        the solver's trajectory, and so every output digit, depends on it."""
        preset = StatePreset(state)
        inter = InteractionParams(c6=preset.c6)
        p = regularize(AtomParams(omega_p=np.sqrt(0.3), omega_c=preset.omega_c))
        spec = spectral_decompose(schur_reduce(assemble_PQ(p)))
        f = np.array([F_lambda(lam, inter) for lam in spec.eigenvalues])
        sel = np.array(spec.reduced.pq.feedback_cols)
        lu = np.linalg.inv(spec.u)[sel, :]
        g = spec.feedback_map(inter)
        rng = np.random.default_rng(state)
        vs = [np.zeros(4, dtype=complex)] + [
            (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            * 10.0 ** rng.uniform(-6, -1)
            for _ in range(8)
        ]
        for v in vs:
            want = lu @ (f * (spec.u @ spec.reduced.rtilde(v)))
            assert np.array_equal(g(v), want)

    def test_work_counts_are_unchanged(self, preset50, monkeypatch):
        """Exact iteration and stage counts pin the solver trajectory, and
        the solve generates the single-atom system once for all its stages."""
        calls = []
        generate = collisional.generate_single_atom_equations

        def counted(params):
            calls.append(params)
            return generate(params)

        for module in (collisional, noninteracting):
            monkeypatch.setattr(module, "generate_single_atom_equations", counted)
        p = AtomParams(omega_p=np.sqrt(0.3), omega_c=preset50.omega_c,
                       delta3=1.0 / 3.0)
        v = solve_collisional_integrals(p, InteractionParams(c6=preset50.c6))
        assert v.iterations == 97
        assert v.continuation_steps == 4
        assert v.used_newton is False
        assert len(calls) == 1


class TestNonlinearSolve:
    def test_trivial_roots(self, params50, inter50):
        v = solve_collisional_integrals(params50.with_omega_p(0.0), inter50)
        assert v.v13 == 0 and v.v23 == 0
        v = solve_collisional_integrals(
            params50.with_omega_p(0.3), InteractionParams(c6=0.0)
        )
        assert v.v13 == 0 and v.residual == 0.0

    def test_residual_meets_tolerance(self, params50, inter50):
        _, v = solve_interacting(params50.with_omega_p(np.sqrt(0.5)), inter50)
        assert v.residual < 1e-9

    def test_reconstructed_state_is_physical(self, params50, inter50):
        for wp2 in (0.05, 0.25, 0.5):
            state, _ = solve_interacting(params50.with_omega_p(np.sqrt(wp2)), inter50)
            state.check_physical(tol=1e-6)

    def test_v23_is_fourth_order(self, params50, inter50):
        vals = []
        for x in (0.02, 0.01):
            _, v = solve_interacting(params50.with_omega_p(x), inter50)
            vals.append(abs(v.v23))
        # halving the amplitude shrinks |V23| by ~2^4
        assert vals[0] / vals[1] == pytest.approx(16.0, rel=0.1)

    def test_hard_negative_detuning_points_converge(self, inter50):
        # two-photon detunings near pair resonance exercise the intensity
        # continuation and the root filter
        for delta3 in (-1.0, -0.4, 0.4):
            p = AtomParams(
                omega_p=np.sqrt(0.5), omega_c=3.0 * (50 / 61) ** 1.5, delta3=delta3
            )
            state, v = solve_interacting(p, InteractionParams(c6=36000.0))
            state.check_physical(tol=1e-6)
            assert v.residual < 1e-8

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="known defect: continuation stalls at intensity "
                              "fraction 0.9999 (perfbench/README.md, 'Known "
                              "defect outside the workloads')")
    def test_state46_isolated_negative_detuning_converges(self):
        preset = StatePreset(46)
        p = AtomParams(omega_p=np.sqrt(0.5), omega_c=preset.omega_c,
                       delta3=-1.0676167235166836)
        solve_collisional_integrals(p, InteractionParams(c6=preset.c6))

    @pytest.mark.xfail(strict=True,
                       reason="known defect: _newton accepts max|r| < tol*max(max|V|, 1), "
                              "an absolute test for |V| < 1 (ROADMAP item 4 replaces "
                              "_newton)")
    def test_newton_meets_tolerance_relative_to_v(self, preset50):
        """From the weak-probe root (|Omega_p| = 0.05, max|V| = 7.6e-5) scaled by
        1 + 1e-3, Newton at tol = 1e-10 must return to it within tol of max|V|."""
        inter = InteractionParams(c6=preset50.c6)
        p = AtomParams(omega_p=0.05, omega_c=preset50.omega_c)
        g = spectral_decompose(schur_reduce(assemble_PQ(regularize(p)))).feedback_map(inter)
        v0 = solve_collisional_integrals(p, inter).v4
        root, _, _, conv = _newton(g, v0, 50, 1e-14 * np.max(np.abs(v0)))
        assert conv
        v, _, _, conv = _newton(g, root * (1.0 + 1e-3), 50, 1e-10)
        assert conv
        assert np.max(np.abs(v - root)) <= 1e-10 * np.max(np.abs(root))


def _column(state, delta3, omega_p2s, gamma33=0.0):
    preset = StatePreset(state)
    points = [AtomParams(omega_p=np.sqrt(wp2), omega_c=preset.omega_c, delta3=delta3,
                         gamma33=gamma33) for wp2 in omega_p2s]
    return points, InteractionParams(c6=preset.c6)


def _outcome(result):
    """A solve's outcome, with every float as its bytes: the integrals and
    all diagnostics, or the error's type and message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return (np.array(result.v4).tobytes(), result.iterations,
            np.float64(result.residual).tobytes(), result.continuation_steps,
            result.used_newton)


def _alone(params, interaction):
    try:
        return solve_collisional_integrals(params, interaction)
    except _SOLVE_ERRORS as exc:
        return exc


# the seed-0 benchmark sweep's state-61 column whose upper 13 points need
# the Newton fallback: delta3 = 0.2 + 0.45 * random.Random(0).random()
_NEWTON_DELTA3 = 0.5799898331862716


class TestLockstepColumn:
    """solve_collisional_column solves a column's points in lockstep, each
    bit for bit as it is solved alone."""

    @pytest.mark.parametrize("gamma33", [0.0, 0.01])
    @pytest.mark.parametrize("delta3", [1.0 / 3.0, 1.3])
    @pytest.mark.parametrize("state", [46, 50, 56, 61])
    def test_points_match_points_alone(self, state, delta3, gamma33):
        points, inter = _column(state, delta3, np.linspace(0.02, 0.5, 5), gamma33)
        for got, params in zip(solve_collisional_column(points, inter), points):
            assert _outcome(got) == _outcome(_alone(params, inter))

    @pytest.mark.parametrize("gamma33", [0.0, 0.01])
    def test_newton_points_match_points_alone(self, gamma33):
        points, inter = _column(61, _NEWTON_DELTA3, np.linspace(0.0, 0.5, 26)[1:], gamma33)
        results = solve_collisional_column(points, inter)
        assert sum(r.used_newton for r in results) == {0.0: 13, 0.01: 6}[gamma33]
        for got, params in zip(results, points):
            assert _outcome(got) == _outcome(_alone(params, inter))

    def test_failing_point_gets_its_alone_error(self):
        """The state-46 stall point fails in the column as it fails alone;
        the column's other points are solved."""
        points, inter = _column(46, -1.0676167235166836, [0.1, 0.3, 0.5])
        results = solve_collisional_column(points, inter)
        assert [type(r) for r in results[:2]] == [collisional.CollisionalIntegrals] * 2
        assert isinstance(results[2], ConvergenceError)
        assert "stalled at intensity fraction 0.9999" in str(results[2])
        for got, params in zip(results, points):
            assert _outcome(got) == _outcome(_alone(params, inter))

    def test_stacked_step_error_is_evaluated_point_by_point(self, monkeypatch):
        """A typed error in a stacked stage sends the round point by point:
        only the point that raises it alone is flagged."""
        decompose = collisional.spectral_decompose
        points, inter = _column(50, 1.0 / 3.0, [0.1, 0.2, 0.3])

        def failing(reduced):
            if any(p.omega_p == points[1].omega_p for p in reduced.pq.params):
                raise SingularParameterError("injected")
            return decompose(reduced)

        want = [_outcome(_alone(p, inter)) for p in points]
        monkeypatch.setattr(collisional, "spectral_decompose", failing)
        got = [_outcome(r) for r in solve_collisional_column(points, inter)]
        assert got == [want[0], ("SingularParameterError", "injected"), want[2]]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(lam, interaction):
            raise TypeError("bug")

        monkeypatch.setattr(collisional, "F_lambda", broken)
        with pytest.raises(TypeError, match="bug"):
            solve_collisional_column(*_column(50, 1.0 / 3.0, [0.1, 0.2]))

    @pytest.mark.parametrize("count, evaluations", [(5, 147), (25, 153)])
    def test_work_counts_do_not_grow_with_the_column(self, monkeypatch, count,
                                                     evaluations):
        """Work-count guard: a column generates each system once and
        evaluates G about as often as its longest point alone needs (141
        iterations), not once per iteration of every point; the stacks
        evaluate each point once per iteration it makes, no more."""
        generations, calls = [], []
        for name in ("generate_pair_equations", "generate_single_atom_equations"):
            generate = getattr(collisional, name)
            monkeypatch.setattr(collisional, name,
                                lambda p, g=generate: generations.append(p) or g(p))
        call = collisional.FeedbackMap.__call__
        monkeypatch.setattr(collisional.FeedbackMap, "__call__",
                            lambda g, v: calls.append(len(v)) or call(g, v))
        results = solve_collisional_column(
            *_column(50, 1.0 / 3.0, np.linspace(0.0, 0.5, count + 1)[1:]))
        assert len(generations) == 2
        assert not any(r.used_newton for r in results)
        assert max(r.iterations for r in results) == 141
        assert len(calls) == evaluations
        assert sum(calls) == sum(r.iterations for r in results)
