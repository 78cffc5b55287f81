"""Nonlinear feedback solver: Schur reduction, spectral integrals, roots."""
from dataclasses import replace

import numpy as np
import pytest

from rydeit import (
    AtomParams,
    InteractionParams,
    StatePreset,
    solve_collisional_integrals,
    solve_interacting,
)
from rydeit import blochgen, collisional, noninteracting
from rydeit.blochgen import P_LABELS, V_LABELS, canonical_pair, generate_pair_equations
from rydeit.collisional import (
    F_lambda,
    F_lambda_quadrature,
    GAMMA33_REGULARIZATION,
    ConvergenceError,
    _SOLVE_ERRORS,
    _P_IDX,
    _Q_IDX,
    _newton,
    _physical_roots,
    assemble_PQ,
    feedback_map,
    regularize,
    schur_reduce,
    solve_pair_at_k,
    solve_collisional_column,
    spectral_decompose,
)
from rydeit.params import SingularParameterError, delta3_column


def _pq(p):
    """The P/Q system of ``p`` at its probe."""
    return assemble_PQ(p, p.omega_p, np.conj(p.omega_p))


def _g(p, interaction):
    """The stage's G of ``p`` at its probe."""
    return feedback_map(p, p.omega_p, np.conj(p.omega_p), interaction)


class TestSchurReduction:
    @pytest.mark.parametrize("k", [-0.05, -1.3, -40.0, -2000.0])
    def test_reduced_solve_matches_full_36x36(self, k, inter50):
        """(k - M) P = Rtilde must reproduce the P components of the direct
        36-dimensional solve at fixed interaction strength."""
        p = AtomParams(omega_p=0.3, omega_c=3.0, gamma33=0.05)
        m, alpha = schur_reduce(_pq(p))
        g = _g(p, inter50)
        assert np.array_equal(g.alpha, alpha)
        v4 = np.array([0.01 - 0.002j, 0.01 + 0.002j, 1e-4, 1e-4])
        rhs = g.rtilde(v4)
        p_sol = np.linalg.solve(k * np.eye(10) - m, rhs)
        full = solve_pair_at_k(p, k, v4=v4)
        worst = max(
            abs(p_sol[i] - full[lab]) / max(abs(full[lab]), 1e-300)
            for i, lab in enumerate(P_LABELS)
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
        """The blocks gathered from K36 and the probe parts are the same
        a, b, c, d bytes as ``amat[np.ix_(rows, cols)]`` of the generated
        matrix (with the P rows rescaled)."""
        preset = StatePreset(state)
        p = AtomParams(omega_p=a, omega_c=preset.omega_c, gamma33=gamma33)
        ps = generate_pair_equations(p)
        for wp, wpc in ((a, np.conj(a)), (a, a)):
            pq = assemble_PQ(p, wp, wpc)
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
        eigenvalues, u = spectral_decompose(schur_reduce(_pq(p))[0])
        f = np.array([F_lambda(lam, inter) for lam in eigenvalues])
        sel = [P_LABELS.index(canonical_pair(lab, (3, 3))) for lab in V_LABELS]
        lu = np.linalg.inv(u)[sel, :]
        g = _g(p, inter)
        rng = np.random.default_rng(state)
        vs = [np.zeros(4, dtype=complex)] + [
            (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            * 10.0 ** rng.uniform(-6, -1)
            for _ in range(8)
        ]
        for v in vs:
            want = lu @ (f * (u @ g.rtilde(v)))
            assert np.array_equal(g(v), want)

    def test_work_counts_are_unchanged(self, preset50, monkeypatch):
        """Exact iteration and stage counts pin the solver trajectory, and
        the solve generates no single-atom system: its stages gather c0
        from K8."""
        calls = []
        generate = blochgen.generate_single_atom_equations

        def counted(params):
            calls.append(params)
            return generate(params)

        for module in (blochgen, collisional, noninteracting):
            if hasattr(module, "generate_single_atom_equations"):
                monkeypatch.setattr(module, "generate_single_atom_equations", counted)
        p = AtomParams(omega_p=np.sqrt(0.3), omega_c=preset50.omega_c,
                       delta3=1.0 / 3.0)
        v = solve_collisional_integrals(p, InteractionParams(c6=preset50.c6))
        assert v.iterations == 97
        assert v.continuation_steps == 4
        assert v.used_newton is False
        assert len(calls) == 0


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
        g = _g(regularize(p), inter)
        v0 = solve_collisional_integrals(p, inter).v4
        root, _, _, conv = _newton(g, v0, 1e-14 * np.max(np.abs(v0)))
        assert conv
        v, _, _, conv = _newton(g, root * (1.0 + 1e-3), 1e-10)
        assert conv
        assert np.max(np.abs(v - root)) <= 1e-10 * np.max(np.abs(root))

    @pytest.mark.parametrize("start", [np.inf, np.nan])
    def test_newton_rejects_a_non_finite_start(self, preset50, start):
        """A non-finite start is not a root: Newton stops unconverged on the
        first iteration, before its norm overflows (every warning is an
        error here) or its scale max(max|V|, 1) turns inf."""
        p = AtomParams(omega_p=np.sqrt(0.3), omega_c=preset50.omega_c)
        g = _g(regularize(p), InteractionParams(c6=preset50.c6))
        v, its, resid, conv = _newton(g, [start, start, 0, 0], 1e-10)
        assert (its, resid, conv) == (1, np.inf, False)
        assert np.array_equal(v, [start, start, 0, 0], equal_nan=True)


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

    def test_newton_column_work_counts(self, monkeypatch):
        """Work-count pins on the seed-0 Newton column (25 points, 13 of them
        through Newton): Newton evaluates its Jacobian as one G call at the
        8 perturbed vectors of its row, and each round makes one stacked
        root test, with no per-point view of the stacked G. Evaluating them
        point by point took 603 single-row G calls, 1 081 solves and 156
        views."""
        single, solves, views = [], [], []
        call = collisional.FeedbackMap.__call__
        monkeypatch.setattr(collisional.FeedbackMap, "__call__",
                            lambda g, v: single.append(np.ndim(v) == 1 or len(v) == 1)
                            or call(g, v))
        rows = collisional.FeedbackMap.rows
        monkeypatch.setattr(collisional.FeedbackMap, "rows",
                            lambda g, idx: views.append(idx) or rows(g, idx))
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
        points, inter = _column(61, _NEWTON_DELTA3, np.linspace(0.0, 0.5, 26)[1:])
        results = solve_collisional_column(points, inter)
        assert sum(r.used_newton for r in results) == 13
        assert (sum(single), len(solves), len(views)) == (99, 544, 77)

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
        reduce = collisional.schur_reduce
        points, inter = _column(50, 1.0 / 3.0, [0.1, 0.2, 0.3])
        points[1] = replace(points[1], delta3=0.5)  # the detuning the failure keys on

        def failing(pq):
            if points[1].delta3 in pq.params.delta3:
                raise SingularParameterError("injected")
            return reduce(pq)

        want = [_outcome(_alone(p, inter)) for p in points]
        monkeypatch.setattr(collisional, "schur_reduce", failing)
        got = [_outcome(r) for r in solve_collisional_column(points, inter)]
        assert got == [want[0], ("SingularParameterError", "injected"), want[2]]

    @pytest.mark.parametrize("idx", [slice(1, 4), np.array([4, 0, 2]), 3],
                             ids=["slice", "index-array", "int"])
    def test_view_params_slice_the_column(self, idx):
        """A view's params are the parent column's at ``idx``: the fields
        and the delta3 values, dtype and shape that ``delta3_column`` of
        those detunings gives."""
        points, inter = _column(50, 1.0 / 3.0, [0.1, 0.2, 0.3, 0.4, 0.5], gamma33=0.01)
        d3s = [-0.5, 0.1, 1.0 / 3.0, 0.7, 1.3]
        column = delta3_column(points[0], d3s)
        amps = np.array([p.omega_p for p in points], dtype=complex)
        view = feedback_map(column, amps, amps.conj(), inter).rows(idx).params
        want = delta3_column(points[0], np.array(d3s)[idx])
        assert vars(view).keys() == vars(want).keys()
        assert all(getattr(view, k) == getattr(want, k) for k in vars(want) if k != "delta3")
        assert view.delta3.dtype == want.delta3.dtype and view.delta3.shape == want.delta3.shape
        assert np.array_equal(view.delta3, want.delta3)

    def test_stacked_root_test_matches_rows_alone(self):
        """The root test of a stack gives each row what it gives that row
        alone: a non-finite V is no root and never enters the σ solve (whose
        invalid-operation flag would raise for the whole stack), nor does an
        unconverged or conjugation-asymmetric one."""
        points, inter = _column(50, 1.0 / 3.0, [0.1, 0.2, 0.3, 0.4, 0.5], gamma33=0.01)
        column = delta3_column(points[0], [p.delta3 for p in points])
        amps = np.array([p.omega_p for p in points], dtype=complex)
        g = feedback_map(column, amps, amps.conj(), inter)
        v = np.zeros((5, 4), dtype=complex)
        v[1] = [np.inf, np.inf, 0, 0]
        v[3] = [1e-3, 2e-3, 0, 0]  # V31 != conj(V13)
        conv = np.array([True, True, False, True, True])
        with np.errstate(invalid="ignore"):  # the conjugation test of the inf row
            got = _physical_roots(v, conv, g)
            alone = [_physical_roots(v[r:r + 1], conv[r:r + 1], g.rows(slice(r, r + 1)))[0]
                     for r in range(5)]
        assert got.tolist() == alone == [True, False, False, False, True]

    def test_singular_c_fails_in_its_stage_never_in_the_root_test(self, monkeypatch):
        """A singular single-atom C raises in the stage's first damped
        iteration, which solves sigma at every row with the C the root test
        uses, so the root test's solve cannot raise: the point fails in its
        stage with the error it gets alone, the root test never sees its
        row, and the other points are as alone."""
        solve, bad = noninteracting.solve_sigma, 0.5
        points, inter = _column(50, 1.0 / 3.0, [0.1, 0.2, 0.3])
        points[1] = replace(points[1], delta3=bad)  # the detuning the singular C keys on

        def singular_c(params, operands, v4):
            mat, rhs = operands
            return solve(params, (np.where((params.delta3 == bad)[:, None, None], 0.0, mat), rhs),
                         v4)

        roots, seen = collisional._physical_roots, []

        def root_test(v, conv, g):
            seen.extend(g.params.delta3.tolist())
            return roots(v, conv, g)

        monkeypatch.setattr(collisional, "solve_sigma", singular_c)
        monkeypatch.setattr(collisional, "_physical_roots", root_test)
        want = [_outcome(_alone(p, inter)) for p in points]
        assert want[1][0] == "SingularParameterError"
        assert "singular single-atom system" in want[1][1] and "delta3=0.5" in want[1][1]
        seen.clear()
        got = [_outcome(r) for r in solve_collisional_column(points, inter)]
        assert got == want
        assert seen and bad not in seen

    @pytest.mark.parametrize("gamma33", [0.0, 0.01])
    def test_points_at_distinct_detunings_match_points_alone(self, gamma33):
        """A column whose points differ in delta3, as a detuning spectrum's
        are, stacks a different a0 and c0 per row; each point still gets
        the bytes, counts and errors it gets alone."""
        preset = StatePreset(61)
        inter = InteractionParams(c6=preset.c6)
        points = [AtomParams(omega_p=np.sqrt(0.5), omega_c=preset.omega_c, delta3=d3,
                             gamma33=gamma33)
                  for d3 in (-1.5, -0.9, -0.3, 0.25, 1.0, 1.75)]
        results = solve_collisional_column(points, inter)
        assert sum(r.used_newton for r in results) == 4
        for got, params in zip(results, points):
            assert _outcome(got) == _outcome(_alone(params, inter))

    @pytest.mark.parametrize("field, value", [
        ("omega_c", 2.9), ("delta2", -20.0), ("gamma13", 0.2), ("gamma33", 0.01),
        ("gamma23", 1.0), ("gamma22", 2.5),
    ])
    def test_points_differing_beyond_probe_and_detuning_are_rejected(self, field, value):
        """A column's stages share every rate but delta3, so a point that
        differs in any other field is an error, not a silent use of the
        first point's rates."""
        points, inter = _column(50, 1.0 / 3.0, [0.1, 0.2])
        points[1] = replace(points[1], **{field: value})
        with pytest.raises(ValueError, match="only in omega_p and delta3"):
            solve_collisional_column(points, inter)

    def test_points_differing_in_probe_and_detuning_are_accepted(self):
        points, inter = _column(50, 1.0 / 3.0, [0.1, 0.2])
        points.append(replace(points[0], omega_p=0.0, delta3=-0.5))
        results = solve_collisional_column(points, inter)
        assert all(isinstance(r, collisional.CollisionalIntegrals) for r in results)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(lam, interaction):
            raise TypeError("bug")

        monkeypatch.setattr(collisional, "F_lambda", broken)
        with pytest.raises(TypeError, match="bug"):
            solve_collisional_column(*_column(50, 1.0 / 3.0, [0.1, 0.2]))

    @pytest.mark.parametrize("count, evaluations", [(5, 147), (25, 153)])
    def test_work_counts_do_not_grow_with_the_column(self, monkeypatch, count,
                                                     evaluations):
        """Work-count guard: a column generates no system (its stages
        gather a0 and c0 from K36 and K8), builds one stacked stage per
        round (4 rounds, every point taking 4 stages) and evaluates G about
        as often as its longest point alone needs (141 iterations), not
        once per iteration of every point; the stacks evaluate each point
        once per iteration it makes, no more."""
        generations, builds, calls = [], [], []
        for module in (blochgen, collisional, noninteracting):
            for name in ("generate_pair_equations", "generate_single_atom_equations"):
                if hasattr(module, name):
                    generate = getattr(module, name)
                    monkeypatch.setattr(module, name,
                                        lambda p, g=generate: generations.append(p) or g(p))
        assemble = collisional.assemble_PQ
        monkeypatch.setattr(collisional, "assemble_PQ",
                            lambda p, *args: builds.append(len(p.delta3)) or assemble(p, *args))
        call = collisional.FeedbackMap.__call__
        monkeypatch.setattr(collisional.FeedbackMap, "__call__",
                            lambda g, v: calls.append(len(v)) or call(g, v))
        unphysical, root_tests = collisional.unphysical, []
        monkeypatch.setattr(collisional, "unphysical",  # the root test's, on its sigma
                            lambda s, tol: root_tests.append(len(s)) or unphysical(s, tol))
        results = solve_collisional_column(
            *_column(50, 1.0 / 3.0, np.linspace(0.0, 0.5, count + 1)[1:]))
        assert len(generations) == 0
        assert builds == [count] * 4
        assert root_tests == [count] * 4  # one stacked root-test solve per round
        assert sum(r.continuation_steps for r in results) == 4 * count
        assert not any(r.used_newton for r in results)
        assert max(r.iterations for r in results) == 141
        assert len(calls) == evaluations
        assert sum(calls) == sum(r.iterations for r in results)
