"""Nonlinear feedback solver: Schur reduction, spectral integrals, roots."""
import numpy as np
import pytest

from rydeit import (
    AtomParams,
    InteractionParams,
    StatePreset,
    effective_T,
    perturbative_coefficients,
    solve_collisional_integrals,
    solve_interacting,
)
from rydeit.collisional import (
    F_lambda,
    F_lambda_quadrature,
    GAMMA33_REGULARIZATION,
    ConvergenceError,
    assemble_PQ,
    regularize,
    schur_reduce,
    solve_pair_at_k,
    spectral_decompose,
)
from rydeit.oracle import order_extract
from rydeit.perturbative import collisional_integral_V13_order3
from rydeit.quadrature import vdw_k_integral


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


class TestSpectralIntegrals:
    @pytest.mark.parametrize("lam", [1.0 + 2.0j, -3.0 + 0.5j, 0.2 - 4.0j])
    def test_resolvent_closed_form(self, lam, inter50):
        closed = F_lambda(lam, inter50)
        quad = F_lambda_quadrature(lam, inter50)
        assert closed == pytest.approx(quad, rel=1e-6)

    def test_spectral_feedback_equals_direct_quadrature(self, inter50):
        p = AtomParams(omega_p=0.3, omega_c=3.0, gamma33=0.05)
        spec = spectral_decompose(schur_reduce(assemble_PQ(p)))
        v4 = np.zeros(4, dtype=complex)
        got = spec.feedback_map(inter50)(v4)
        t_scale = abs(effective_T(p))
        labels = (
            ((1, 3), (3, 3)), ((3, 1), (3, 3)),
            ((2, 3), (3, 3)), ((3, 2), (3, 3)),
        )
        for want, lab in zip(got, labels):
            res = vdw_k_integral(
                lambda k, lab=lab: solve_pair_at_k(p, k, v4=v4)[lab],
                inter50.c6, inter50.eta, t_scale,
            )
            assert want == pytest.approx(res.value, rel=1e-6)


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

    def test_work_counts_are_unchanged(self, preset50):
        """Exact iteration and stage counts pin the solver trajectory."""
        p = AtomParams(omega_p=np.sqrt(0.3), omega_c=preset50.omega_c,
                       delta3=1.0 / 3.0)
        v = solve_collisional_integrals(p, InteractionParams(c6=preset50.c6))
        assert v.iterations == 97
        assert v.continuation_steps == 4
        assert v.used_newton is False


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

    def test_solution_is_conjugation_symmetric(self, params50, inter50):
        _, v = solve_interacting(params50.with_omega_p(np.sqrt(0.3)), inter50)
        scale = abs(v.v13)
        assert abs(v.v31 - np.conj(v.v13)) / scale < 1e-8
        assert abs(v.v32 - np.conj(v.v23)) / scale < 1e-8

    def test_reconstructed_state_is_physical(self, params50, inter50):
        for wp2 in (0.05, 0.25, 0.5):
            state, _ = solve_interacting(params50.with_omega_p(np.sqrt(wp2)), inter50)
            state.check_physical(tol=1e-6)

    def test_weak_probe_recovers_third_order(self, params50, inter50):
        v13_3, _ = collisional_integral_V13_order3(
            params50, perturbative_coefficients(params50), inter50)

        def f(x):
            _, v = solve_interacting(params50.with_omega_p(x), inter50)
            return v.v13

        est, _ = order_extract(f, order=3, base=np.sqrt(1e-4), rtol=1e-4)
        assert est == pytest.approx(v13_3, rel=1e-3)

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
