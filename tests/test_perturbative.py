"""Weak-probe pair cascade, collisional integral and closed-form observables."""
import numpy as np
import pytest

from rydeit import (
    AtomParams,
    InteractionParams,
    SingularParameterError,
    StatePreset,
    blockade_radius,
    effective_T,
    perturbative_coefficients,
    relaxation_constants,
    steady_state_three_level,
)
from rydeit.blochgen import canonical_pair
from rydeit.perturbative import (
    BranchAmbiguityError,
    ORDER2_LABELS,
    ORDER3_NETP1_LABELS,
    chi3_interacting,
    collisional_integral_V13_order3,
    ib_quadrature,
    nb_closed_form,
    nb_closed_form_dispersive,
    pair_correlators_order2,
    pair_correlators_order3,
    ss1333_ladder_approximation,
    ss1333_order3,
)
from rydeit.perturbative import _cascade_tables, _ss1333_kernel, _Ss1333Kernel


class TestCascadeStructure:
    def test_graded_label_counts(self):
        assert len(ORDER2_LABELS) == 10
        assert len(ORDER3_NETP1_LABELS) == 8

    def test_factorization_at_zero_interaction(self, params50):
        pc = perturbative_coefficients(params50)
        first = {
            (1, 2): pc.s12_1, (1, 3): pc.s13_1,
            (2, 1): pc.s21_1, (3, 1): pc.s31_1,
        }
        second = {
            (2, 2): pc.s22_2, (3, 3): pc.s33_2,
            (2, 3): pc.s23_2, (3, 2): pc.s32_2,
        }
        o2 = pair_correlators_order2(params50, k=0.0)
        for lab, val in o2.items():
            l1, l2 = lab
            assert val == pytest.approx(first[l1] * first[l2], rel=1e-10)
        o3 = pair_correlators_order3(params50, k=0.0)
        for (l1, l2), val in o3.items():
            coh, pop = (l1, l2) if l1 in first else (l2, l1)
            assert val == pytest.approx(first[coh] * second[pop], rel=1e-10)

    def test_conjugation_between_net_plus_and_minus(self, params50):
        # ss_{13,31} is net 0 and must be |.|^2-like: conj-symmetric label
        k = -3.7
        o2 = pair_correlators_order2(params50, k)
        lab = canonical_pair((1, 3), (3, 1))
        flipped = canonical_pair((3, 1), (1, 3))
        assert lab == flipped
        diag = o2[canonical_pair((1, 3), (1, 3))]
        anti = o2[canonical_pair((3, 1), (3, 1))]
        assert anti == pytest.approx(np.conj(diag), rel=1e-12)


class TestClosedFormKernel:
    """The two-2x2-solve kernel against the full order-2/3 pair solves."""

    @pytest.mark.parametrize("n", [46, 50, 56, 61])
    @pytest.mark.parametrize("delta3", [-1.7, -1.0 / 3.0, 1.0 / 3.0, 1.9])
    def test_matches_full_cascade(self, n, delta3):
        p = AtomParams(omega_c=StatePreset(n).omega_c, delta3=delta3)
        t_scale = abs(effective_T(p))
        decades = t_scale * np.logspace(-4, 9, 14)
        lab = canonical_pair((1, 3), (3, 3))
        for k in np.concatenate([[0.0], decades, -decades]):
            want = pair_correlators_order3(p, k)[lab]
            got = ss1333_order3(p, k)
            assert abs(got - want) <= 1e-13 * abs(want), k

    @staticmethod
    def _kernel(**singular):
        fields = dict(
            d2=(-1j, 1j), w2=(0.5, 0.1, 0.2, 0.5), x2p=(1.0, 2.0),
            h0=(1.0, 1.0), hz=(0.3, 0.0, 0.0, 0.3),
            d3=(-1j, -1j), w3=(0.5, 0.0, 0.0, 0.5),
        )
        fields.update(singular)
        return _Ss1333Kernel(**fields)

    @pytest.mark.parametrize("order,singular", [
        # 1 + k d w = 0 on both diagonal entries at k = 1
        (2, dict(d2=(1j, 1j), w2=(1j, 0.0, 0.0, 1j))),
        (3, dict(d3=(1j, 1j), w3=(1j, 0.0, 0.0, 1j))),
    ])
    def test_zero_determinant_is_a_typed_failure(self, order, singular):
        kernel = self._kernel(**singular)
        with pytest.raises(SingularParameterError, match=f"order-{order}.*k=1.0"):
            kernel(1.0)
        assert np.isfinite(kernel(0.5))

    @pytest.mark.parametrize("k", [np.inf, np.nan])
    def test_non_finite_determinant_is_a_typed_failure(self, k):
        with pytest.raises(SingularParameterError, match="order-2"):
            self._kernel()(k)

    def test_singular_k0_block_fails_at_table_build(self, params50):
        t = _cascade_tables(params50, perturbative_coefficients(params50))
        kd2, kd3 = t.o2_kdiag, t.o3_kdiag
        z = np.zeros
        with pytest.raises(SingularParameterError, match="order-2 .* k=0"):
            _ss1333_kernel(z((10, 10)), kd2, z(10), np.eye(8), kd3, z(8), z((8, 10)))
        with pytest.raises(SingularParameterError, match="order-3 .* k=0"):
            _ss1333_kernel(np.eye(10), kd2, z(10), z((8, 8)), kd3, z(8), z((8, 10)))


class TestRationalStructure:
    def test_ss1333_is_rational_2_3_in_k(self, params50):
        """ss^(3)_{13,33}(k) = (a0 + a1 k + a2 k^2)/(1 + b1 k + b2 k^2 + b3 k^3).

        Fit the six coefficients on six nodes and check the residual on an
        independent dense grid.
        """
        t_scale = abs(effective_T(params50))
        nodes = -t_scale * np.array([0.1, 0.5, 2.0, 10.0, 80.0, 600.0])
        f = np.array([ss1333_order3(params50, k) for k in nodes])
        mat = np.column_stack([
            np.ones_like(nodes), nodes, nodes**2,
            -f * nodes, -f * nodes**2, -f * nodes**3,
        ])
        coef = np.linalg.solve(mat, f)

        def rational(k):
            num = coef[0] + coef[1] * k + coef[2] * k**2
            den = 1.0 + coef[3] * k + coef[4] * k**2 + coef[5] * k**3
            return num / den

        ks = -t_scale * np.logspace(-2, 3, 40)
        worst = max(
            abs(rational(k) - ss1333_order3(params50, k)) / abs(ss1333_order3(params50, k))
            for k in ks
        )
        assert worst < 1e-8

    def test_ladder_closed_form_is_exact_rational_1_1(self, params50):
        t = effective_T(params50)
        pc = perturbative_coefficients(params50)
        for k in (-0.1, -5.0, -500.0):
            want = pc.s13_1 * pc.s33_2 * t / (t + 1j * k)
            assert ss1333_ladder_approximation(params50, k) == pytest.approx(want)


class TestLadderRegime:
    def test_ladder_error_is_percent_level_in_dispersive_regime(self, params50):
        """Characterizes the closure at the n = 50 working point (omega_c = 3,
        delta2 = -25, omega_c/|delta2| = 0.12), before its (omega_c/delta2)^2
        error law is asymptotic: the single-pole closure deviates from the
        exact cascade by a five-to-fifteen percent pointwise error there.
        Its accuracy in the regime it is derived for is checked by
        acceptance criterion 5."""
        t_scale = abs(effective_T(params50))
        errs = [
            abs(ss1333_ladder_approximation(params50, k) - ss1333_order3(params50, k))
            / abs(ss1333_order3(params50, k))
            for k in -t_scale * np.logspace(-2, 3, 30)
        ]
        assert 0.05 < max(errs) < 0.2
        # the closure is exact in the weak-interaction limit but saturates
        # at a finite error deep in the blockade
        assert errs[0] < 0.01
        assert errs[-1] == pytest.approx(max(errs), rel=0.05)


class TestCollisionalIntegral:
    def test_v13_order3_value(self, params50, inter50):
        v, res = collisional_integral_V13_order3(
            params50, perturbative_coefficients(params50), inter50)
        assert res.converged
        # pinned value at the n = 50 defaults (regression guard)
        assert v == pytest.approx(0.62624 - 0.02398j, rel=2e-4)

    @pytest.mark.parametrize("n,want", [
        (50, 0.6262402430222866 - 0.023980372353188943j),
        (61, 2.1694297658356243 - 0.12505339715970545j),
    ])
    def test_work_counts_are_unchanged(self, n, want):
        """The node count pins the adaptive quadrature path at delta3 = 1/3."""
        preset = StatePreset(n)
        p = AtomParams(omega_c=preset.omega_c, delta3=1.0 / 3.0)
        v, res = collisional_integral_V13_order3(
            p, perturbative_coefficients(p), InteractionParams(c6=preset.c6))
        assert res.nodes == 672
        assert abs(v - want) <= 1e-13 * abs(want)

    def test_zero_c6(self, params50):
        v, res = collisional_integral_V13_order3(
            params50, perturbative_coefficients(params50),
            InteractionParams(c6=1e-300))
        assert abs(v) < 1e-140

    def test_chi3_direct_map_agrees_with_cascade(self, params50, inter50):
        r = chi3_interacting(params50, inter50)
        assert r.s12_3_collisional == pytest.approx(
            r.s12_3_collisional_direct, rel=1e-6
        )
        assert r.s12_3_total == pytest.approx(
            r.s12_3_noninteracting + r.s12_3_collisional, rel=1e-10
        )


class TestClosedFormObservables:
    def test_nb_value_at_n50(self, params50, inter50):
        nb = nb_closed_form(params50, inter50)
        assert nb == pytest.approx(22.135 - 1.815j, rel=1e-3)

    def test_nb_scales_as_sqrt_c6(self, params50):
        a = nb_closed_form(params50, InteractionParams(c6=5000.0))
        b = nb_closed_form(params50, InteractionParams(c6=20000.0))
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_nb_matches_quadrature(self, params50, inter50):
        nb = nb_closed_form(params50, inter50)
        ib = ib_quadrature(params50, inter50).value
        assert abs(nb - ib) / abs(nb) < 1e-6

    def test_dispersive_form_close(self, params50, inter50):
        nb = nb_closed_form(params50, inter50)
        nbd = nb_closed_form_dispersive(params50, inter50)
        assert abs(nb - nbd) / abs(nb) < 0.1

    def test_branch_ambiguity_raises(self, inter50):
        # purely negative effective detuning puts iT/C6 on the cut
        p = AtomParams(omega_c=0.0, gamma13=0.0, delta3=-1.0)
        with pytest.raises(BranchAmbiguityError):
            nb_closed_form_dispersive(p, inter50)

    def test_blockade_radius_scale_consistency(self, params50, inter50):
        # n_b equals eta times an O(1) multiple of the blockade volume
        rb = blockade_radius(params50, inter50.c6)
        nb = nb_closed_form(params50, inter50)
        vol = 4.0 * np.pi * rb**3 / 3.0
        assert 0.5 < abs(nb) / (inter50.eta * vol) < 2.0
