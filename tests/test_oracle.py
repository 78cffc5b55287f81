"""Exact two-atom master-equation oracle and contour extraction."""
import numpy as np
import pytest

from rydeit import AtomParams, steady_state_three_level
from rydeit.oracle import _contour_coefficients, two_atom_steady_state
from rydeit.validate import _oracle_vs_cascade


class TestSteadyState:
    def test_takes_params_and_k_only(self):
        p = AtomParams(omega_p=0.1)
        with pytest.raises(TypeError):
            two_atom_steady_state(p)
        with pytest.raises(TypeError):
            two_atom_steady_state(p, r=1.0, c6=5000.0, k=-2.0)
        assert two_atom_steady_state(p, -2.0).k == -2.0

    def test_density_matrix_sanity(self):
        st = two_atom_steady_state(AtomParams(omega_p=0.4), k=-2.0)
        assert np.trace(st.rho) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(st.rho - st.rho.conj().T)) < 1e-10

    def test_exchange_symmetry(self):
        st = two_atom_steady_state(AtomParams(omega_p=0.4), k=-2.0)
        for l1, l2 in (((1, 3), (3, 3)), ((1, 2), (2, 2)), ((2, 3), (3, 1))):
            assert st.pair_average(l1, l2) == pytest.approx(
                st.pair_average(l2, l1), abs=1e-10
            )

    def test_marginals_match_single_atom_at_zero_interaction(self):
        p = AtomParams(omega_p=0.35)
        st = two_atom_steady_state(p, k=0.0)
        single = steady_state_three_level(p)
        for lab in ((1, 2), (1, 3), (2, 2), (3, 3)):
            assert st.single_average(lab) == pytest.approx(single[lab], abs=1e-10)


class TestContourCoefficients:
    def test_polynomial(self):
        c, wrong = _contour_coefficients(lambda a: 3.0 * a**3 + 0.5 * a**5, 3, 0.5, 16)
        assert abs(c[3] - 3.0) <= 1e-14 and abs(c[5] - 0.5) <= 1e-14
        assert wrong < 1e-15

    def test_complex_coefficient(self):
        c, wrong = _contour_coefficients(
            lambda a: [(1 - 2j) * a**2 - 0.1j * a**4, 2j * a], (2, 1), 0.3, 16)
        assert abs(c[2, 0] - (1 - 2j)) <= 1e-14 and abs(c[4, 0] + 0.1j) <= 1e-13
        assert abs(c[1, 1] - 2j) <= 1e-14
        assert np.all(wrong < 1e-15)

    def test_wrong_grade_is_reported(self):
        # an a^1 term in an order-3 extraction: |c1 r| / |c3 r^3| = 1/r^2
        _, wrong = _contour_coefficients(lambda a: a + a**3, 3, 0.5, 16)
        assert wrong == pytest.approx(4.0, rel=1e-14)


class TestOracleVsCascade:
    def test_correlators_at_one_blockade_radius(self, params50, preset50):
        worst, wrong = _oracle_vs_cascade(params50, preset50.c6, (1.0,))
        assert worst < 1e-9
        assert wrong < 1e-9
