"""Exact two-atom master-equation oracle and order extraction."""
import numpy as np
import pytest

from rydeit import (
    AtomParams,
    blockade_radius,
    steady_state_three_level,
)
from rydeit.blochgen import canonical_pair
from rydeit.oracle import order_extract, two_atom_steady_state
from rydeit.params import SingularParameterError, vdw_potential
from rydeit.perturbative import pair_correlators_order2, pair_correlators_order3


class TestSteadyState:
    def test_requires_r_or_k(self):
        with pytest.raises(ValueError, match="either r"):
            two_atom_steady_state(AtomParams(omega_p=0.1))

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


class TestOrderExtract:
    def test_polynomial(self):
        c, err = order_extract(lambda x: 3.0 * x**3 + 0.5 * x**5, order=3, base=0.1)
        assert c == pytest.approx(3.0, rel=1e-9)

    def test_complex_coefficient(self):
        c, _ = order_extract(lambda x: (1 - 2j) * x**2 - 0.1j * x**4, order=2, base=0.1)
        assert c == pytest.approx(1 - 2j, rel=1e-9)

    def test_wrong_order_fails(self):
        # an odd-power remainder breaks the even-power grading assumption
        with pytest.raises(SingularParameterError, match="did not converge"):
            order_extract(lambda x: x**2 + x**3, order=2, base=0.5, rtol=1e-12)


class TestOracleVsCascade:
    def test_correlators_at_one_blockade_radius(self, params50, preset50):
        r = blockade_radius(params50, preset50.c6)
        k = vdw_potential(r, preset50.c6)
        o2 = pair_correlators_order2(params50, k)
        o3 = pair_correlators_order3(params50, k)

        def f2(x):
            st = two_atom_steady_state(params50.with_omega_p(x), k=k)
            return st.pair_average((1, 3), (3, 1))

        def f3(x):
            st = two_atom_steady_state(params50.with_omega_p(x), k=k)
            return st.pair_average((1, 3), (3, 3))

        c2, _ = order_extract(f2, order=2)
        c3, _ = order_extract(f3, order=3)
        assert c2 == pytest.approx(o2[canonical_pair((1, 3), (3, 1))], rel=1e-4)
        assert c3 == pytest.approx(o3[canonical_pair((1, 3), (3, 3))], rel=1e-4)
