"""Equation generator: golden coefficients, grading, conjugation, P/Q split."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydeit import AtomParams, relaxation_constants, steady_state_three_level
from rydeit.blochgen import (
    PAIR_INDEX,
    PAIR_LABELS,
    SINGLE_INDEX,
    SINGLE_LABELS,
    canonical_pair,
    classify_PQ,
    dump_equations,
    flip_pair,
    generate_pair_equations,
    generate_single_atom_equations,
    grade_order,
)
from rydeit.collisional import solve_pair_at_k

WP = 0.37 + 0.11j


def _single_row(params, label, omega_p):
    sys8 = generate_single_atom_equations(params)
    r = SINGLE_INDEX[label]
    return sys8.matrix(omega_p)[r], sys8.source(omega_p)[r], sys8.v_coupling[r]


class TestSingleAtomGolden:
    """Hand-coded rows of the driven three-level Bloch system."""

    def test_sigma12_row(self):
        p = AtomParams()
        rc = relaxation_constants(p)
        row, src, vrow = _single_row(p, (1, 2), WP)
        want = np.zeros(8, dtype=complex)
        # 0 = -Gamma12 s12 - i[Wp (1 - s33 - 2 s22) + Wc s13]
        want[SINGLE_INDEX[(1, 2)]] = -rc.Gamma12
        want[SINGLE_INDEX[(1, 3)]] = -1j * p.omega_c
        want[SINGLE_INDEX[(2, 2)]] = 2j * WP
        want[SINGLE_INDEX[(3, 3)]] = 1j * WP
        np.testing.assert_allclose(row, want, atol=1e-15)
        assert src == pytest.approx(-1j * WP)
        np.testing.assert_array_equal(vrow, 0.0)

    def test_sigma13_row(self):
        p = AtomParams()
        rc = relaxation_constants(p)
        row, src, vrow = _single_row(p, (1, 3), WP)
        want = np.zeros(8, dtype=complex)
        # 0 = -Gamma13 s13 - i[Wc s12 - Wp s23 + V13]
        want[SINGLE_INDEX[(1, 3)]] = -rc.Gamma13
        want[SINGLE_INDEX[(1, 2)]] = -1j * p.omega_c
        want[SINGLE_INDEX[(2, 3)]] = 1j * WP
        np.testing.assert_allclose(row, want, atol=1e-15)
        assert src == 0.0
        np.testing.assert_allclose(vrow, [-1j, 0, 0, 0], atol=1e-15)

    def test_sigma33_row_has_no_probe_or_feedback(self):
        p = AtomParams(gamma33=0.3)
        sys8 = generate_single_atom_equations(p)
        r = SINGLE_INDEX[(3, 3)]
        # 0 = -gamma33 s33 - i Wc (s32 - s23): probe-independent
        np.testing.assert_allclose(
            sys8.matrix(WP)[r], sys8.matrix(0.0)[r], atol=1e-15
        )
        assert sys8.matrix(0.0)[r, SINGLE_INDEX[(3, 3)]] == pytest.approx(-0.3)
        assert sys8.matrix(0.0)[r, SINGLE_INDEX[(3, 2)]] == pytest.approx(-1j * 3.0)
        assert sys8.matrix(0.0)[r, SINGLE_INDEX[(2, 3)]] == pytest.approx(1j * 3.0)
        np.testing.assert_array_equal(sys8.v_coupling[r], 0.0)

    def test_sigma13_decouples_without_control(self):
        p = AtomParams(omega_c=0.0)
        row, _, vrow = _single_row(p, (1, 3), WP)
        # only s13 and s23 survive: -Gamma13 s13 + i Wp s23 - i V13 = 0
        rc = relaxation_constants(p)
        nz = {lab for lab in SINGLE_LABELS if abs(row[SINGLE_INDEX[lab]]) > 0}
        assert nz == {(1, 3), (2, 3)}
        assert row[SINGLE_INDEX[(1, 3)]] == pytest.approx(-rc.Gamma13)
        assert vrow[0] == pytest.approx(-1j)


class TestGrading:
    @pytest.mark.parametrize("label,net,order", [
        ((1, 2), 1, 1), ((1, 3), 1, 1), ((2, 1), -1, 1), ((3, 1), -1, 1),
        ((2, 2), 0, 2), ((3, 3), 0, 2), ((2, 3), 0, 2), ((3, 2), 0, 2),
    ])
    def test_single_grading(self, label, net, order):
        assert grade_order(label) == (net, order)

    @pytest.mark.parametrize("l1,l2,net,order", [
        ((1, 3), (3, 3), 1, 3),
        ((2, 3), (3, 3), 0, 4),
        ((1, 3), (3, 1), 0, 2),
    ])
    def test_pair_grading(self, l1, l2, net, order):
        assert grade_order(canonical_pair(l1, l2)) == (net, order)


class TestPairStructure:
    def test_counts(self):
        assert len(SINGLE_LABELS) == 8
        assert len(PAIR_LABELS) == 36

    def test_pq_partition(self):
        ps = generate_pair_equations(AtomParams())
        p_labels, q_labels = classify_PQ(ps)
        assert len(p_labels) == 10
        assert len(q_labels) == 26
        want_p = {
            canonical_pair(a, b)
            for a, b in [
                ((1, 3), (1, 3)), ((1, 3), (2, 3)), ((1, 3), (3, 3)),
                ((2, 3), (2, 3)), ((2, 3), (3, 3)),
                ((3, 1), (3, 1)), ((3, 1), (3, 2)), ((3, 1), (3, 3)),
                ((3, 2), (3, 2)), ((3, 2), (3, 3)),
            ]
        }
        assert set(p_labels) == want_p
        assert canonical_pair((2, 2), (3, 3)) in q_labels

    def test_interaction_diagonal_rule(self):
        ps = generate_pair_equations(AtomParams())
        for r, ((a, b), (m, n)) in enumerate(PAIR_LABELS):
            want = 1j * (int(a == 3 and m == 3) - int(b == 3 and n == 3))
            assert ps.kdiag[r] == want

    def test_doubly_excited_population_has_no_diagonal_k(self):
        ps = generate_pair_equations(AtomParams())
        assert ps.kdiag[PAIR_INDEX[canonical_pair((3, 3), (3, 3))]] == 0.0


class TestConjugationClosure:
    @settings(max_examples=15, deadline=None)
    @given(
        wre=st.floats(-0.8, 0.8),
        wim=st.floats(-0.8, 0.8),
        delta2=st.floats(-30.0, 30.0),
        delta3=st.floats(-2.0, 2.0),
        gamma33=st.floats(0.0, 1.0),
    )
    def test_pair_matrix_closure(self, wre, wim, delta2, delta3, gamma33):
        p = AtomParams(delta2=delta2, delta3=delta3, gamma33=gamma33)
        wp = wre + 1j * wim
        amat = generate_pair_equations(p).matrix(wp)
        idx = {lab: i for i, lab in enumerate(PAIR_LABELS)}
        flipped = np.empty_like(amat)
        for r, lab in enumerate(PAIR_LABELS):
            for c, lab2 in enumerate(PAIR_LABELS):
                flipped[r, c] = np.conj(amat[idx[flip_pair(lab)], idx[flip_pair(lab2)]])
        np.testing.assert_allclose(amat, flipped, atol=1e-12)

    def test_single_matrix_closure(self):
        p = AtomParams(delta3=0.7, gamma33=0.2)
        sys8 = generate_single_atom_equations(p)
        amat = sys8.matrix(WP)
        for r, (a, b) in enumerate(SINGLE_LABELS):
            fr = SINGLE_INDEX[(b, a)]
            for c, (m, n) in enumerate(SINGLE_LABELS):
                fc = SINGLE_INDEX[(n, m)]
                assert amat[r, c] == pytest.approx(np.conj(amat[fr, fc]), abs=1e-13)


class TestFactorization:
    def test_pair_solution_factorizes_at_zero_interaction(self):
        p = AtomParams(omega_p=0.4, gamma33=0.1)
        single = steady_state_three_level(p)
        pair = solve_pair_at_k(p, k=0.0)
        for (l1, l2), val in pair.items():
            assert val == pytest.approx(single[l1] * single[l2], abs=1e-12)


class TestDump:
    def test_dump_contains_feedback_sources(self):
        text = dump_equations(AtomParams(), which="both")
        # single-atom equations carry bare V terms, pair equations carry
        # the ladder sources V * sigma
        assert "V[13]" in text
        assert "V[13]*s[" in text
        assert text.count("0 = ") == 8 + 36
