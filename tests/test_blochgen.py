"""Equation generator: golden coefficients, grading, conjugation, P/Q split."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydeit import AtomParams, StatePreset, relaxation_constants, steady_state_three_level
from rydeit.blochgen import (
    PAIR_INDEX,
    PAIR_LABELS,
    SINGLE_INDEX,
    SINGLE_LABELS,
    PairSystem,
    SingleAtomSystem,
    _pair_interaction_structure,
    _pair_matrices,
    _single_matrices,
    a0_blocks,
    c0_blocks,
    canonical_pair,
    classify_PQ,
    dump_equations,
    flip_pair,
    generate_pair_equations,
    generate_single_atom_equations,
    grade_order,
    ladder_source,
)
from rydeit.collisional import solve_pair_at_k
from rydeit.params import delta3_column

WP = 0.37 + 0.11j


def _single_row(params, label, omega_p):
    sys8 = generate_single_atom_equations(params)
    r = SINGLE_INDEX[label]
    wpc = np.conj(omega_p)
    return sys8.matrix(omega_p, wpc)[r], sys8.source(omega_p, wpc)[r], sys8.v_coupling[r]


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
        m0 = sys8.matrix(0.0, 0.0)
        np.testing.assert_allclose(sys8.matrix(WP, np.conj(WP))[r], m0[r], atol=1e-15)
        assert m0[r, SINGLE_INDEX[(3, 3)]] == pytest.approx(-0.3)
        assert m0[r, SINGLE_INDEX[(3, 2)]] == pytest.approx(-1j * 3.0)
        assert m0[r, SINGLE_INDEX[(2, 3)]] == pytest.approx(1j * 3.0)
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


def _generic_single(p):
    """The single-atom system as the generic commutator loop gives it: the
    constant part and the Omega_p, Omega_p* parts by evaluation at
    (0, 0), (1, 0), (0, 1) and subtraction."""
    c00, s00 = _single_matrices(0.0, 0.0, p)
    c10, s10 = _single_matrices(1.0, 0.0, p)
    c01, s01 = _single_matrices(0.0, 1.0, p)
    return SingleAtomSystem(
        labels=SINGLE_LABELS, c0=c00, cp=c10 - c00, cm=c01 - c00,
        s0=s00, sp=s10 - s00, sm=s01 - s00,
        v_coupling=None,  # not derived by the loop; not compared
    )


def _generic_pair(p):
    a00, s00 = _pair_matrices(0.0, 0.0, p)
    a10, s10 = _pair_matrices(1.0, 0.0, p)
    a01, s01 = _pair_matrices(0.0, 1.0, p)
    kdiag, ladder = _pair_interaction_structure()
    return PairSystem(
        pair_labels=PAIR_LABELS, a0=a00, ap=a10 - a00, am=a01 - a00,
        src0=s00, srcp=s10 - s00, srcm=s01 - s00, kdiag=kdiag, ladder=ladder,
    )


def _random_params(n=200, seed=1018):
    """Seeded parameter sets covering gamma33 in {0, 1e-6, > 0}, explicit and
    default gamma23, omega_c = 0, delta2 = delta3 = 0 and signed zeros."""
    rng = np.random.default_rng(seed)
    out = [AtomParams(omega_c=0.0, delta2=0.0, delta3=0.0),
           AtomParams(omega_c=-0.0, delta2=-0.0, delta3=-0.0)]
    for i in range(n - 2):
        out.append(AtomParams(
            omega_c=0.0 if i % 10 == 0 else float(rng.uniform(0.0, 6.0)),
            delta2=0.0 if i % 10 == 1 else float(rng.uniform(-60.0, 60.0)),
            delta3=0.0 if i % 10 in (1, 2) else float(rng.uniform(-3.0, 3.0)),
            gamma13=float(rng.uniform(0.0, 1.0)),
            gamma33=(0.0, 1e-6, float(rng.uniform(0.0, 1.0)))[i % 3],
            gamma23=None if i % 4 else float(rng.uniform(0.0, 2.0)),
            gamma22=None if i % 5 else float(rng.uniform(0.0, 3.0)),
        ))
    return out


_PRESET_GRID = [
    AtomParams(omega_c=StatePreset(n).omega_c, delta3=float(d3))
    for n in (46, 50, 56, 61) for d3 in np.linspace(-2.0, 2.0, 81)
]
_WPS = (0.0, 0.37 + 0.11j, np.sqrt(0.3))


class TestClosedForm:
    """The closed-form generator is byte-identical to the generic loop."""

    @staticmethod
    def _assert_same_bytes(got, want, fields, evaluations):
        for name in fields:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for name in evaluations:
            for wp in _WPS:
                a = getattr(got, name)(wp, np.conj(wp))
                b = getattr(want, name)(wp, np.conj(wp))
                assert a.tobytes() == b.tobytes(), (name, wp)

    @pytest.mark.parametrize("params", [
        pytest.param(_PRESET_GRID, id="presets-x-81-delta3"),
        pytest.param(_random_params(), id="200-seeded-random"),
    ])
    def test_single_matches_generic_loop(self, params):
        for p in params:
            self._assert_same_bytes(
                generate_single_atom_equations(p), _generic_single(p),
                ("c0", "cp", "cm", "s0", "sp", "sm"), ("matrix", "source"),
            )

    @pytest.mark.parametrize("gamma33", [0.0, 0.01])
    def test_column_blocks_match_generated_matrices(self, gamma33):
        """The block gathers along an 81-detuning column give, row by row,
        the bytes of the blocks cut from the generated c0 and a0."""
        rows = (np.array([0, 2, 7]), np.arange(3, 15))
        d3 = np.linspace(-2.0, 2.0, 81)
        for n in (46, 50, 56, 61):
            p = AtomParams(omega_c=StatePreset(n).omega_c, gamma33=gamma33)
            column = delta3_column(p, d3)
            for gather, generate, name, sets in (
                    (c0_blocks, generate_single_atom_equations, "c0", rows[:1]),
                    (a0_blocks, generate_pair_equations, "a0", rows)):
                got = gather(*sets)(column)
                for i, delta3 in enumerate(d3.tolist()):
                    full = getattr(generate(dataclasses.replace(p, delta3=delta3)), name)
                    for r, blocks in zip(sets, got):
                        assert blocks[i].tobytes() == full[np.ix_(r, r)].tobytes()

    @pytest.mark.parametrize("params", [
        pytest.param(_PRESET_GRID, id="presets-x-81-delta3"),
        pytest.param(_random_params(), id="200-seeded-random"),
    ])
    def test_pair_matches_generic_loop(self, params):
        for p in params:
            got = generate_pair_equations(p)
            want = _generic_pair(p)
            self._assert_same_bytes(
                got, want,
                ("a0", "ap", "am", "src0", "srcp", "srcm", "kdiag"),
                ("matrix", "single_source_matrix"),
            )
            assert got.ladder == want.ladder

    @pytest.mark.parametrize("which,field", [
        ("single", "cp"), ("single", "cm"), ("single", "s0"), ("single", "sp"),
        ("single", "sm"), ("single", "v_coupling"),
        ("pair", "ap"), ("pair", "am"), ("pair", "src0"), ("pair", "srcp"),
        ("pair", "srcm"), ("pair", "kdiag"),
    ])
    def test_shared_parts_are_read_only(self, which, field):
        gen = generate_single_atom_equations if which == "single" else generate_pair_equations
        arr = getattr(gen(AtomParams()), field)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] += 1.0
        assert getattr(gen(AtomParams(delta3=0.7)), field) is arr


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
        amat = generate_pair_equations(p).matrix(wp, np.conj(wp))
        idx = {lab: i for i, lab in enumerate(PAIR_LABELS)}
        flipped = np.empty_like(amat)
        for r, lab in enumerate(PAIR_LABELS):
            for c, lab2 in enumerate(PAIR_LABELS):
                flipped[r, c] = np.conj(amat[idx[flip_pair(lab)], idx[flip_pair(lab2)]])
        np.testing.assert_allclose(amat, flipped, atol=1e-12)

    def test_single_matrix_closure(self):
        p = AtomParams(delta3=0.7, gamma33=0.2)
        sys8 = generate_single_atom_equations(p)
        amat = sys8.matrix(WP, np.conj(WP))
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


class TestLadderSource:
    @staticmethod
    def _python_loop(v4, sigma8):
        """The ladder sums in Python complex arithmetic, term by term."""
        vl, sl = np.asarray(v4).tolist(), np.asarray(sigma8).tolist()
        out = [0j] * 36
        for row, vi, si, coeff in generate_pair_equations(AtomParams()).ladder:
            out[row] += coeff * vl[vi] * sl[si]
        return np.array(out)

    def test_stack_matches_python_complex_arithmetic_bytewise(self):
        rng = np.random.default_rng(3)
        n = 2000

        def draws(shape):
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return z * 10.0 ** rng.uniform(-8, 2, shape)

        v4, sigma8 = draws((n, 4)), draws((n, 8))
        # exact zeros of either sign and real values, where the sign of a
        # zero product could show
        v4[::7, 2] = 0.0
        v4[::11] = v4[::11].real
        sigma8[::5, 3] = complex(-0.0, -0.0)
        got = ladder_source(v4, sigma8)
        for i in range(n):
            assert got[i].tobytes() == self._python_loop(v4[i], sigma8[i]).tobytes()
        assert ladder_source(v4[0], sigma8[0]).tobytes() == got[0].tobytes()


class TestDump:
    def test_dump_contains_feedback_sources(self):
        text = dump_equations(AtomParams(), which="both")
        # single-atom equations carry bare V terms, pair equations carry
        # the ladder sources V * sigma
        assert "V[13]" in text
        assert "V[13]*s[" in text
        assert text.count("0 = ") == 8 + 36
