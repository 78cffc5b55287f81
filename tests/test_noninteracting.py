"""Reference steady states and the weak-probe expansion coefficients."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydeit import (
    AtomParams,
    SingleAtomState,
    SingularParameterError,
    StatePreset,
    perturbative_coefficients,
    relaxation_constants,
    steady_state_three_level,
    steady_state_two_level,
)
from rydeit.blochgen import _CM, _CP, _SM, _SP, _V_COUPLING, SINGLE_INDEX, _single_matrices
from rydeit.noninteracting import (
    _UNPHYSICAL,
    PerturbativeCoefficients,
    perturbative_column,
    single_atom_operands,
    solve_sigma,
    solve_single_system,
    unphysical,
)
from rydeit.params import delta3_column
from rydeit.oracle import _contour_coefficients, _jump_operators
from test_blochgen import _PRESET_GRID, _closed_single, _random_params


def _sigma_at(params, a):
    """Single-atom averages at the complex probe amplitude wp = wpc = a."""
    sys8 = _closed_single(params)
    return SingleAtomState(np.linalg.solve(sys8.matrix(a, a), -sys8.source(a, a)))


class TestTwoLevel:
    def test_weak_probe_coherence(self):
        p = AtomParams(omega_p=1e-6)
        rc = relaxation_constants(p)
        chi = steady_state_two_level(p).sigma12 / p.omega_p
        # -i/Gamma12 = (-25 - i)/626 at delta2 = -25
        assert chi == pytest.approx(-1j / rc.Gamma12, rel=1e-9)
        assert chi == pytest.approx((-25.0 - 1j) / 626.0, rel=1e-9)

    def test_zero_probe_is_dark(self):
        st0 = steady_state_two_level(AtomParams(omega_p=0.0))
        assert np.max(np.abs(st0.values)) == 0.0

    def test_saturation_monotone_to_half(self):
        pops = [
            steady_state_two_level(AtomParams(omega_p=np.sqrt(x))).sigma22.real
            for x in (0.1, 1.0, 10.0, 1e4, 1e8)
        ]
        assert all(a < b for a, b in zip(pops, pops[1:]))
        assert pops[-1] == pytest.approx(0.5, abs=1e-4)


class TestThreeLevel:
    def test_perfect_transparency_on_resonance(self):
        p = AtomParams(omega_p=0.2, delta3=0.0, gamma13=0.0)
        assert abs(steady_state_three_level(p).sigma12) < 1e-12

    def test_reduces_to_two_level_without_control(self):
        # a small Rydberg decay keeps the decoupled level-3 sector regular
        p = AtomParams(omega_p=0.4, omega_c=0.0, gamma33=0.01)
        s3 = steady_state_three_level(p)
        s2 = steady_state_two_level(p)
        assert s3.sigma12 == pytest.approx(s2.sigma12, rel=1e-12)
        assert s3.sigma22 == pytest.approx(s2.sigma22, rel=1e-12)
        assert abs(s3.sigma33) < 1e-14

    def test_weak_probe_rydberg_coherence(self):
        p = AtomParams(omega_p=1e-6)
        rc = relaxation_constants(p)
        want = -p.omega_c / (rc.Gamma12 * rc.Gamma13 + p.omega_c**2)
        got = steady_state_three_level(p).sigma13 / p.omega_p
        assert got == pytest.approx(want, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        wp2=st.floats(1e-4, 2.0),
        delta3=st.floats(-2.0, 2.0),
        gamma33=st.floats(0.0, 1.0),
        dephasing3=st.floats(0.0, 0.5),
    )
    def test_states_are_physical(self, wp2, delta3, gamma33, dephasing3):
        # positivity is only guaranteed when the decoherence rates derive
        # from an actual dissipator (population decay plus dephasing), so
        # the rates are built from one: gamma12 = gamma22/2 = 1 leaves levels
        # 1 and 2 without pure dephasing, and level 3 dephases at dephasing3
        p = AtomParams(
            omega_p=np.sqrt(wp2),
            delta3=delta3,
            gamma33=gamma33,
            gamma13=gamma33 / 2.0 + dephasing3,
            gamma23=(2.0 + gamma33) / 2.0 + dephasing3,
        )
        _jump_operators(p)  # realizable by construction: must not raise
        steady_state_three_level(p).check_physical(tol=1e-9)
        steady_state_two_level(p).check_physical(tol=1e-9)

    @pytest.mark.parametrize("state", [46, 50, 56, 61])
    def test_column_solve_matches_points_alone(self, state):
        """``solve_sigma`` over a ``delta3_column``, with one probe amplitude
        and one V per row, gives each row the bytes ``solve_single_system``
        gives its point alone, with V and without it (the three-level
        state)."""
        preset = StatePreset(state)
        points = [AtomParams(omega_p=np.sqrt(wp2), omega_c=preset.omega_c, delta3=d3)
                  for wp2, d3 in zip((0.02, 0.1, 0.3, 0.5), (-1.5, 1.0 / 3.0, 0.5, 2.0))]
        rng = np.random.default_rng(state)
        v4 = 1e-3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        column = delta3_column(points[0], [p.delta3 for p in points])
        wp = np.array([p.omega_p for p in points])
        operands = single_atom_operands(column, wp, np.conj(wp))
        for v, alone in ((v4, [solve_single_system(p, v) for p, v in zip(points, v4)]),
                         (None, [steady_state_three_level(p) for p in points])):
            got = solve_sigma(column, operands, v)
            assert [row.tobytes() for row in got] == [s.values.tobytes() for s in alone]

    def test_trace_closure(self):
        p = AtomParams(omega_p=0.7)
        st3 = steady_state_three_level(p)
        assert st3.sigma11.real + st3.sigma22.real + st3.sigma33.real == pytest.approx(1.0)


def _first_violation(values, tol):
    """check_physical's conditions as the scalar loop they were before the
    stacked ``unphysical``: the message of the first that fails, or None."""
    for a, b in ((1, 2), (1, 3), (2, 3)):
        if abs(values[SINGLE_INDEX[(a, b)]] - np.conj(values[SINGLE_INDEX[(b, a)]])) > 1e-8:
            return f"hermiticity violated for sigma{a}{b}"
    p22, p33 = values[SINGLE_INDEX[(2, 2)]].real, values[SINGLE_INDEX[(3, 3)]].real
    for pop in (p22, p33):
        if pop < -tol:
            return "negative population"
    if p22 + p33 > 1.0 + tol:
        return "populations exceed unity"
    return None


def _condition_rows(tol):
    """Seeded rows of 8 averages whose coherences are near hermitian to
    1e-8 and whose populations straddle -tol and 1 + tol, rows exactly on
    each bound and one float beyond it, and rows with NaNs (which no
    condition flags)."""
    rng = np.random.default_rng(7)
    i12, i21, i13, i31 = (SINGLE_INDEX[lab] for lab in ((1, 2), (2, 1), (1, 3), (3, 1)))
    i22, i33 = SINGLE_INDEX[(2, 2)], SINGLE_INDEX[(3, 3)]
    rows = []
    for _ in range(200):
        v = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) * 10.0 ** rng.uniform(
            -9.5, -7.5, 8)
        v[[i22, i33]] = rng.uniform(-3.0 * tol, 0.6, 2)
        rows.append(v)

    def row(*entries):
        v = np.zeros(8, dtype=complex)
        for index, value in entries:
            v[index] = value
        return v

    above = np.nextafter(1e-8, 1.0)
    below = np.nextafter(-tol, -1.0)
    for i, j in ((i12, i21), (i13, i31)):
        rows += [row((i, 1e-8)), row((i, above)), row((j, -1e-8j)), row((j, -1j * above))]
    rows += [row((i22, -tol)), row((i22, below)), row((i33, -tol)), row((i33, below)),
             row((i22, 1.0 + tol)), row((i22, np.nextafter(1.0 + tol, 2.0))),
             row((i13, above), (i22, below)),
             row((i12, np.nan)), row((i22, np.nan)), np.full(8, np.nan + 0j)]
    return np.array(rows)


class TestPhysicalConditions:
    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_stacked_conditions_match_check_physical_row_by_row(self, tol):
        """``unphysical`` over a stack flags, in each row, the condition
        check_physical raises for that row alone, and the scalar loop it
        replaced agrees, on the bounds and with NaNs too."""
        rows = _condition_rows(tol)
        stacked = unphysical(rows, tol)
        assert stacked.shape == (len(rows), len(_UNPHYSICAL))
        seen = set()
        for values, failed in zip(rows, stacked):
            want = _first_violation(values, tol)
            got = _UNPHYSICAL[np.argmax(failed)] if failed.any() else None
            assert got == want
            try:
                SingleAtomState(values).check_physical(tol)
                alone = None
            except ValueError as exc:
                alone = str(exc)
            assert alone == want
            seen.add(want)
        assert seen == set(_UNPHYSICAL) | {None}


class TestPerturbativeCoefficients:
    def test_second_order_populations_real(self):
        pc = perturbative_coefficients(AtomParams())
        assert abs(pc.s22_2.imag) < 1e-14
        assert abs(pc.s33_2.imag) < 1e-14
        assert pc.s33_2.real > 0
        assert pc.s32_2 == pytest.approx(np.conj(pc.s23_2), rel=1e-12)

    def test_reconstruction_error_is_fifth_order(self):
        p0 = AtomParams()
        pc = perturbative_coefficients(p0)
        errs = []
        for wp in (0.2, 0.1):
            full = steady_state_three_level(p0.with_omega_p(wp)).sigma12
            trunc = pc.reconstruct_sigma12(wp)
            errs.append(abs(full - trunc))
        # halving the amplitude shrinks the residual by ~2^5
        assert errs[0] / errs[1] == pytest.approx(32.0, rel=0.15)

    def test_third_order_matches_richardson_extraction(self):
        # the a^3 coefficient of sigma12 on a contour in the complex amplitude
        p0 = AtomParams()
        c, wrong = _contour_coefficients(lambda a: _sigma_at(p0, a)[(1, 2)], 1, 0.05, 16)
        assert c[3] == pytest.approx(perturbative_coefficients(p0).s12_3, rel=1e-11)
        assert wrong < 1e-12

    def test_population_extraction(self):
        p0 = AtomParams()
        c, wrong = _contour_coefficients(lambda a: _sigma_at(p0, a)[(3, 3)], 2, 0.05, 16)
        assert c[2] == pytest.approx(perturbative_coefficients(p0).s33_2, rel=1e-11)
        assert wrong < 1e-12


def _perturbative_coefficients_by_label_blocks(params, v13_3=0.0):
    """``perturbative_coefficients`` with every block cut out of the
    generic loop's c0 and the probe parts by their labels (the construction
    the production path's import-time constants and c0 gather reproduce)."""
    c0 = _single_matrices(0.0, 0.0, params)[0]
    net_p1, net_m1 = ((1, 2), (1, 3)), ((2, 1), (3, 1))
    net_0 = ((2, 2), (3, 3), (2, 3), (3, 2))
    rp1, rm1, r0 = ([SINGLE_INDEX[lab] for lab in labs]
                    for labs in (net_p1, net_m1, net_0))

    def block(mat, rows, cols):
        return mat[np.ix_(rows, cols)]

    def solve(a, rhs):
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularParameterError(str(exc)) from exc

    a_p1 = block(c0, rp1, rp1)
    x_p1 = solve(a_p1, -_SP[rp1])
    x_m1 = solve(block(c0, rm1, rm1), -_SM[rm1])
    src0 = block(_CP, r0, rm1) @ x_m1 + block(_CM, r0, rp1) @ x_p1
    x_0 = solve(block(c0, r0, r0), -src0)
    src3 = block(_CP, rp1, r0) @ x_0
    src3 = src3 + _V_COUPLING[rp1, 0] * v13_3
    x_p3 = solve(a_p1, -src3)
    values = [complex(v) for v in (*x_p1, *x_m1, *x_0, *x_p3)]
    return PerturbativeCoefficients(*values)


class TestPerturbativeConstantBlocks:
    """The production cascade is byte-identical to its label-block derivation."""

    @pytest.mark.parametrize("v13_3", [0.0, 0.6262402430222824 - 0.023980372353187597j],
                             ids=["v13_3-zero", "v13_3-nonzero"])
    @pytest.mark.parametrize("params", [
        pytest.param(_PRESET_GRID, id="presets-x-81-delta3"),
        pytest.param(_random_params(), id="200-seeded-random"),
    ])
    def test_matches_label_blocks(self, params, v13_3):
        compared = 0
        for p in params:
            try:
                want = _perturbative_coefficients_by_label_blocks(p, v13_3)
            except SingularParameterError:
                with pytest.raises(SingularParameterError):
                    perturbative_coefficients(p, v13_3)
                continue
            got = perturbative_coefficients(p, v13_3)
            for f in dataclasses.fields(PerturbativeCoefficients):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert type(a) is complex, f.name
                assert np.array(a).tobytes() == np.array(b).tobytes(), f.name
            compared += 1
        assert compared >= len(params) // 2

    @pytest.mark.parametrize("v13_3", [0.0, "per-row"])
    @pytest.mark.parametrize("gamma33", [0.0, 0.01])
    def test_column_rows_match_rows_alone(self, gamma33, v13_3):
        """Each row of a stacked 81-detuning column has the bytes of its
        parameter set solved alone, with one v13_3 per row too."""
        d3 = np.linspace(-2.0, 2.0, 81)
        v = 0.6 - 0.02j * d3 if v13_3 == "per-row" else np.zeros(81)
        for n in (46, 50, 56, 61):
            p = AtomParams(omega_c=StatePreset(n).omega_c, gamma33=gamma33)
            column = perturbative_column(delta3_column(p, d3), v)
            for i, delta3 in enumerate(d3.tolist()):
                alone = perturbative_coefficients(
                    dataclasses.replace(p, delta3=delta3), complex(v[i]))
                for f in dataclasses.fields(PerturbativeCoefficients):
                    got = getattr(column, f.name)[i]
                    assert got.tobytes() == np.complex128(getattr(alone, f.name)).tobytes()

