"""Reference steady states and the weak-probe expansion coefficients."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydeit import (
    AtomParams,
    SingleAtomState,
    perturbative_coefficients,
    relaxation_constants,
    steady_state_three_level,
    steady_state_two_level,
)
from rydeit.blochgen import generate_single_atom_equations
from rydeit.oracle import _contour_coefficients, _jump_operators


def _sigma_at(params, a):
    """Single-atom averages at the complex probe amplitude wp = wpc = a."""
    sys8 = generate_single_atom_equations(params)
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

    def test_trace_closure(self):
        p = AtomParams(omega_p=0.7)
        st3 = steady_state_three_level(p)
        assert st3.sigma11.real + st3.sigma22.real + st3.sigma33.real == pytest.approx(1.0)


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
