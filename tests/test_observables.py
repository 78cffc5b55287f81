"""Blockade observables: normalized susceptibilities, n_b, scaling relation."""
import numpy as np
import pytest

from rydeit import (
    AtomParams,
    observable_set,
    perturbative_coefficients,
    solve_interacting,
    steady_state_three_level,
    steady_state_two_level,
    xi_coefficients,
)
from rydeit.observables import (
    DegenerateNormalizationError,
    nb_from_sigma,
    nb_tilde,
    nb_tilde_raman_contribution,
    nb_tilde_unblocked,
    nb_tilde_weak_probe,
    nb_weak_probe,
    s_norm,
    s_real,
    susceptibility,
)
from rydeit.perturbative import collisional_integral_V13_order3


class TestNormalizedSusceptibility:
    def test_limits(self):
        chi2, chi3 = (-0.04 - 0.002j), (-0.019 - 0.003j)
        assert s_real(chi3, chi3, chi2) == pytest.approx(1.0)
        assert s_real(chi2, chi3, chi2) == pytest.approx(0.0)
        assert s_norm(chi3, chi3, chi2) == pytest.approx(1.0)
        assert s_norm(chi2, chi3, chi2) == pytest.approx(0.0)

    def test_degenerate_references_raise(self):
        chi = -0.02 - 0.001j
        with pytest.raises(DegenerateNormalizationError):
            s_norm(chi, chi, chi)
        with pytest.raises(DegenerateNormalizationError):
            s_real(chi, chi, chi)

    def test_susceptibility_zero_probe_raises(self):
        with pytest.raises(ValueError, match="zero probe"):
            susceptibility(0.0, 0.0)


class TestNbFromSigma:
    def test_round_trip(self):
        s3, s2 = (-0.019 - 0.003j), (-0.04 - 0.002j)
        nb, p_r = 12.3 - 0.4j, 0.02
        sigma12 = s3 + p_r * nb * (s2 - s3)
        assert nb_from_sigma(sigma12, s3, s2, p_r) == pytest.approx(nb, rel=1e-12)

    def test_requires_excitation(self):
        # a typed point failure, so a scan flags the row (a subnormal probe
        # underflows sigma33 to 0)
        with pytest.raises(DegenerateNormalizationError, match="Rydberg excitation"):
            nb_from_sigma(0.0, -0.01, -0.02, 0.0)


    def test_deficit_lost_to_cancellation_raises(self):
        # a sigma12 deficit below 1e-12 of sigma12_3lev is roundoff: the
        # finite-probe n_b at |Omega_p|^2 = 1e-14 is off by up to 21%
        s3, s2 = (-0.019 - 0.003j), (-0.04 - 0.002j)
        for rel, ok in ((1e-11, True), (1e-13, False)):
            sigma12 = s3 * (1.0 + rel)
            if ok:
                nb_from_sigma(sigma12, s3, s2, 2e-15)
            else:
                with pytest.raises(DegenerateNormalizationError, match="n_b is lost"):
                    nb_from_sigma(sigma12, s3, s2, 2e-15)

    def test_zero_deficit_is_exact(self):
        # without interactions sigma12 is the three-level coherence itself
        assert nb_from_sigma(-0.019 - 0.003j, -0.019 - 0.003j, -0.04 - 0.002j, 1e-20) == 0


class TestNbTildeVariants:
    @pytest.mark.parametrize("fn", [nb_tilde, nb_tilde_unblocked])
    def test_deficit_lost_to_cancellation_raises(self, fn):
        s3lev = 2.2e-15
        assert fn(s3lev * (1.0 - 1e-6), s3lev) > 0
        with pytest.raises(DegenerateNormalizationError, match="nb_tilde is lost"):
            fn(s3lev * (1.0 - 1e-8), s3lev)
        assert fn(s3lev, s3lev) == 0.0

    def test_variants_coincide_at_weak_probe(self):
        s3lev = 1e-5
        s = s3lev * (1.0 - 1e-3)
        a = nb_tilde(s, s3lev)
        b = nb_tilde_unblocked(s, s3lev)
        assert a == pytest.approx(b, rel=3e-3)

    def test_unblocked_variant_positive_in_blockade(self):
        assert nb_tilde_unblocked(0.01, 0.04) > 0
        assert nb_tilde(0.01, 0.04) > 0

    def test_requires_excitation(self):
        with pytest.raises(DegenerateNormalizationError):
            nb_tilde(0.0, 0.01)
        with pytest.raises(DegenerateNormalizationError):
            nb_tilde_unblocked(0.01, 0.0)
        with pytest.raises(DegenerateNormalizationError):
            nb_tilde_raman_contribution(AtomParams(), 1e-4j, 0.0)


class TestScalingCoefficients:
    def test_xi1_near_unity_at_defaults(self, params50):
        xi1, xi2 = xi_coefficients(params50)
        assert xi1 == pytest.approx(0.985, abs=0.01)
        assert xi2 == pytest.approx(-5.842, abs=0.01)

    def test_xi2_magnitude_grows_with_detuning(self):
        mags = [
            abs(xi_coefficients(AtomParams(omega_c=3.0, delta3=d))[1])
            for d in (1.0 / 3.0, 1.0, 2.0)
        ]
        assert mags[0] < mags[1] < mags[2]

    def test_weak_probe_identity(self, params50, inter50):
        # nb_tilde_weak_probe must equal Re[c * nb_weak_probe] by construction
        from rydeit.observables import _population_transfer_coefficient

        pc = perturbative_coefficients(params50)
        v13_3 = collisional_integral_V13_order3(params50, pc, inter50)
        c = _population_transfer_coefficient(params50)
        nb = nb_weak_probe(params50, pc, v13_3)
        assert nb_tilde_weak_probe(params50, pc, v13_3) == pytest.approx(
            np.real(c * nb), rel=1e-12
        )

    def test_scaling_relation_against_solver(self, params50, inter50):
        """xi1 Re n_b + xi2 Im n_b reproduces the measured population-based
        scaling parameter at low probe intensity."""
        p = params50.with_omega_p(np.sqrt(1e-4))
        state, _ = solve_interacting(p, inter50)
        obs = observable_set(p, state, steady_state_three_level(p),
                             steady_state_two_level(p))
        xi1, xi2 = xi_coefficients(params50)
        predicted = xi1 * obs.nb.real + xi2 * obs.nb.imag
        assert obs.nb_tilde == pytest.approx(predicted, rel=0.02)

    def test_scaling_relation_at_large_detuning(self, preset50, inter50):
        # measured accuracy is ~2% here; 15% bounds it with margin
        p = AtomParams(omega_p=np.sqrt(1e-4), omega_c=preset50.omega_c, delta3=2.0)
        state, _ = solve_interacting(p, inter50)
        obs = observable_set(p, state, steady_state_three_level(p),
                             steady_state_two_level(p))
        xi1, xi2 = xi_coefficients(p.with_omega_p(0.0))
        predicted = xi1 * obs.nb.real + xi2 * obs.nb.imag
        assert obs.nb_tilde == pytest.approx(predicted, rel=0.15)

    @pytest.mark.xfail(
        strict=True,
        reason="nb_tilde does not reduce to Re n_b alone at delta3 = 2: the "
        "imaginary-part coefficient xi2 grows with detuning (to about -19 "
        "here), leaving a ~40% gap; the full two-coefficient relation above "
        "holds to ~2%",
    )
    def test_population_parameter_does_not_equal_re_nb_at_large_detuning(
        self, preset50, inter50
    ):
        p = AtomParams(omega_p=np.sqrt(1e-4), omega_c=preset50.omega_c, delta3=2.0)
        state, _ = solve_interacting(p, inter50)
        obs = observable_set(p, state, steady_state_three_level(p),
                             steady_state_two_level(p))
        assert obs.nb_tilde == pytest.approx(obs.nb.real, rel=0.15)


class TestRamanChannel:
    def test_contribution_is_small(self, params50, inter50):
        p = params50.with_omega_p(np.sqrt(0.04))
        state, v = solve_interacting(p, inter50)
        s3 = steady_state_three_level(p)
        total = nb_tilde_unblocked(state.sigma33.real, s3.sigma33.real)
        raman = nb_tilde_raman_contribution(p, v.v23, s3.sigma33.real)
        assert abs(raman) / abs(total) < 0.03


class TestObservableSet:
    def test_fields_are_consistent(self, params50, inter50):
        p = params50.with_omega_p(np.sqrt(0.3))
        state, _ = solve_interacting(p, inter50)
        obs = observable_set(p, state, steady_state_three_level(p),
                             steady_state_two_level(p))
        assert obs.chi == pytest.approx(state.sigma12 / p.omega_p)
        # the references are the non-interacting solutions at the same point
        assert obs.chi_3lev == steady_state_three_level(p).sigma12 / p.omega_p
        assert obs.chi_2lev == steady_state_two_level(p).sigma12 / p.omega_p
        assert obs.S == pytest.approx(s_real(obs.chi, obs.chi_3lev, obs.chi_2lev))
        assert 0.0 < obs.S <= 1.0
        assert obs.p_r == pytest.approx(state.sigma33.real)
        # blockade suppresses the excitation
        assert steady_state_three_level(p).sigma33.real > obs.p_r

    def test_zero_probe_raises(self, params50):
        s = steady_state_three_level(params50)
        with pytest.raises(ValueError, match="weak-probe"):
            observable_set(params50, s, s, s)
