"""Radial quadrature of k(R)-weighted integrands with the -C6/R^6 tail."""
import numpy as np
import pytest

from rydeit.quadrature import vdw_k_integral

ETA = 0.04
C6 = 5000.0


def _resolvent_closed_form(lam, c6, eta):
    """eta Int d^3R k/(k - lam) = (2 pi^2 eta / 3) sqrt(c6/lam)."""
    return 2.0 * np.pi**2 * eta / 3.0 * np.sqrt(c6 / lam)


class TestAdaptiveQuadrature:
    @pytest.mark.parametrize("lam", [
        1.0 + 2.0j, -3.0 + 0.5j, 0.2 - 4.0j, 1000.0 + 1.0j, 0.114 - 0.693j,
    ])
    def test_resolvent_integrand(self, lam):
        res = vdw_k_integral(lambda k: 1.0 / (k - lam), C6, ETA, abs(lam))
        want = _resolvent_closed_form(lam, C6, ETA)
        assert res.converged
        assert res.value == pytest.approx(want, rel=1e-8)

    def test_zero_c6_shortcut(self):
        res = vdw_k_integral(lambda k: 1.0 / (k - 1j), 0.0, ETA, 1.0)
        assert res.value == 0.0 and res.converged

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="k_scale"):
            vdw_k_integral(lambda k: 1.0, C6, ETA, 0.0)

    def test_error_estimate_is_honest(self):
        lam = 0.5 - 1.5j
        res = vdw_k_integral(lambda k: 1.0 / (k - lam), C6, ETA, abs(lam))
        want = _resolvent_closed_form(lam, C6, ETA)
        assert abs(res.value - want) <= 10.0 * max(res.error, 1e-14)

    def test_scale_only_conditions_substitution(self):
        lam = 1.0 - 1.0j
        a = vdw_k_integral(lambda k: 1.0 / (k - lam), C6, ETA, 0.3).value
        b = vdw_k_integral(lambda k: 1.0 / (k - lam), C6, ETA, 30.0).value
        assert a == pytest.approx(b, rel=1e-7)

