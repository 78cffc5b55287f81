"""Parameter records, unit conventions and derived constants."""
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rydeit import (
    AtomParams,
    C6_PRESETS,
    InteractionParams,
    StatePreset,
    blockade_radius,
    effective_T,
    relaxation_constants,
)
from rydeit.params import (
    SingularParameterError,
    default_gamma23,
    omega_c_for_state,
    stacked,
    vdw_potential,
)


class TestAtomParams:
    def test_defaults(self):
        p = AtomParams()
        assert p.gamma12 == 1.0
        assert p.gamma22 == 2.0
        assert p.gamma13 == 0.1
        # default Raman decay: gamma12 + gamma13 - gamma33/2
        assert p.gamma23 == pytest.approx(1.1)
        assert p.delta2 == -25.0
        assert p.delta3 == pytest.approx(1.0 / 3.0)

    def test_gamma23_default_tracks_gamma33(self):
        p = AtomParams(gamma33=0.4)
        assert p.gamma23 == pytest.approx(default_gamma23(1.0, 0.1, 0.4))
        assert p.gamma23 == pytest.approx(0.9)

    def test_gamma12_must_be_unity(self):
        with pytest.raises(ValueError, match="gamma12"):
            AtomParams(gamma12=2.0)

    @pytest.mark.parametrize("kw", [
        {"gamma13": -0.1}, {"gamma33": -1.0}, {"gamma23": -0.5},
        {"gamma22": -2.0}, {"omega_c": -3.0},
    ])
    def test_negative_rates_rejected(self, kw):
        with pytest.raises(ValueError):
            AtomParams(**kw)

    @pytest.mark.parametrize("kw", [
        {"omega_p": complex(math.nan, 0.0)}, {"omega_p": complex(0.3, math.inf)},
        {"omega_c": math.nan}, {"delta2": math.inf}, {"delta3": -math.inf},
        {"gamma13": math.nan}, {"gamma23": math.inf}, {"gamma22": math.nan},
        {"gamma33": math.inf},
    ])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValueError, match="finite"):
            AtomParams(**kw)

    @pytest.mark.parametrize("kw", [{"delta3": "0.5"}, {"omega_c": None}])
    def test_non_numbers_rejected(self, kw):
        (name,) = kw
        with pytest.raises(TypeError, match=f"{name} must be a number"):
            AtomParams(**kw)

    def test_with_omega_p(self):
        p = AtomParams(omega_p=0.0).with_omega_p(0.3 + 0.1j)
        assert p.omega_p == 0.3 + 0.1j
        assert p.delta2 == -25.0


class TestRelaxationConstants:
    def test_values_at_defaults(self):
        rc = relaxation_constants(AtomParams())
        assert rc.Gamma12 == pytest.approx(1.0 + 25.0j)
        assert rc.Gamma13 == pytest.approx(0.1 - 1j / 3.0)
        assert rc.Gamma23 == pytest.approx(1.1 - 1j * (1.0 / 3.0 + 25.0))

    def test_effective_T_at_n50(self):
        t = effective_T(AtomParams(omega_c=3.0))
        # Gamma13 + omega_c^2 / Gamma12 at the defaults
        assert t == pytest.approx((0.1 - 1j / 3.0) + 9.0 / (1.0 + 25.0j), rel=1e-12)
        assert t.real == pytest.approx(0.11437699681, rel=1e-9)
        assert t.imag == pytest.approx(-0.69275825346, rel=1e-9)


class TestPresets:
    def test_c6_table(self):
        assert C6_PRESETS == {46: 2400.0, 50: 5000.0, 56: 15000.0, 61: 36000.0}

    def test_omega_c_scaling(self):
        assert omega_c_for_state(50) == pytest.approx(3.0)
        assert omega_c_for_state(61) == pytest.approx(3.0 * (50 / 61) ** 1.5)

    @pytest.mark.parametrize("n", [46, 50, 56, 61])
    def test_preset_consistency(self, n):
        s = StatePreset(n)
        assert s.c6 == C6_PRESETS[n]
        assert s.omega_c == pytest.approx(omega_c_for_state(n))

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="no preset"):
            StatePreset(99)

    def test_interaction_params_validation(self):
        with pytest.raises(ValueError, match="eta"):
            InteractionParams(c6=5000.0, eta=0.0)

    @pytest.mark.parametrize("kw", [
        {"c6": math.nan}, {"c6": -math.inf}, {"c6": 5000.0, "eta": math.nan},
        {"c6": 5000.0, "eta": math.inf},
    ])
    def test_interaction_params_non_finite_rejected(self, kw):
        with pytest.raises(ValueError, match="finite"):
            InteractionParams(**kw)

    def test_interaction_params_non_number_rejected(self):
        with pytest.raises(TypeError, match="c6 must be a number"):
            InteractionParams(c6="5000")


class _Real(float):
    """A float subclass: not a builtin type, still a ``numbers.Number``."""


# (field, value, exception raised or None): the builtin types take the fast
# identity check; bool, numpy scalars, Fraction, Decimal and subclasses the
# ``numbers.Number`` check. Both must accept and reject exactly these.
_FIELD_VALUES = [
    ("delta3", 0.5, None), ("delta3", -2, None), ("omega_p", 0.3 + 0.1j, None),
    ("omega_p", 0, None), ("delta3", True, None), ("delta3", np.float64(0.5), None),
    ("delta3", np.float32(0.5), None), ("delta3", np.int64(-3), None),
    ("omega_p", np.complex128(0.3 - 0.2j), None), ("delta3", Fraction(1, 3), None),
    ("delta3", Decimal("0.25"), None), ("delta3", _Real(0.5), None),
    ("c6", 5000, None), ("c6", np.float64(-36000.0), None), ("eta", Fraction(1, 25), None),
    ("delta3", "0.5", TypeError), ("delta3", None, TypeError), ("delta3", [0.5], TypeError),
    ("delta3", np.array(0.5), TypeError), ("omega_p", b"0", TypeError),
    ("c6", "5000", TypeError), ("eta", None, TypeError),
    ("delta3", math.nan, ValueError), ("delta3", -math.inf, ValueError),
    ("omega_p", complex(0.0, math.inf), ValueError), ("delta3", np.float64(math.nan), ValueError),
    ("omega_p", np.complex128(complex(math.nan, 0.0)), ValueError),
    ("delta3", Decimal("Infinity"), ValueError), ("delta3", _Real(math.inf), ValueError),
    ("c6", np.float32(math.inf), ValueError), ("eta", math.nan, ValueError),
]


class TestFieldValidation:
    @pytest.mark.parametrize("name, value, error", _FIELD_VALUES,
                             ids=[f"{n}-{type(v).__name__}-{v!r}" for n, v, _ in _FIELD_VALUES])
    def test_accepted_and_rejected_values(self, name, value, error):
        build = (lambda: InteractionParams(**{"c6": 5000.0, name: value})) \
            if name in ("c6", "eta") else (lambda: AtomParams(**{name: value}))
        if error is None:
            assert getattr(build(), name) is value
        else:
            text = "must be a number" if error is TypeError else "must be finite"
            with pytest.raises(error, match=f"^{name} {text}"):
                build()

    def test_with_omega_p_validates(self):
        p = AtomParams()
        assert p.with_omega_p(np.complex128(0.2j)).omega_p == 0.2j
        with pytest.raises(TypeError, match="^omega_p must be a number"):
            p.with_omega_p("0.2")
        with pytest.raises(ValueError, match="^omega_p must be finite"):
            p.with_omega_p(complex(math.inf, 0.0))


class TestPotentialAndBlockade:
    def test_vdw_sign_and_power(self):
        assert vdw_potential(1.0, 5000.0) == -5000.0
        assert vdw_potential(2.0, 5000.0) == pytest.approx(-5000.0 / 64.0)
        with pytest.raises(ValueError):
            vdw_potential(0.0, 5000.0)

    def test_blockade_radius_definition(self):
        p = AtomParams(omega_c=3.0)
        rb = blockade_radius(p, 5000.0)
        # at r_b the potential magnitude equals |T|
        assert abs(vdw_potential(rb, 5000.0)) == pytest.approx(
            abs(effective_T(p)), rel=1e-12
        )

    def test_blockade_radius_at_zero_T_raises(self):
        # |k(r)| = |T| = 0 holds at no finite r
        p = AtomParams(omega_c=0.0, gamma13=0.0, delta3=0.0)
        with pytest.raises(SingularParameterError, match="T = 0"):
            blockade_radius(p, 5000.0)

    @given(
        delta3=st.floats(-2.0, 2.0),
        omega_c=st.floats(0.5, 5.0),
        c6=st.floats(100.0, 1e5),
    )
    def test_blockade_radius_property(self, delta3, omega_c, c6):
        p = AtomParams(delta3=delta3, omega_c=omega_c)
        rb = blockade_radius(p, c6)
        assert rb > 0
        assert math.isclose(
            abs(vdw_potential(rb, c6)), abs(effective_T(p)), rel_tol=1e-9
        )


class TestStacked:
    """stacked(evaluate, items, errors): one stacked evaluation, else each
    item alone, so a failing item gets the error it gets alone."""

    @staticmethod
    def _evaluate(items):
        """Squares each item; a stack holding 3 raises, naming its size."""
        if 3 in items:
            raise SingularParameterError(f"3 in a stack of {len(items)}")
        return [x * x for x in items]

    def test_a_list_of_one_takes_the_error(self):
        (got,) = stacked(self._evaluate, [3], (SingularParameterError,))
        assert isinstance(got, SingularParameterError)
        assert str(got) == "3 in a stack of 1"

    def test_the_failing_item_gets_its_alone_error(self):
        calls = []

        def evaluate(items):
            calls.append(list(items))
            return self._evaluate(items)

        got = stacked(evaluate, [2, 3, 4], (ValueError,))
        assert got[0] == 4 and got[2] == 16
        assert isinstance(got[1], SingularParameterError)
        assert str(got[1]) == "3 in a stack of 1"
        assert calls == [[2, 3, 4], [2], [3], [4]]

    def test_an_error_not_listed_propagates(self):
        with pytest.raises(SingularParameterError, match="stack of 3"):
            stacked(self._evaluate, [2, 3, 4], (TypeError, ArithmeticError))
