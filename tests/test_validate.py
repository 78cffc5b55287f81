"""Every `rydeit validate` check, run as one test.

The checks in rydeit.validate are the single source of these cross-checks
(closed forms against quadrature, the spectral reduction against the direct
pair solve, the two-atom oracle against the cascade, ...). Each is called
directly, not through run_suite, so a check that raises shows its traceback.
"""
import pytest

from rydeit.validate import FULL_CHECKS


@pytest.mark.parametrize("name,check", FULL_CHECKS,
                         ids=[fn.__name__ for _, fn in FULL_CHECKS])
def test_passes(name, check):
    passed, detail = check()
    assert passed, f"{name}: {detail}"
