import math

import pytest

from casimir_spheres import SignedLog


def test_zero_invariant():
    with pytest.raises(ValueError):
        SignedLog(0, 1.0)
    with pytest.raises(ValueError):
        SignedLog(2, 1.0)


def test_overflow_stays_in_log_domain():
    # magnitudes far past the float range are valid records
    assert SignedLog(1, 10000.0).log == 10000.0
    assert SignedLog(-1, math.inf).sign == -1
    with pytest.raises(ValueError):
        SignedLog(1, math.nan)
