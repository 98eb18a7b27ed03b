import math

import pytest

from casimir_spheres import SignedLog


def test_zero_invariant():
    z = SignedLog.zero()
    assert z.sign == 0 and z.log == -math.inf
    assert z.value() == 0.0
    with pytest.raises(ValueError):
        SignedLog(0, 1.0)
    with pytest.raises(ValueError):
        SignedLog(2, 1.0)


def test_overflow_stays_in_log_domain():
    big = SignedLog.from_log(1, 10000.0)
    assert big.log == 10000.0 and big.sign == 1
    assert big.value() == math.inf  # only the conversion overflows
    assert SignedLog.from_log(-1, 10000.0).value() == -math.inf
