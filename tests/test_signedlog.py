import math

import numpy as np
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


def test_arrays_are_checked_element_by_element():
    r = SignedLog(np.array([1, -1, 0]), np.array([0.5, math.inf, -math.inf]))
    assert r.sign.tolist() == [1, -1, 0]
    SignedLog(-1, np.array([1.0, -2.0]))  # one sign for an array of logs
    for sign, log in (([1, 2, -1], [0.0, 0.0, 0.0]),      # one bad sign
                      ([1, 0, -1], [0.0, 1.0, 0.0]),      # a zero with a finite log
                      ([1, 1, -1], [0.0, -math.inf, 0.0]),  # a nonzero with log -inf
                      ([1, 1, -1], [0.0, math.nan, 0.0])):  # a NaN log
        with pytest.raises(ValueError):
            SignedLog(np.array(sign), np.array(log))
