"""Sign-and-log record of a real number.

Modified Bessel functions and their Robin combinations overflow double
precision long before the physically relevant ratios do (orders of a few
hundred suffice), so `bessel.robin_combination` returns its result as a sign
together with the natural log of the magnitude, one pair per element of its
argument.  The record carries no arithmetic: callers combine the logs as
plain floats or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SignedLog"]


@dataclass(frozen=True)
class SignedLog:
    """A real number, or an array of them, stored as ``sign * exp(log)``.

    ``sign`` is -1, 0 or +1; ``log`` is ln|value| and is -inf exactly when
    the sign is 0.  Both may be numpy arrays (of one shape, or broadcast
    against each other); every element is checked.  A record of floats
    compares and hashes by value; one of arrays can be neither compared
    with ``==`` nor hashed (numpy's elementwise ``==`` has no single truth
    value), so compare its fields instead.
    """

    sign: int | np.ndarray
    log: float | np.ndarray

    def __post_init__(self):
        sign, log = np.asarray(self.sign), np.asarray(self.log, dtype=float)
        # log > -inf fails for -inf and for NaN
        valid = np.where(sign == 0, log == -math.inf, (np.abs(sign) == 1) & (log > -math.inf))
        if not valid.all():
            raise ValueError(f"need sign -1, 0 or +1 and log -inf exactly where the sign is 0, "
                             f"finite or +inf elsewhere; got sign {self.sign}, log {self.log}")
