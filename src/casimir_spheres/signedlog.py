"""Sign-and-log record of a real number.

Modified Bessel functions and their Robin combinations overflow double
precision long before the physically relevant ratios do (orders of a few
hundred suffice), so `bessel.robin_combination` returns its result as a sign
together with the natural log of the magnitude.  The record carries no
arithmetic: callers combine the logs as plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SignedLog"]


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as ``sign * exp(log)``.

    ``sign`` is -1, 0 or +1; ``log`` is ln|value| and is -inf exactly when
    the sign is 0.
    """

    sign: int
    log: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0 and self.log != -math.inf:
            raise ValueError("zero value requires log == -inf")
        if self.sign != 0 and (math.isnan(self.log) or self.log == -math.inf):
            raise ValueError("nonzero value requires a finite or +inf log")
