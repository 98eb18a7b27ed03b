"""Mode combinatorics and boundary-condition bookkeeping.

For the electromagnetic field in D space dimensions the angular eigenmodes at
fixed angular number l >= 1 split into one TM multiplet family of size

    b_l(D) = (2l + D - 2) (l + D - 3)! / ((D - 2)! l!)

and (D-2) TE families totalling

    h_l(D) = l (l + D - 2) (2l + D - 2) (l + D - 4)! / ((D - 3)! (l + 1)!).

Both are polynomials of degree D-2 in nu = l + (D-2)/2; the exact rational
coefficients of that expansion drive the small-gap asymptotics.  Boundary
conditions enter through the Robin pair (alpha, beta) per sphere and mode
type.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .debye import RationalPolynomial

__all__ = [
    "BoundaryCondition",
    "BoundaryPair",
    "Channel",
    "DegeneracyPolynomial",
    "bc_coefficients",
    "degeneracy",
    "degeneracy_polynomial",
    "nu",
]


class BoundaryCondition(Enum):
    PERFECTLY_CONDUCTING = "pc"
    INFINITELY_PERMEABLE = "ip"

    @classmethod
    def from_string(cls, s: str) -> "BoundaryCondition":
        try:
            return cls(s.strip().lower())
        except ValueError:
            raise ValueError(f"unknown boundary condition {s!r}; use 'pc' or 'ip'") from None


class Channel(Enum):
    TE = "TE"
    TM = "TM"


@dataclass(frozen=True)
class BoundaryPair:
    """Boundary conditions on the inner and outer sphere."""

    inner: BoundaryCondition
    outer: BoundaryCondition

    @property
    def is_homogeneous(self) -> bool:
        return self.inner == self.outer

    @property
    def is_mixed(self) -> bool:
        return self.inner != self.outer

    @classmethod
    def from_string(cls, s: str) -> "BoundaryPair":
        parts = [p for p in s.replace(";", ",").split(",") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"boundary pair must be 'inner,outer', got {s!r}")
        return cls(BoundaryCondition.from_string(parts[0]),
                   BoundaryCondition.from_string(parts[1]))

    def __str__(self):
        return f"{self.inner.value},{self.outer.value}"


def _integer_at_least(value, low: int, what: str) -> int:
    """``value`` as an int: any integral type (numpy's too) but bool, and >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_dim(dim: int) -> int:
    return _integer_at_least(dim, 3, "space dimension")


def _check_l(l: int) -> int:
    return _integer_at_least(l, 1, "angular number")


def nu(l: int, dim: int) -> float:
    """Bessel order nu = l + (D-2)/2."""
    l, dim = _check_l(l), _check_dim(dim)
    return l + (dim - 2) / 2.0


def nu_exact(l: int, dim: int) -> Fraction:
    l, dim = _check_l(l), _check_dim(dim)
    return Fraction(2 * l + dim - 2, 2)


def bc_coefficients(channel: Channel, bc: BoundaryCondition, dim: int
                    ) -> tuple[Fraction, Fraction]:
    """Robin pair (alpha, beta) for a sphere with the given condition.

    TE keeps the field's tangential structure; TM carries the radial weight
    r^{(D-2)/2}, and the permeable condition differentiates the TE weight
    r^{(4-D)/2} instead.
    """
    dim = _check_dim(dim)
    pc = bc is BoundaryCondition.PERFECTLY_CONDUCTING
    if channel is Channel.TE:
        return (Fraction(1), Fraction(0)) if pc else (Fraction(4 - dim, 2), Fraction(1))
    if channel is Channel.TM:
        return (Fraction(dim - 2, 2), Fraction(1)) if pc else (Fraction(1), Fraction(0))
    raise ValueError(f"unknown channel {channel!r}")


def degeneracy(channel: Channel, l: int, dim: int) -> int:
    """Number of modes at angular number l (exact integer)."""
    l, dim = _check_l(l), _check_dim(dim)
    if channel is Channel.TM:
        val = Fraction((2 * l + dim - 2) * math.factorial(l + dim - 3),
                       math.factorial(dim - 2) * math.factorial(l))
    elif channel is Channel.TE:
        val = Fraction(l * (l + dim - 2) * (2 * l + dim - 2) * math.factorial(l + dim - 4),
                       math.factorial(dim - 3) * math.factorial(l + 1))
    else:
        raise ValueError(f"unknown channel {channel!r}")
    if val.denominator != 1 or val <= 0:
        raise ArithmeticError(f"degeneracy came out non-integer: {val}")
    return int(val)


class DegeneracyPolynomial(RationalPolynomial):
    """Exact expansion of the degeneracy in powers of nu = l + (D-2)/2."""

    __slots__ = ("dim",)

    def __init__(self, poly: RationalPolynomial, dim: int):
        super().__init__(poly.coefficients)
        object.__setattr__(self, "dim", dim)

    def evaluate_exact(self, l: int) -> Fraction:
        x = nu_exact(l, self.dim)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@lru_cache(maxsize=None)
def degeneracy_polynomial(channel: Channel, dim: int) -> DegeneracyPolynomial:
    """Exact coefficients of the degeneracy in powers of nu (factorials cancelled)."""
    dim = _check_dim(dim)
    s = Fraction(dim - 2, 2)

    def l_plus(i):  # l + i = nu + i - (D-2)/2
        return RationalPolynomial([i - s, 1])

    two_nu = RationalPolynomial([0, 2])  # 2l + D - 2
    if channel is Channel.TM:
        p = two_nu
        for i in range(1, dim - 2):
            p = p * l_plus(i)
        p = p.scale(Fraction(1, math.factorial(dim - 2)))
    elif dim == 3:
        p = two_nu  # 2l + 1
    elif dim == 4:
        p = (l_plus(0) * l_plus(2)).scale(2)  # 2l(l+2)
    else:
        p = l_plus(0) * l_plus(dim - 2) * two_nu
        for i in range(2, dim - 3):
            p = p * l_plus(i)
        p = p.scale(Fraction(1, math.factorial(dim - 3)))
    return DegeneracyPolynomial(p, dim)
