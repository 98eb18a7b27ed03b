"""Polynomial machinery for large-order uniform asymptotics of I_nu and K_nu.

The expansion variables are

    eta(z) = sqrt(1+z^2) + log(z / (1 + sqrt(1+z^2))),   t(z) = 1/sqrt(1+z^2),

and the coefficient polynomials u_k(t), v_k(t) obey the classical recursions

    u_0 = 1,  u_k = t^2(1-t^2)/2 * u_{k-1}' + 1/8 * int_0^t (1-5 s^2) u_{k-1}(s) ds,
    v_0 = 1,  v_k = u_k - t^2(1-t^2) u_{k-1}' - t(1-t^2)/2 * u_{k-1}.

The Bessel module sums u_k and v_k + alpha t u_{k-1} through MAX_ORDER, from
one float coefficient matrix per alpha.  The small-gap series need only the
order-one terms of the logs of
those sums, the closed forms

    D_1 = u_1,   M_{1,alpha} = v_1 + alpha t,

for a Dirichlet sphere (``debye_u(1)`` itself) and a Robin sphere
(``debye_m``).  All recursion steps run in exact
rational arithmetic; floats only enter when a polynomial is evaluated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

__all__ = [
    "RationalPolynomial",
    "debye_u",
    "debye_v",
    "debye_m",
]

# Highest order of the u_k/v_k tables; the Bessel series sums through it.
MAX_ORDER = 8


class RationalPolynomial:
    """Immutable polynomial in one variable with exact Fraction coefficients.

    Coefficient i multiplies t**i.  Arithmetic never rounds; ``__call__``
    evaluates with float Horner.
    """

    __slots__ = ("coefficients", "_float_coeffs")

    def __init__(self, coefficients):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "_float_coeffs", tuple(float(c) for c in coeffs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("RationalPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPolynomial):
            return self.coefficients == other.coefficients
        if isinstance(other, Rational):
            return self.coefficients == (RationalPolynomial([other]).coefficients)
        return NotImplemented

    def __hash__(self):
        return hash(self.coefficients)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return RationalPolynomial(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self.coefficients])

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, Rational):
            return self.scale(other)
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return RationalPolynomial([])
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def scale(self, q) -> "RationalPolynomial":
        q = Fraction(q)
        return RationalPolynomial([c * q for c in self.coefficients])

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [c * (i + 1) for i, c in enumerate(self.coefficients[1:])]
        )

    def antiderivative(self) -> "RationalPolynomial":
        """Antiderivative vanishing at 0."""
        return RationalPolynomial(
            [Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coefficients)]
        )

    def shift_powers(self, n: int) -> "RationalPolynomial":
        """Multiply by t**n."""
        return RationalPolynomial((Fraction(0),) * n + self.coefficients)

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self._float_coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"RationalPolynomial({list(self.coefficients)!r})"


_ONE = RationalPolynomial([1])
# t^2(1-t^2) and (1 - 5 t^2), fixed factors of the recursion.
_T2_M_T4 = RationalPolynomial([0, 0, 1, 0, -1])
_W_KERNEL = RationalPolynomial([1, 0, -5])
_T_M_T3_HALF = RationalPolynomial([0, Fraction(1, 2), 0, Fraction(-1, 2)])


def _check_order(k: int) -> None:
    if not isinstance(k, int) or not 0 <= k <= MAX_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_ORDER}], got {k!r}")


@lru_cache(maxsize=None)
def _u(k: int) -> RationalPolynomial:
    if k == 0:
        return _ONE
    prev = _u(k - 1)
    return (_T2_M_T4 * prev.derivative()).scale(Fraction(1, 2)) + (
        _W_KERNEL * prev
    ).antiderivative().scale(Fraction(1, 8))


@lru_cache(maxsize=None)
def _v(k: int) -> RationalPolynomial:
    if k == 0:
        return _ONE
    prev = _u(k - 1)
    return _u(k) - _T2_M_T4 * prev.derivative() - _T_M_T3_HALF * prev


def debye_u(k: int) -> RationalPolynomial:
    """k-th coefficient polynomial of the I-type uniform expansion."""
    _check_order(k)
    return _u(k)


def debye_v(k: int) -> RationalPolynomial:
    """k-th coefficient polynomial of the derivative-type uniform expansion."""
    _check_order(k)
    return _v(k)


def debye_m(alpha) -> RationalPolynomial:
    """Order-one term M_{1,alpha} = v_1 + alpha t of the log of the Robin series."""
    return _v(1) + RationalPolynomial([0, alpha])


def eta_from_w(z: float, w: float) -> float:
    """eta(z) given w = sqrt(1+z^2)."""
    return w + math.log(z / (1.0 + w))
