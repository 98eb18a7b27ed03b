"""Polynomial machinery for large-order uniform asymptotics of I_nu and K_nu.

The expansion variables are

    eta(z) = sqrt(1+z^2) + log(z / (1 + sqrt(1+z^2))),   t(z) = 1/sqrt(1+z^2),

and the coefficient polynomials u_k(t), v_k(t) obey the classical recursions

    u_0 = 1,  u_k = t^2(1-t^2)/2 * u_{k-1}' + 1/8 * int_0^t (1-5 s^2) u_{k-1}(s) ds,
    v_0 = 1,  v_k = u_k - t^2(1-t^2) u_{k-1}' - t(1-t^2)/2 * u_{k-1}.

The log-derived families D_k and M_{k,alpha} are the formal-log coefficients

    sum_k D_k / nu^k      = log(1 + sum_k u_k / nu^k),
    sum_k M_{k,alpha}/nu^k = log(1 + sum_k (v_k + alpha t u_{k-1}) / nu^k),

and appear directly in ratios of Robin combinations of I and K at equal order.
All recursion steps run in exact rational arithmetic; floats only enter when a
polynomial is evaluated.
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
    "debye_d",
    "debye_m",
    "debye_eta",
    "debye_t",
    "debye_eta_prime",
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


@lru_cache(maxsize=None)
def _log_series(kind: str, alpha: Fraction, order: int) -> tuple:
    """Coefficients of log(1 + sum_k a_k x^k) through x^order.

    kind "u": a_k = u_k;  kind "w": a_k = v_k + alpha * t * u_{k-1}.
    """
    if kind == "u":
        a = [_u(k) for k in range(order + 1)]
    else:
        a = [_ONE] + [
            _v(k) + _u(k - 1).shift_powers(1).scale(alpha) for k in range(1, order + 1)
        ]
    # log(1+S) = S - S^2/2 + S^3/3 - ..., S = sum_{k>=1} a_k x^k, truncated.
    zero = RationalPolynomial([])
    out = [zero] * (order + 1)
    power = [zero] + a[1:]  # S^1
    for m in range(1, order + 1):
        sign = Fraction((-1) ** (m + 1), m)
        for k in range(m, order + 1):
            out[k] = out[k] + power[k].scale(sign)
        if m == order:
            break
        nxt = [zero] * (order + 1)
        for i in range(m, order + 1):
            if power[i].coefficients:
                for j in range(1, order + 1 - i):
                    nxt[i + j] = nxt[i + j] + power[i] * a[j]
        power = nxt
    return tuple(out)


def debye_u(k: int) -> RationalPolynomial:
    """k-th coefficient polynomial of the I-type uniform expansion."""
    _check_order(k)
    return _u(k)


def debye_v(k: int) -> RationalPolynomial:
    """k-th coefficient polynomial of the derivative-type uniform expansion."""
    _check_order(k)
    return _v(k)


def debye_d(k: int) -> RationalPolynomial:
    """k-th formal-log coefficient of the u-series (Dirichlet combination)."""
    _check_order(k)
    if k == 0:
        return RationalPolynomial([])
    return _log_series("u", Fraction(0), k)[k]


def debye_m(k: int, alpha) -> RationalPolynomial:
    """k-th formal-log coefficient of the Robin combination with parameter alpha."""
    _check_order(k)
    if k == 0:
        return RationalPolynomial([])
    return _log_series("w", Fraction(alpha), k)[k]


def debye_eta(z: float) -> float:
    """eta(z) = sqrt(1+z^2) + log(z/(1+sqrt(1+z^2))), strictly increasing."""
    if not z > 0.0:
        raise ValueError(f"eta requires z > 0, got {z}")
    w = math.hypot(1.0, z)
    return w + math.log(z / (1.0 + w))

def debye_t(z: float) -> float:
    """t(z) = 1/sqrt(1+z^2), in (0, 1)."""
    if not z > 0.0:
        raise ValueError(f"t requires z > 0, got {z}")
    return 1.0 / math.hypot(1.0, z)


def debye_eta_prime(z: float) -> float:
    """eta'(z) = sqrt(1+z^2)/z."""
    if not z > 0.0:
        raise ValueError(f"eta' requires z > 0, got {z}")
    return math.hypot(1.0, z) / z
