import math
from fractions import Fraction

import pytest

from casimir_spheres import (RationalPolynomial, debye_d, debye_eta,
                             debye_eta_prime, debye_m, debye_t, debye_u,
                             debye_v)


def F(a, b=1):
    return Fraction(a, b)


def test_u0_u1():
    assert debye_u(0) == RationalPolynomial([1])
    # (3t - 5t^3)/24
    assert debye_u(1) == RationalPolynomial([0, F(1, 8), 0, F(-5, 24)])


def test_u2_known_value():
    assert debye_u(2) == RationalPolynomial(
        [0, 0, F(81, 1152), 0, F(-462, 1152), 0, F(385, 1152)])


def test_u_degree_and_sparsity():
    # u_k has degree 3k and only powers t^k, t^(k+2), ..., t^(3k)
    for k in range(0, 9):
        u = debye_u(k)
        assert u.degree == 3 * k
        for p, c in enumerate(u.coefficients):
            if c != 0:
                assert p >= k and (p - k) % 2 == 0


def test_v1():
    assert debye_v(1) == RationalPolynomial([0, F(-3, 8), 0, F(7, 24)])


def test_d1_explicit():
    assert debye_d(1) == RationalPolynomial([0, F(1, 8), 0, F(-5, 24)])


def test_m1_explicit():
    for alpha in (F(1, 2), F(-3, 2), F(0), F(7, 3)):
        m1 = debye_m(1, alpha)
        assert m1 == RationalPolynomial([0, alpha - F(3, 8), 0, F(7, 24)])


def test_log_polynomials_stop_at_order_one():
    # only the order-one closed forms are built; order 0 is the empty polynomial
    assert debye_d(0) == RationalPolynomial([])
    assert debye_m(0, F(1, 2)) == RationalPolynomial([])
    for k in (2, 3, -1):
        with pytest.raises(ValueError):
            debye_d(k)
        with pytest.raises(ValueError):
            debye_m(k, F(1, 2))


def test_max_order_gate():
    # the tables stop at the fixed order 8 the Bessel series sums through
    assert debye_u(8).degree == 24
    for k in (9, -1):
        with pytest.raises(ValueError):
            debye_u(k)


def test_eta_t_values():
    assert debye_t(math.sqrt(3.0)) == pytest.approx(0.5, rel=1e-15)
    assert debye_eta(1.0) == pytest.approx(
        math.sqrt(2.0) + math.log(1.0 / (1.0 + math.sqrt(2.0))), rel=1e-15)
    # t -> 1 as z -> 0+
    assert debye_t(1e-12) == pytest.approx(1.0, abs=1e-15)
    assert debye_eta_prime(2.0) == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-15)


def test_eta_monotone():
    zs = [10.0 ** e for e in range(-6, 7)]
    vals = [debye_eta(z) for z in zs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < debye_t(z) < 1.0 for z in zs)


def test_domain_errors():
    for fn in (debye_eta, debye_t, debye_eta_prime):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.0)


def test_polynomial_arithmetic():
    p = RationalPolynomial([1, 2, 3])
    q = RationalPolynomial([0, 1])
    assert (p * q).coefficients == (F(0), F(1), F(2), F(3))
    assert (p + (-p)).coefficients == ()
    assert p.derivative() == RationalPolynomial([2, 6])
    assert q.antiderivative() == RationalPolynomial([0, 0, F(1, 2)])
    assert p(2.0) == pytest.approx(17.0)
    assert p.coefficient(5) == 0
