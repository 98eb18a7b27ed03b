import math
from fractions import Fraction

import pytest

from casimir_spheres import (BoundaryCondition, Channel, RationalPolynomial,
                             debye_m, debye_u, debye_v)
from casimir_spheres.asymptotics import _order_one_polynomial
from casimir_spheres.debye import eta_from_w


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
    # a TE conducting sphere is Dirichlet (beta = 0): its order-one log is D_1 = u_1
    pc = BoundaryCondition.PERFECTLY_CONDUCTING
    for dim in (3, 4, 7):
        assert _order_one_polynomial(Channel.TE, pc, dim) == RationalPolynomial(
            [0, F(1, 8), 0, F(-5, 24)])


def test_m1_explicit():
    for alpha in (F(1, 2), F(-3, 2), F(0), F(7, 3)):
        m1 = debye_m(alpha)
        assert m1 == RationalPolynomial([0, alpha - F(3, 8), 0, F(7, 24)])


def test_max_order_gate():
    # the tables stop at the fixed order 8 the Bessel series sums through
    assert debye_u(8).degree == 24
    for k in (9, -1):
        with pytest.raises(ValueError):
            debye_u(k)


def eta(z):
    return eta_from_w(z, math.hypot(1.0, z))


def test_eta_t_values():
    assert eta(1.0) == pytest.approx(
        math.sqrt(2.0) + math.log(1.0 / (1.0 + math.sqrt(2.0))), rel=1e-15)
    # eta'(z) = sqrt(1 + z^2)/z = 1/(z t), by a central difference
    for z in (0.1, 2.0, 30.0):
        h = 1e-5 * z
        slope = (eta(z + h) - eta(z - h)) / (2.0 * h)
        assert slope == pytest.approx(math.hypot(1.0, z) / z, rel=1e-8)


def test_eta_monotone():
    zs = [10.0 ** e for e in range(-6, 7)]
    vals = [eta(z) for z in zs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_polynomial_arithmetic():
    p = RationalPolynomial([1, 2, 3])
    q = RationalPolynomial([0, 1])
    assert (p * q).coefficients == (F(0), F(1), F(2), F(3))
    assert (p + (-p)).coefficients == ()
    assert p.derivative() == RationalPolynomial([2, 6])
    assert q.antiderivative() == RationalPolynomial([0, 0, F(1, 2)])
    assert p(2.0) == pytest.approx(17.0)
    assert p.coefficient(5) == 0
