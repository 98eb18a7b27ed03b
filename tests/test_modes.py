import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_spheres import (BoundaryCondition, BoundaryPair, Channel,
                             bc_coefficients, degeneracy,
                             degeneracy_polynomial, nu)

PC = BoundaryCondition.PERFECTLY_CONDUCTING
IP = BoundaryCondition.INFINITELY_PERMEABLE


def test_nu_map():
    assert nu(1, 3) == 1.5
    assert nu(1, 4) == 2.0
    assert nu(10, 7) == 12.5
    with pytest.raises(ValueError):
        nu(0, 3)
    with pytest.raises(ValueError):
        nu(1, 2)
    # numpy integers, as np.arange gives them, are integers; bools are not
    assert nu(np.int64(3), np.int32(3)) == 3.5
    assert type(nu(np.int64(3), 3)) is float
    assert degeneracy(Channel.TE, np.int64(40), np.int64(5)) == degeneracy(Channel.TE, 40, 5)
    for l, dim in ((True, 3), (1, True), (np.int64(0), 3), (1.0, 3), (1, np.float64(3.0))):
        with pytest.raises(ValueError):
            nu(l, dim)
        with pytest.raises(ValueError):
            degeneracy(Channel.TM, l, dim)


def test_bc_table():
    for dim in (3, 4, 7):
        assert bc_coefficients(Channel.TE, PC, dim) == (1, 0)
        assert bc_coefficients(Channel.TM, IP, dim) == (1, 0)
        assert bc_coefficients(Channel.TM, PC, dim) == (Fraction(dim - 2, 2), 1)
        assert bc_coefficients(Channel.TE, IP, dim) == (Fraction(4 - dim, 2), 1)
    assert bc_coefficients(Channel.TM, PC, 3) == (Fraction(1, 2), 1)
    assert bc_coefficients(Channel.TE, IP, 4) == (0, 1)


def test_duality_pairing():
    # TM on a permeable sphere and TE on a conducting one share (1, 0)
    for dim in range(3, 10):
        assert bc_coefficients(Channel.TM, IP, dim) == \
            bc_coefficients(Channel.TE, PC, dim)


def test_l1_degeneracies():
    for dim in range(3, 12):
        assert degeneracy(Channel.TM, 1, dim) == dim
        assert degeneracy(Channel.TE, 1, dim) == dim * (dim - 1) // 2


def test_d3_both_channels_are_2l_plus_1():
    for l in range(1, 30):
        assert degeneracy(Channel.TM, l, 3) == 2 * l + 1
        assert degeneracy(Channel.TE, l, 3) == 2 * l + 1


def test_b2_dim4():
    assert degeneracy(Channel.TM, 2, 4) == 9


def test_degeneracy_domain():
    with pytest.raises(ValueError):
        degeneracy(Channel.TM, 0, 3)
    with pytest.raises(ValueError):
        degeneracy(Channel.TE, 1, 2)


def test_polynomial_equals_factorials_exactly():
    for dim in range(3, 11):
        for ch in (Channel.TE, Channel.TM):
            poly = degeneracy_polynomial(ch, dim)
            assert poly.degree == dim - 2
            for l in range(1, 51):
                assert poly.evaluate_exact(l) == degeneracy(ch, l, dim)


def test_leading_coefficients():
    for dim in range(4, 12):
        te = degeneracy_polynomial(Channel.TE, dim)
        tm = degeneracy_polynomial(Channel.TM, dim)
        assert te.coefficient(dim - 2) == Fraction(2, math.factorial(dim - 3))
        assert te.coefficient(dim - 3) == 0
        assert tm.coefficient(dim - 2) == Fraction(2, math.factorial(dim - 2))
        assert tm.coefficient(dim - 3) == 0
        assert te.coefficient(dim - 4) == \
            -Fraction(dim * dim - 6 * dim + 32, 12 * math.factorial(dim - 4))
        if dim >= 5:
            assert tm.coefficient(dim - 4) == \
                -Fraction(1, 12 * math.factorial(dim - 5))
    d4tm = degeneracy_polynomial(Channel.TM, 4)
    assert d4tm.coefficient(0) == 0  # 1/(-1)! = 0 reading


def test_d3_polynomials_are_2nu():
    for ch in (Channel.TE, Channel.TM):
        assert degeneracy_polynomial(ch, 3).coefficients == (Fraction(0), Fraction(2))


def test_degeneracy_strictly_increasing():
    for dim in range(3, 9):
        for ch in (Channel.TE, Channel.TM):
            vals = [degeneracy(ch, l, dim) for l in range(1, 40)]
            assert all(a < b for a, b in zip(vals, vals[1:]))


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=3, max_value=12),
       st.sampled_from([Channel.TE, Channel.TM]))
@settings(max_examples=120, deadline=None)
def test_polynomial_identity_property(l, dim, ch):
    assert degeneracy_polynomial(ch, dim).evaluate_exact(l) == degeneracy(ch, l, dim)


def test_boundary_pair_parsing():
    bp = BoundaryPair.from_string("pc,ip")
    assert bp.inner is PC and bp.outer is IP
    assert bp.is_mixed and not bp.is_homogeneous
    assert BoundaryPair.from_string(" PC , PC ").is_homogeneous
    with pytest.raises(ValueError):
        BoundaryPair.from_string("pc")
    with pytest.raises(ValueError):
        BoundaryPair.from_string("pc,metal")
