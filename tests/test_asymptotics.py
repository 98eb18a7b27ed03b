import math

import numpy as np
import pytest
from scipy.integrate import quad

from casimir_spheres import (BoundaryCondition, BoundaryPair, Channel,
                             Geometry, OutOfRegimeError, TruncationPolicy,
                             assemble_zero_T_expansion, classical_term,
                             exact_thermal_force_leading,
                             expansion_coefficient_functions, high_T_expansion,
                             parallel_plate_density, pfa_energy,
                             pfa_thermal_force, riemann_zeta, sphere_area,
                             thermal_correction, thermal_leading, zero_T_expansion)
from casimir_spheres.asymptotics import _channel_weight, _effective_zeta

PC = BoundaryCondition.PERFECTLY_CONDUCTING
IP = BoundaryCondition.INFINITELY_PERMEABLE
PCPC = BoundaryPair(PC, PC)
PCIP = BoundaryPair(PC, IP)
IPPC = BoundaryPair(IP, PC)
IPIP = BoundaryPair(IP, IP)
ALL = (PCPC, IPIP, PCIP, IPPC)

# zeta(3) by Euler-Maclaurin with 10 correction terms (frozen).
ZETA3_EULER_MACLAURIN = 1.2020569031595942854


def test_zeta_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert riemann_zeta(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-14)
    assert riemann_zeta(3.0) == pytest.approx(ZETA3_EULER_MACLAURIN, rel=1e-13)
    assert riemann_zeta(60.0) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
    with pytest.raises(ValueError):
        riemann_zeta(0.5)


def test_lambda_fermionic_identity():
    # int_0^inf u^mu / (e^u + 1) du = Gamma(mu+1) (1 - 2^-mu) zeta(mu+1), and
    # log 2 at mu = 0: the mixed-pair weight of the series
    for mu in (0, 1, 2, 3, 5):
        integral, _ = quad(lambda u: u ** mu * math.exp(-u) / (1.0 + math.exp(-u)),
                           0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert math.gamma(mu + 1) * _effective_zeta(mu, True) == pytest.approx(
            integral, rel=1e-10)


def test_parallel_plate_d3_classic():
    # the textbook -pi^2/(720 d^3) for two ideal plates in D=3
    d = 0.7
    assert parallel_plate_density(3, PCPC, "zeroT", d) == pytest.approx(
        -math.pi ** 2 / (720 * d ** 3), rel=1e-13)


def test_parallel_plate_mixed_ratio():
    for dim in (3, 4, 7):
        zero_ratio = parallel_plate_density(dim, PCIP, "zeroT", 1.0) \
            / parallel_plate_density(dim, PCPC, "zeroT", 1.0)
        assert zero_ratio == pytest.approx(-(1 - 2.0 ** (-dim)), rel=1e-13)
        hi_ratio = parallel_plate_density(dim, IPPC, "highT", 1.0, T=2.0) \
            / parallel_plate_density(dim, IPIP, "highT", 1.0, T=2.0)
        assert hi_ratio == pytest.approx(-(1 - 2.0 ** (1 - dim)), rel=1e-13)


def test_parallel_plate_highT_d3():
    d, T = 0.5, 1.5
    expect = -2 * math.gamma(1.5) / (8 * math.pi ** 1.5) * riemann_zeta(3) * T / d ** 2
    assert parallel_plate_density(3, IPIP, "highT", d, T) == pytest.approx(
        expect, rel=1e-13)


def test_pfa_energy_closed_forms():
    g = Geometry.from_eps(0.1, 3)
    assert pfa_energy(g, PCPC, "zeroT") == pytest.approx(
        -math.pi ** 3 / (180 * 0.1 ** 3), rel=1e-12)
    assert pfa_energy(g, PCPC, "highT", T=2.0) == pytest.approx(
        -riemann_zeta(3) * 2.0 / (2 * 0.1 ** 2), rel=1e-12)
    assert pfa_energy(g, PCIP, "highT", T=2.0) == pytest.approx(
        3 * riemann_zeta(3) * 2.0 / (8 * 0.1 ** 2), rel=1e-12)
    assert pfa_energy(g, IPPC, "zeroT") == pytest.approx(
        (1 - 2.0 ** -3) * math.pi ** 3 / (180 * 0.1 ** 3), rel=1e-12)


def test_pfa_is_density_times_area():
    for dim in (3, 5, 8):
        g = Geometry.from_eps(0.2, dim)
        prod = parallel_plate_density(dim, PCPC, "zeroT", g.d) * sphere_area(dim, g.a1)
        assert pfa_energy(g, PCPC, "zeroT") == pytest.approx(prod, rel=1e-14)


@pytest.mark.parametrize("dim", [3, 4, 5, 7, 10])
def test_prefactor_consistency(dim, bc_pair):
    g = Geometry.from_eps(0.1, dim)
    for ch in (Channel.TE, Channel.TM, None):
        w = _channel_weight(dim, ch)
        zt = zero_T_expansion(dim, bc_pair, ch)
        assert zt.pfa_value(0.1) == pytest.approx(
            w * pfa_energy(g, bc_pair, "zeroT"), rel=1e-12)
        ht = high_T_expansion(dim, bc_pair, ch)
        assert ht.pfa_value(0.1) * 3.0 == pytest.approx(
            w * pfa_energy(g, bc_pair, "highT", T=3.0), rel=1e-12)


def test_channel_weights():
    for dim in (3, 4, 9):
        assert _channel_weight(dim, Channel.TE) == pytest.approx((dim - 2) / (dim - 1))
        assert _channel_weight(dim, Channel.TM) == pytest.approx(1 / (dim - 1))
        assert _channel_weight(dim, None) == 1.0


def test_first_correction_universality_homogeneous():
    for dim in (3, 4, 5, 9):
        for bc in (PCPC, IPIP):
            for ch in (Channel.TE, Channel.TM, None):
                for series in (zero_T_expansion(dim, bc, ch),
                               high_T_expansion(dim, bc, ch)):
                    assert series.coefficient(1) == pytest.approx(
                        (dim - 1) / 2.0, rel=1e-13)


def test_first_relative_term_is_unity():
    for series in (zero_T_expansion(6, PCIP, Channel.TE),
                   high_T_expansion(3, IPPC, None)):
        assert series.terms[0].power == 0 and not series.terms[0].log_eps
        assert series.terms[0].coefficient == 1.0


def test_mixed_ordering_pc_inner_stronger():
    for dim in (4, 6):
        for builder, regime_args in ((zero_T_expansion, ()), (high_T_expansion, ())):
            strong = builder(dim, PCIP, None, *regime_args)
            weak = builder(dim, IPPC, None, *regime_args)
            assert abs(strong.evaluate(0.05)) > abs(weak.evaluate(0.05))


def test_duality_d3_swaps_channels():
    for builder in (zero_T_expansion, high_T_expansion):
        assert builder(3, PCIP, Channel.TE).terms == builder(3, IPPC, Channel.TM).terms
        assert builder(3, PCIP, Channel.TM).terms == builder(3, IPPC, Channel.TE).terms
        assert builder(3, PCPC, Channel.TE).terms == builder(3, IPIP, Channel.TM).terms


def test_evaluate_domain():
    series = zero_T_expansion(3, PCPC)
    with pytest.raises(OutOfRegimeError):
        series.evaluate(0.6)
    with pytest.raises(OutOfRegimeError):
        series.evaluate(0.0)
    with pytest.raises(OutOfRegimeError):
        series.evaluate(-0.1)
    assert math.isfinite(series.evaluate(0.5))


def test_unsupported_dimension():
    with pytest.raises(OutOfRegimeError):
        zero_T_expansion(2, PCPC)
    with pytest.raises(OutOfRegimeError):
        high_T_expansion(17, PCPC)


def test_d3_zero_t_printed_plus_completion():
    pi2 = math.pi ** 2
    te = zero_T_expansion(3, PCPC, Channel.TE)
    tm = zero_T_expansion(3, PCPC, Channel.TM)
    assert te.prefactor == pytest.approx(-math.pi ** 3 / 360, rel=1e-13)
    assert te.coefficient(2) == pytest.approx(1 / 15 - 5 / (4 * pi2) - 55 / (4 * pi2),
                                              rel=1e-13)
    assert tm.coefficient(2) == pytest.approx(1 / 15 + 19 / (4 * pi2) - 55 / (4 * pi2),
                                              rel=1e-13)
    tot = zero_T_expansion(3, PCPC, None)
    assert tot.coefficient(2) == pytest.approx(1 / 15 + 7 / (4 * pi2) - 55 / (4 * pi2),
                                               rel=1e-13)
    mix = zero_T_expansion(3, PCIP, None)
    assert mix.prefactor == pytest.approx(7 * math.pi ** 3 / 1440, rel=1e-13)
    assert mix.coefficient(1) == pytest.approx(1.0, rel=1e-13)
    assert mix.coefficient(2) == pytest.approx(
        1 / 15 + 1 / pi2 + 192 / (7 * math.pi ** 4) - 55 / (7 * pi2), rel=1e-13)


def test_d3_highT_series():
    z3 = riemann_zeta(3)
    hom = high_T_expansion(3, PCPC, None)
    assert hom.coefficient(1) == pytest.approx(1.0)
    assert hom.coefficient(2, log_eps=True) == pytest.approx(11 / (6 * z3), rel=1e-13)
    te = high_T_expansion(3, PCIP, Channel.TE)
    assert te.coefficient(1) == pytest.approx(1 - 8 * math.log(2) / (3 * z3), rel=1e-13)
    assert te.coefficient(2, log_eps=True) == pytest.approx(-2 / (3 * z3), rel=1e-13)
    tot = high_T_expansion(3, PCIP, None)
    assert tot.coefficient(1) == pytest.approx(1.0, rel=1e-13)
    assert high_T_expansion(3, PCIP, Channel.TM).coefficient(0, log_eps=True) == 0.0


def test_highT_series_residual_order():
    # What the three-term series leaves, divided by the next order eps^k, must
    # settle to c0 + c1 ln eps: a wrong eps^2 coefficient would grow like 1/eps.
    # At D = 3 the third term is eps^2 ln eps, so k = 2 and c1 must vanish.
    eps_grid = (1e-2, 3e-3, 1e-3, 3e-4)
    policy = TruncationPolicy(rel_tol=1e-13, l_max_hard=10**6)
    basis = np.column_stack([np.ones(len(eps_grid)), np.log(eps_grid)])
    for dim in (3, 4, 5):
        k = 2 if dim == 3 else 3
        for bc in ALL:
            results = [classical_term(Geometry.from_eps(eps, dim), bc, None, policy)
                       for eps in eps_grid]
            for ch in (None, Channel.TE, Channel.TM):
                ser = high_T_expansion(dim, bc, ch)
                r = np.array([
                    ((res.value if ch is None else res.per_channel[ch.value])
                     / ser.pfa_value(eps) - ser.relative_value(eps)) / eps ** k
                    for eps, res in zip(eps_grid, results)])
                coef, *_ = np.linalg.lstsq(basis, r, rcond=None)
                assert np.max(np.abs(basis @ coef - r)) <= 0.1, (dim, str(bc), ch)
                if dim == 3:
                    assert abs(coef[1]) <= 0.01, (dim, str(bc), ch)


def test_d4_highT_total_value():
    # arithmetic of the general formula at D=4
    z = riemann_zeta(2) / riemann_zeta(4)
    ser = high_T_expansion(4, PCPC, None)
    assert ser.coefficient(1) == pytest.approx(1.5, rel=1e-14)
    assert ser.coefficient(2) == pytest.approx(0.5 - (24 / 18) * z, rel=1e-13)


def test_d5_mixed_highT_finite_via_log2_limit():
    for bc in (PCIP, IPPC):
        for ch in (Channel.TE, Channel.TM, None):
            ser = high_T_expansion(5, bc, ch)
            assert all(math.isfinite(t.coefficient) for t in ser.terms)
    # TM channel: the zeta(D-4)-family term equals 2(D-2)/(D-3) * 32 ln2 /
    # ((2^D-2) zeta(5)) at D=5
    tm = high_T_expansion(5, PCIP, Channel.TM)
    e2a = (3 * 5 - 8) * (5 - 1) / 24
    f1 = (2 ** 5 - 8) / (2 ** 5 - 2)
    z1 = riemann_zeta(3) / riemann_zeta(5)
    lim = 3.0 * 32 * math.log(2) / ((2 ** 5 - 2) * riemann_zeta(5))
    assert tm.coefficient(2) == pytest.approx(e2a + (5 * 5 - 8) / 6 * f1 * z1 + lim,
                                              rel=1e-13)


def test_assembly_gate_matches_stored():
    for dim in (4, 5, 6, 7):
        for bc in ALL:
            for ch in (Channel.TE, Channel.TM):
                stored = zero_T_expansion(dim, bc, ch)
                asm = assemble_zero_T_expansion(dim, bc, ch)
                assert asm.prefactor == pytest.approx(stored.prefactor, rel=1e-10)
                for p in (1, 2):
                    assert asm.coefficient(p) == pytest.approx(
                        stored.coefficient(p), rel=1e-10, abs=1e-12)


def test_assembly_needs_d4():
    with pytest.raises(OutOfRegimeError):
        assemble_zero_T_expansion(3, PCPC, Channel.TE)


def test_coefficient_functions():
    (a0, a1, a2), bval, (c0, c_inv), gval = expansion_coefficient_functions(
        3.0, 0.125, -5.0 / 24.0, 0.0, 0.0)
    assert a0 == pytest.approx(1.0, rel=1e-14)  # sqrt(pi)/2 * Gamma(1)/Gamma(1.5)
    assert a1 == pytest.approx(1.0)
    # with delta = kappa = 0 the C integral collapses to B, and G vanishes
    assert c_inv == 0.0
    assert c0 == pytest.approx(bval, rel=1e-14)
    assert gval == 0.0
    with pytest.raises(ValueError):
        expansion_coefficient_functions(1.0, 0.1, 0.1, 0.0, 0.0)


def test_thermal_leading_values():
    t4 = 0.1 ** 4
    for bc in (PC, IP):
        assert thermal_leading(3, bc, None, 1.0, 0.1) == pytest.approx(
            math.pi ** 3 / 15 * t4, rel=1e-12)
    assert thermal_leading(3, PC, Channel.TM, 1.0, 0.1) == pytest.approx(
        -2.0 * thermal_leading(3, PC, Channel.TE, 1.0, 0.1), rel=1e-13)
    # D=4 conducting inner, total: (D(D-1)/(2 sqrt(pi))) G(2.5)/G(2) zeta(5) (aT)^5
    expect = (4 * 3 / (2 * math.sqrt(math.pi))) * math.gamma(2.5) / math.gamma(2.0) \
        * riemann_zeta(5) * 0.1 ** 5
    assert thermal_leading(4, PC, None, 1.0, 0.1) == pytest.approx(expect, rel=1e-13)
    # independence from the outer sphere is structural: no a2 argument exists


def test_thermal_leading_ip_inner():
    base = math.gamma(2.5) / math.gamma(2.0) * riemann_zeta(5) * 0.1 ** 5 \
        / math.sqrt(math.pi)
    assert thermal_leading(4, IP, Channel.TE, 1.0, 0.1) == pytest.approx(
        4 * 3 / 2 * base, rel=1e-13)
    assert thermal_leading(4, IP, Channel.TM, 1.0, 0.1) == pytest.approx(
        -4 * base, rel=1e-13)
    assert thermal_leading(4, IP, None, 1.0, 0.1) == pytest.approx(
        2 * base, rel=1e-13)


def test_thermal_force_ratio():
    for dim in (3, 4, 6):
        ratio = exact_thermal_force_leading(dim, PC, 1.0, 0.2) \
            / pfa_thermal_force(dim, 1.0, 0.2)
        assert ratio == pytest.approx(dim ** 2 / 4.0, rel=1e-13)
    # D=3 conducting inner: -(9*2/(2 sqrt(pi))) Gamma(2)/Gamma(1.5) zeta(4) (aT)^4
    expect = -(9 * 2 / (2 * math.sqrt(math.pi))) * math.gamma(2.0) / math.gamma(1.5) \
        * riemann_zeta(4) * 0.2 ** 4
    assert exact_thermal_force_leading(3, PC, 1.0, 0.2) == pytest.approx(
        expect, rel=1e-13)


@pytest.mark.parametrize("dim,pair", [(3, PCPC), (3, IPPC), (4, PCPC), (4, IPPC)])
def test_exact_thermal_force_leading_is_the_inner_sphere_force(dim, pair):
    # -d(Delta_T E)/da1 at fixed a2 = 2, a1 = 1, by a central difference
    # (h = 1e-3) of the exact thermal correction: its ratio to the leading
    # term falls toward 1 as T falls, and is within 2% of it at T = 0.02
    h = 1e-3
    ratios = []
    for T in (0.05, 0.03, 0.02):
        plus, minus = (thermal_correction(Geometry(1.0 + s, 2.0, dim), pair, None, T).value
                       for s in (h, -h))
        ratios.append(-(plus - minus) / (2 * h)
                      / exact_thermal_force_leading(dim, pair.inner, 1.0, T))
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] == pytest.approx(1.0, abs=0.02)
