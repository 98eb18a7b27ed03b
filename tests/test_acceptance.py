"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output); the assertions carry the same conditions.
"""

import math

import numpy as np
import pytest

from casimir_spheres import (BoundaryCondition, BoundaryPair, Channel,
                             Geometry, TruncationPolicy,
                             assemble_zero_T_expansion, classical_term, force,
                             degeneracy, degeneracy_polynomial,
                             high_T_expansion, pfa_energy, riemann_zeta,
                             thermal_correction, zero_T_energy,
                             zero_T_expansion)
from casimir_spheres.selftest import (_check_overlap, _check_recursion_ground_truth,
                                      _check_wronskian, fit_mixed_log_reading)

PC = BoundaryCondition.PERFECTLY_CONDUCTING
IP = BoundaryCondition.INFINITELY_PERMEABLE
PCPC = BoundaryPair(PC, PC)
PCIP = BoundaryPair(PC, IP)
IPPC = BoundaryPair(IP, PC)
IPIP = BoundaryPair(IP, IP)
ALL_PAIRS = (PCPC, IPIP, PCIP, IPPC)


def _report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _quadratic_extrapolate(eps_values, values):
    """Exact 3-point solve of v = c0 + c1 e + c2 e^2; returns (c0, c1, c2)."""
    a = np.vander(np.asarray(eps_values), 3, increasing=True)
    return np.linalg.solve(a, np.asarray(values))


def test_criterion_1_zero_t_leading_d3_homogeneous():
    eps_grid = (0.2, 0.1, 0.05)
    pol = TruncationPolicy(rel_tol=1e-9)
    total, te, tm = [], [], []
    for eps in eps_grid:
        res = zero_T_energy(Geometry.from_eps(eps, 3), PCPC, None, pol)
        total.append(eps ** 3 * res.value)
        te.append(eps ** 3 * res.per_channel["TE"])
        tm.append(eps ** 3 * res.per_channel["TM"])
    c0_tot = _quadratic_extrapolate(eps_grid, total)[0]
    c0_te = _quadratic_extrapolate(eps_grid, te)[0]
    c0_tm = _quadratic_extrapolate(eps_grid, tm)[0]
    target, target_ch = -math.pi ** 3 / 180, -math.pi ** 3 / 360
    devs = (abs(c0_tot / target - 1), abs(c0_te / target_ch - 1),
            abs(c0_tm / target_ch - 1))
    ok = all(d <= 0.01 for d in devs)
    assert _report(1, ok,
                   f"eps^3 E0 -> {c0_tot:.5f} vs -pi^3/180 = {target:.5f} "
                   f"(dev {devs[0]:.2%}); per-channel devs {devs[1]:.2%}, {devs[2]:.2%}")


def test_criterion_2_first_correction_slope():
    eps_grid = (0.02, 0.05, 0.1)
    pol = TruncationPolicy(rel_tol=1e-9, l_max_hard=10 ** 5)
    worst = (0.0, "")
    for dim in (3, 4, 5):
        want = (dim - 1) / 2.0
        for regime in ("zeroT", "highT"):
            series = (zero_T_expansion if regime == "zeroT"
                      else high_T_expansion)(dim, PCPC, None)
            resid = []
            for eps in eps_grid:
                g = Geometry.from_eps(eps, dim)
                if regime == "zeroT":
                    exact = zero_T_energy(g, PCPC, None, pol).value
                    pfa = pfa_energy(g, PCPC, "zeroT")
                else:
                    exact = classical_term(g, PCPC, None, pol).value
                    pfa = pfa_energy(g, PCPC, "highT", T=1.0)
                r = exact / pfa - 1.0
                # subtract the known eps^2 and eps^2 log eps corrections
                known = series.relative_value(eps) - 1.0 - want * eps
                resid.append(r - known)
            eps_arr = np.asarray(eps_grid)
            slope = float(np.dot(resid, eps_arr) / np.dot(eps_arr, eps_arr))
            dev = abs(slope / want - 1.0)
            if dev > worst[0]:
                worst = (dev, f"D={dim} {regime}: slope {slope:.4f} vs {want}")
    ok = worst[0] <= 0.05
    assert _report(2, ok, f"worst slope deviation {worst[0]:.2%} ({worst[1]})")


def test_criterion_3_high_t_classical_d3():
    eps = 1e-2
    z3 = riemann_zeta(3.0)
    res = classical_term(Geometry.from_eps(eps, 3), PCPC, None,
                         TruncationPolicy(rel_tol=1e-12, l_max_hard=10 ** 5))
    lhs = 2.0 * eps ** 2 * res.value / (-z3)
    rhs = 1.0 + eps + 11.0 / (6.0 * z3) * eps ** 2 * math.log(eps)
    dev = abs(lhs - rhs)
    ok = dev <= 1e-3
    assert _report(3, ok, f"|2 eps^2 E_cl/(-zeta3) - series| = {dev:.2e} <= 1e-3")


def test_criterion_4_mixed_zero_t_d3():
    eps_grid = (0.2, 0.1, 0.05)
    pol = TruncationPolicy(rel_tol=1e-9)
    vals = [eps ** 3 * zero_T_energy(Geometry.from_eps(eps, 3), PCIP, None, pol).value
            for eps in eps_grid]
    c0, c1, _ = _quadratic_extrapolate(eps_grid, vals)
    target = 7.0 * math.pi ** 3 / 1440.0
    dev0 = abs(c0 / target - 1.0)
    dev1 = abs(c1 / c0 - 1.0)  # relative eps coefficient is exactly 1
    ok = dev0 <= 0.01 and dev1 <= 0.05
    assert _report(4, ok, f"eps^3 E0 -> {c0:.5f} vs 7pi^3/1440 = {target:.5f} "
                          f"(dev {dev0:.2%}); eps-coefficient {c1 / c0:.4f} "
                          f"(dev {dev1:.2%})")


@pytest.fixture(scope="module")
def thermal_data():
    temps = (0.05, 0.08, 0.12)
    pol = TruncationPolicy(rel_tol=1e-9)
    g = Geometry.from_eps(0.1, 3)
    out = {}
    for bp in ALL_PAIRS:
        runs = [thermal_correction(g, bp, None, T, pol) for T in temps]
        out[str(bp)] = (temps, runs)
    return out


def test_criterion_5_thermal_correction_universal(thermal_data):
    target = math.pi ** 3 / 15.0
    basis = lambda T: (1.0, T * T, T ** 4)
    devs = {}
    for name, (temps, runs) in thermal_data.items():
        a = np.asarray([basis(t) for t in temps])
        y = np.asarray([r.value / t ** 4 for r, t in zip(runs, temps)])
        c0 = np.linalg.solve(a, y)[0]
        devs[name] = abs(c0 / target - 1.0)
    ok = all(d <= 0.02 for d in devs.values())
    detail = ", ".join(f"{k}: {v:.2%}" for k, v in devs.items())
    assert _report(5, ok, f"Delta_T E/T^4 -> pi^3/15 for all pairs ({detail})")


def test_criterion_6_pc_inner_channel_ratio(thermal_data):
    temps, runs = thermal_data[str(PCPC)]
    a = np.asarray([(1.0, t * t, t ** 4) for t in temps])
    te = np.linalg.solve(a, [r.per_channel["TE"] / t ** 4
                             for r, t in zip(runs, temps)])[0]
    tm = np.linalg.solve(a, [r.per_channel["TM"] / t ** 4
                             for r, t in zip(runs, temps)])[0]
    ratio = tm / te
    ok = abs(ratio / -2.0 - 1.0) <= 0.05
    assert _report(6, ok, f"Delta_T E_TM / Delta_T E_TE -> {ratio:.4f} (want -2)")


def test_criterion_7_sign_and_monotonicity_suite():
    pol = TruncationPolicy(rel_tol=1e-5)
    failures = []
    checked = 0
    for dim in (3, 4, 5):
        for bp in ALL_PAIRS:
            attractive = bp.is_homogeneous
            for a1T in (0.0, 0.5, 10.0):
                energies = []
                for eps in (0.05, 0.3, 1.0):
                    g = Geometry.from_eps(eps, dim)
                    if a1T == 0.0:
                        e = zero_T_energy(g, bp, None, pol).value
                    else:
                        e = free_energy_value(g, bp, a1T, pol)
                    f = force(g, bp, a1T, pol)
                    checked += 1
                    if (e < 0) != attractive:
                        failures.append(f"E sign {bp} D={dim} eps={eps} T={a1T}")
                    if (f < 0) != attractive:
                        failures.append(f"force sign {bp} D={dim} eps={eps} T={a1T}")
                    energies.append(abs(e))
                if not all(a > b for a, b in zip(energies, energies[1:])):
                    failures.append(f"|E| not decreasing in eps {bp} D={dim} T={a1T}")
    ok = not failures
    assert _report(7, ok, f"{checked} grid points, failures: {failures or 'none'}")


def free_energy_value(g, bp, T, pol):
    from casimir_spheres import free_energy
    return free_energy(g, bp, None, T, pol).value


def test_criterion_8_special_function_suite():
    w = _check_wronskian()
    o = _check_overlap()
    r = _check_recursion_ground_truth()
    ok = w.passed and o.passed and r.passed
    assert _report(8, ok, f"{w.detail}; overlap {o.detail}; {r.detail}")


def test_overlap_check_reaches_the_small_z_k_series():
    # z = 1e-6 .. 1e-2 at each of its four orders, inside bessel's own K series window
    o = _check_overlap()
    assert o.passed and o.detail.endswith(", 16 small-z K points")


def test_criterion_9_degeneracy_identities():
    from fractions import Fraction
    ok = True
    for dim in range(3, 11):
        for ch in (Channel.TE, Channel.TM):
            poly = degeneracy_polynomial(ch, dim)
            ok = ok and all(poly.evaluate_exact(l) == degeneracy(ch, l, dim)
                            for l in range(1, 51))
        ok = ok and degeneracy(Channel.TM, 1, dim) == dim
        ok = ok and degeneracy(Channel.TE, 1, dim) * 2 == dim * (dim - 1)
        if dim >= 4:
            te = degeneracy_polynomial(Channel.TE, dim)
            tm = degeneracy_polynomial(Channel.TM, dim)
            ok = ok and te.coefficient(dim - 2) == \
                Fraction(2, math.factorial(dim - 3))
            ok = ok and tm.coefficient(dim - 2) == \
                Fraction(2, math.factorial(dim - 2))
            ok = ok and te.coefficient(dim - 3) == 0 == tm.coefficient(dim - 3)
    assert _report(9, ok, "factorial formulas == polynomial expansion, l=1..50, "
                          "D=3..10; top coefficients exact")


def test_criterion_10_assembly_gate():
    worst = 0.0
    for dim in (4, 6, 7):
        for bp in ALL_PAIRS:
            for ch in (Channel.TE, Channel.TM):
                stored = zero_T_expansion(dim, bp, ch)
                asm = assemble_zero_T_expansion(dim, bp, ch)
                worst = max(worst, abs(asm.prefactor / stored.prefactor - 1.0))
                for p in (1, 2):
                    s = stored.coefficient(p)
                    worst = max(worst, abs(asm.coefficient(p) - s)
                                / max(abs(s), 1e-6))
    finite = all(math.isfinite(t.coefficient)
                 for bp in (PCIP, IPPC)
                 for t in high_T_expansion(5, bp, None).terms)
    ok = worst <= 1e-10 and finite
    assert _report(10, ok, f"assembled-vs-stored worst rel dev {worst:.2e}; "
                           f"D=5 mixed high-T finite via 32 log 2: {finite}")


def test_criterion_11_log_reading_fit():
    rep = fit_mixed_log_reading()
    ok = rep["selected"] == "eps2_ln" and rep["residual_improvement"] >= 10.0
    assert _report(
        11, ok,
        f"reading {rep['selected']} selected with {rep['residual_improvement']:.0f}x "
        f"residual improvement; fitted log coefficient "
        f"{rep['eps2_ln']['c_log']:+.4f} vs closed form {rep['expected_c_log']:+.4f}")
