import math

import pytest

from casimir_spheres import bessel
from casimir_spheres import (BoundaryCondition, BoundaryPair, Channel,
                             Geometry, NonConvergenceError, PrecisionLossError,
                             TruncationPolicy, classical_term, degeneracy, f_l, force,
                             free_energy, m_ratio, riemann_zeta,
                             thermal_correction, zero_T_energy,
                             zero_T_expansion)

PC = BoundaryCondition.PERFECTLY_CONDUCTING
IP = BoundaryCondition.INFINITELY_PERMEABLE
PCPC = BoundaryPair(PC, PC)
PCIP = BoundaryPair(PC, IP)
IPPC = BoundaryPair(IP, PC)
IPIP = BoundaryPair(IP, IP)

FAST = TruncationPolicy(rel_tol=1e-6)


def test_geometry_fields():
    g = Geometry(2.0, 2.5, 4)
    assert g.eps == pytest.approx(0.25)
    assert g.d == pytest.approx(0.5)
    assert g.alpha_log == pytest.approx(math.log(1.25), rel=1e-15)
    with pytest.raises(ValueError):
        Geometry(1.0, 0.9, 3)
    with pytest.raises(ValueError):
        Geometry(-1.0, 2.0, 3)
    with pytest.raises(ValueError):
        Geometry(1.0, 2.0, 2)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(rel_tol=0.1)
    with pytest.raises(ValueError):
        TruncationPolicy(rel_tol=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(l_max_hard=0)
    # caps bound range(): a float or a bool is not a cap
    for caps in ({"l_max_hard": 1e3}, {"l_max_hard": True}, {"p_max_hard": 2.0},
                 {"p_max_hard": 0}):
        with pytest.raises(ValueError):
            TruncationPolicy(**caps)


# --- M and f -----------------------------------------------------------------

def test_m_golden_value():
    # D=3, l=1, PC-PC TE, a1=1, a2=2, xi=1: half-integer closed forms give
    # I_{3/2}(1) K_{3/2}(2) / (I_{3/2}(2) K_{3/2}(1)); mpmath dps=40
    g = Geometry(1.0, 2.0, 3)
    assert m_ratio(1, g, PCPC, Channel.TE, 1.0) == pytest.approx(
        0.05208500617248439581886, rel=1e-12)


def test_m_homogeneous_in_unit_interval():
    g = Geometry(1.0, 1.3, 4)
    for l in (1, 3, 10):
        for xi in (0.1, 1.0, 10.0):
            for ch in (Channel.TE, Channel.TM):
                m = m_ratio(l, g, PCPC, ch, xi)
                assert 0.0 < m < 1.0


def test_m_mixed_negative():
    # sign tracking through the Robin combinations, across 24 scattered points
    cases = [(3, 0.2, 1, 0.5), (3, 0.7, 2, 2.0), (4, 0.5, 1, 1.0),
             (5, 0.1, 4, 3.0), (6, 0.3, 2, 0.2), (4, 1.0, 3, 5.0)]
    for dim, eps, l, xi in cases:
        g = Geometry.from_eps(eps, dim)
        for ch in (Channel.TE, Channel.TM):
            for bc in (PCIP, IPPC):
                assert m_ratio(l, g, bc, ch, xi) < 0.0


@pytest.mark.parametrize("l", [10, 60])  # below and above the nu = 50 seam
@pytest.mark.parametrize("xi", [math.nan, math.inf])
def test_non_finite_xi_rejected(l, xi):
    g = Geometry.from_eps(0.05, 3)
    with pytest.raises(ValueError, match="xi must be"):
        f_l(l, g, PCPC, Channel.TE, xi)
    with pytest.raises(ValueError, match="xi must be"):
        m_ratio(l, g, PCPC, Channel.TE, xi)


def test_m_vanishes_at_large_separation():
    g = Geometry(1.0, 1e6, 3)
    assert abs(m_ratio(1, g, PCPC, Channel.TE, 1.0)) < 1e-300


def test_f0_closed_forms():
    g = Geometry(1.0, 2.0, 3)
    # homogeneous: prefactor is exactly 1
    assert f_l(1, g, PCPC, Channel.TE, 0.0) == pytest.approx(
        math.log(1.0 - 0.125), rel=1e-15)
    # mixed TM: ln(1 + 2 * (1/2)^3) = ln(5/4)
    assert f_l(1, g, PCIP, Channel.TM, 0.0) == pytest.approx(
        math.log(1.25), rel=1e-14)


def test_f_limits_and_signs():
    g = Geometry(1.0, 1.5, 3)
    assert f_l(1, g, PCPC, Channel.TE, 40.0) == pytest.approx(0.0, abs=1e-12)
    assert f_l(1, g, PCPC, Channel.TE, 1.0) < 0.0
    assert f_l(1, g, PCIP, Channel.TE, 1.0) > 0.0
    with pytest.raises(ValueError):
        f_l(1, g, PCPC, Channel.TE, -1.0)
    with pytest.raises(ValueError):
        m_ratio(1, g, PCPC, Channel.TE, 0.0)


def test_f_precision_loss_for_touching_spheres():
    g = Geometry(1.0, 1.0 + 5e-14, 3)
    with pytest.raises(PrecisionLossError):
        f_l(1, g, PCPC, Channel.TE, 1.0)


@pytest.mark.parametrize("dim", [3, 16])
def test_library_robin_factors_need_no_mpmath(dim, monkeypatch):
    # |alpha/beta| <= (D-2)/2 < nu, so the Robin factor c + t adds same-sign terms
    calls, original = [], bessel._robin_mpmath
    monkeypatch.setattr(bessel, "_robin_mpmath",
                        lambda *args: calls.append(args) or original(*args))
    g = Geometry.from_eps(0.6, dim)
    for pair in (PCPC, PCIP, IPPC, IPIP):
        zero_T_energy(g, pair, None, FAST)
        free_energy(g, pair, None, 0.5, FAST)
    assert calls == []


# --- classical term ----------------------------------------------------------

def test_classical_direct_sum_oracle():
    g = Geometry(1.0, 2.0, 3)
    res = classical_term(g, PCPC)
    direct = sum((2 * l + 1) * math.log1p(-0.25 ** (l + 0.5))
                 for l in range(1, 400))
    assert res.value == pytest.approx(direct, rel=1e-12)
    assert res.per_channel["TE"] == pytest.approx(direct / 2, rel=1e-12)


def test_classical_mixed_positive_terms():
    g = Geometry(1.0, 1.4, 5)
    res = classical_term(g, PCIP)
    assert res.value > 0.0
    assert all(v > 0 for v in res.per_channel.values())


def test_classical_small_gap_limit():
    g = Geometry.from_eps(1e-3, 3)
    res = classical_term(g, PCPC, policy=TruncationPolicy(l_max_hard=10 ** 6))
    # eps^2 * classical -> -zeta(3)/2 with the known eps correction
    assert 1e-6 * res.value == pytest.approx(-riemann_zeta(3.0) / 2 * (1 + 1e-3),
                                             rel=2e-5)


def test_classical_error_contract():
    g = Geometry(1.0, 1.2, 4)
    res = classical_term(g, IPIP)
    assert abs(res.error_estimate) <= 1e-9 * abs(res.value)
    assert res.temperature is None


def test_classical_hard_cap_raises():
    g = Geometry.from_eps(1e-4, 3)
    cap = TruncationPolicy(l_max_hard=1000)
    partials = {}
    for ch in (Channel.TE, Channel.TM, None):
        with pytest.raises(NonConvergenceError) as exc:
            classical_term(g, PCPC, ch, cap)
        assert exc.value.l_used == 1000
        partials[ch] = exc.value.partial
    # every channel runs to its cap, as in the angular-sum driver
    assert partials[None] == pytest.approx(partials[Channel.TE] + partials[Channel.TM],
                                           rel=1e-15)


@pytest.mark.parametrize("dim", [3, 5, 16])
@pytest.mark.parametrize("pair", [PCIP, IPPC], ids=["pc,ip", "ip,pc"])
@pytest.mark.parametrize("channel", [Channel.TE, Channel.TM])
def test_classical_mixed_pair_matches_f0_sum(dim, pair, channel):
    g = Geometry.from_eps(0.4, dim)
    res = classical_term(g, pair, channel, TruncationPolicy(rel_tol=1e-12))
    direct = 0.5 * math.fsum(degeneracy(channel, l, dim) * f_l(l, g, pair, channel, 0.0)
                             for l in range(1, 400))
    assert res.value == pytest.approx(direct, rel=1e-13)


# --- free energy and limits --------------------------------------------------

def test_free_energy_requires_positive_T():
    g = Geometry(1.0, 1.5, 3)
    with pytest.raises(ValueError):
        free_energy(g, PCPC, None, 0.0)


def test_high_temperature_limit_is_classical():
    g = Geometry.from_eps(0.3, 3)
    e = free_energy(g, PCPC, None, 20.0)
    cl = classical_term(g, PCPC)
    assert abs(e.value - 20.0 * cl.value) <= 1e-6 * abs(e.value)


def test_sign_dichotomy_free_energy():
    g = Geometry.from_eps(0.3, 4)
    assert free_energy(g, PCPC, None, 1.0, FAST).value < 0.0
    assert free_energy(g, IPIP, None, 1.0, FAST).value < 0.0
    assert free_energy(g, PCIP, None, 1.0, FAST).value > 0.0
    assert free_energy(g, IPPC, None, 1.0, FAST).value > 0.0


def test_free_energy_channel_split():
    g = Geometry.from_eps(0.4, 3)
    tot = free_energy(g, PCPC, None, 1.0)
    te = free_energy(g, PCPC, Channel.TE, 1.0)
    tm = free_energy(g, PCPC, Channel.TM, 1.0)
    assert tot.value == pytest.approx(te.value + tm.value, rel=1e-10)
    assert tot.per_channel["TE"] == pytest.approx(te.value, rel=1e-12)
    assert set(te.per_channel) == {"TE"}


def test_scale_invariance():
    base = free_energy(Geometry(1.0, 1.3, 3), PCPC, None, 1.0)
    for lam in (0.5, 2.0):
        scaled = free_energy(Geometry(lam, 1.3 * lam, 3), PCPC, None, 1.0 / lam)
        assert scaled.value == pytest.approx(base.value / lam, rel=1e-9)


def test_monotone_decay_in_separation():
    vals = []
    for ratio in (1.1, 1.5, 2.0, 4.0, 10.0):
        g = Geometry(1.0, ratio, 3)
        vals.append(abs(free_energy(g, PCPC, None, 1.0, FAST).value))
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_truncation_soundness():
    g = Geometry.from_eps(0.2, 3)
    loose = free_energy(g, PCPC, None, 0.8, TruncationPolicy(rel_tol=1e-6))
    tight = free_energy(g, PCPC, None, 0.8, TruncationPolicy(rel_tol=1e-12))
    assert abs(loose.value - tight.value) <= 3.0 * loose.error_estimate


def test_l_cutoff_scales_inversely_with_gap():
    # geometric decay exp(-2 nu log(1+eps)) puts the cutoff near
    # ln(1/tol)/(2 eps): halving the gap roughly doubles l_used
    l_used = {}
    for eps in (0.1, 0.05):
        res = zero_T_energy(Geometry.from_eps(eps, 3), PCPC, None, FAST)
        l_used[eps] = res.l_used
    ratio = l_used[0.05] / l_used[0.1]
    assert 1.6 <= ratio <= 2.6


def test_p_cutoff_modest_at_moderate_temperature():
    res = free_energy(Geometry.from_eps(0.1, 3), PCPC, None, 5.0, FAST)
    assert res.p_used <= 40  # O(10) Matsubara terms at a1 T = 5


# --- zero temperature ---------------------------------------------------------

def test_zero_t_spec_point():
    g = Geometry.from_eps(0.1, 3)
    res = zero_T_energy(g, PCPC)
    series = -math.pi ** 3 / 180 / 1e-3 * (1 + 0.1 + 0.01 / 15
                                           + 0.01 * 7 / (4 * math.pi ** 2))
    # three-term series accuracy at eps = 0.1 is ~1.2e-2 here (the eps^2
    # log-free completion shifts it); the exact value is the reference
    assert res.value == pytest.approx(series, rel=2e-2)
    assert res.value == pytest.approx(zero_T_expansion(3, PCPC).evaluate(0.1),
                                      rel=2e-3)
    assert res.temperature == 0.0
    assert abs(res.error_estimate) <= 1e-9 * abs(res.value)


def test_zero_t_signs():
    g = Geometry.from_eps(0.3, 3)
    assert zero_T_energy(g, PCPC, None, FAST).value < 0.0
    assert zero_T_energy(g, PCIP, None, FAST).value > 0.0


def test_zero_t_vanishes_at_large_separation():
    near = zero_T_energy(Geometry(1.0, 1.5, 3), PCPC, None, FAST).value
    far = zero_T_energy(Geometry(1.0, 11.0, 3), PCPC, None, FAST).value
    assert abs(far) < 1e-4 * abs(near)


# Every route shares the angular-sum driver's failure path.
_CAP_CALLS = {
    "zero_T_energy": lambda g, pol: zero_T_energy(g, PCPC, None, pol),
    "free_energy": lambda g, pol: free_energy(g, PCPC, None, 0.5, pol),
    "thermal_correction": lambda g, pol: thermal_correction(g, PCPC, None, 0.05, pol),
}


@pytest.mark.parametrize("route,cap", [
    ("zero_T_energy", "l_max_hard"),
    ("free_energy", "l_max_hard"),
    ("free_energy", "p_max_hard"),
    ("thermal_correction", "l_max_hard"),
    ("thermal_correction", "p_max_hard"),
])
def test_zero_t_hard_cap(route, cap):
    policy = TruncationPolicy(rel_tol=1e-6, **{cap: 3})
    with pytest.raises(NonConvergenceError) as info:
        _CAP_CALLS[route](Geometry.from_eps(0.1, 3), policy)
    assert math.isfinite(info.value.partial)


def test_partial_is_energy_of_completed_l_terms():
    # a p-cap failure at l = 9 reports the energy of l = 1..8, as the l-cap does
    g = Geometry.from_eps(0.5, 3)
    partials = []
    for policy in (TruncationPolicy(p_max_hard=45), TruncationPolicy(l_max_hard=8)):
        with pytest.raises(NonConvergenceError) as info:
            free_energy(g, PCPC, Channel.TE, 0.1, policy)
        partials.append(info.value.partial)
    assert partials[0] == partials[1]
    assert partials[0] == pytest.approx(-0.8617, abs=1e-4)


def test_failure_carries_completed_counts():
    # l_used is the last l in partial; p_used the largest p reached, the cap included
    g = Geometry.from_eps(0.5, 3)
    with pytest.raises(NonConvergenceError) as info:
        free_energy(g, PCPC, Channel.TE, 0.1, TruncationPolicy(p_max_hard=45))
    assert (info.value.l_used, info.value.p_used) == (8, 45)
    with pytest.raises(NonConvergenceError) as info:
        zero_T_energy(Geometry.from_eps(0.1, 3), PCPC, None,
                      TruncationPolicy(rel_tol=1e-6, l_max_hard=3))
    assert (info.value.l_used, info.value.p_used) == (3, 0)


def test_partial_keeps_finished_channels():
    # at l_max_hard = 23 the TE sum of this ip/pc pair stops in time, TM does not
    g = Geometry.from_eps(0.5, 3)
    cap = TruncationPolicy(rel_tol=1e-6, l_max_hard=23)
    te = free_energy(g, IPPC, Channel.TE, 0.5, cap)
    with pytest.raises(NonConvergenceError) as tm:
        free_energy(g, IPPC, Channel.TM, 0.5, cap)
    with pytest.raises(NonConvergenceError) as total:
        free_energy(g, IPPC, None, 0.5, cap)
    assert total.value.partial == te.value + tm.value.partial
    # at l_max_hard = 5 both channels fail; each still runs to its own cap
    cap = TruncationPolicy(rel_tol=1e-6, l_max_hard=5)
    with pytest.raises(NonConvergenceError) as te:
        free_energy(g, IPPC, Channel.TE, 0.5, cap)
    with pytest.raises(NonConvergenceError) as tm:
        free_energy(g, IPPC, Channel.TM, 0.5, cap)
    with pytest.raises(NonConvergenceError) as total:
        free_energy(g, IPPC, None, 0.5, cap)
    assert total.value.partial == te.value.partial + tm.value.partial
    assert total.value.l_used == 5
    assert total.value.p_used == max(te.value.p_used, tm.value.p_used)


# --- thermal correction and force ---------------------------------------------

def test_thermal_correction_leading_behavior():
    g = Geometry.from_eps(0.1, 3)
    r1 = thermal_correction(g, PCPC, None, 0.05)
    r2 = thermal_correction(g, PCPC, None, 0.02)
    assert r1.value > 0.0 and r2.value > 0.0
    assert r2.value < r1.value  # goes to zero with T
    # leading T^4 law within a few percent already at a1 T = 0.05
    assert r1.value / 0.05 ** 4 == pytest.approx(math.pi ** 3 / 15, rel=0.08)
    assert r2.value / 0.02 ** 4 == pytest.approx(math.pi ** 3 / 15, rel=0.03)


def test_thermal_correction_warns_when_noise_dominates():
    # at a1 T = 1e-3 the T^4 correction (~2e-12) sits at the quadrature noise
    g = Geometry.from_eps(0.1, 3)
    with pytest.warns(RuntimeWarning):
        res = thermal_correction(g, PCPC, None, 1e-3)
    assert res.warnings


def test_force_signs():
    g = Geometry.from_eps(0.3, 3)
    assert force(g, PCPC, 1.0, FAST) < 0.0
    assert force(g, PCIP, 1.0, FAST) > 0.0


def test_force_matches_pfa_scale_at_small_gap():
    # At small eps the zero-T force follows D * PFA / d to leading order
    g = Geometry.from_eps(0.05, 3)
    f = force(g, PCPC, 0.0, TruncationPolicy(rel_tol=1e-7))
    pfa_force = -3.0 * (math.pi ** 3 / 180) / 0.05 ** 4  # -dE_pfa/dd at a1=1
    assert f == pytest.approx(pfa_force, rel=0.12)


def test_force_rejects_negative_temperature():
    with pytest.raises(ValueError):
        force(Geometry(1.0, 1.5, 3), PCPC, -1.0)


def test_free_energy_at_large_eps_is_classical():
    # At eps = 1e8, T = 20 the Robin combinations reach z ~ 1.3e10, past the
    # range of scipy's ive/kve; every Matsubara term underflows to 0, so the
    # free energy is T times the classical term.
    g = Geometry.from_eps(1e8, 3)
    pol = TruncationPolicy(rel_tol=1e-9)
    res = free_energy(g, PCIP, None, 20.0, pol)
    assert res.value == pytest.approx(20.0 * classical_term(g, PCIP, None, pol).value,
                                      rel=1e-12)
