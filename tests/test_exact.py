import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from casimir_spheres import bessel, exact
from casimir_spheres import (BoundaryCondition, BoundaryPair, Channel,
                             Geometry, NonConvergenceError, PrecisionLossError,
                             TruncationPolicy, bc_coefficients, classical_term,
                             degeneracy, f_l, force,
                             free_energy, m_ratio, riemann_zeta,
                             thermal_correction, zero_T_energy,
                             zero_T_expansion)
from casimir_spheres.modes import nu as nu_of

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
    with pytest.raises(ValueError):
        Geometry(1.0, 2.0, True)
    g = Geometry.from_eps(0.1, np.int64(3))
    assert g.dim == 3 and type(g.dim) is int


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
    # a mixed pair's sign (_Kernel.sign) on m_ratio, across 24 scattered points
    cases = [(3, 0.2, 1, 0.5), (3, 0.7, 2, 2.0), (4, 0.5, 1, 1.0),
             (5, 0.1, 4, 3.0), (6, 0.3, 2, 0.2), (4, 1.0, 3, 5.0)]
    for dim, eps, l, xi in cases:
        g = Geometry.from_eps(eps, dim)
        for ch in (Channel.TE, Channel.TM):
            for bc in (PCIP, IPPC):
                assert m_ratio(l, g, bc, ch, xi) < 0.0


@pytest.mark.parametrize("dim", [3, 4, 8, 16])
def test_pair_sign_is_the_robin_product_and_f0s(dim):
    """_Kernel.sign, which the kernel takes for the sign of M, is the product of the
    signs of M's four robin_combination factors at every order below nu = 50 and u
    from 1e-8 to 1e9, across the z = 1e8 seam of the uniform branch, and that of
    f0's prefactor (f0 = ln(1 - pref (a1/a2)^(2 nu)) has the sign of -pref).  The
    kernel's ln|M| is the one those four factors give, to the bit, on the array of
    u and at a float u, the path m_ratio and f_l take."""
    g = Geometry.from_eps(0.5, dim)
    u = np.logspace(-8.0, 9.0, 69)
    misses = []
    for pair, ch in itertools.product((PCPC, IPIP, PCIP, IPPC), Channel):
        kern = exact._Kernel(g, pair, ch)
        assert kern.sign == (1 if pair.is_homogeneous else -1)
        for nu in np.arange(1.0, 50.0 - (dim - 2) / 2.0) + (dim - 2) / 2.0:
            for z in (u, 0.7 * nu):
                i1, k1, i2, k2 = (bessel.robin_combination(*ab, nu, x, kind)
                                  for ab, x in ((kern.ab1, z), (kern.ab2, kern.r21 * z))
                                  for kind in "IK")
                wrong = np.atleast_1d(z)[i1.sign * k1.sign * i2.sign * k2.sign != kern.sign]
                if wrong.size or np.sign(kern.f0(nu)) != -kern.sign:
                    misses.append(f"D={dim} {pair} {ch.value} nu={nu}: sign {kern.sign}, "
                                  f"f0 {kern.f0(nu)!r}, Robin product differs at u={wrong}")
                want = (i1.log + k2.log) - (i2.log + k1.log)
                if not np.array_equal(kern.log_m(nu, z), want):
                    misses.append(f"D={dim} {pair} {ch.value} nu={nu} u={z}: "
                                  f"log_m {kern.log_m(nu, z)!r} vs {want!r}")
    assert not misses, "\n".join(misses)


@pytest.mark.parametrize("pair", [PCPC, IPIP, PCIP, IPPC], ids=str)
@pytest.mark.parametrize("ch", list(Channel), ids=lambda ch: ch.value)
def test_kernel_scores_both_spheres_per_bessel_call(pair, ch, monkeypatch):
    """Below nu = 50 one kernel call stacks u and u2, so it makes one ln B call per
    kind, and one per kind for the neighbouring order where a sphere has beta != 0
    or the slope is asked for: at most 2 calls for pc,pc TE (both beta = 0) and 4
    for any pair, also with the slope.  It builds no SignedLog."""
    calls = []
    original = bessel._log_bessel_array
    monkeypatch.setattr(bessel, "_log_bessel_array",
                        lambda *args: calls.append(args[:2]) or original(*args))
    monkeypatch.setattr(bessel, "SignedLog", None)  # a kernel call must not reach it
    kern = exact._Kernel(Geometry.from_eps(0.3, 3), pair, ch)
    u = np.logspace(-3.0, 3.0, 25)
    for nu in (1.5, 20.5, 49.5):
        calls.clear()
        kern.log_m(nu, u)
        assert len(calls) <= (2 if (pair, ch) == (PCPC, Channel.TE) else 4), calls
        calls.clear()
        kern.log_m(nu, u, slope=True)
        assert len(calls) <= 4, calls


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
    # an l from np.arange is an angular number; True is not l = 1
    for l in (1, 60):
        assert f_l(np.int64(l), g, PCPC, Channel.TE, 1.0) == f_l(l, g, PCPC, Channel.TE, 1.0)
    with pytest.raises(ValueError):
        f_l(True, g, PCPC, Channel.TE, 1.0)


def test_f_precision_loss_for_touching_spheres():
    g = Geometry(1.0, 1.0 + 5e-14, 3)
    with pytest.raises(PrecisionLossError):
        f_l(1, g, PCPC, Channel.TE, 1.0)


def test_array_kernel_raises_on_one_bad_node():
    # a block with one node where 1 - M < 1e-12 raises, as that node alone does,
    # at nu >= 50 (ratio form) and below (Robin combinations)
    g = Geometry(1.0, 1.0 + 5e-15, 3)
    kern = exact._Kernel(g, PCPC, Channel.TE)
    for l, nu in ((60, 60.5), (10, 10.5)):
        with pytest.raises(PrecisionLossError):
            f_l(l, g, PCPC, Channel.TE, 1.0)
        assert np.all(np.isfinite(kern.f(nu, np.array([1e16, 1e17, 1e18]))))
        with pytest.raises(PrecisionLossError):
            kern.f(nu, np.array([1e16, 1e17, 1.0, 1e18]))


def _log_one_minus_scalar(sign: int, log: float) -> float:
    """ln(1 - M) from M = sign * exp(log) in scalar math: the oracle of the array form."""
    if sign == 0:
        return 0.0
    if sign < 0:
        if log > 35.0:
            return log + math.log1p(math.exp(-log))
        return math.log1p(math.exp(log))
    if log >= 0.0:
        raise PrecisionLossError(f"reflection coefficient reached 1 (log={log})")
    if log > exact._LOG1MEXP_SWITCH:
        one_minus = -math.expm1(log)
        if one_minus < 1e-12:
            raise PrecisionLossError(f"1 - M underflowed ({one_minus})")
        return math.log(one_minus)
    return math.log1p(-math.exp(log))


def test_log_one_minus_array_form_matches_scalar_form():
    # both branches of each sign, the log > 35 guard past exp's overflow, and M -> 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sign, logs in ((-1, np.r_[np.linspace(-800.0, 800.0, 801), 35.0, 710.0, -np.inf]),
                           (1, np.r_[-np.logspace(-11.0, 3.0, 801), -0.693, -np.inf])):
            got = exact._log_one_minus_array(sign, logs)
            want = [_log_one_minus_scalar(sign, float(x)) for x in logs]
            assert got == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0.0)
        with pytest.raises(PrecisionLossError):
            exact._log_one_minus_array(1, np.array([-1.0, 0.0]))
        with pytest.raises(PrecisionLossError):
            exact._log_one_minus_array(1, np.array([-1.0, -1e-14]))


@pytest.mark.parametrize("route,eps,pair", [
    (zero_T_energy, 0.05, PCIP),
    (zero_T_energy, 1e8, PCPC),
    (lambda g, pair, ch, policy: free_energy(g, pair, ch, 0.05, policy), 0.5, PCIP),
    (lambda g, pair, ch, policy: thermal_correction(g, pair, ch, 0.05, policy), 0.4, PCPC),
], ids=["pc,ip", "pc,pc", "free pc,ip", "thermal pc,pc"])
def test_zero_t_energy_emits_no_numpy_warning(route, eps, pair):
    # the last two run every order below nu = 50, through the Robin combinations
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        route(Geometry.from_eps(eps, 3), pair, None, FAST)


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


def test_classical_hard_cap_raises():
    g = Geometry.from_eps(1e-4, 3)
    cap = TruncationPolicy(l_max_hard=1000)
    partials = {}
    for ch in (Channel.TE, Channel.TM, None):
        with pytest.raises(NonConvergenceError) as exc:
            classical_term(g, PCPC, ch, cap)
        assert exc.value.l_used == 1000
        partials[ch] = exc.value.partial
    # every channel runs to its cap, as in the shared channel loop
    assert partials[None] == pytest.approx(partials[Channel.TE] + partials[Channel.TM],
                                           rel=1e-15)


def test_classical_fails_below_its_rounding_allowance():
    # the 8-ulp rounding allowance alone is 1.8e-15 relative here: a tighter
    # rel_tol raises as the Matsubara and vacuum sums do, a looser one returns
    g = Geometry.from_eps(0.3, 3)
    ok = classical_term(g, PCPC, None, TruncationPolicy(rel_tol=2e-15))
    assert ok.error_estimate <= 2e-15 * abs(ok.value)
    for rel_tol in (1e-16, 1e-15):
        with pytest.raises(NonConvergenceError) as info:
            classical_term(g, PCPC, None, TruncationPolicy(rel_tol=rel_tol))
        assert (info.value.partial, info.value.l_used) == (ok.value, ok.l_used)


@pytest.mark.parametrize("dim", [3, 5, 16])
@pytest.mark.parametrize("pair", [PCIP, IPPC], ids=["pc,ip", "ip,pc"])
@pytest.mark.parametrize("channel", [Channel.TE, Channel.TM])
def test_classical_mixed_pair_matches_f0_sum(dim, pair, channel):
    g = Geometry.from_eps(0.4, dim)
    res = classical_term(g, pair, channel, TruncationPolicy(rel_tol=1e-12))
    direct = 0.5 * math.fsum(degeneracy(channel, l, dim) * f_l(l, g, pair, channel, 0.0)
                             for l in range(1, 400))
    assert res.value == pytest.approx(direct, rel=1e-13)


def _classical_mpmath(g, pair, channel):
    """(1/2) sum_l d_l ln(1 - pref_l (a1/a2)^(2 nu)) at 40 digits, for the float geometry g."""
    q = lambda x: mp.mpf(x.numerator) / x.denominator
    total = mp.mpf(0)
    with mp.workdps(40):
        x = mp.mpf(g.a1) / mp.mpf(g.a2)
        for ch in (channel,) if channel else (Channel.TE, Channel.TM):
            (a1, b1), (a2, b2) = (map(q, bc_coefficients(ch, bc, g.dim))
                                  for bc in (pair.inner, pair.outer))
            for l in range(1, 100000):
                nu = mp.mpf(2 * l + g.dim - 2) / 2
                pref = (a1 + b1 * nu) * (a2 - b2 * nu) / ((a1 - b1 * nu) * (a2 + b2 * nu))
                term = degeneracy(ch, l, g.dim) * mp.log1p(-pref * x ** (2 * nu)) / 2
                total += term
                if abs(term) < mp.mpf(10) ** -30 * abs(total):
                    break
        return float(total)


@pytest.mark.parametrize("dim", [3, 4, 5, 16])
@pytest.mark.parametrize("eps", [0.3, 1.0])
def test_classical_within_error_estimate_of_mpmath(dim, eps):
    # f_l(0) = ln(1 - e^s) of a homogeneous pair keeps full relative accuracy
    # once e^s is small; log(-expm1(s)) alone kept only ~1e-16 absolute there.
    g = Geometry.from_eps(eps, dim)
    for pair in (PCPC, IPIP, PCIP):
        truth = {ch: _classical_mpmath(g, pair, ch) for ch in (Channel.TE, Channel.TM)}
        truth[None] = truth[Channel.TE] + truth[Channel.TM]
        for ch, want in truth.items():
            res = classical_term(g, pair, ch)
            assert abs(res.value - want) <= res.error_estimate, (pair, ch)


def test_free_energy_high_T_large_dim_is_classical():
    # At D = 16, eps = 1, T = 10 the Matsubara terms p >= 1 are below 1e-50, so
    # the free energy is T times the classical sum.
    g = Geometry.from_eps(1.0, 16)
    res = free_energy(g, PCPC, None, 10.0, TruncationPolicy(rel_tol=1e-9))
    assert res.value == pytest.approx(10.0 * _classical_mpmath(g, PCPC, None), rel=1e-9)


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
    assert abs(res.error_estimate) <= 1e-9 * abs(res.value)


def test_zero_t_signs():
    g = Geometry.from_eps(0.3, 3)
    assert zero_T_energy(g, PCPC, None, FAST).value < 0.0
    assert zero_T_energy(g, PCIP, None, FAST).value > 0.0


def test_zero_t_vanishes_at_large_separation():
    near = zero_T_energy(Geometry(1.0, 1.5, 3), PCPC, None, FAST).value
    far = zero_T_energy(Geometry(1.0, 11.0, 3), PCPC, None, FAST).value
    assert abs(far) < 1e-4 * abs(near)


def test_zero_t_small_gap_converges_at_default_tolerance():
    # ~3200 orders, each frequency integral good to ~1e-13 relative, so
    # their summed errors stay inside rel_tol (~10 s)
    g = Geometry.from_eps(0.004, 3)
    res = zero_T_energy(g, PCPC, Channel.TE)
    assert res.error_estimate <= 1e-9 * abs(res.value)
    loose = zero_T_energy(g, PCPC, Channel.TE, FAST)
    assert abs(res.value - loose.value) <= loose.error_estimate


def _quad_reference(kern, nu, slope=False):
    """(int_0^inf f(nu, u) du, or that of df with ``slope``, and its error) by
    QUADPACK at epsrel 2e-14 in s = u/c.

    c is the frequency rule's own scale, so [0, 1] and [1, inf) split the
    integrand where |M| has fallen by about e.
    """
    q = 1.0 / (kern.r21 ** 2 - 1.0)
    c = min(nu, math.sqrt(q * (2.0 * nu + q)))
    value = (lambda u: kern.f(nu, np.array([u]), True)[0]) if slope else (lambda u: kern.f(nu, u))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        parts = [quad(lambda s: c * value(c * s), lo, hi, epsabs=0.0, epsrel=2e-14,
                      limit=200) for lo, hi in ((0.0, 1.0), (1.0, math.inf))]
    return sum(v for v, _ in parts), sum(e for _, e in parts)


# Orders per gap up to where |M| ~ e^-30 at u = 0; the rounding allowance
# grows like nu ulp, so nu stays below ~2000 for the 1e-12 bound.
_ORACLE_ORDERS = {0.002: (1, 50, 1500), 0.01: (1, 49, 1000), 0.05: (1, 60, 300),
                  0.3: (1, 10, 50), 1.0: (1, 5, 20), 10.0: (1, 3, 6), 1e3: (1, 2),
                  1e8: (1, 2)}
_ORACLE_CASES = list(zip(
    ((eps, l) for eps, ls in _ORACLE_ORDERS.items() for l in ls for _ in range(3)),
    itertools.cycle(itertools.product((3, 4, 5, 16), ("pc,pc", "pc,ip", "ip,pc", "ip,ip"),
                                      (Channel.TE, Channel.TM)))))


@pytest.mark.parametrize("slope", [False, True], ids=["f", "df"])
def test_frequency_integral_within_its_estimate_of_quadpack(slope):
    # 66 orders over D, pairs, channels and eps from 0.002 to 1e8; the
    # energy's integrand f and the force's df.
    misses = []
    for (eps, l), (dim, bc, ch) in _ORACLE_CASES:
        kern = exact._Kernel(Geometry.from_eps(eps, dim), BoundaryPair.from_string(bc), ch)
        nu = nu_of(l, dim)
        (got, est), = exact._zero_t_integrals(kern, [nu], slope)
        want, qerr = _quad_reference(kern, nu, slope)
        if not (abs(got - want) <= est + qerr and est <= 1e-12 * abs(got)):
            misses.append(f"eps={eps} D={dim} {bc} {ch.value} l={l}: {got!r} +- {est:.2e} "
                          f"vs {want!r} +- {qerr:.2e}")
    assert not misses, "\n".join(misses)


@pytest.mark.parametrize("eps", [1e4, 1e6, 1e8])
@pytest.mark.parametrize("pair", [PCPC, PCIP], ids=["pc,pc", "pc,ip"])
def test_zero_t_large_gap_matches_quadpack(eps, pair):
    # f lives at u below ~sqrt(2 nu)/eps, where the frequency rule puts its nodes.
    g = Geometry.from_eps(eps, 3)
    res = zero_T_energy(g, pair, None, TruncationPolicy(l_max_hard=200))
    want = qerr = 0.0
    for ch in (Channel.TE, Channel.TM):
        kern = exact._Kernel(g, pair, ch)
        for l in range(1, 6):  # order 6 adds below 1e-40 relative
            nu = nu_of(l, 3)
            weight = float(kern.degeneracy(nu)) / (2.0 * math.pi * g.a1)
            value, err = _quad_reference(kern, nu)
            want, qerr = want + weight * value, qerr + weight * err
    assert abs(res.value - want) <= res.error_estimate + qerr


# Every route shares the channel loop's failure path.
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
    # l_used is the last l in partial; p_used the largest p reached, the cap included.
    # At eps = 0.1 the caps fall at nu >= 50, inside a block of frequencies.
    failures = []
    for eps, T, p_max_hard, counts in ((0.5, 0.1, 45, (8, 45)), (0.1, 0.5, 49, (54, 49)),
                                        (0.1, 0.5, 55, (85, 55)), (0.1, 0.5, 63, (131, 63))):
        with pytest.raises(NonConvergenceError) as info:
            free_energy(Geometry.from_eps(eps, 3), PCPC, Channel.TE, T,
                        TruncationPolicy(p_max_hard=p_max_hard))
        assert (info.value.l_used, info.value.p_used) == counts
        failures.append(info.value)
    with pytest.raises(NonConvergenceError) as info:
        zero_T_energy(Geometry.from_eps(0.1, 3), PCPC, None,
                      TruncationPolicy(rel_tol=1e-6, l_max_hard=3))
    assert (info.value.l_used, info.value.p_used) == (3, 0)
    failures.append(info.value)
    with pytest.raises(NonConvergenceError) as info:
        classical_term(Geometry.from_eps(0.1, 3), PCPC, None, TruncationPolicy(l_max_hard=3))
    failures.append(info.value)
    # counts are Python ints, as json.dumps needs: an array index would give np.int64
    results = [free_energy(Geometry.from_eps(0.1, 3), PCPC, None, 0.5),
               zero_T_energy(Geometry.from_eps(0.5, 3), PCPC),
               thermal_correction(Geometry.from_eps(0.5, 3), PCPC, None, 0.1),
               classical_term(Geometry.from_eps(0.1, 3), PCPC)]
    for outcome in failures + results:
        assert type(outcome.l_used) is int and type(outcome.p_used) is int, outcome


def test_matsubara_sum_with_an_infinite_tail_bound_fails_at_its_cap():
    # at a1 T = 1e-9, exp(-g' du) rounds to exactly 1 at 7 of the first 20
    # frequencies, where the p-tail bound is infinite: the sum runs on to its cap
    kern = exact._Kernel(Geometry.from_eps(0.1, 3), PCPC, Channel.TE)
    du = 2.0 * math.pi * 1e-9
    u = du * np.arange(1, 21)
    assert np.count_nonzero(np.exp(-kern.decay(1.5, u)[0] * du) == 1.0) == 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError) as info:
            exact._matsubara_block(kern, 1.5, 1e-9, 1e-9, 20)
    assert info.value.p_used == 20


def _matsubara_outcome(kern, nu, a1T, p_max, slope):
    """(value, tail, p) of one order's Matsubara sum, or its failure's p_used."""
    try:
        return exact._matsubara_block(kern, nu, a1T, 5e-11, p_max, slope)
    except NonConvergenceError as exc:
        return NonConvergenceError, exc.p_used


@pytest.mark.parametrize("slope", [False, True])
def test_windows_match_the_one_frequency_oracle_at_the_edges(monkeypatch, slope):
    # the window estimate, scalar or array, raises no numpy warning where
    # exp(-g' du) rounds to 1 (a1 T = 1e-9) or every sum stops at p = 1
    # (a1 T = 100), on both sides of nu = 50 and far past it, with M > 0 and
    # M < 0, and gives the bits, p_used and failures of one frequency per
    # call: also where p_max cuts the short or the estimated window
    # (stops at p = 374-877 at a1 T = 0.05) and across windows (a1 T = 0.01)
    kernels = [exact._Kernel(Geometry.from_eps(0.1, 3), PCPC, Channel.TE),
               exact._Kernel(Geometry.from_eps(0.1, 3), PCIP, Channel.TM)]
    cases = [(nu, a1T, p_max) for nu in (1.5, 49.5, 50.5, 300.5)
             for a1T, p_max in ((1e-9, 40), (100.0, 10**5), (0.05, 10**5),
                                (0.05, 10), (0.05, 300))] + [(1.5, 0.01, 10**5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        windowed = [_matsubara_outcome(kern, *case, slope)
                    for kern in kernels for case in cases]
        monkeypatch.setattr(exact, "_P_CAP", 1)
        oracle = [_matsubara_outcome(kern, *case, slope)
                  for kern in kernels for case in cases]
    assert windowed == oracle
    assert windowed[-1][2] > exact._P_SHORT + 1024  # past the first window
    with warnings.catch_warnings():  # a1 T that underflows to 0 reaches the kernel's check
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="argument must be finite and > 0"):
            exact._matsubara_block(kernels[0], 1.5, 0.0, 5e-11, 50, slope)
    outcomes = dict(zip(cases, windowed))
    assert outcomes[1.5, 1e-9, 40] == (NonConvergenceError, 40)
    assert outcomes[300.5, 100.0, 10**5][2] == 1
    assert outcomes[1.5, 0.05, 10] == (NonConvergenceError, 10)
    assert outcomes[300.5, 0.05, 300] == (NonConvergenceError, 300)


def _matsubara_loop(kern, nu, a1T, p_max, slope):
    """_matsubara_outcome by a tail test on one frequency at a time, in floats: the
    reference for the stop that _matsubara_block reads off a whole window of terms."""
    du = 2.0 * math.pi * a1T
    terms = [0.5 * float(kern.f0(nu, slope))]
    total = terms[0]
    for first in range(1, p_max + 1, 256):
        u = du * np.arange(first, min(first + 256, p_max + 1))
        for p, fv, rate in zip(itertools.count(first), kern.f(nu, u, slope).tolist(),
                               kern.decay(nu, u)[0].tolist()):
            terms.append(fv)
            total += fv
            r = math.exp(-rate * du)
            tail = abs(fv) * r / (1.0 - r) if r < 1.0 else math.inf
            if slope and r < 1.0:
                tail *= 1.0 + 1.0 / (p * (1.0 - r))
            if tail < 5e-11 * max(abs(total), 1e-300):
                return math.fsum(terms), tail, p
    return NonConvergenceError, p_max


@pytest.mark.parametrize("slope", [False, True])
def test_window_stops_match_a_loop_over_frequencies(slope):
    # the stop read off a window of arrays (r from math.exp, running totals added
    # in order) gives the bits, stop and failures of the tail test run on one
    # frequency at a time in floats, where r rounds to 1 (a1 T = 1e-9), at p = 1
    # (a1 T = 100), inside one window and across windows (a1 T = 0.05, 0.01)
    kernels = [exact._Kernel(Geometry.from_eps(0.1, 3), PCPC, Channel.TE),
               exact._Kernel(Geometry.from_eps(0.1, 3), PCIP, Channel.TM)]
    cases = [(nu, a1T, p_max) for nu in (1.5, 49.5, 50.5, 300.5)
             for a1T, p_max in ((1e-9, 40), (100.0, 10**5), (0.05, 10**5), (0.05, 300))]
    cases += [(1.5, 0.01, 10**5), (20.5, 0.01, 10**5)]
    for kern, case in itertools.product(kernels, cases):
        assert _matsubara_outcome(kern, *case, slope) == _matsubara_loop(kern, *case, slope)


def test_low_T_sums_take_about_one_kernel_call_per_order(monkeypatch):
    # each kernel call scores the frequencies up to the predicted stop, so
    # sums of 80-260 frequencies per order take about one call per order
    counts = {"calls": 0, "orders": 0}
    inside = [False]
    kernel_f, block = exact._Kernel.f, exact._matsubara_block

    def spy_f(self, nu, u, slope=False):
        counts["calls"] += inside[0]
        return kernel_f(self, nu, u, slope)

    def spy_block(*args):
        inside[0] = True
        try:
            return block(*args)
        finally:
            inside[0] = False
            counts["orders"] += 1

    monkeypatch.setattr(exact._Kernel, "f", spy_f)
    monkeypatch.setattr(exact, "_matsubara_block", spy_block)
    g = Geometry.from_eps(0.5, 3)
    for run in (lambda: free_energy(g, PCPC, None, 0.05),
                lambda: thermal_correction(g, PCPC, None, 0.05)):
        counts.update(calls=0, orders=0)
        assert run().p_used > 64
        assert counts["orders"] > 10 and counts["calls"] <= 1.2 * counts["orders"]


@pytest.mark.parametrize("width", [1, 7])
def test_blocks_change_no_result(monkeypatch, width):
    # scoring one node, frequency or order per call (width 1, the one-node
    # oracle, or 7: the most frequencies per call, _P_CAP, caps the windows
    # sized from the predicted stop), or a few, gives the same results and
    # counts: p_used 64 is reached at nu >= 50, the cap of 55 fails at
    # l = 85, at eps = 0.5, T = 0.05 every order is below nu = 50, and the
    # thermal correction's sums at the 1e-14 inner tolerance run to p = 262,
    # in one window of frequencies each; the vacuum sums cross nu = 50 into blocks of
    # orders, stop at l = 51 just past it, or hit l_max_hard inside a block;
    # the forces' sums, on the a2-derivative of f, cross nu = 50 at T = 0 and
    # run past p = 64 at T = 0.05
    g = Geometry.from_eps(0.1, 3)
    walk_kern = exact._Kernel(Geometry.from_eps(0.05, 3), PCPC, Channel.TE)

    def run():
        free = free_energy(g, PCPC, Channel.TE, 0.5)
        low = free_energy(Geometry.from_eps(0.5, 3), PCPC, None, 0.05)
        correction = thermal_correction(g, PCPC, Channel.TE, 0.1)
        with pytest.raises(NonConvergenceError) as capped:
            free_energy(g, PCPC, Channel.TE, 0.5, TruncationPolicy(p_max_hard=55))
        crossing = zero_T_energy(Geometry.from_eps(0.05, 3), PCIP, Channel.TM)
        seam = zero_T_energy(Geometry.from_eps(0.2, 3), PCPC, Channel.TE, FAST)
        with pytest.raises(NonConvergenceError) as vacuum_capped:
            zero_T_energy(Geometry.from_eps(0.2, 3), PCPC, Channel.TE,
                          TruncationPolicy(l_max_hard=60))
        kern = exact._Kernel(Geometry.from_eps(0.05, 5), PCIP, Channel.TM)
        integrals = [exact._zero_t_integrals(kern, nu, slope)
                     for nu in ([1.5], [10.5], [49.5], [50.5, 61.5, 300.5], [300.5])
                     for slope in (False, True)]
        forces = (exact._force(Geometry.from_eps(0.2, 3), PCPC, 0.0, FAST),
                  exact._force(Geometry.from_eps(0.5, 3), PCIP, 0.05, FAST))
        walks = [[tuple(a.tolist() for a in walk)
                  for walk in exact._de_block_walk(walk_kern.f, np.array(nu), np.array(c))]
                 for nu, c in (([10.5], [0.5]), ([10.5], [5.0]), ([10.5], [50.0]),
                               ([60.5, 60.5, 60.5], [0.5, 5.0, 50.0]))]
        return (free, low, correction,
                (capped.value.partial, capped.value.l_used, capped.value.p_used),
                crossing, seam, (vacuum_capped.value.partial, vacuum_capped.value.l_used,
                                 vacuum_capped.value.p_used),
                integrals, walks, forces)

    blocked = run()
    assert (blocked[0].l_used, blocked[0].p_used) == (135, 64)
    assert blocked[1].l_used < 49
    assert blocked[2].p_used == 262
    assert blocked[4].l_used > 50 and blocked[5].l_used == 51
    assert blocked[6][1:] == (60, 0)
    assert blocked[7][6][2] == blocked[7][8][0] and blocked[7][7][2] == blocked[7][9][0]
    assert blocked[9][0].l_used > 50 and blocked[9][1].p_used > 64
    monkeypatch.setattr(exact, "_P_CAP", width)
    monkeypatch.setattr(exact, "_DE_BLOCK", width)
    monkeypatch.setattr(exact, "_L_BLOCK", width)
    assert run() == blocked


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
    # at a1 T = 1e-3 the T^4 correction (~2e-12) sits within a decade of the
    # rounding allowances of the two routes it subtracts
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


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["force", "free_energy", "thermal_correction"])
def test_non_finite_temperature_rejected_by_name(name, T):
    g = Geometry(1.0, 1.5, 3)
    call = {"force": lambda: force(g, PCPC, T),
            "free_energy": lambda: free_energy(g, PCPC, None, T),
            "thermal_correction": lambda: thermal_correction(g, PCPC, None, T)}[name]
    with pytest.raises(ValueError, match=f"^{name} requires a finite T"):
        call()


def test_free_energy_at_large_eps_is_classical():
    # At eps = 1e8, T = 20 the Robin combinations reach z ~ 1.3e10, past the
    # range of scipy's ive/kve; every Matsubara term underflows to 0, so the
    # free energy is T times the classical term.
    g = Geometry.from_eps(1e8, 3)
    pol = TruncationPolicy(rel_tol=1e-9)
    res = free_energy(g, PCIP, None, 20.0, pol)
    assert res.value == pytest.approx(20.0 * classical_term(g, PCIP, None, pol).value,
                                      rel=1e-12)
