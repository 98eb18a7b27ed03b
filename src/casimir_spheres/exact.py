"""Exact interaction free energy of two concentric spheres.

The TE or TM contribution at temperature T is the Matsubara sum

    E = T sum_l d_l(D) [ f_l(0)/2 + sum_{p>=1} f_l(xi_p) ],    xi_p = 2 pi p T,

with f_l(xi) = ln(1 - M_l(xi)) built from Robin combinations of I_nu and
K_nu at the two radii; at T = 0 the sum over p becomes the integral

    E_0 = 1/(2 pi) sum_l d_l(D) int_0^infty f_l(xi) dxi.

Both series converge geometrically in l at rate exp(-2 nu log(a2/a1)).  One
driver, _angular_sum, runs the l-sum of every route; each route brings its
stop rule.  free_energy and zero_T_energy stop on a certified l-tail bound
(power D-2 and D-1), folded into the error estimate; thermal_correction,
whose per-l differences decay like T^(2 nu + 1), stops after two small
differences past l = 3.  All reductions run in a fixed order (ascending l,
ascending p) with compensated accumulation, so results are reproducible
bit-for-bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import Optional

import numpy as np
from scipy import special as _sp
from scipy.integrate import IntegrationWarning, quad

from .bessel import _DEBYE_MIN_NU, _uniform_series, robin_combination
from .errors import NonConvergenceError, PrecisionLossError
from .geometry import EnergyResult, Geometry, TruncationPolicy
from .modes import (BoundaryPair, Channel, bc_coefficients, degeneracy_polynomial,
                    nu as nu_of)
from .signedlog import SignedLog

__all__ = [
    "m_ratio",
    "f_l",
    "classical_term",
    "free_energy",
    "zero_T_energy",
    "thermal_correction",
    "force",
]

_CONSECUTIVE_SMALL = 5  # l-blocks below tolerance required before stopping


class _Kahan:
    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t

    @property
    def value(self) -> float:
        return self.s


class _LTerm:
    """Everything needed to evaluate f_l at one angular number."""

    __slots__ = ("nu", "r21", "ab1", "ab2", "ratios", "pref", "homog", "alpha_log")

    def __init__(self, geometry: Geometry, bc_pair: BoundaryPair,
                 channel: Channel, l: int):
        self.nu = nu_of(l, geometry.dim)
        self.r21 = geometry.a2 / geometry.a1
        a1c = bc_coefficients(channel, bc_pair.inner, geometry.dim)
        a2c = bc_coefficients(channel, bc_pair.outer, geometry.dim)
        self.ab1 = (float(a1c[0]), float(a1c[1]))
        self.ab2 = (float(a2c[0]), float(a2c[1]))
        self.ratios = tuple(None if c[1] == 0 else c[0] / c[1] for c in (a1c, a2c))
        self.homog = bc_pair.is_homogeneous
        self.alpha_log = geometry.alpha_log
        self.pref = _pref(self.nu, self.ab1, self.ab2)

    def log_m(self, u: float) -> tuple[int, float]:
        """(sign, ln|M_l|) at u = a1 * xi."""
        u2 = self.r21 * u
        if self.nu >= _DEBYE_MIN_NU:
            # Uniform expansion in ratio form, ln|M| = -g(u) + X1(u) - X2(u2) with
            # X = ln[(1 + E + O)/(1 + E - O)]: the sqrt(nu) and w prefactors cancel,
            # and a mixed pair (one sphere with beta = 0) makes M negative.
            w1, e1, o1 = _uniform_series(self.nu, u, self.ratios[0])
            w2, e2, o2 = _uniform_series(self.nu, u2, self.ratios[1])
            log_m = (-self._exponent(w1, w2) + (math.log1p(e1 + o1) - math.log1p(e1 - o1))
                     - (math.log1p(e2 + o2) - math.log1p(e2 - o2)))
            return (1 if self.homog else -1), log_m
        a1, b1 = self.ab1
        a2, b2 = self.ab2
        i1 = robin_combination(a1, b1, self.nu, u, "I")
        k2 = robin_combination(a2, b2, self.nu, u2, "K")
        i2 = robin_combination(a2, b2, self.nu, u2, "I")
        k1 = robin_combination(a1, b1, self.nu, u, "K")
        return (i1.sign * k2.sign * i2.sign * k1.sign,
                (i1.log + k2.log) - (i2.log + k1.log))

    def f0(self) -> float:
        return float(_f0(self.nu, self.pref, self.homog, self.alpha_log))

    def f(self, u: float) -> float:
        """f_l at u = a1*xi > 0; the u -> 0 limit is f0."""
        if u <= 0.0:
            return self.f0()
        return _log_one_minus(*self.log_m(u))

    def _w(self, u: float) -> tuple[float, float]:
        """w = sqrt(1 + (z/nu)^2) at z = u and z = r21 u, as _uniform_series has it."""
        return math.hypot(1.0, u / self.nu), math.hypot(1.0, self.r21 * u / self.nu)

    def _exponent(self, w1: float, w2: float) -> float:
        """g = 2 nu [eta(r21 u/nu) - eta(u/nu)] from the two w, as one log."""
        return 2.0 * self.nu * (w2 - w1 + math.log(self.r21 * (1.0 + w1) / (1.0 + w2)))

    def decay_exponent(self, u: float) -> float:
        """g(u); |M| ~ exp(-g)."""
        return self._exponent(*self._w(u))

    def decay_rate(self, u: float) -> float:
        """g'(u) = 2 nu (w2 - w1) / u."""
        w1, w2 = self._w(u)
        return 2.0 * self.nu * (w2 - w1) / u


def _pref(nu, ab1, ab2):
    """M_l's xi -> 0 prefactor (a1 + b1 nu)(a2 - b2 nu) / ((a1 - b1 nu)(a2 + b2 nu)).

    1 for a homogeneous pair; ``nu`` is a float or an array.
    """
    (a1, b1), (a2, b2) = ab1, ab2
    return (a1 + b1 * nu) * (a2 - b2 * nu) / ((a1 - b1 * nu) * (a2 + b2 * nu))


def _f0(nu, pref, homog: bool, alpha_log: float):
    """f_l(0) = ln(1 - pref (a1/a2)^(2 nu)); ``nu`` is a float or an array."""
    s = -2.0 * nu * alpha_log
    if homog:
        return np.log(-np.expm1(s))
    return np.log1p(-pref * np.exp(s))


def _log_one_minus(sign: int, log: float) -> float:
    """ln(1 - M) from M = sign * exp(log), stable near M = 1 and for M < -1."""
    if sign == 0:
        return 0.0
    if sign < 0:
        # 1 + |M|: guard exp overflow for large positive logs.
        if log > 35.0:
            return log + math.log1p(math.exp(-log))
        return math.log1p(math.exp(log))
    if log >= 0.0:
        raise PrecisionLossError(
            f"reflection coefficient reached 1 within float resolution (log={log})")
    if log > -0.693:
        one_minus = -math.expm1(log)
        if one_minus < 1e-12:
            raise PrecisionLossError(
                f"1 - M underflowed the supported relative tolerance ({one_minus})")
        return math.log(one_minus)
    return math.log1p(-math.exp(log))


def m_ratio(l: int, geometry: Geometry, bc_pair: BoundaryPair,
            channel: Channel, xi: float) -> float:
    """The reflection-coefficient product M_l at imaginary frequency xi > 0."""
    if not 0.0 < xi < math.inf:
        raise ValueError(f"xi must be positive and finite, got {xi}")
    ctx = _LTerm(geometry, bc_pair, channel, l)
    return SignedLog.from_log(*ctx.log_m(geometry.a1 * xi)).value()


def f_l(l: int, geometry: Geometry, bc_pair: BoundaryPair,
        channel: Channel, xi: float) -> float:
    """ln(1 - M_l(xi)); at xi = 0 the closed small-argument form is used."""
    if not 0.0 <= xi < math.inf:
        raise ValueError(f"xi must be finite and >= 0, got {xi}")
    return _LTerm(geometry, bc_pair, channel, l).f(geometry.a1 * xi)


def _l_tail_bound(term: float, nu_val: float, power: float, alpha: float) -> float:
    """Certified bound on sum_{l>L} |t_l| from |t_l| <= K nu^power e^{-2 alpha nu}.

    K is calibrated on the last computed term; the sum is bounded by the
    integral Gamma(power+1, 2 alpha nu_L) / (2 alpha)^(power+1).
    """
    if term == 0.0:
        return 0.0
    k = abs(term) / (nu_val ** power * math.exp(-2.0 * alpha * nu_val))
    a = power + 1.0
    x = 2.0 * alpha * nu_val
    log_tail = math.log(k) + math.lgamma(a) - a * math.log(2.0 * alpha) \
        + math.log(max(float(_sp.gammaincc(a, x)), 1e-300))
    return math.exp(min(log_tail, 700.0))


def _channel_pairs(channel: Optional[Channel]):
    return (channel,) if channel is not None else (Channel.TE, Channel.TM)


def classical_term(geometry: Geometry, bc_pair: BoundaryPair,
                   channel: Optional[Channel] = None,
                   policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """Zeroth-Matsubara part of the free energy, per unit temperature.

    An elementary series: (1/2) sum_l d_l(D) ln(1 - pref_l (a1/a2)^(2 nu)).
    Multiply by T to obtain the high-temperature (classical) energy.  As in
    _angular_sum, every channel runs to its own stop or cap; if any hits the
    cap, one NonConvergenceError carries the sum of every channel's completed
    terms as ``partial`` and the last l computed as ``l_used``.
    """
    alpha = geometry.alpha_log
    dim = geometry.dim
    per_channel: dict[str, float] = {}
    total = _Kahan()
    err = 0.0
    l_used = l_last = 0
    failure = None
    block = 65536
    for ch in _channel_pairs(channel):
        dpoly = degeneracy_polynomial(ch, dim)
        ctx1 = _LTerm(geometry, bc_pair, ch, 1)
        acc = _Kahan()
        lo = 1
        while True:
            hi = min(lo + block - 1, policy.l_max_hard)
            lv = np.arange(lo, hi + 1, dtype=np.float64)
            nu_v = lv + (dim - 2) / 2.0
            d_v = dpoly(nu_v)
            f0 = _f0(nu_v, _pref(nu_v, ctx1.ab1, ctx1.ab2), ctx1.homog, alpha)
            terms = 0.5 * d_v * f0
            contrib = float(np.sum(terms))
            acc.add(contrib)
            l_last = max(l_last, hi)
            significant = np.nonzero(np.abs(terms) > 1e-16 * abs(acc.value))[0]
            if significant.size:
                l_used = max(l_used, lo + int(significant[-1]))
            last_term = 0.5 * d_v[-1] * f0[-1]
            tail = _l_tail_bound(last_term, nu_v[-1], dim - 2, alpha)
            if tail < policy.rel_tol * abs(acc.value) * 0.25 and abs(last_term) \
                    < policy.rel_tol * abs(acc.value):
                err += tail
                break
            if hi >= policy.l_max_hard:
                failure = (f"classical term hit l_max_hard={policy.l_max_hard} "
                           f"before reaching rel_tol={policy.rel_tol}")
                break
            lo = hi + 1
        per_channel[ch.value] = acc.value
        total.add(acc.value)
    if failure is not None:
        raise NonConvergenceError(failure, partial=total.value, l_used=l_last)
    value = total.value
    err += 8.0 * np.finfo(float).eps * abs(value)
    return EnergyResult(value=value, per_channel=per_channel, l_used=l_used,
                        p_used=0, error_estimate=err, temperature=None)


def _certified_stop(policy: TruncationPolicy, power: float, alpha: float):
    """Matsubara and vacuum stop rule: a run of terms below rel_tol * |sum|.

    Stops once the certified l-tail (terms ~ nu^power e^{-2 alpha nu}) is
    below half the tolerance, after _CONSECUTIVE_SMALL small terms or after
    one small term that fits in that half together with the tail.
    """
    run = 0

    def rule(l, nu_val, term, total, err):
        nonlocal run
        tol = policy.rel_tol * abs(total)
        run = run + 1 if abs(term) < tol else 0
        ltail = _l_tail_bound(term, nu_val, power, alpha)
        done = run >= _CONSECUTIVE_SMALL or ltail + abs(term) < tol * 0.5
        return ltail if run and ltail < tol * 0.5 and done else None
    return rule


def _difference_stop(policy: TruncationPolicy):
    """Thermal-correction stop rule: two small differences past l = 3.

    The differences decay like T^(2 nu + 1), so no l-tail is added.
    """
    run = 0

    def rule(l, nu_val, term, total, err):
        nonlocal run
        run = run + 1 if abs(term) < max(policy.rel_tol * abs(total), 0.3 * err) else 0
        return 0.0 if run >= 2 and l >= 3 else None
    return rule


def _angular_sum(geometry: Geometry, bc_pair: BoundaryPair, channel: Optional[Channel],
                 policy: TruncationPolicy, block, stop, temperature: float) -> EnergyResult:
    """Kahan sum over l of each channel's d_l-weighted per-l blocks.

    ``block(l, ctx, d_l, total)`` gives one l's (term, error, p_used);
    ``stop()`` makes a channel's ``rule(l, nu, term, total, err)``, which
    returns the l-tail bound that ends the sum, or None.  Every channel runs
    to its own stop or cap; if any fails, one NonConvergenceError carries the
    first failure's message and, as ``partial``, the energy of every
    completed l-term of every channel.
    """
    per_channel: dict[str, float] = {}
    l_used = p_used = 0
    err_total = 0.0
    failure = None
    for ch in _channel_pairs(channel):
        dpoly = degeneracy_polynomial(ch, geometry.dim)
        rule, acc, err = stop(), _Kahan(), 0.0
        try:
            for l in range(1, policy.l_max_hard + 1):
                ctx = _LTerm(geometry, bc_pair, ch, l)
                term, error, p = block(l, ctx, float(dpoly(ctx.nu)), acc.value)
                acc.add(term)
                err += error
                l_used, p_used = max(l_used, l), max(p_used, p)
                ltail = rule(l, ctx.nu, term, acc.value, err)
                if ltail is not None:
                    err += ltail
                    break
            else:
                raise NonConvergenceError(f"angular sum hit l_max_hard={policy.l_max_hard}")
        except NonConvergenceError as exc:
            failure = failure or exc
            p_used = max(p_used, exc.p_used)
        per_channel[ch.value] = acc.value
        err_total += err
    if failure is not None:
        raise NonConvergenceError(str(failure), partial=sum(per_channel.values()),
                                  l_used=l_used, p_used=p_used)
    return EnergyResult(value=sum(per_channel.values()), per_channel=per_channel,
                        l_used=l_used, p_used=p_used, error_estimate=err_total,
                        temperature=temperature)


def _certified(res: EnergyResult, policy: TruncationPolicy) -> EnergyResult:
    """Add the rounding allowance to a Matsubara or vacuum sum; enforce rel_tol."""
    err = res.error_estimate + 8.0 * np.finfo(float).eps * abs(res.value)
    if err > policy.rel_tol * abs(res.value):
        raise NonConvergenceError(f"error estimate {err:.3e} exceeds rel_tol * |E| = "
                                  f"{policy.rel_tol * abs(res.value):.3e}", partial=res.value,
                                  l_used=res.l_used, p_used=res.p_used)
    return replace(res, error_estimate=err)


def _matsubara_block(ctx: _LTerm, a1T: float, rel_tol: float,
                     p_max: int) -> tuple[float, float, int]:
    """f0/2 + sum_p f(u_p) for one l, with certified p-tail bound."""
    du = 2.0 * math.pi * a1T
    acc = _Kahan()
    acc.add(0.5 * ctx.f0())
    p = 1
    while True:
        u = du * p
        fv = ctx.f(u)
        acc.add(fv)
        rate = ctx.decay_rate(u)
        r = math.exp(-rate * du)
        tail = abs(fv) * r / (1.0 - r) if r < 1.0 else math.inf
        if tail < rel_tol * max(abs(acc.value), 1e-300):
            break
        if p >= p_max:
            raise NonConvergenceError(
                f"Matsubara sum hit p_max_hard={p_max} (l-order nu={ctx.nu})", p_used=p)
        p += 1
    return acc.value, tail, p


def free_energy(geometry: Geometry, bc_pair: BoundaryPair,
                channel: Optional[Channel], T: float,
                policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """Interaction free energy at temperature T > 0 (units of 1/a1 natural)."""
    if not T > 0.0:
        raise ValueError(f"free_energy requires T > 0, got {T}; use zero_T_energy at T=0")
    a1T = geometry.a1 * T

    def matsubara_term(l, ctx, d_l, total):
        block, ptail, p = _matsubara_block(ctx, a1T, policy.rel_tol / 20.0,
                                           policy.p_max_hard)
        return T * d_l * block, T * d_l * ptail, p

    res = _angular_sum(
        geometry, bc_pair, channel, policy, matsubara_term,
        lambda: _certified_stop(policy, geometry.dim - 2, geometry.alpha_log), T)
    return _certified(res, policy)


def _pick_cut(ctx: _LTerm, ftol: float) -> tuple[float, float]:
    """Upper cut X with |f(X)| below ftol, solved from the decay exponent; (X, f(X))."""
    target = math.log(max(1.0 + abs(ctx.pref), 2.0) / ftol)
    g0 = 2.0 * ctx.nu * math.log(ctx.r21)
    x = max(ctx.nu, (target + g0) / (2.0 * (ctx.r21 - 1.0) / (1.0 + 0.5 * (ctx.r21 - 1.0))))
    for _ in range(8):
        gap = target - (ctx.decay_exponent(x) - g0)
        if gap <= 0.0:
            break
        x += gap / ctx.decay_rate(x) + 1.0
    fx = ctx.f(x)
    while abs(fx) > ftol:
        x *= 1.3
        fx = ctx.f(x)
    return x, fx


def _zero_t_integral(ctx: _LTerm, epsabs: float, epsrel: float) -> tuple[float, float]:
    """int_0^infty f du with a certified exponential tail bound beyond the cut."""
    kappa_inf = 2.0 * (ctx.r21 - 1.0)
    ftol = max(epsabs * kappa_inf / 4.0, 1e-240)
    x_cut, f_cut = _pick_cut(ctx, ftol)
    pts = [p for p in (0.5 * ctx.nu, ctx.nu, 2.0 * ctx.nu) if 0.0 < p < x_cut]
    with warnings.catch_warnings():
        # Near machine precision QUADPACK reports the roundoff limit through a
        # warning; the returned error estimate already accounts for it.
        warnings.simplefilter("ignore", IntegrationWarning)
        val, qerr = quad(ctx.f, 0.0, x_cut, points=pts or None, limit=300,
                         epsabs=epsabs, epsrel=epsrel)
    tail = abs(f_cut) / ctx.decay_rate(x_cut)
    return val, qerr + tail


def zero_T_energy(geometry: Geometry, bc_pair: BoundaryPair,
                  channel: Optional[Channel] = None,
                  policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """Vacuum (T = 0) interaction energy: (1/2 pi) sum_l d_l int_0^inf f_l."""
    inv_2pi_a1 = 1.0 / (2.0 * math.pi * geometry.a1)
    scale = 0.0

    def vacuum_term(l, ctx, d_l, total):
        # l = 1 has no running sum; it sets the scale of the later absolute targets.
        nonlocal scale
        epsabs = 0.0 if l == 1 else max(
            policy.rel_tol * max(abs(total), scale * inv_2pi_a1)
            / (40.0 * d_l * inv_2pi_a1), 1e-280)
        integral, ierr = _zero_t_integral(ctx, epsabs=epsabs, epsrel=policy.rel_tol / 10.0)
        if l == 1:
            scale = abs(d_l * integral)
        return inv_2pi_a1 * d_l * integral, inv_2pi_a1 * d_l * ierr, 0

    res = _angular_sum(
        geometry, bc_pair, channel, policy, vacuum_term,
        lambda: _certified_stop(policy, geometry.dim - 1, geometry.alpha_log), 0.0)
    return _certified(res, policy)


def thermal_correction(geometry: Geometry, bc_pair: BoundaryPair,
                       channel: Optional[Channel], T: float,
                       policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """E(T) - E_0 by per-l subtraction of the two exact routes.

    The Matsubara sum and the frequency integral are evaluated for the same l
    with matched (tight) truncation tolerances and differenced term by term;
    the difference decays like T^(2 nu + 1), so only a handful of l survive.
    A warning is attached when the correction is within a decade of the
    combined error estimate.
    """
    if not T > 0.0:
        raise ValueError(f"thermal_correction requires T > 0, got {T}")
    a1T = geometry.a1 * T
    inv_2pi_a1 = 1.0 / (2.0 * math.pi * geometry.a1)

    def difference_term(l, ctx, d_l, total):
        block, ptail, p = _matsubara_block(ctx, a1T, 1e-14, policy.p_max_hard)
        integral, ierr = _zero_t_integral(ctx, epsabs=0.0, epsrel=2e-14)
        delta = d_l * (T * block - inv_2pi_a1 * integral)
        truncation = d_l * (T * ptail + inv_2pi_a1 * ierr)
        rounding = d_l * 4e-16 * (abs(T * block) + abs(inv_2pi_a1 * integral))
        return delta, truncation + rounding, p

    res = _angular_sum(geometry, bc_pair, channel, policy, difference_term,
                       lambda: _difference_stop(policy), T)
    if abs(res.value) < 10.0 * res.error_estimate:
        msg = (f"thermal correction {res.value:.3e} is within a decade of its combined "
               f"error estimate {res.error_estimate:.3e}; digits are not trustworthy")
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        res = replace(res, warnings=(msg,))
    return res


def _energy(geometry: Geometry, bc_pair: BoundaryPair, channel: Optional[Channel],
            T: float, policy: TruncationPolicy) -> EnergyResult:
    """The exact energy: the vacuum energy at T = 0, the free energy above."""
    if T == 0.0:
        return zero_T_energy(geometry, bc_pair, channel, policy)
    return free_energy(geometry, bc_pair, channel, T, policy)


def force(geometry: Geometry, bc_pair: BoundaryPair, T: float = 0.0,
          policy: TruncationPolicy = TruncationPolicy()) -> float:
    """-dE/dd at fixed a1: negative = attractive.

    Central differences with one Richardson step; a disagreement above 1%
    between the two stencils triggers an unreliable-derivative warning.
    """
    if T < 0.0:
        raise ValueError(f"temperature must be >= 0, got {T}")
    d0 = geometry.d
    h = max(1e-4 * d0, 1e-6 * geometry.a1)

    energy_at = lambda dd: _energy(geometry.widened(dd), bc_pair, None, T, policy).value
    d_coarse = (energy_at(d0 + h) - energy_at(d0 - h)) / (2.0 * h)
    d_fine = (energy_at(d0 + 0.5 * h) - energy_at(d0 - 0.5 * h)) / h
    deriv = (4.0 * d_fine - d_coarse) / 3.0
    if abs(d_fine - d_coarse) > 0.01 * max(abs(deriv), 1e-300):
        warnings.warn(
            f"force derivative stencils disagree by "
            f"{abs(d_fine - d_coarse) / max(abs(deriv), 1e-300):.2%}; "
            "the returned force may be unreliable", RuntimeWarning, stacklevel=2)
    return -deriv
