"""Exact interaction free energy of two concentric spheres.

The TE or TM contribution at temperature T is the Matsubara sum

    E = T sum_l d_l(D) [ f_l(0)/2 + sum_{p>=1} f_l(xi_p) ],    xi_p = 2 pi p T,

with f_l(xi) = ln(1 - M_l(xi)) built from Robin combinations of I_nu and
K_nu at the two radii; M_l has the boundary pair's sign at every order and
frequency (> 0 for pc,pc and ip,ip, < 0 for pc,ip and ip,pc), so the kernel
works with ln|M_l| and one channel's sign.  At T = 0 the sum over p becomes
the integral

    E_0 = 1/(2 pi) sum_l d_l(D) int_0^infty f_l(xi) dxi,

each order's integral by one fixed-step double-exponential rule.  Both
series converge geometrically in l at rate exp(-2 nu log(a2/a1)).  Each
channel's f is one _Kernel, evaluated at any real order nu on a numpy
array of u: from the uniform expansion in ratio form at nu >= 50, also on
a column of orders against one row of u per order, and below from the
Robin factors of both spheres, scored together (_Kernel._robin_form).
Both per-order walks (the frequency integral's nodes
and the Matsubara frequencies) score a block of points per kernel call,
with the stops, sums and counts of a one-point walk; the Matsubara walk
sizes each block from the stop that the decay of |M| predicts, so most
orders take one call, and reads the stop off the block at once.  At
nu >= 50 the frequency walk scores a block of up to _L_BLOCK orders per
call, sized from the orders left to the l-sum's stop.  One channel loop,
_by_channel, runs every route and aggregates failures; under it the
classical term sums numpy blocks of l, and the other routes run _l_by_l,
whose stop rules read the terms one l at a time, in ascending order, and
drop the orders of a block past the stop.  free_energy and zero_T_energy
stop on a certified l-tail bound (power D-2 and D-1), folded into the error
estimate.  force, -dE/da2 at fixed a1 (the force on the outer sphere), runs
the same two sums on the a2-derivative of each term (_Kernel.df; M_l
depends on a2 only through u2 = a2 xi), with the l-tail power one higher,
on a kernel whose ln|M| is log_m's to the bit.  thermal_correction, whose
per-l differences decay like T^(2 nu + 1), stops after two small
differences past l = 3.  The stop rules read plain running totals; every
sum that is returned (over l, over p, over the frequency nodes) is
math.fsum of its kept terms, which is correctly rounded (Shewchuk 1997), so
no block width or grouping changes a value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import Optional

import numpy as np
from scipy import special as _sp

from .bessel import _DEBYE_MIN_NU, _robin_terms, _uniform_series, _uniform_slope
from .errors import NonConvergenceError, PrecisionLossError
from .geometry import EnergyResult, Geometry, TruncationPolicy
from .modes import (BoundaryPair, Channel, bc_coefficients, degeneracy_polynomial,
                    nu as nu_of)

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
_CLASSICAL_BLOCK = 65536  # orders per numpy block of the classical term
_DE_STEP = 0.1  # step h in t of the frequency integral's trapezoid rule
_DE_CUT = 1e-17  # each side of the t-walk stops at |F| <= _DE_CUT * max|F|
_DE_BLOCK = 40  # t-nodes per side and kernel call, where a side takes 24-45
_L_BLOCK = 64  # most orders per kernel call of the vacuum l-sum, at nu >= 50
# Matsubara frequencies per kernel call: _P_SHORT if a scalar estimate ends the sum
# within them (T ~ 1-10), else up to the predicted stop, at most _P_CAP.  A call below
# nu = 50 costs about as much as 50 points.
_P_SHORT = 12
_P_CAP = 1024
# ln(1 - e^s) is log(-expm1(s)) above this s and log1p(-exp(s)) below it
# (Maechler 2012, switch at -ln 2): each form keeps full relative accuracy on its side.
_LOG1MEXP_SWITCH = -0.693


class _Kernel:
    """One channel's f(nu, u) = ln(1 - M) at any real order nu and u = a1 * xi.

    Built once per channel: the radius ratio, ln(a2/a1), the two Robin pairs
    and their ratios, the degeneracy polynomial and the sign of M do not
    depend on nu.  ``sign`` is +1 for a homogeneous pair and -1 for a mixed
    one: each Robin factor c + t has the sign of c = alpha +- beta nu (as
    |alpha/beta| < nu), so M has that of f0's prefactor at every order and
    u.  The methods give ln|M|.
    """

    __slots__ = ("r21", "alpha_log", "ab1", "ab2", "ratios", "sign", "degeneracy")

    def __init__(self, geometry: Geometry, bc_pair: BoundaryPair, channel: Channel):
        self.r21 = geometry.a2 / geometry.a1
        self.alpha_log = geometry.alpha_log
        a1c = bc_coefficients(channel, bc_pair.inner, geometry.dim)
        a2c = bc_coefficients(channel, bc_pair.outer, geometry.dim)
        self.ab1 = (float(a1c[0]), float(a1c[1]))
        self.ab2 = (float(a2c[0]), float(a2c[1]))
        self.ratios = tuple(None if c[1] == 0 else float(c[0] / c[1]) for c in (a1c, a2c))
        self.sign = 1 if bc_pair.is_homogeneous else -1
        self.degeneracy = degeneracy_polynomial(channel, geometry.dim)

    def f0(self, nu):
        """f(nu, 0) = ln(1 - pref (a1/a2)^(2 nu)); ``nu`` is a float or an array.

        M's xi -> 0 prefactor pref = (a1 + b1 nu)(a2 - b2 nu) / ((a1 - b1 nu)(a2 + b2 nu))
        is 1 for a homogeneous pair.
        """
        s = -2.0 * nu * self.alpha_log
        if self.sign > 0:
            return np.where(s > _LOG1MEXP_SWITCH, np.log(-np.expm1(s)), np.log1p(-np.exp(s)))
        (a1, b1), (a2, b2) = self.ab1, self.ab2
        pref = (a1 + b1 * nu) * (a2 - b2 * nu) / ((a1 - b1 * nu) * (a2 + b2 * nu))
        return np.log1p(-pref * np.exp(s))

    def log_m(self, nu, u):
        """ln|M| at order nu and u = a1 * xi > 0, a float or an array.

        ``nu`` is a float, or an array of orders at nu >= 50 that broadcasts
        against u, such as a column of orders against one row of u per order.
        """
        if isinstance(nu, np.ndarray) or nu >= _DEBYE_MIN_NU:
            return self._ratio_form(nu, _uniform_series(nu, u, self.ratios[0]),
                                    _uniform_series(nu, self.r21 * u, self.ratios[1]))
        return self._robin_form(nu, u)

    def f(self, nu, u):
        """f at order nu and u = a1 * xi > 0, a float or an array (orders as in log_m)."""
        return _log_one_minus_array(self.sign, self.log_m(nu, u))

    def log_m_slope(self, nu, u):
        """(ln|M|, u2 d ln|M|/du2) at u2 = r21 u, with nu as in log_m and u an array.

        M depends on a2 only through u2 = a2 xi.  In ratio form (nu >= 50),
        dg/du2 = 2 nu w2/u2, so u2 d ln|M|/du2 = -2 nu w2 - u2 dX2/du2; below,
        it is z R'/R of the outer sphere's K combination less that of its I
        combination (_robin_form).
        """
        if isinstance(nu, np.ndarray) or nu >= _DEBYE_MIN_NU:
            w2, e2, o2, ze2, zo2 = _uniform_slope(nu, self.r21 * u, self.ratios[1])
            log_m = self._ratio_form(nu, _uniform_series(nu, u, self.ratios[0]), (w2, e2, o2))
            return log_m, -2.0 * nu * w2 - ((ze2 + zo2) / (1.0 + e2 + o2)
                                            - (ze2 - zo2) / (1.0 + e2 - o2))
        return self._robin_form(nu, u, slope=True)

    def df(self, nu, u):
        """a1 df/da2 at fixed xi, u df/du2 = -(M/(1 - M)) u2 d ln|M|/du2 / r21 (as log_m_slope).

        M/(1 - M) is expm1(-f).
        """
        log, slope = self.log_m_slope(nu, u)
        return -np.expm1(-_log_one_minus_array(self.sign, log)) * slope / self.r21

    def df0(self, nu):
        """a1 df0/da2 = (2 nu / r21) x/(1 - x), x = pref (a1/a2)^(2 nu); x/(1 - x) = expm1(-f0)."""
        return 2.0 * nu / self.r21 * np.expm1(-self.f0(nu))

    def _robin_form(self, nu: float, u, slope: bool = False):
        """ln|M| below nu = 50 at u a float or 1-d array, with ``slope`` also
        u2 d ln|M|/du2: u and u2 = r21 u stacked, each with its sphere's Robin pair,
        in one bessel._robin_terms call per kind (the slope on u2 only);
        ln|B (c + t)| = ln B + ln|c + t|, as c and t share a sign (|alpha/beta| < nu)."""
        shape, u = np.shape(u), np.ravel(u)
        n = u.size
        z = np.concatenate((u, self.r21 * u))
        alpha, beta = np.repeat((self.ab1, self.ab2), n, axis=0).T
        outer_slope = np.repeat((False, slope), n)
        logs, slopes = [], []
        for kind in "IK":
            lb0, c, t, *z_slope = _robin_terms(alpha, beta, nu, z, kind, outer_slope)
            logs += np.split(lb0 + np.log(np.abs(c + t)), 2)
            slopes += [zs[n:] for zs in z_slope]
        i1, i2, k1, k2 = logs
        log = ((i1 + k2) - (i2 + k1)).reshape(shape)[()]
        if not slope:
            return log
        i2_slope, k2_slope = slopes
        return log, (k2_slope - i2_slope).reshape(shape)[()]

    def _ratio_form(self, nu, inner, outer):
        """ln|M| = -g + X1 - X2 from the uniform (w, E, O) at u and u2; M has the pair's sign.

        X = ln[(1 + E + O)/(1 + E - O)], g = 2 nu [eta(u2/nu) - eta(u/nu)] as one
        log; the sqrt(nu) and w prefactors cancel."""
        (w1, e1, o1), (w2, e2, o2) = inner, outer
        g = 2.0 * nu * (w2 - w1 + np.log(self.r21 * (1.0 + w1) / (1.0 + w2)))
        return -g + (np.log1p(e1 + o1) - np.log1p(e1 - o1)) \
            - (np.log1p(e2 + o2) - np.log1p(e2 - o2))

    def decay(self, nu: float, u, lib=np):
        """(g'(u), w1, w2), w = sqrt(1 + (z/nu)^2) at z = u > 0 and r21 u: |M| falls like
        e^(-g), g = 2 nu [w2 - w1 + ln((1 + w1)/(1 + w2))] (as in _ratio_form, less
        2 nu ln r21), at the rate g' = 2 nu (w2 - w1)/u.  ``lib`` is math or numpy."""
        w1, w2 = lib.hypot(1.0, u / nu), lib.hypot(1.0, self.r21 * u / nu)
        return 2.0 * nu * (w2 - w1) / u, w1, w2


def _log_one_minus_array(sign: int, log):
    """ln(1 - M) from M = sign * exp(log), element by element, for arrays or floats.

    ``sign`` is the channel's one sign of M (_Kernel.sign), and only its form
    is scored.  Stable near M = 1 and for M < -1; for M > 0, raises
    PrecisionLossError if any element has M >= 1, or M near 1 with
    1 - M < 1e-12.  Floats in give a numpy float out (the ``[()]``).
    """
    log = np.asarray(log, dtype=float)
    if sign < 0:  # ln(1 + |M|) in a form that cannot overflow
        return (np.maximum(log, 0.0) + np.log1p(np.exp(-np.abs(log))))[()]
    if (log >= 0.0).any():
        raise PrecisionLossError("reflection coefficient reached 1 within float "
                                 f"resolution (log={np.max(log[log >= 0.0])})")
    one_minus = -np.expm1(log)
    near_one = log > _LOG1MEXP_SWITCH
    if (near_one & (one_minus < 1e-12)).any():
        raise PrecisionLossError("1 - M underflowed the supported relative tolerance "
                                 f"({np.min(one_minus[near_one])})")
    return np.where(near_one, np.log(one_minus), np.log1p(-np.exp(log)))[()]


def m_ratio(l: int, geometry: Geometry, bc_pair: BoundaryPair,
            channel: Channel, xi: float) -> float:
    """The reflection-coefficient product M_l at imaginary frequency xi > 0."""
    if not 0.0 < xi < math.inf:
        raise ValueError(f"xi must be positive and finite, got {xi}")
    nu = nu_of(l, geometry.dim)
    kern = _Kernel(geometry, bc_pair, channel)
    return kern.sign * math.exp(kern.log_m(nu, geometry.a1 * xi))


def f_l(l: int, geometry: Geometry, bc_pair: BoundaryPair,
        channel: Channel, xi: float) -> float:
    """ln(1 - M_l(xi)); at xi = 0 the closed small-argument form is used."""
    if not 0.0 <= xi < math.inf:
        raise ValueError(f"xi must be finite and >= 0, got {xi}")
    nu = nu_of(l, geometry.dim)
    kern, u = _Kernel(geometry, bc_pair, channel), geometry.a1 * xi
    return float(kern.f0(nu) if u <= 0.0 else kern.f(nu, u))


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


def _by_channel(geometry: Geometry, bc_pair: BoundaryPair, channel: Optional[Channel],
                channel_sum) -> EnergyResult:
    """Add up ``channel_sum(kernel)`` over the requested channel or TE and TM.

    ``channel_sum`` gives one channel's (value, error, l_used, p_used), or
    raises NonConvergenceError with that channel's partial sum, l_used and
    p_used.  Every channel runs to its own stop or cap; if any fails, one
    NonConvergenceError carries the first failure's message and, as
    ``partial``, the sum of every channel's completed terms.
    """
    per_channel: dict[str, float] = {}
    l_used = p_used = 0
    err = 0.0
    failure = None
    for ch in (channel,) if channel is not None else (Channel.TE, Channel.TM):
        try:
            value, ch_err, ch_l, ch_p = channel_sum(_Kernel(geometry, bc_pair, ch))
            err += ch_err
        except NonConvergenceError as exc:
            failure = failure or exc
            value, ch_l, ch_p = exc.partial, exc.l_used, exc.p_used
        per_channel[ch.value] = value
        l_used, p_used = max(l_used, ch_l), max(p_used, ch_p)
    if failure is not None:
        raise NonConvergenceError(str(failure), partial=sum(per_channel.values()),
                                  l_used=l_used, p_used=p_used)
    return EnergyResult(value=sum(per_channel.values()), per_channel=per_channel,
                        l_used=l_used, p_used=p_used, error_estimate=err)


def _certified(res: EnergyResult, policy: TruncationPolicy) -> EnergyResult:
    """Add the rounding allowance to a classical, Matsubara or vacuum sum; enforce rel_tol."""
    err = res.error_estimate + 8.0 * np.finfo(float).eps * abs(res.value)
    if err > policy.rel_tol * abs(res.value):
        raise NonConvergenceError(f"error estimate {err:.3e} exceeds rel_tol * |E| = "
                                  f"{policy.rel_tol * abs(res.value):.3e}", partial=res.value,
                                  l_used=res.l_used, p_used=res.p_used)
    return replace(res, error_estimate=err)


def _classical_blocks(kern: _Kernel, dim: int, policy: TruncationPolicy):
    """One channel's (1/2) sum_l d_l f(nu_l, 0), scored in numpy blocks of l.

    Stops once the last term and the certified l-tail (power D-2) fit the
    tolerance; ``l_used`` is the last l whose term is significant.
    """
    alpha = kern.alpha_log
    kept: list[float] = []
    total = 0.0
    l_used = 0
    lo = 1
    while True:
        hi = min(lo + _CLASSICAL_BLOCK - 1, policy.l_max_hard)
        nu_v = np.arange(lo, hi + 1, dtype=np.float64) + (dim - 2) / 2.0
        terms = 0.5 * kern.degeneracy(nu_v) * kern.f0(nu_v)
        kept.extend(terms.tolist())
        total += float(np.sum(terms))
        significant = np.nonzero(np.abs(terms) > 1e-16 * abs(total))[0]
        if significant.size:
            l_used = lo + int(significant[-1])
        tail = _l_tail_bound(terms[-1], nu_v[-1], dim - 2, alpha)
        if tail < policy.rel_tol * abs(total) * 0.25 and abs(terms[-1]) \
                < policy.rel_tol * abs(total):
            return math.fsum(kept), tail, l_used, 0
        if hi >= policy.l_max_hard:
            raise NonConvergenceError(f"classical term hit l_max_hard={policy.l_max_hard} "
                                      f"before reaching rel_tol={policy.rel_tol}",
                                      partial=math.fsum(kept), l_used=hi)
        lo = hi + 1


def classical_term(geometry: Geometry, bc_pair: BoundaryPair,
                   channel: Optional[Channel] = None,
                   policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """Zeroth-Matsubara part of the free energy, per unit temperature.

    An elementary series: (1/2) sum_l d_l(D) ln(1 - pref_l (a1/a2)^(2 nu)).
    Multiply by T to obtain the high-temperature (classical) energy.
    """
    res = _by_channel(geometry, bc_pair, channel,
                      lambda kern: _classical_blocks(kern, geometry.dim, policy))
    return _certified(res, policy)


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


def _l_by_l(kern: _Kernel, dim: int, policy: TruncationPolicy, terms, rule,
            width=lambda nu, term, total: 1):
    """One channel's sum over l of d_l-weighted per-l blocks.

    ``width(nu, term, total)`` gives the number of orders to score next,
    from the last order's nu and term (nu_0 and 0 before l = 1) and the
    running total; ``terms(kern, nu, d_l)`` gives one (term, error, p_used)
    per order of the list ``nu``, in order; ``rule(l, nu, term, total,
    err)`` returns the l-tail bound that ends the sum, or None.  The rule
    runs one l at a time on a plain running total, and the orders past the
    stop are dropped; the value, and the ``partial`` of a failure, is
    math.fsum of the completed terms.
    """
    kept: list[float] = []
    total = err = t = 0.0
    l_used = p_used = 0
    nu = (dim - 2) / 2.0
    try:
        while l_used < policy.l_max_hard:
            ls = range(l_used + 1, min(l_used + width(nu, t, total), policy.l_max_hard) + 1)
            nus = [l + (dim - 2) / 2.0 for l in ls]
            for l, nu, (t, error, p) in zip(ls, nus, terms(
                    kern, nus, [kern.degeneracy(n) for n in nus])):
                kept.append(t)
                total += t
                err += error
                l_used, p_used = l, max(p_used, p)
                ltail = rule(l, nu, t, total, err)
                if ltail is not None:
                    return math.fsum(kept), err + ltail, l_used, p_used
        raise NonConvergenceError(f"angular sum hit l_max_hard={policy.l_max_hard}")
    except NonConvergenceError as exc:
        raise NonConvergenceError(str(exc), partial=math.fsum(kept), l_used=l_used,
                                  p_used=max(p_used, exc.p_used)) from None


def _p_tail(size, r, p, slope: bool):
    """Bound on the rest of a Matsubara sum past a term of magnitude ``size`` at frequency
    p, where |M| falls at least like r^k: size r/(1 - r), times 1 + 1/(p (1 - r)) for df,
    whose term p + k is at most r^k (1 + k/p) size (u d ln|M|/du2 ~ -2 sqrt(nu^2 + u2^2)/r21
    grows at most like u).  Floats or arrays, for r < 1; r = nan passes no test."""
    one = 1.0 - r
    tail = size * r / one
    return tail * (1.0 + 1.0 / (p * one)) if slope else tail


def _matsubara_block(kern: _Kernel, nu: float, a1T: float, rel_tol: float,
                     p_max: int, slope: bool = False) -> tuple[float, float, int]:
    """f0/2 + sum_p f(u_p) for one order, with certified p-tail bound; with
    ``slope``, a1 times its a2-derivative, df0/2 + sum_p df(u_p).

    The sum stops at the first p whose _p_tail, at r = exp(-g'(u_p) du), is below rel_tol
    of the running total.  A kernel call scores the frequencies up to a stop forecast on
    estimated terms ref e^(h(u_(p-1)) - h(u_k)), ref the last term (f0 or df0 at u_0 = 0),
    h = g of _Kernel.decay, less ln w2 for df (u2 d ln|M|/du2 ~ -2 nu w2): _P_SHORT of them
    if a scalar forecast ends the sum there, else up to _P_SHORT/2 + 5% past the first
    forecast stop, at most _P_CAP.  The stop is read off each window at once, on running
    totals that add its terms in order; the value is math.fsum of the terms up to it.
    """
    du = 2.0 * math.pi * a1T
    zeroth, term = (kern.df0, kern.df) if slope else (kern.f0, kern.f)
    f0 = float(zeroth(nu))
    terms, total, p, ref = [0.5 * f0], 0.5 * f0, 1, abs(f0)

    def exponent(k, lib):
        rates, w1, w2 = kern.decay(nu, du * k, lib)
        h = 2.0 * nu * (w2 - w1 + lib.log((1.0 + w1) / (1.0 + w2)))
        return rates, (h - lib.log(w2) if slope else h)

    def below_one(r):  # where r rounds to 1 no tail bound holds
        return np.where(r < 1.0, r, np.nan)

    while True:
        last = min(p + _P_CAP, p_max + 1)
        short = min(p + _P_SHORT, last)
        h_ref = exponent(p - 1, math)[1] if p > 1 else 0.0
        # a1 T that underflowed to 0 takes the array path, to the kernel's check of u > 0
        rate, h = exponent(short - 1, math) if du > 0.0 else (0.0, 0.0)
        r = math.exp(-rate * du)
        if r < 1.0 and _p_tail(ref * math.exp(h_ref - h), r, short - 1, slope) \
                <= rel_tol * abs(total):
            ks = np.arange(p, short)
            u = du * ks
            rates = kern.decay(nu, u)[0]
        else:
            ks = np.arange(p, last)
            rates, h = exponent(ks, np)
            est = ref * np.exp(h_ref - h)
            fit = (_p_tail(est, below_one(np.exp(-rates * du)), ks, slope)
                   <= rel_tol * (abs(total) + np.cumsum(est)))
            if fit.any():
                first = int(fit.argmax()) + 1
                ks = ks[:first + _P_SHORT // 2 + first // 20]
                rates = rates[:ks.size]
            u = du * ks
        values = term(nu, u)
        # r from math.exp, as np.exp can differ from it in the last bit
        r = np.array(list(map(math.exp, (rates * -du).tolist())))
        tails = _p_tail(np.abs(values), below_one(r), ks, slope)
        window = values.tolist()
        values[0] += total  # the running totals, adding the terms in order
        sums = np.add.accumulate(values, out=values)
        stop = tails < rel_tol * np.maximum(np.abs(sums), 1e-300)
        i = int(stop.argmax())
        if stop[i]:
            return math.fsum(terms + window[:i + 1]), float(tails[i]), p + i
        p += len(window)
        if p > p_max:
            raise NonConvergenceError(
                f"Matsubara sum hit p_max_hard={p_max} (l-order nu={nu})", p_used=p_max)
        terms += window
        total, ref = float(sums[-1]), abs(window[-1])


def _check_temperature(name: str, T: float, zero: bool = False) -> None:
    """Reject a NaN, infinite or negative T, and T = 0 unless ``zero``."""
    if not (math.isfinite(T) and (T >= 0.0 if zero else T > 0.0)):
        raise ValueError(f"{name} requires a finite T {'>=' if zero else '>'} 0, got {T}")


def _matsubara_sum(geometry: Geometry, bc_pair: BoundaryPair, channel: Optional[Channel],
                   T: float, policy: TruncationPolicy, scale: float,
                   slope: bool = False) -> EnergyResult:
    """scale * sum_l d_l (the order's _matsubara_block), over the channels, certified.

    The l-tail power is D - 2 for the free energy and D - 1 for its
    a2-derivative (``slope``), whose terms carry a further factor ~ 2 nu.
    """
    a1T = geometry.a1 * T

    def matsubara_terms(kern, nu, d_l):
        for n, d in zip(nu, d_l):
            block, ptail, p = _matsubara_block(kern, n, a1T, policy.rel_tol / 20.0,
                                               policy.p_max_hard, slope)
            yield scale * d * block, abs(scale) * d * ptail, p

    res = _by_channel(geometry, bc_pair, channel, lambda kern: _l_by_l(
        kern, geometry.dim, policy, matsubara_terms,
        _certified_stop(policy, geometry.dim - 2 + slope, geometry.alpha_log)))
    return _certified(res, policy)


def free_energy(geometry: Geometry, bc_pair: BoundaryPair,
                channel: Optional[Channel], T: float,
                policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """Interaction free energy at temperature T > 0 (units of 1/a1 natural)."""
    _check_temperature("free_energy", T)
    return _matsubara_sum(geometry, bc_pair, channel, T, policy, T)


def _de_values(integrand, nu: np.ndarray, c: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """F(t) = u'(t) integrand(nu, u(t)) at t = k h, u = c exp(t - e^-t), in one kernel call.

    One row per order of ``nu`` (with its scale in ``c``), one column per
    integer of ``ks``.  A node where u underflows is 0: the ratio form at
    nu >= 50 gives 0 there itself, and below nu = 50, where a block holds
    one order, _Kernel._robin_form scores only the other nodes.
    """
    t = ks * _DE_STEP
    e = np.exp(-t)
    if nu[0] >= _DEBYE_MIN_NU:
        u = c[:, None] * np.exp(t - e)
        return u * (1.0 + e) * integrand(nu[:, None], u)
    u = c[0] * np.exp(t - e)
    live = u > 0.0
    values = np.zeros_like(u)
    values[live] = u[live] * (1.0 + e[live]) * integrand(float(nu[0]), u[live])
    return values[None]


def _de_block_walk(integrand, nu: np.ndarray, c: np.ndarray) -> list:
    """The nodes k and values F(k h) of _zero_t_integrals' walk, two arrays per order.

    ``nu`` holds one order below nu = 50, or any number at nu >= 50, and
    ``c`` their scales.  The first kernel call scores _DE_BLOCK nodes per
    side of every order.  On each block the running maximum along a row
    finds the node where a one-node walk would stop (the right side's peak
    carried into the left side); the nodes past it are dropped, and the
    orders whose side has not stopped are scored one block further, together.
    """
    first = _de_values(integrand, nu, c, np.arange(-_DE_BLOCK, _DE_BLOCK))
    kept = [([], []) for _ in range(nu.size)]
    peak = np.zeros((nu.size, 1))
    for step, block in ((1, first[:, _DE_BLOCK:]), (-1, first[:, _DE_BLOCK - 1::-1])):
        offsets = step * np.arange(_DE_BLOCK)
        rows, row_peaks = list(range(nu.size)), peak
        k = 0 if step > 0 else -1
        while True:
            ks = k + offsets
            size = np.abs(block)
            running = np.maximum.accumulate(np.maximum(size, row_peaks), axis=1)
            stops = size <= _DE_CUT * running
            if step > 0:
                stops &= ks * _DE_STEP >= 1.0
            going = []
            for i, (row, flags) in enumerate(zip(rows, stops.tolist())):
                stopped = True in flags
                n = flags.index(True) + 1 if stopped else _DE_BLOCK
                kept[row][0].append(ks[:n])
                kept[row][1].append(block[i, :n])
                peak[row, 0] = running[i, n - 1]
                if not stopped:
                    going.append(row)
            if not going:
                break
            rows, row_peaks = going, peak[going]
            k += step * _DE_BLOCK
            block = _de_values(integrand, nu[rows], c[rows], k + offsets)
    return [(np.concatenate(ks), np.concatenate(values)) for ks, values in kept]


def _zero_t_integrals(kern: _Kernel, nu: list[float],
                      slope: bool = False) -> list[tuple[float, float]]:
    """int_0^infty f(nu, u) du, or with ``slope`` that of df, and its error
    estimate for each order of ``nu``.

    The trapezoid rule in t under the exp-DE map u = c exp(t - e^-t) (Ooura &
    Mori 1991) at step h = _DE_STEP, with c = min(nu, sqrt(q (2 nu + q))),
    q = 1/(r21^2 - 1), where |M| has fallen by about e.  The walk goes out
    from t = 0 on each side, the right one to t >= 1 at least, and stops at
    the first node with |F| <= _DE_CUT max|F|; a node where u underflows, or
    where f is 0, adds 0; the kernel scores a block of nodes of every order
    per call (_de_block_walk), so ``nu`` holds one order below nu = 50 or
    any number at nu >= 50.  The estimate is d1^2/d2 from the sums at 2h
    and 4h on the same nodes, plus a rounding allowance that grows with nu,
    as the kernel's exponent 2 nu w loses digits in proportion.  Every sum
    is math.fsum of one order's nodes, so no order changes another's result.
    """
    q = 1.0 / (kern.r21 * kern.r21 - 1.0)
    c = [min(order, math.sqrt(q * (2.0 * order + q))) for order in nu]
    out = []
    walk = _de_block_walk(kern.df if slope else kern.f, np.array(nu), np.array(c))
    for order, (k, values) in zip(nu, walk):
        s_h, s_2h, s_4h = (m * _DE_STEP * math.fsum(values[k % m == 0].tolist())
                           for m in (1, 2, 4))
        d1, d2 = abs(s_h - s_2h), abs(s_h - s_4h)
        rounding = (128.0 + 2.0 * order) * np.finfo(float).eps * _DE_STEP \
            * math.fsum(np.abs(values).tolist())
        out.append((s_h, (d1 * d1 / d2 if d2 > 0.0 else d1) + rounding))
    return out


def _orders_to_stop(policy: TruncationPolicy, power: float, alpha: float):
    """Orders per block of the vacuum l-sum: one below nu = 50, from there
    the orders left to the certified stop, at most _L_BLOCK.

    ``width(nu, term, total)`` reads the last order's nu and term and the
    running total.  The terms fall like nu^power e^(-2 alpha nu), as
    _l_tail_bound assumes, so the stop's ltail + |term| < rel_tol |total| / 2
    lies ln(r / (rel_tol |total| / 2)) / (2 alpha) orders on, r the last
    ltail + |term|, plus the orders the nu^power growth adds over that
    distance.  The total still grows, so the prediction errs long, and the
    orders scored past the stop are those of the last block.
    """
    def width(nu, term, total):
        if nu + 1.0 < _DEBYE_MIN_NU or total == 0.0:
            return 1
        excess = math.log((_l_tail_bound(term, nu, power, alpha) + abs(term))
                          / (0.5 * policy.rel_tol * abs(total)))
        n = (excess + power * math.log1p(excess / (2.0 * alpha * nu))) / (2.0 * alpha)
        return max(1, min(_L_BLOCK, math.ceil(n)))
    return width


def _vacuum_sum(geometry: Geometry, bc_pair: BoundaryPair, channel: Optional[Channel],
                policy: TruncationPolicy, scale: float, slope: bool = False) -> EnergyResult:
    """scale * sum_l d_l int_0^inf f (or df, with ``slope``) du, over the channels, certified.

    The l-tail power is D - 1 for the energy and D for its a2-derivative.
    """
    def vacuum_terms(kern, nu, d_l):
        for (integral, ierr), d in zip(_zero_t_integrals(kern, nu, slope), d_l):
            yield scale * d * integral, abs(scale) * d * ierr, 0

    power = geometry.dim - 1 + slope
    res = _by_channel(geometry, bc_pair, channel, lambda kern: _l_by_l(
        kern, geometry.dim, policy, vacuum_terms,
        _certified_stop(policy, power, geometry.alpha_log),
        _orders_to_stop(policy, power, geometry.alpha_log)))
    return _certified(res, policy)


def zero_T_energy(geometry: Geometry, bc_pair: BoundaryPair,
                  channel: Optional[Channel] = None,
                  policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """Vacuum (T = 0) interaction energy: (1/2 pi) sum_l d_l int_0^inf f_l."""
    return _vacuum_sum(geometry, bc_pair, channel, policy, 1.0 / (2.0 * math.pi * geometry.a1))


def thermal_correction(geometry: Geometry, bc_pair: BoundaryPair,
                       channel: Optional[Channel], T: float,
                       policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """E(T) - E_0 by per-l subtraction of the two exact routes.

    The Matsubara sum (at a tight tolerance) and the frequency integral are
    evaluated for the same l and differenced term by term;
    the difference decays like T^(2 nu + 1), so only a handful of l survive.
    A warning is attached when the correction is within a decade of the
    combined error estimate.
    """
    _check_temperature("thermal_correction", T)
    a1T = geometry.a1 * T
    inv_2pi_a1 = 1.0 / (2.0 * math.pi * geometry.a1)

    def difference_terms(kern, nu, d_l):
        for n, d in zip(nu, d_l):
            block, ptail, p = _matsubara_block(kern, n, a1T, 1e-14, policy.p_max_hard)
            (integral, ierr), = _zero_t_integrals(kern, [n])
            delta = d * (T * block - inv_2pi_a1 * integral)
            truncation = d * (T * ptail + inv_2pi_a1 * ierr)
            rounding = d * 4e-16 * (abs(T * block) + abs(inv_2pi_a1 * integral))
            yield delta, truncation + rounding, p

    res = _by_channel(geometry, bc_pair, channel, lambda kern: _l_by_l(
        kern, geometry.dim, policy, difference_terms, _difference_stop(policy)))
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


def _force(geometry: Geometry, bc_pair: BoundaryPair, T: float,
           policy: TruncationPolicy) -> EnergyResult:
    """force as a certified result: its value, per-channel split and error estimate."""
    _check_temperature("force", T, zero=True)
    scale = -1.0 / geometry.a1
    if T == 0.0:
        return _vacuum_sum(geometry, bc_pair, None, policy,
                           scale / (2.0 * math.pi * geometry.a1), slope=True)
    return _matsubara_sum(geometry, bc_pair, None, T, policy, scale * T, slope=True)


def force(geometry: Geometry, bc_pair: BoundaryPair, T: float = 0.0,
          policy: TruncationPolicy = TruncationPolicy()) -> float:
    """-dE/dd at fixed a1, that is -dE/da2: negative = attractive.

    The force on the outer sphere: the T^(D+1) term of thermal_correction
    depends on a1 alone and drops out, unlike in
    asymptotics.exact_thermal_force_leading, -d(Delta_T E)/da1 at fixed a2.

    Differentiated under the l-sum: M_l depends on a2 only through
    u2 = a2 xi, so each order's frequency integral (T = 0) or Matsubara sum
    (T > 0) runs on a1 df/da2 = u df/du2 (_Kernel.df), plus the closed
    a2-derivative of f_l(0) above T = 0.  The sums, their stops and their
    error estimates are those of the energy, with the l-tail power one
    higher; the result must meet ``policy.rel_tol`` like an energy, or
    NonConvergenceError is raised.
    """
    return float(_force(geometry, bc_pair, T, policy).value)
