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
channel's f is one _Kernel at any real order nu on a numpy array of u, and
_joint_f scores the channels of a call together on shared points, one row
per channel: in ratio form from the uniform expansion at nu >= 50, channel
by channel, also on a column of orders against one row of u per order, and
below, one order per call, from the Robin factors of both spheres, where TE
and TM share every Bessel evaluation (_robin_form).  Both per-order walks
(the frequency integral's nodes and the Matsubara frequencies, neither of
which depends on the channel) score a block of points of every live channel
per kernel call, with the stops, sums and counts of a one-point walk; the
Matsubara walk sizes each block from the stop that the decay of |M|
predicts and reads the stop off it.  One channel loop, _by_channel, runs
every route and aggregates failures; under it the classical term sums
numpy blocks of l, and the other routes run _l_by_l, which walks the
channels in lockstep: each keeps its own stop rule, kept terms, sums and
counts, reads its terms one l at a time and drops the orders of a block
past its stop, and a channel that has stopped is left out of later kernel
calls.  The energy, at T = 0 and above, and the force are one route,
_exact_sum, over blocks of up to _L_BLOCK orders at nu >= 50, sized from
the orders left to the stop (one kernel call per block of the frequency
walk; the Matsubara sums one order at a time as the stop rules read them),
with a certified l-tail bound (power D-2, one higher at T = 0) folded into
the error estimate.  force, -dE/da2 at fixed a1 (the force on the outer
sphere), runs it on the a2-derivative of each term (_joint_f with
``slope``; M_l depends on a2 only through u2 = a2 xi), with the l-tail power
one higher, on the same ln|M| to the bit.  thermal_correction differences
the two routes order by order and stops after two small differences past
l = 3, adding the certified l-tail of the last one.  The stop rules read
plain running totals; every sum that is returned (over l, over p, over the
frequency nodes) is math.fsum of its kept terms, which is correctly rounded
(Shewchuk 1997), so no block width, grouping or channel set changes a value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import Optional

import numpy as np
from scipy import special as _sp

from .bessel import _DEBYE_MIN_NU, _bessel_terms, _robin_factors, _uniform_series
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
    u.  The methods give ln|M|.  ``pairs`` holds both Robin pairs as rows.
    """

    __slots__ = ("r21", "alpha_log", "ab1", "ab2", "pairs", "ratios", "sign", "degeneracy")

    def __init__(self, geometry: Geometry, bc_pair: BoundaryPair, channel: Channel):
        self.r21 = geometry.a2 / geometry.a1
        self.alpha_log = geometry.alpha_log
        a1c = bc_coefficients(channel, bc_pair.inner, geometry.dim)
        a2c = bc_coefficients(channel, bc_pair.outer, geometry.dim)
        self.ab1 = (float(a1c[0]), float(a1c[1]))
        self.ab2 = (float(a2c[0]), float(a2c[1]))
        self.pairs = np.array((self.ab1, self.ab2))
        self.ratios = tuple(None if c[1] == 0 else float(c[0] / c[1]) for c in (a1c, a2c))
        self.sign = 1 if bc_pair.is_homogeneous else -1
        self.degeneracy = degeneracy_polynomial(channel, geometry.dim)

    def f0(self, nu, slope: bool = False):
        """f(nu, 0) = ln(1 - x), x = pref (a1/a2)^(2 nu), or with ``slope``
        a1 df0/da2 = (2 nu / r21) x/(1 - x), x/(1 - x) = expm1(-f0); ``nu`` is a
        float or an array.

        M's xi -> 0 prefactor pref = (a1 + b1 nu)(a2 - b2 nu) / ((a1 - b1 nu)(a2 + b2 nu))
        is 1 for a homogeneous pair.
        """
        s = -2.0 * nu * self.alpha_log
        if self.sign > 0:
            f0 = np.where(s > _LOG1MEXP_SWITCH, np.log(-np.expm1(s)), np.log1p(-np.exp(s)))
        else:
            (a1, b1), (a2, b2) = self.ab1, self.ab2
            pref = (a1 + b1 * nu) * (a2 - b2 * nu) / ((a1 - b1 * nu) * (a2 + b2 * nu))
            f0 = np.log1p(-pref * np.exp(s))
        return 2.0 * nu / self.r21 * np.expm1(-f0) if slope else f0

    def log_m(self, nu, u, slope: bool = False):
        """ln|M| at order nu and u = a1 * xi > 0, a float or an array; with
        ``slope`` (u an array) the pair (ln|M|, u2 d ln|M|/du2) at u2 = r21 u:
        the one-channel case of _joint_log_m."""
        out = _joint_log_m((self,), nu, u, slope)
        return (out[0][0], out[1][0]) if slope else out[0]

    def f(self, nu, u, slope: bool = False):
        """f at order nu and u = a1 * xi > 0, a float or an array (orders as in
        _joint_log_m); with ``slope`` (u an array) a1 df/da2 at fixed xi: the
        one-channel case of _joint_f."""
        return _joint_f((self,), nu, u, slope)[0]

    def _ratio_form(self, nu, u, slope: bool = False):
        """ln|M| = -g + X1 - X2 from the uniform (w, E, O) at u and u2 (nu >= 50), and
        with ``slope`` also u2 d ln|M|/du2 = -2 nu w2 - u2 dX2/du2, as dg/du2 = 2 nu w2/u2.

        X = ln[(1 + E + O)/(1 + E - O)], g = 2 nu [eta(u2/nu) - eta(u/nu)] as one
        log; the sqrt(nu) and w prefactors cancel, and M has the pair's sign."""
        w1, e1, o1 = _uniform_series(nu, u, self.ratios[0])
        w2, e2, o2, *z_slope = _uniform_series(nu, self.r21 * u, self.ratios[1], slope)
        g = 2.0 * nu * (w2 - w1 + np.log(self.r21 * (1.0 + w1) / (1.0 + w2)))
        log = -g + (np.log1p(e1 + o1) - np.log1p(e1 - o1)) \
            - (np.log1p(e2 + o2) - np.log1p(e2 - o2))
        if not slope:
            return log
        ze2, zo2 = z_slope
        return log, -2.0 * nu * w2 - ((ze2 + zo2) / (1.0 + e2 + o2)
                                      - (ze2 - zo2) / (1.0 + e2 - o2))

    def decay(self, nu: float, u, lib=np):
        """(g'(u), w1, w2), w = sqrt(1 + (z/nu)^2) at z = u > 0 and r21 u: |M| falls like
        e^(-g), g = 2 nu [w2 - w1 + ln((1 + w1)/(1 + w2))] (as in _ratio_form, less
        2 nu ln r21), at the rate g' = 2 nu (w2 - w1)/u.  ``lib`` is math or numpy."""
        w1, w2 = lib.hypot(1.0, u / nu), lib.hypot(1.0, self.r21 * u / nu)
        return 2.0 * nu * (w2 - w1) / u, w1, w2


def _joint_log_m(kernels, nu, u, slope: bool = False):
    """ln|M| of each kernel at order nu and u = a1 * xi > 0, one row per kernel; with
    ``slope`` (u an array) also u2 d ln|M|/du2 at u2 = r21 u, rows likewise.

    ``kernels`` are channels of one geometry and boundary pair.  ``nu`` is a
    float, or an array of orders that broadcasts against u, such as a column of
    orders against one row of u per order: any number at nu >= 50, one below,
    scored as a float.  M depends on a2 only through u2 = a2 xi.  Below nu = 50
    the kernels share every Bessel evaluation (_robin_form); from there each
    kernel takes its own ratio form, whose uniform series differ by channel.
    ln|M| does not depend on ``slope``.
    """
    order = nu.flat[0] if isinstance(nu, np.ndarray) else nu
    if order < _DEBYE_MIN_NU:
        return _robin_form(kernels, float(order), u, slope)
    rows = [kern._ratio_form(nu, u, slope) for kern in kernels]
    return tuple(map(np.stack, zip(*rows))) if slope else np.stack(rows)


def _joint_f(kernels, nu, u, slope: bool = False):
    """f = ln(1 - M) of each kernel at order nu and u (as in _joint_log_m), one row per
    kernel; with ``slope`` (u an array) a1 df/da2 at fixed xi,
    u df/du2 = -(M/(1 - M)) u2 d ln|M|/du2 / r21, where M/(1 - M) is expm1(-f).
    The kernels share the sign of M and r21.
    """
    sign = kernels[0].sign
    if not slope:
        return _log_one_minus_array(sign, _joint_log_m(kernels, nu, u))
    log, u2_slope = _joint_log_m(kernels, nu, u, slope)
    return -np.expm1(-_log_one_minus_array(sign, log)) * u2_slope / kernels[0].r21


def _robin_form(kernels, nu: float, u, slope: bool = False):
    """ln|M| of each kernel below nu = 50 at u a float or an array, one row per kernel,
    with ``slope`` also u2 d ln|M|/du2 (the outer sphere's K combination's z R'/R
    less its I combination's).  u and u2 = r21 u are stacked, and one
    bessel._bessel_terms call per kind scores them for every kernel, with the
    neighbour ratio where any kernel's sphere has beta != 0, and on u2 for the
    slope: at most 4 _log_bessel_array calls.  Each kernel's Robin pairs, one
    row per kernel, then give its factors (bessel._robin_factors);
    ln|B (c + t)| = ln B + ln|c + t|, as c and t share a sign (|alpha/beta| < nu).
    """
    shape, u = np.shape(u), np.ravel(u)
    n = u.size
    z = np.concatenate((u, kernels[0].r21 * u))
    alpha, beta = np.stack([kern.pairs for kern in kernels]).repeat(n, axis=1).transpose(2, 0, 1)
    outer = np.arange(2 * n) >= n if slope else False
    need = np.logical_or(outer, (beta != 0.0).any(axis=0))
    logs, slopes = [], []
    for kind in "IK":
        lb0, q = _bessel_terms(nu, z, kind, need)
        c, t, *z_slope = _robin_factors(alpha, beta, nu, z, q, kind, outer)
        log = lb0 + np.log(np.abs(c + t))
        logs += [log[:, :n], log[:, n:]]
        slopes += [zs[:, n:] for zs in z_slope]
    rows = (len(kernels),) + shape
    i1, i2, k1, k2 = logs
    log = ((i1 + k2) - (i2 + k1)).reshape(rows)
    if not slope:
        return log
    i2_slope, k2_slope = slopes
    return log, (k2_slope - i2_slope).reshape(rows)


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
                channel_sums) -> EnergyResult:
    """Add up ``channel_sums(kernels)`` over the requested channel or TE and TM.

    ``channel_sums`` gives one outcome per kernel: that channel's (value,
    error, l_used, p_used), or a NonConvergenceError with its partial sum,
    l_used and p_used.  Every channel runs to its own stop or cap; if any
    fails, one NonConvergenceError carries the first failure's message, in
    channel order (TE, then TM), and, as ``partial``, the sum of every
    channel's completed terms, with the largest l_used and p_used.
    """
    channels = (channel,) if channel is not None else (Channel.TE, Channel.TM)
    outcomes = channel_sums([_Kernel(geometry, bc_pair, ch) for ch in channels])
    per_channel: dict[str, float] = {}
    l_used = p_used = 0
    err = 0.0
    failure = None
    for ch, outcome in zip(channels, outcomes):
        if isinstance(outcome, NonConvergenceError):
            failure = failure or outcome
            value, ch_l, ch_p = outcome.partial, outcome.l_used, outcome.p_used
        else:
            value, ch_err, ch_l, ch_p = outcome
            err += ch_err
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
    """One channel's (1/2) sum_l d_l f(nu_l, 0), scored in numpy blocks of l, as an
    outcome of _by_channel.

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
            return NonConvergenceError(f"classical term hit l_max_hard={policy.l_max_hard} "
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
    res = _by_channel(geometry, bc_pair, channel, lambda kernels: [
        _classical_blocks(kern, geometry.dim, policy) for kern in kernels])
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


def _difference_stop(policy: TruncationPolicy, power: float, alpha: float):
    """Thermal-correction stop rule: two small differences past l = 3, ending
    with the certified l-tail of the last one (terms ~ nu^power e^{-2 alpha nu}).

    At a1 T << 1 the differences decay like T^(2 nu + 1), so the tail is tiny;
    from a1 T ~ 0.5 they fall like the free energy's terms, and it is not.
    """
    run = 0

    def rule(l, nu_val, term, total, err):
        nonlocal run
        run = run + 1 if abs(term) < max(policy.rel_tol * abs(total), 0.3 * err) else 0
        return _l_tail_bound(term, nu_val, power, alpha) if run >= 2 and l >= 3 else None
    return rule


def _l_by_l(kernels, dim: int, policy: TruncationPolicy, terms, rule,
            width=lambda nu, term, total: 1) -> list:
    """Each channel's sum over l of d_l-weighted per-l blocks, the channels in lockstep.

    ``terms(kernels, nu, d_l)`` gives, per order of the list ``nu`` and in
    order, one (term, error, p_used) per kernel, or that channel's
    NonConvergenceError; ``d_l`` holds each order's degeneracies, one per
    kernel.  ``rule()`` makes one channel's stop rule: ``rule(l, nu, term,
    total, err)`` returns the l-tail bound that ends the sum, or None.
    ``width(nu, term, total)`` gives a channel's number of orders to score
    next, from the last order's nu and that channel's term (nu_0 and 0 before
    l = 1) and running total; a block takes the most over the live channels.
    Each channel keeps its own kept terms, running total, error, counts and
    stop, read one l at a time; a block scores the channels live at its start
    and ends at the first order where one of them stops or fails, so later
    blocks leave that channel out, and its orders past the stop are dropped.
    Returns one outcome per kernel: (value, error, l_used, p_used), the value
    math.fsum of the completed terms, or a NonConvergenceError whose
    ``partial`` is that fsum.
    """
    count = len(kernels)
    kept: list[list[float]] = [[] for _ in kernels]
    total, err, last = [0.0] * count, [0.0] * count, [0.0] * count
    p_used = [0] * count
    rules = [rule() for _ in kernels]
    out: list = [None] * count
    live = list(range(count))
    l, nu = 0, (dim - 2) / 2.0
    while live:
        if l >= policy.l_max_hard:
            for i in live:
                out[i] = NonConvergenceError(f"angular sum hit l_max_hard={policy.l_max_hard}",
                                             partial=math.fsum(kept[i]), l_used=l,
                                             p_used=p_used[i])
            break
        size = max(width(nu, last[i], total[i]) for i in live)
        ls = range(l + 1, min(l + size, policy.l_max_hard) + 1)
        nus = [n + (dim - 2) / 2.0 for n in ls]
        walked = [kernels[i] for i in live]
        for l, nu, row in zip(ls, nus, terms(
                walked, nus, [[kern.degeneracy(n) for kern in walked] for n in nus])):
            for i, outcome in zip(live, row):
                if isinstance(outcome, NonConvergenceError):
                    out[i] = NonConvergenceError(str(outcome), partial=math.fsum(kept[i]),
                                                 l_used=l - 1,
                                                 p_used=max(p_used[i], outcome.p_used))
                    continue
                t, error, p = outcome
                kept[i].append(t)
                total[i] += t
                err[i] += error
                last[i], p_used[i] = t, max(p_used[i], p)
                ltail = rules[i](l, nu, t, total[i], err[i])
                if ltail is not None:
                    out[i] = (math.fsum(kept[i]), err[i] + ltail, l, p_used[i])
            if any(out[i] is not None for i in live):
                live = [i for i in live if out[i] is None]
                break
    return out


def _p_tail(size, r, p, slope: bool):
    """Bound on the rest of a Matsubara sum past a term of magnitude ``size`` at frequency
    p, where |M| falls at least like r^k: size r/(1 - r), times 1 + 1/(p (1 - r)) for df,
    whose term p + k is at most r^k (1 + k/p) size (u d ln|M|/du2 ~ -2 sqrt(nu^2 + u2^2)/r21
    grows at most like u).  Floats or arrays, for r < 1; r = nan passes no test."""
    one = 1.0 - r
    tail = size * r / one
    return tail * (1.0 + 1.0 / (p * one)) if slope else tail


def _matsubara_block(kernels, nu: float, a1T: float, rel_tol: float, p_max: int,
                     slope: bool = False) -> list:
    """Each kernel's f0/2 + sum_p f(u_p) for one order, with certified p-tail bound; with
    ``slope``, a1 times its a2-derivative, df0/2 + sum_p df(u_p).  One outcome per
    kernel: (value, tail, p_used), or a NonConvergenceError at p_max.

    A channel's sum stops at the first p whose _p_tail, at r = exp(-g'(u_p) du), is below
    rel_tol of its running total.  A kernel call scores the frequencies up to a stop
    forecast on estimated terms ref e^(h(u_(p-1)) - h(u_k)), ref a channel's last term (f0
    or df0 at u_0 = 0), h = g of _Kernel.decay, less ln w2 for df (u2 d ln|M|/du2 ~
    -2 nu w2): _P_SHORT of them if a scalar forecast ends every live channel's sum there,
    else up to _P_SHORT/2 + 5% past the last channel's first forecast stop, at most
    _P_CAP.  The channels share their frequencies and the decay, so one call scores
    every live channel on the same window, and each channel's stop is read off it in
    one numpy pass, on running totals that add its terms in order; a channel that
    stops is left out of later calls.  A value is math.fsum of the terms up to the stop.
    """
    du = 2.0 * math.pi * a1T
    decay = kernels[0].decay
    f0 = [float(kern.f0(nu, slope)) for kern in kernels]
    terms = [[0.5 * x] for x in f0]
    total, ref = [0.5 * x for x in f0], [abs(x) for x in f0]
    out: list = [None] * len(kernels)
    live, p = list(range(len(kernels))), 1

    def exponent(k, lib):
        rates, w1, w2 = decay(nu, du * k, lib)
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
        if r < 1.0 and all(_p_tail(ref[i] * math.exp(h_ref - h), r, short - 1, slope)
                           <= rel_tol * abs(total[i]) for i in live):
            ks = np.arange(p, short)
            u = du * ks
            rates = decay(nu, u)[0]
        else:
            ks = np.arange(p, last)
            rates, h = exponent(ks, np)
            est = np.array([ref[i] for i in live])[:, None] * np.exp(h_ref - h)
            fit = (_p_tail(est, below_one(np.exp(-rates * du)), ks, slope)
                   <= rel_tol * (np.abs([total[i] for i in live])[:, None]
                                 + np.cumsum(est, axis=1)))
            if fit.any(axis=1).all():
                first = int(fit.argmax(axis=1).max()) + 1
                ks = ks[:first + _P_SHORT // 2 + first // 20]
                rates = rates[:ks.size]
            u = du * ks
        values = _joint_f([kernels[i] for i in live], nu, u, slope)
        # r from math.exp, as np.exp can differ from it in the last bit
        r = np.array(list(map(math.exp, (rates * -du).tolist())))
        tails = _p_tail(np.abs(values), below_one(r), ks, slope)
        window = values.tolist()
        values[:, 0] += [total[i] for i in live]  # the running totals, adding the terms in order
        sums = np.add.accumulate(values, axis=1, out=values)
        stop = tails < rel_tol * np.maximum(np.abs(sums), 1e-300)
        for row, (i, j) in enumerate(zip(live, stop.argmax(axis=1).tolist())):
            if stop[row, j]:
                out[i] = (math.fsum(terms[i] + window[row][:j + 1]), float(tails[row, j]), p + j)
            else:
                terms[i] += window[row]
                total[i], ref[i] = float(sums[row, -1]), abs(window[row][-1])
        live = [i for i in live if out[i] is None]
        p += ks.size
        if not live:
            return out
        if p > p_max:
            for i in live:
                out[i] = NonConvergenceError(
                    f"Matsubara sum hit p_max_hard={p_max} (l-order nu={nu})", p_used=p_max)
            return out


def _check_temperature(name: str, T: float, zero: bool = False) -> None:
    """Reject a NaN, infinite or negative T, and T = 0 unless ``zero``."""
    if not (math.isfinite(T) and (T >= 0.0 if zero else T > 0.0)):
        raise ValueError(f"{name} requires a finite T {'>=' if zero else '>'} 0, got {T}")


def _de_values(kernels, nu: np.ndarray, c: np.ndarray, ks: np.ndarray,
               slope: bool) -> np.ndarray:
    """F(t) = u'(t) f(nu, u(t)) (or df) at t = k h, u = c exp(t - e^-t), in one kernel call.

    One row per kernel, then one per order of ``nu`` (with its scale in
    ``c``), then one column per integer of ``ks``; the orders reach the
    kernel as a column.
    """
    t = ks * _DE_STEP
    e = np.exp(-t)
    u = c[:, None] * np.exp(t - e)
    return u * (1.0 + e) * _joint_f(kernels, nu[:, None], u, slope)


def _de_block_walk(kernels, nu: np.ndarray, c: np.ndarray, slope: bool = False) -> list:
    """The nodes k and values F(k h) of _zero_t_integrals' walk: per order, one pair of
    arrays per kernel.

    ``nu`` holds the orders of a kernel column (_joint_log_m), and ``c``
    their scales; the kernels share the nodes.  The first kernel call scores
    _DE_BLOCK nodes per side of every order.  On each block the running
    maximum along a row (one kernel's order) finds the node where a one-node
    walk would stop (the right side's peak carried into the left side); the
    nodes past it are dropped, and the orders where some kernel's side has not
    stopped are scored one block further, together, for every kernel (a
    kernel whose side has stopped drops them).
    """
    first = _de_values(kernels, nu, c, np.arange(-_DE_BLOCK, _DE_BLOCK), slope)
    kept = [[([], []) for _ in kernels] for _ in range(nu.size)]
    peak = np.zeros((len(kernels), nu.size, 1))
    for step, block in ((1, first[..., _DE_BLOCK:]), (-1, first[..., _DE_BLOCK - 1::-1])):
        offsets = step * np.arange(_DE_BLOCK)
        rows = list(range(nu.size))
        going = np.ones((len(kernels), nu.size), bool)
        k = 0 if step > 0 else -1
        while True:
            ks = k + offsets
            size = np.abs(block)
            running = np.maximum.accumulate(np.maximum(size, peak[:, rows]), axis=2)
            stops = size <= _DE_CUT * running
            if step > 0:
                stops &= ks * _DE_STEP >= 1.0
            for j, flags in enumerate(stops.tolist()):
                for i, (row, row_flags) in enumerate(zip(rows, flags)):
                    if not going[j, row]:
                        continue
                    stopped = True in row_flags
                    n = row_flags.index(True) + 1 if stopped else _DE_BLOCK
                    kept[row][j][0].append(ks[:n])
                    kept[row][j][1].append(block[j, i, :n])
                    peak[j, row, 0] = running[j, i, n - 1]
                    going[j, row] = not stopped
            rows = [row for row in rows if going[:, row].any()]
            if not rows:
                break
            k += step * _DE_BLOCK
            block = _de_values(kernels, nu[rows], c[rows], k + offsets, slope)
    return [[(np.concatenate(ks), np.concatenate(values)) for ks, values in row]
            for row in kept]


def _zero_t_integrals(kernels, nu: list[float], slope: bool = False) -> list:
    """int_0^infty f(nu, u) du, or with ``slope`` that of df, and its error
    estimate for each order of ``nu``: per order, one (value, error) per kernel.

    The trapezoid rule in t under the exp-DE map u = c exp(t - e^-t) (Ooura &
    Mori 1991) at step h = _DE_STEP, with c = min(nu, sqrt(q (2 nu + q))),
    q = 1/(r21^2 - 1), where |M| has fallen by about e; c does not depend on
    the channel, so the kernels share the nodes.  The walk goes out from
    t = 0 on each side, the right one to t >= 1 at least, and stops at the
    first node with |F| <= _DE_CUT max|F|, on the left long before u, which
    falls like exp(-e^-t), underflows; a node where f is 0 adds 0.  The kernel
    scores a block of nodes of every order and kernel per call
    (_de_block_walk) on a column of orders (_joint_log_m), so ``nu`` holds one
    order below nu = 50 or any number at nu >= 50.  The estimate is d1^2/d2
    from the sums at 2h and 4h on the same nodes, plus a rounding allowance
    that grows with nu, as the kernel's exponent 2 nu w loses digits in
    proportion.  Every sum is math.fsum of one kernel's nodes of one order, so
    no order or kernel changes another's result.
    """
    r21 = kernels[0].r21
    q = 1.0 / (r21 * r21 - 1.0)
    c = [min(order, math.sqrt(q * (2.0 * order + q))) for order in nu]
    out = []
    for order, walks in zip(nu, _de_block_walk(kernels, np.array(nu), np.array(c), slope)):
        row = []
        for k, values in walks:
            s_h, s_2h, s_4h = (m * _DE_STEP * math.fsum(values[k % m == 0].tolist())
                               for m in (1, 2, 4))
            d1, d2 = abs(s_h - s_2h), abs(s_h - s_4h)
            rounding = (128.0 + 2.0 * order) * np.finfo(float).eps * _DE_STEP \
                * math.fsum(np.abs(values).tolist())
            row.append((s_h, (d1 * d1 / d2 if d2 > 0.0 else d1) + rounding))
        out.append(row)
    return out


def _orders_to_stop(policy: TruncationPolicy, power: float, alpha: float):
    """Orders per block of _exact_sum's l-sum: one below nu = 50, from there
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


def _exact_sum(geometry: Geometry, bc_pair: BoundaryPair, channel: Optional[Channel],
               T: float, policy: TruncationPolicy, slope: bool = False) -> EnergyResult:
    """scale * sum_l d_l b_l over the channels, certified, b_l the order's
    frequency integral of f (or df, with ``slope``) at T = 0 and its
    Matsubara sum above; scale is 1/(2 pi a1) or T, times -1/a1 for the force.

    Both routes take blocks of orders (_orders_to_stop); the Matsubara sums
    are scored one order at a time as _l_by_l reads them, so none past the
    stop.  The l-tail power is D - 2, one higher at T = 0, and one higher
    for df, whose terms carry a further factor ~ 2 nu.
    """
    unit = -1.0 / geometry.a1 if slope else 1.0
    scale = unit / (2.0 * math.pi * geometry.a1) if T == 0.0 else unit * T
    a1T = geometry.a1 * T

    def exact_terms(kernels, nu, d_l):
        if T == 0.0:
            blocks = ([(*integral, 0) for integral in row]
                      for row in _zero_t_integrals(kernels, nu, slope))
        else:
            blocks = (_matsubara_block(kernels, n, a1T, policy.rel_tol / 20.0,
                                       policy.p_max_hard, slope) for n in nu)
        for row, ds in zip(blocks, d_l):
            yield [outcome if isinstance(outcome, NonConvergenceError) else
                   (scale * d * outcome[0], abs(scale) * d * outcome[1], outcome[2])
                   for outcome, d in zip(row, ds)]

    power = geometry.dim - 2 + (T == 0.0) + slope
    res = _by_channel(geometry, bc_pair, channel, lambda kernels: _l_by_l(
        kernels, geometry.dim, policy, exact_terms,
        lambda: _certified_stop(policy, power, geometry.alpha_log),
        _orders_to_stop(policy, power, geometry.alpha_log)))
    return _certified(res, policy)


def free_energy(geometry: Geometry, bc_pair: BoundaryPair,
                channel: Optional[Channel], T: float,
                policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """Interaction free energy at temperature T > 0 (units of 1/a1 natural)."""
    _check_temperature("free_energy", T)
    return _exact_sum(geometry, bc_pair, channel, T, policy)


def zero_T_energy(geometry: Geometry, bc_pair: BoundaryPair,
                  channel: Optional[Channel] = None,
                  policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """Vacuum (T = 0) interaction energy: (1/2 pi) sum_l d_l int_0^inf f_l."""
    return _exact_sum(geometry, bc_pair, channel, 0.0, policy)


def thermal_correction(geometry: Geometry, bc_pair: BoundaryPair,
                       channel: Optional[Channel], T: float,
                       policy: TruncationPolicy = TruncationPolicy()) -> EnergyResult:
    """E(T) - E_0 by per-l subtraction of the two exact routes.

    The Matsubara sum (at a tight tolerance) and the frequency integral are
    evaluated for the same l and differenced term by term, one order per
    block; at a1 T << 1 the difference decays like T^(2 nu + 1), so only a
    handful of l survive.  The error estimate adds the certified l-tail of
    the last difference (_difference_stop).  A warning is attached when the
    correction is within a decade of the combined error estimate.

    Unlike the other exact routes, it does not enforce ``policy.rel_tol``: it
    returns its estimate even where that exceeds rel_tol * |value|.  At D = 3,
    eps = 0.02, pc,pc and T = 3 (default policy) it stops at l_used 69 with an
    estimate of 2.4e-8 of |value|.
    """
    _check_temperature("thermal_correction", T)
    a1T = geometry.a1 * T
    inv_2pi_a1 = 1.0 / (2.0 * math.pi * geometry.a1)

    def difference_terms(kernels, nu, d_l):
        for n, ds in zip(nu, d_l):
            sums = _matsubara_block(kernels, n, a1T, 1e-14, policy.p_max_hard)
            integrals, = _zero_t_integrals(kernels, [n])
            row = []
            for outcome, (integral, ierr), d in zip(sums, integrals, ds):
                if isinstance(outcome, NonConvergenceError):
                    row.append(outcome)
                    continue
                block, ptail, p = outcome
                delta = d * (T * block - inv_2pi_a1 * integral)
                truncation = d * (T * ptail + inv_2pi_a1 * ierr)
                rounding = d * 4e-16 * (abs(T * block) + abs(inv_2pi_a1 * integral))
                row.append((delta, truncation + rounding, p))
            yield row

    res = _by_channel(geometry, bc_pair, channel, lambda kernels: _l_by_l(
        kernels, geometry.dim, policy, difference_terms,
        lambda: _difference_stop(policy, geometry.dim - 2, geometry.alpha_log)))
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
    return _exact_sum(geometry, bc_pair, None, T, policy, slope=True)


def force(geometry: Geometry, bc_pair: BoundaryPair, T: float = 0.0,
          policy: TruncationPolicy = TruncationPolicy()) -> float:
    """-dE/dd at fixed a1, that is -dE/da2: negative = attractive.

    The force on the outer sphere: the T^(D+1) term of thermal_correction
    depends on a1 alone and drops out, unlike in
    asymptotics.exact_thermal_force_leading, -d(Delta_T E)/da1 at fixed a2.

    Differentiated under the l-sum: M_l depends on a2 only through
    u2 = a2 xi, so each order's frequency integral (T = 0) or Matsubara sum
    (T > 0) runs on a1 df/da2 = u df/du2 (_Kernel.f with ``slope``), plus the closed
    a2-derivative of f_l(0) above T = 0.  The sums, their stops and their
    error estimates are those of the energy, with the l-tail power one
    higher; the result must meet ``policy.rel_tol`` like an energy, or
    NonConvergenceError is raised.
    """
    return float(_force(geometry, bc_pair, T, policy).value)
