"""Log-domain modified Bessel functions of real order, with Robin combinations.

Three evaluation branches, selected per (nu, z):

* ascending power series in log form for z <= 30 (any order) -- the sum has
  positive terms only, so it is cancellation free;
* scaled AMOS routines (scipy ive/kve) for moderate orders and larger z;
* uniform large-order asymptotics (DLMF 10.41) for nu >= 50, and for every
  nu > 0 from z = 1e8, short of where ive/kve return NaN (z > 2^30),

      ln I = nu eta - ln(2 pi nu)/2 - ln(w)/2 + ln(1 + E + O),
      ln K = -nu eta + ln(pi/(2 nu))/2 - ln(w)/2 + ln(1 + E - O),

  with w = sqrt(1 + (z/nu)^2), eta = w + ln((z/nu)/(1 + w)), and E, O the
  even- and odd-order parts of sum_k u_k(1/w)/nu^k.  All terms through
  debye.MAX_ORDER are summed with no stop rule: the k-th term is at most a
  constant times (t/nu)^k = (nu^2 + z^2)^(-k/2), small at nu >= 50 and, at
  any order, from z = 1e8 on.

No branch falls back on another, except that K at nu >= 1.5 takes the
small-z series when kve overflows (tiny z only); any other AMOS failure
(only nu = 0 past z = 2^30 reaches one) raises ArithmeticError.

_uniform_series gives (w, E, O), also for the Robin series
a_k = v_k + (alpha/beta) t u_{k-1}; eta follows from w through
debye.eta_from_w.  It takes a float or a numpy array of z, and a float
order or a column of orders against one row of z per order: the a_k are
one float coefficient matrix per ratio, built once, which each call folds
with each order's 1/nu^k into one even and one odd polynomial in t^2,
scored by Horner's rule.  The exact module builds ln M_l from it in ratio
form at nu >= 50, on a block of orders and frequencies per call, where the
sqrt(nu) and w prefactors of I and K cancel and the two spheres' w values
give the decay exponent.

Below nu = 50 the exact module scores ln M_l from the two halves of a
Robin combination.  _bessel_terms is the Bessel half: ln B_nu and the
neighbour ratio q on a 1-d array of z, scored once per kind, order and z
for every Robin pair there, so one call per kind scores both spheres, and
both channels.  Each element takes the branch log_bessel_i/k would take for
it: the series (summed in the scalar loop's order, with its own stop) and
AMOS on the masked elements at once, the uniform branch (rare there)
through the public scalar functions one element at a time.
_robin_factors is the per-pair arithmetic: c, t and z R'/R from q, on one
row of Robin pairs per channel.  _robin_terms, under robin_combination,
joins the two for one pair per element.

The branches overlap and are required (and tested) to agree to better than
1e-9 relative; the design target is 1e-12 relative accuracy of exp(result)
for nu <= 1e4 and z/nu in [1e-3, 1e3].

Robin combinations alpha*B + beta*z*B' are B_nu times one float factor,
from the derivative identities (DLMF 10.29) I'_nu = I_{nu+1} + (nu/z) I_nu
and K'_nu = -K_{nu-1} - (nu/z) K_nu (K_{-a} = K_a):

    alpha I + beta z I' = I_nu [c + t],  c = alpha + beta nu,  t = beta z I_{nu+1}/I_nu,
    alpha K + beta z K' = K_nu [c + t],  c = alpha - beta nu,  t = -beta z K_{|nu-1|}/K_nu.

For -nu < alpha/beta < nu, c and t have the same sign; every boundary
condition of the library has |alpha/beta| <= (D-2)/2 < nu, so the exact
module sums ln|c + t| with no cancellation test.  robin_combination, the
public form, recomputes a factor that loses more than six decimal digits
to cancellation in arbitrary precision.  The force needs z R'/R as well,
from the same neighbour ratio and the Bessel equation (_robin_factors), and
_uniform_series (with ``slope``) the z-derivatives of E and O, by carrying
the derivatives of its polynomials through Horner's rule.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Literal, Optional

import numpy as np
from scipy import special as _sp

from .debye import MAX_ORDER, debye_u, debye_v, eta_from_w
from .signedlog import SignedLog

__all__ = ["log_bessel_i", "log_bessel_k", "robin_combination"]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_PI_OVER_2 = math.log(math.pi / 2.0)

# Branch boundaries; the overlap-agreement tests pin these down.
_SERIES_MAX_Z = 30.0
_DEBYE_MIN_NU = 50.0
_UNIFORM_MIN_Z = 1e8
_CANCEL_DIGITS = 6.0
# Orders k of the uniform series.
_ORDERS = np.arange(1.0, MAX_ORDER + 1.0)


def _check_args(nu: float, z) -> None:
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise ValueError(f"order must be finite and >= 0, got {nu}")
    if not ((z > 0.0) & np.isfinite(z)).all():
        raise ValueError(f"argument must be finite and > 0, got {z}")


def _ordered_sums(top: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms 1, r_1, r_1 r_2, .. and partial sums 1, 1 + r_1, .. of r_k = top / den_k.

    One row per element of ``top``, one column per k >= 0, both formed term
    by term as the scalar loop forms them, so no row depends on the others.
    """
    terms = np.empty((top.size, den.size + 1))
    terms[:, 0] = 1.0
    np.divide(top[:, None], den, out=terms[:, 1:])
    np.multiply.accumulate(terms, axis=1, out=terms)
    return terms, np.add.accumulate(terms, axis=1)


def _log_i_series(nu: float, z):
    # I_nu(z) = (z/2)^nu / Gamma(nu+1) * sum_k q^k / (k! (nu+1)_k), q = z^2/4.
    # The scalar loop stops at its first term below 1e-18 of the sum; past it
    # the terms fall and each is below half an ulp of the sum, so the last
    # partial sum equals the sum at that stop exactly.  The first width,
    # about 2 sqrt(q) + 16 terms, is capped at the loop's limit: at large
    # orders the window's term ratio q/(k (nu + k)) is at most 25/k, so about
    # 80 terms reach the stop however large z is.
    z = np.asarray(z, dtype=float)
    q = (0.25 * z * z).ravel()
    n = min(16 + int(2.0 * math.sqrt(float(q.max(initial=0.0)))), 512)
    while True:
        k = np.arange(1.0, n + 1.0)
        terms, sums = _ordered_sums(q, k * (nu + k))
        if (terms[:, -1] < 1e-18 * sums[:, -1]).all():
            break
        if n >= 512:  # unreachable in the series window
            raise ArithmeticError("I series failed to converge")
        n = min(2 * n, 512)
    s = sums[:, -1].reshape(z.shape)
    return (nu * np.log(0.5 * z) - math.lgamma(nu + 1.0) + np.log(s))[()]


def _log_k_smallz(nu: float, z):
    # K_nu(z) ~ Gamma(nu)/2 * (z/2)^-nu * sum_k (-q)^k / (k! (nu-1)(nu-2)...(nu-k)),
    # truncated before the crossing term (z/2)^{2 nu}; used only where that
    # term (below e^-40) and the truncation error are both below ~1e-16 relative.
    # At most six terms, each with nu - k > 0; an element stops at its first
    # term below 1e-18 in magnitude, or after the last.
    z = np.asarray(z, dtype=float)
    k = np.arange(1.0, 7.0)
    k = k[nu - k > 0.0]
    terms, sums = _ordered_sums(-(0.25 * z * z).ravel(), k * (nu - k))
    small = np.abs(terms) < 1e-18
    small[:, -1] = True
    s = sums[np.arange(z.size), small.argmax(1)].reshape(z.shape)
    return (math.lgamma(nu) - math.log(2.0) - nu * np.log(0.5 * z) + np.log(s))[()]


@lru_cache(maxsize=None)
def _coefficients(ratio: Optional[float]) -> tuple[np.ndarray, np.ndarray]:
    """Float coefficients of a_1 .. a_MAX_ORDER of _uniform_series, by parity.

    a_k(t) is u_k, or v_k + ratio t u_(k-1), and has the parity of k: row i
    of the even matrix holds the coefficients of t^0, t^2, .. t^(3 MAX_ORDER)
    in a_(2i+2), and row i of the odd one those of t^1, t^3, .. in a_(2i+1),
    so column j multiplies s^j, s = t^2 (times t in the odd rows).  Built
    once per ratio, in exact rational arithmetic.
    """
    rows = []
    for k in range(1, MAX_ORDER + 1):
        a = debye_u(k) if ratio is None else \
            debye_v(k) + debye_u(k - 1).shift_powers(1).scale(ratio)
        rows.append([float(a.coefficient(j)) for j in range(k % 2, 3 * MAX_ORDER + 1, 2)])
    return np.array(rows[1::2]), np.array(rows[0::2])


def _uniform_series(nu, z, ratio: Optional[float] = None, slope: bool = False):
    """(w, E, O) of the uniform expansion (module docstring) at nu, z, and with
    ``slope`` also z dE/dz and z dO/dz.

    E and O are the even- and odd-order parts of sum_k a_k(1/w)/nu^k, with
    a_k = u_k for ``ratio`` None (I and K) and a_k = v_k + ratio*t*u_{k-1}
    for alpha*B + beta*z*B', ratio = alpha/beta.  The I-type series is
    1 + E + O, the K-type one 1 + E - O.  ``z`` is a float or an array, and
    ``nu`` a float or an array that broadcasts against it, such as a column
    of orders against one row of z per order.  Each order's 1/nu^k fold the
    coefficient matrices into one even polynomial P in s = t^2 and one odd
    one t Q(s), scored on every z of its row at once by Horner's rule, which
    allocates no array of the powers of s; no row depends on the others.
    With ``slope`` each polynomial's derivative is carried in the same pass:
    dE/dt = 2t P'(s), dO/dt = Q(s) + 2s Q'(s), and z dt/dz = -t^3 (z/nu)^2
    from t = (1 + (z/nu)^2)^(-1/2); w, E and O do not depend on the flag.
    """
    even_rows, odd_rows = _coefficients(ratio)
    inv = np.asarray(nu)[..., None] ** -_ORDERS
    w = np.hypot(1.0, z / nu)
    t = 1.0 / w
    s = t * t
    scored = []
    for c in (inv[..., 1::2] @ even_rows, inv[..., 0::2] @ odd_rows):
        poly, deriv = c[..., -1], 0.0
        for j in range(c.shape[-1] - 2, -1, -1):
            if slope:
                deriv = deriv * s + poly
            poly = poly * s + c[..., j]
        scored += [poly, deriv]
    even, d_even, odd, d_odd = scored
    if not slope:
        return w, even, t * odd
    zn = z / nu
    z_dt = -t * s * zn * zn
    return w, even, t * odd, z_dt * 2.0 * t * d_even, z_dt * (odd + 2.0 * s * d_odd)


def _log_i_debye(nu: float, z: float) -> float:
    w, even, odd = _uniform_series(nu, z)
    return nu * eta_from_w(z / nu, w) - 0.5 * (_LOG_2PI + math.log(nu)) \
        - 0.5 * math.log(w) + math.log1p(even + odd)


def _log_k_debye(nu: float, z: float) -> float:
    w, even, odd = _uniform_series(nu, z)
    return -nu * eta_from_w(z / nu, w) + 0.5 * (_LOG_PI_OVER_2 - math.log(nu)) \
        - 0.5 * math.log(w) + math.log1p(even - odd)


def _uniform(nu: float, z):
    """Whether the uniform branch answers: nu >= 50, or nu > 0 and z >= 1e8 (per element)."""
    return (nu >= _DEBYE_MIN_NU) | ((nu > 0.0) & (z >= _UNIFORM_MIN_Z))


def _i_series_window(nu: float, z):
    # The ascending series is cancellation free and converges in O(z) terms;
    # the z^2 <= 100 (nu+1) window keeps its internal sum below e^25.
    return (z <= _SERIES_MAX_Z) | (z * z <= 100.0 * (nu + 1.0))


def _k_series_window(nu: float, z):
    return (nu >= 2.0) & (z * z <= 4e-5 * (nu - 1.0)) & (nu * np.log(2.0 / z) >= 20.0)


def _log_amos(v, nu: float, z):
    """ln of scaled AMOS values, or ArithmeticError if AMOS failed for any of them."""
    if not ((0.0 < v) & (v < math.inf)).all():
        raise ArithmeticError(f"AMOS evaluation failed for nu={nu}, z={z} (got {v})")
    return np.log(v)


def log_bessel_i(nu: float, z: float) -> float:
    """ln I_nu(z) for nu >= 0, z > 0."""
    _check_args(nu, z)
    if _i_series_window(nu, z):
        return float(_log_i_series(nu, z))
    if _uniform(nu, z):
        return _log_i_debye(nu, z)
    return float(_log_amos(_sp.ive(nu, z), nu, z) + z)


def log_bessel_k(nu: float, z: float) -> float:
    """ln K_nu(z) for nu >= 0, z > 0."""
    _check_args(nu, z)
    if _uniform(nu, z):
        return _log_k_debye(nu, z)
    if _k_series_window(nu, z):
        return float(_log_k_smallz(nu, z))
    v = _sp.kve(nu, z)
    if math.isinf(v) and nu >= 1.5:  # overflow: tiny z only
        return float(_log_k_smallz(nu, z))
    return float(_log_amos(v, nu, z) - z)


def _log_bessel_array(kind: str, nu: float, z: np.ndarray) -> np.ndarray:
    """ln I_nu (kind "I") or ln K_nu at a 1-d array of z, each element on the
    branch log_bessel_i/k takes for it.

    Each branch answers on an interval of z, so the smallest and largest z
    show when one branch takes every element.  That branch then answers on
    the whole array without masks, which makes the low-T Matsubara sums
    about 15% faster: four in five of their calls are such blocks, against
    one in ten of the T = 0 walks, whose blocks span the seams.  Otherwise
    the series and AMOS branches, and K's small-z series where kve
    overflows, are scored on their elements at once, and elements on the
    uniform branch (rare here: the neighbouring order nu + 1 >= 50, or
    z >= 1e8) go through the public scalar function one at a time.
    perfbench's traced vacuum run counts only those public calls as Debye
    work, so a kernel that stops calling this routine below nu = 50, or a
    vectorised uniform branch here, fails that run.
    """
    lo, hi = float(z.min()), float(z.max())
    if kind == "I":
        if _i_series_window(nu, hi):
            return _log_i_series(nu, z)
        if not (_i_series_window(nu, lo) or _uniform(nu, hi)):
            return _log_amos(_sp.ive(nu, z), nu, z) + z
        series = _i_series_window(nu, z)
        uniform = _uniform(nu, z) & ~series
    else:
        if not (_uniform(nu, hi) or _k_series_window(nu, lo)):
            v = _sp.kve(nu, z)
            if nu < 1.5 or v.max() < math.inf:
                return _log_amos(v, nu, z) - z
        uniform = _uniform(nu, z)
        series = _k_series_window(nu, z) & ~uniform
    out = np.empty_like(z)
    amos = ~(series | uniform)
    if amos.any():
        zr = z[amos]
        if kind == "I":
            out[amos] = _log_amos(_sp.ive(nu, zr), nu, zr) + zr
        else:
            v = _sp.kve(nu, zr)
            over = np.isinf(v) & (nu >= 1.5)  # overflow: tiny z only
            series[np.flatnonzero(amos)[over]] = True
            amos[amos] = ~over
            out[amos] = _log_amos(v[~over], nu, zr[~over]) - zr[~over]
    if series.any():
        out[series] = (_log_i_series if kind == "I" else _log_k_smallz)(nu, z[series])
    if uniform.any():
        scalar = log_bessel_i if kind == "I" else log_bessel_k
        out[uniform] = [scalar(nu, x) for x in z[uniform].tolist()]
    return out


def _robin_mpmath(alpha: float, beta: float, nu: float, z: float, kind: str) -> SignedLog:
    import mpmath as mp

    with mp.workdps(50):
        nu_, z_ = mp.mpf(nu), mp.mpf(z)
        if kind == "I":
            b0 = mp.besseli(nu_, z_)
            b1 = mp.besseli(nu_ + 1, z_)
            comb = alpha * b0 + beta * (z_ * b1 + nu_ * b0)
        else:
            b0 = mp.besselk(nu_, z_)
            b1 = mp.besselk(nu_ + 1, z_)
            comb = alpha * b0 + beta * (nu_ * b0 - z_ * b1)
        if comb == 0:
            return SignedLog(0, -math.inf)
        return SignedLog(int(mp.sign(comb)), float(mp.log(abs(comb))))


def _bessel_terms(nu: float, z: np.ndarray, kind: str, need: np.ndarray):
    """The Bessel half of alpha*B_nu(z) + beta*z*B'_nu(z) at a 1-d array of z, shared
    by every Robin pair at z: ln B_nu, and q = z I_{nu+1}/I_nu (kind "I") or
    z K_{|nu-1|}/K_nu where the bool array ``need`` is set (0 elsewhere).  One
    _log_bessel_array call for B_nu, and one for the neighbouring order if ``need``
    is set anywhere.  No element depends on another.
    """
    _check_args(nu, z)
    lb0 = _log_bessel_array(kind, nu, z)
    q = np.zeros_like(z)
    if need.any():
        other = nu + 1.0 if kind == "I" else abs(nu - 1.0)
        q[need] = z[need] * np.exp(_log_bessel_array(kind, other, z[need]) - lb0[need])
    return lb0, q


def _robin_factors(alpha, beta, nu: float, z, q, kind: str, slope=False):
    """c and t of alpha*B_nu(z) + beta*z*B'_nu(z) = B_nu (c + t) from _bessel_terms' q,
    and if ``slope`` (a bool, or one per element) is set anywhere also z R'/R, which
    holds where it is set.  alpha, beta, z, q and ``slope`` broadcast against each
    other, such as one row of Robin pairs per channel against one row of z.  t and
    rho = z B'/B (nu + q, or -(nu + q)) hold where q was scored: where beta != 0
    for t, and where the slope is set for rho.  The Bessel equation
    z^2 B'' = -z B' + (z^2 + nu^2) B gives z R'/R = (alpha rho + beta (z^2 + nu^2)) / (c + t).
    """
    rho, c, t = (nu + q, alpha + beta * nu, beta * q) if kind == "I" \
        else (-(nu + q), alpha - beta * nu, -beta * q)
    if not np.any(slope):
        return c, t
    return c, t, (alpha * rho + beta * (z * z + nu * nu)) / (c + t)


def _robin_terms(alpha, beta, nu: float, z: np.ndarray, kind: str, slope=False):
    """ln B_nu, c and t of alpha*B_nu(z) + beta*z*B'_nu(z) = B_nu (c + t) at a 1-d
    array of z, and if ``slope`` is set anywhere also z R'/R (_robin_factors);
    alpha and beta are floats or arrays of z's shape.  The neighbour ratio q is
    scored only where beta != 0 or the slope is set.
    """
    need = np.logical_or(slope, np.not_equal(beta, 0.0), out=np.empty(z.shape, bool))
    lb0, q = _bessel_terms(nu, z, kind, need)
    return (lb0, *_robin_factors(alpha, beta, nu, z, q, kind, slope))


def robin_combination(alpha: float, beta: float, nu: float, z,
                      kind: Literal["I", "K"]) -> SignedLog:
    """alpha*B_nu(z) + beta*z*B'_nu(z) as a SignedLog, B in {I, K}; z a float or an array.

    B_nu times the factor s = c + t of the module docstring, from one
    derivative identity per kind.  The sign of the result is exact.  An
    element whose factor loses more than six decimal digits to cancellation,
    or vanishes in floats (c = 0 with t underflowing), is recomputed at 50
    significant digits.  Every element takes the branches a float z would
    take, and its value does not depend on the other elements.  A float z
    gives an int sign and a float log, an array z two arrays of its shape.
    """
    if kind not in ("I", "K"):
        raise ValueError(f"kind must be 'I' or 'K', got {kind!r}")
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("(alpha, beta) must not both vanish")
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).ravel()
    lb0, c, t = _robin_terms(alpha, beta, nu, z, kind)
    s = c + t
    cancelled = np.abs(s) * 10.0 ** _CANCEL_DIGITS <= np.maximum(abs(c), np.abs(t))
    sign, log = np.where(s > 0.0, 1, -1), lb0 + np.log(np.abs(np.where(cancelled, 1.0, s)))
    if cancelled.any():
        for i in np.flatnonzero(cancelled):
            exact = _robin_mpmath(alpha, beta, nu, float(z[i]), kind)
            sign[i], log[i] = exact.sign, exact.log
    if not shape:
        return SignedLog(int(sign[0]), float(log[0]))
    return SignedLog(sign.reshape(shape), log.reshape(shape))
