"""Log-domain modified Bessel functions of real order, with Robin combinations.

Three evaluation branches, selected per (nu, z):

* ascending power series in log form for z <= 30 (any order) -- the sum has
  positive terms only, so it is cancellation free;
* scaled AMOS routines (scipy ive/kve) for moderate orders and larger z;
* uniform large-order asymptotics in eta(z/nu), t(z/nu) for nu >= 50, built
  from the exact u_k/v_k polynomials of :mod:`casimir_spheres.debye`.

The branches overlap and are required (and tested) to agree to better than
1e-9 relative; the design target is 1e-12 relative accuracy of exp(result)
for nu <= 1e4 and z/nu in [1e-3, 1e3].

Robin combinations alpha*B + beta*z*B' are assembled from the exact
derivative identities

    I'_nu = I_{nu+1} + (nu/z) I_nu,          K'_nu = -K_{nu+1} + (nu/z) K_nu,
    I'_nu = I_{nu-1} - (nu/z) I_nu,          K'_nu = -K_{nu-1} - (nu/z) K_nu,

picking whichever two-term form adds same-sign quantities; a remaining
cancellation beyond six decimal digits triggers an arbitrary-precision
recomputation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Literal

from scipy import special as _sp

from .debye import MAX_ORDER, debye_u, debye_v
from .signedlog import SignedLog, signed_log_sum

__all__ = ["log_bessel_i", "log_bessel_k", "robin_combination"]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_PI_OVER_2 = math.log(math.pi / 2.0)

# Branch boundaries; the overlap-agreement tests pin these down.
_SERIES_MAX_Z = 30.0
_DEBYE_MIN_NU = 50.0
_CANCEL_DIGITS = 6.0


def _check_args(nu: float, z: float) -> None:
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise ValueError(f"order must be finite and >= 0, got {nu}")
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError(f"argument must be finite and > 0, got {z}")


def _log_i_series(nu: float, z: float) -> float:
    # I_nu(z) = (z/2)^nu / Gamma(nu+1) * sum_k q^k / (k! (nu+1)_k), q = z^2/4
    q = 0.25 * z * z
    s = 1.0
    term = 1.0
    k = 1
    while True:
        term *= q / (k * (nu + k))
        s += term
        if term < 1e-18 * s:
            break
        k += 1
        if k > 500:  # unreachable for z <= 30
            raise ArithmeticError("I series failed to converge")
    return nu * math.log(0.5 * z) - math.lgamma(nu + 1.0) + math.log(s)


def _log_k_smallz(nu: float, z: float) -> float:
    # K_nu(z) ~ Gamma(nu)/2 * (z/2)^-nu * sum_k (-q)^k / (k! (nu-1)(nu-2)...(nu-k)),
    # truncated far from the crossing term (z/2)^{2 nu}; used only where that
    # term and the truncation error are both below ~1e-14 relative.
    q = 0.25 * z * z
    s = 1.0
    term = 1.0
    for k in range(1, 7):
        den = nu - k
        if den <= 0.0:
            break
        term *= -q / (k * den)
        s += term
        if abs(term) < 1e-18:
            break
    return math.lgamma(nu) - math.log(2.0) - nu * math.log(0.5 * z) + math.log(s)


@lru_cache(maxsize=64)
def _u_float(k: int):
    return debye_u(k)._float_coeffs


@lru_cache(maxsize=64)
def _v_float(k: int):
    return debye_v(k)._float_coeffs


def _horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _debye_series(nu: float, t: float, kind: str, sign_alternate: bool,
                  alpha_t_over: float = 0.0) -> float:
    """1 + sum_k c_k(t)/nu^k with c_k = u_k, or v_k + alpha*t*u_{k-1}.

    ``alpha_t_over`` carries alpha*t for the Robin series; ``sign_alternate``
    flips odd terms (the K-type series).
    """
    s = 1.0
    inv = 1.0 / nu
    fac = 1.0
    prev = math.inf
    for k in range(1, MAX_ORDER + 1):
        fac *= inv
        if kind == "u":
            c = _horner(_u_float(k), t)
        else:
            c = _horner(_v_float(k), t) + alpha_t_over * _horner(_u_float(k - 1), t)
        term = c * fac
        if sign_alternate and (k % 2 == 1):
            term = -term
        if abs(term) > prev:
            break  # asymptotic tail started growing; stop at the smallest term
        s += term
        prev = abs(term)
        if prev < 1e-18 * abs(s):
            break
    return s


def _log_i_debye(nu: float, z: float) -> float:
    zb = z / nu
    w = math.hypot(1.0, zb)
    t = 1.0 / w
    eta = w + math.log(zb / (1.0 + w))
    s = _debye_series(nu, t, "u", sign_alternate=False)
    return nu * eta - 0.5 * (_LOG_2PI + math.log(nu)) - 0.5 * math.log(w) + math.log(s)


def _log_k_debye(nu: float, z: float) -> float:
    zb = z / nu
    w = math.hypot(1.0, zb)
    t = 1.0 / w
    eta = w + math.log(zb / (1.0 + w))
    s = _debye_series(nu, t, "u", sign_alternate=True)
    return -nu * eta + 0.5 * (_LOG_PI_OVER_2 - math.log(nu)) - 0.5 * math.log(w) + math.log(s)


def log_bessel_i(nu: float, z: float) -> float:
    """ln I_nu(z) for nu >= 0, z > 0."""
    _check_args(nu, z)
    # The ascending series is cancellation free and converges in O(z) terms;
    # the z^2 <= 100 (nu+1) window keeps its internal sum below e^25.
    if z <= _SERIES_MAX_Z or z * z <= 100.0 * (nu + 1.0):
        return _log_i_series(nu, z)
    if nu >= _DEBYE_MIN_NU:
        return _log_i_debye(nu, z)
    v = _sp.ive(nu, z)
    if v <= 0.0 or math.isinf(v) or math.isnan(v):
        return _log_i_series(nu, z)
    return math.log(v) + z


def log_bessel_k(nu: float, z: float) -> float:
    """ln K_nu(z) for nu >= 0, z > 0."""
    _check_args(nu, z)
    if nu >= _DEBYE_MIN_NU:
        return _log_k_debye(nu, z)
    if nu >= 2.0 and z * z <= 4e-5 * (nu - 1.0):
        return _log_k_smallz(nu, z)
    v = _sp.kve(nu, z)
    if math.isinf(v) or math.isnan(v) or v <= 0.0:
        if nu >= 1.5:
            return _log_k_smallz(nu, z)
        raise ArithmeticError(f"K evaluation failed for nu={nu}, z={z}")
    return math.log(v) - z


def _log_bessel(kind: str, nu: float, z: float) -> float:
    return log_bessel_i(nu, z) if kind == "I" else log_bessel_k(nu, z)


def _robin_debye(alpha: float, beta: float, nu: float, z: float, kind: str) -> SignedLog:
    # alpha*B + beta*z*B' = beta * [ (alpha/beta) B + z B' ] with the combined
    # series 1 + sum (v_k + (alpha/beta) t u_{k-1})/nu^k (sign-alternating for K).
    ratio = alpha / beta
    zb = z / nu
    w = math.hypot(1.0, zb)
    t = 1.0 / w
    eta = w + math.log(zb / (1.0 + w))
    at = ratio * t
    if kind == "I":
        s = _debye_series(nu, t, "w", sign_alternate=False, alpha_t_over=at)
        log = nu * eta + 0.5 * (math.log(nu) - _LOG_2PI) + 0.5 * math.log(w) + math.log(s)
        sign = 1
    else:
        s = _debye_series(nu, t, "w", sign_alternate=True, alpha_t_over=at)
        log = -nu * eta + 0.5 * (_LOG_PI_OVER_2 + math.log(nu)) + 0.5 * math.log(w) + math.log(s)
        sign = -1
    if beta < 0:
        sign = -sign
    return SignedLog.from_log(sign, log + math.log(abs(beta)))


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
            return SignedLog.zero()
        return SignedLog.from_log(int(mp.sign(comb)), float(mp.log(abs(comb))))


def robin_combination(
    alpha: float, beta: float, nu: float, z: float, kind: Literal["I", "K"]
) -> SignedLog:
    """alpha*B_nu(z) + beta*z*B'_nu(z) as a SignedLog, B in {I, K}.

    The sign of the result is exact.  Two-term forms losing more than six
    decimal digits to cancellation are recomputed at 50 significant digits.
    """
    if kind not in ("I", "K"):
        raise ValueError(f"kind must be 'I' or 'K', got {kind!r}")
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("(alpha, beta) must not both vanish")
    _check_args(nu, z)

    if beta == 0.0:
        sl = SignedLog.from_log(1 if alpha > 0 else -1,
                                math.log(abs(alpha)) + _log_bessel(kind, nu, z))
        return sl

    if nu >= _DEBYE_MIN_NU and abs(alpha / beta) <= 0.25 * nu:
        return _robin_debye(alpha, beta, nu, z, kind)

    lb0 = _log_bessel(kind, nu, z)
    lbz = math.log(z)
    if kind == "I":
        # (alpha + beta*nu) I_nu + beta*z*I_{nu+1}   or
        # (alpha - beta*nu) I_nu + beta*z*I_{nu-1}   (nu >= 1 only)
        c_up = alpha + beta * nu
        if c_up * beta >= 0.0 or nu < 1.0:
            ta = SignedLog.from_value(c_up) * SignedLog.from_log(1, lb0)
            tb = SignedLog.from_log(1 if beta > 0 else -1,
                                    math.log(abs(beta)) + lbz + log_bessel_i(nu + 1.0, z))
        else:
            ta = SignedLog.from_value(alpha - beta * nu) * SignedLog.from_log(1, lb0)
            tb = SignedLog.from_log(1 if beta > 0 else -1,
                                    math.log(abs(beta)) + lbz + log_bessel_i(nu - 1.0, z))
    else:
        # (alpha + beta*nu) K_nu - beta*z*K_{nu+1}   or
        # (alpha - beta*nu) K_nu - beta*z*K_{nu-1}   (K_{-a} = K_a)
        c_up = alpha + beta * nu
        c_dn = alpha - beta * nu
        if c_dn * beta <= 0.0:
            ta = SignedLog.from_value(c_dn) * SignedLog.from_log(1, lb0)
            tb = SignedLog.from_log(-1 if beta > 0 else 1,
                                    math.log(abs(beta)) + lbz + log_bessel_k(abs(nu - 1.0), z))
        else:
            ta = SignedLog.from_value(c_up) * SignedLog.from_log(1, lb0)
            tb = SignedLog.from_log(-1 if beta > 0 else 1,
                                    math.log(abs(beta)) + lbz + log_bessel_k(nu + 1.0, z))
    result, lost = signed_log_sum(ta, tb)
    if lost > _CANCEL_DIGITS:
        return _robin_mpmath(alpha, beta, nu, z, kind)
    return result
