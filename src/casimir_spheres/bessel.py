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
debye.eta_from_w.  The exact module builds ln M_l from it in ratio form,
where the sqrt(nu) and w prefactors of I and K cancel and the two spheres'
w values give the decay exponent.

The branches overlap and are required (and tested) to agree to better than
1e-9 relative; the design target is 1e-12 relative accuracy of exp(result)
for nu <= 1e4 and z/nu in [1e-3, 1e3].

Robin combinations alpha*B + beta*z*B' are B_nu times one float factor,
from the derivative identities (DLMF 10.29) I'_nu = I_{nu+1} + (nu/z) I_nu
and K'_nu = -K_{nu-1} - (nu/z) K_nu (K_{-a} = K_a):

    alpha I + beta z I' = I_nu [c + t],  c = alpha + beta nu,  t = beta z I_{nu+1}/I_nu,
    alpha K + beta z K' = K_nu [c + t],  c = alpha - beta nu,  t = -beta z K_{|nu-1|}/K_nu.

For -nu < alpha/beta < nu, c and t have the same sign; every boundary
condition of the library has |alpha/beta| <= (D-2)/2 < nu.  A factor losing
more than six decimal digits to cancellation triggers an arbitrary-precision
recomputation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Literal

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
def _series_terms(ratio) -> tuple:
    """The polynomials a_1 .. a_MAX_ORDER of _uniform_series."""
    if ratio is None:
        return tuple(debye_u(k) for k in range(1, MAX_ORDER + 1))
    return tuple(debye_v(k) + debye_u(k - 1).shift_powers(1).scale(ratio)
                 for k in range(1, MAX_ORDER + 1))


def _uniform_series(nu: float, z: float, ratio=None) -> tuple[float, float, float]:
    """(w, E, O) of the uniform expansion (module docstring) at nu, z.

    E and O are the even- and odd-order parts of sum_k a_k(1/w)/nu^k, with
    a_k = u_k for ``ratio`` None (I and K) and a_k = v_k + ratio*t*u_{k-1}
    for alpha*B + beta*z*B', ratio = alpha/beta.  The I-type series is
    1 + E + O, the K-type one 1 + E - O.
    """
    w = math.hypot(1.0, z / nu)
    t = 1.0 / w
    even = odd = 0.0
    fac = 1.0
    for k, a in enumerate(_series_terms(ratio), 1):
        fac /= nu
        if k % 2:
            odd += a(t) * fac
        else:
            even += a(t) * fac
    return w, even, odd


def _log_i_debye(nu: float, z: float) -> float:
    w, even, odd = _uniform_series(nu, z)
    return nu * eta_from_w(z / nu, w) - 0.5 * (_LOG_2PI + math.log(nu)) \
        - 0.5 * math.log(w) + math.log1p(even + odd)


def _log_k_debye(nu: float, z: float) -> float:
    w, even, odd = _uniform_series(nu, z)
    return -nu * eta_from_w(z / nu, w) + 0.5 * (_LOG_PI_OVER_2 - math.log(nu)) \
        - 0.5 * math.log(w) + math.log1p(even - odd)


def _uniform(nu: float, z: float) -> bool:
    """Whether the uniform branch answers: nu >= 50, or nu > 0 and z >= 1e8."""
    return nu >= _DEBYE_MIN_NU or (nu > 0.0 and z >= _UNIFORM_MIN_Z)


def _log_amos(v: float, nu: float, z: float) -> float:
    """ln of a scaled AMOS value, or ArithmeticError if AMOS failed."""
    if not 0.0 < v < math.inf:
        raise ArithmeticError(f"AMOS evaluation failed for nu={nu}, z={z} (got {v})")
    return math.log(v)


def log_bessel_i(nu: float, z: float) -> float:
    """ln I_nu(z) for nu >= 0, z > 0."""
    _check_args(nu, z)
    # The ascending series is cancellation free and converges in O(z) terms;
    # the z^2 <= 100 (nu+1) window keeps its internal sum below e^25.
    if z <= _SERIES_MAX_Z or z * z <= 100.0 * (nu + 1.0):
        return _log_i_series(nu, z)
    if _uniform(nu, z):
        return _log_i_debye(nu, z)
    return _log_amos(_sp.ive(nu, z), nu, z) + z


def log_bessel_k(nu: float, z: float) -> float:
    """ln K_nu(z) for nu >= 0, z > 0."""
    _check_args(nu, z)
    if _uniform(nu, z):
        return _log_k_debye(nu, z)
    if nu >= 2.0 and z * z <= 4e-5 * (nu - 1.0):
        return _log_k_smallz(nu, z)
    v = _sp.kve(nu, z)
    if math.isinf(v) and nu >= 1.5:  # overflow: tiny z only
        return _log_k_smallz(nu, z)
    return _log_amos(v, nu, z) - z


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

    B_nu times the factor s = c + t of the module docstring, from one
    derivative identity per kind.  The sign of the result is exact.  A factor
    losing more than six decimal digits to cancellation is recomputed at 50
    significant digits.
    """
    if kind not in ("I", "K"):
        raise ValueError(f"kind must be 'I' or 'K', got {kind!r}")
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("(alpha, beta) must not both vanish")
    lb0 = log_bessel_i(nu, z) if kind == "I" else log_bessel_k(nu, z)
    if beta == 0.0:
        c, t = alpha, 0.0
    elif kind == "I":
        c, t = alpha + beta * nu, beta * z * math.exp(log_bessel_i(nu + 1.0, z) - lb0)
    else:
        c, t = alpha - beta * nu, -beta * z * math.exp(log_bessel_k(abs(nu - 1.0), z) - lb0)
    s = c + t
    if abs(s) * 10.0 ** _CANCEL_DIGITS < max(abs(c), abs(t)):
        return _robin_mpmath(alpha, beta, nu, z, kind)
    return SignedLog(1 if s > 0 else -1, lb0 + math.log(abs(s)))
