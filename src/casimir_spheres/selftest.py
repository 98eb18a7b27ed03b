"""Built-in invariant suites and the mixed-boundary log-term fit.

``run_selftest`` executes quick versions of the library's defining
invariants (Wronskian residuals, branch-overlap agreement, recursion ground
truths, degeneracy identities, expansion prefactor consistency, the
assembly gate, sign dichotomy) and the D = 3 mixed-boundary classical-term
fit that discriminates the two readings of the logarithmic correction.
Each check yields a (name, passed, detail) row; the CLI renders them as a
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .asymptotics import (_channel_weight, assemble_zero_T_expansion,
                          high_T_expansion, pfa_energy, zero_T_expansion)
from .bessel import robin_combination
from .debye import debye_d, debye_m, debye_u
from .exact import classical_term, free_energy, zero_T_energy
from .geometry import Geometry, TruncationPolicy
from .modes import (BoundaryCondition, BoundaryPair, Channel, degeneracy,
                    degeneracy_polynomial)

__all__ = ["CheckResult", "run_selftest", "fit_mixed_log_reading"]

_PC = BoundaryCondition.PERFECTLY_CONDUCTING
_IP = BoundaryCondition.INFINITELY_PERMEABLE
_PAIRS = (BoundaryPair(_PC, _PC), BoundaryPair(_IP, _IP),
          BoundaryPair(_PC, _IP), BoundaryPair(_IP, _PC))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_wronskian() -> CheckResult:
    worst = 0.0
    for nu in (0.5, 1.5, 5.0, 50.5, 500.0):
        for z in (0.01, 1.0, 10.0, 100.0):
            i0 = robin_combination(1.0, 0.0, nu, z, "I")
            k0 = robin_combination(1.0, 0.0, nu, z, "K")
            zi = robin_combination(0.0, 1.0, nu, z, "I")   # z I'
            zk = robin_combination(0.0, 1.0, nu, z, "K")   # z K'
            # z (I K' - I' K) = -1, with each product formed from its logs
            w = (i0.sign * zk.sign * math.exp(i0.log + zk.log)
                 - zi.sign * k0.sign * math.exp(zi.log + k0.log))
            resid = abs(w + 1.0)
            worst = max(worst, resid)
    return CheckResult("wronskian residual <= 1e-11", worst <= 1e-11,
                       f"worst {worst:.2e}")


def _check_overlap() -> CheckResult:
    from .bessel import _log_i_debye, _log_i_series, _log_k_debye, _log_k_smallz
    from scipy import special as sp
    worst = 0.0
    for nu in (60.0, 100.0, 300.0, 1000.0):
        for zb in (0.1, 0.3, 1.0, 1.92, 2.0, 10.0):
            z = nu * zb
            if z * z <= 100.0 * (nu + 1.0):
                direct_i = _log_i_series(nu, z)
            elif nu <= 300.0:
                direct_i = math.log(sp.ive(nu, z)) + z
            else:
                continue
            worst = max(worst, abs(_log_i_debye(nu, z) - direct_i))
            if z > 30.0 and nu <= 300.0:
                direct_k = math.log(sp.kve(nu, z)) - z
                worst = max(worst, abs(_log_k_debye(nu, z) - direct_k))
            elif z * z <= 4e-5 * (nu - 1.0):
                worst = max(worst, abs(_log_k_debye(nu, z) - _log_k_smallz(nu, z)))
    return CheckResult("uniform-vs-direct overlap <= 1e-9", worst <= 1e-9,
                       f"worst {worst:.2e}")


def _check_recursion_ground_truth() -> CheckResult:
    ok = debye_d(1).coefficients == (Fraction(0), Fraction(1, 8), Fraction(0),
                                     Fraction(-5, 24))
    for alpha in (Fraction(1, 2), Fraction(-3, 7), Fraction(5)):
        m1 = debye_m(1, alpha)
        ok = ok and m1.coefficient(1) == alpha - Fraction(3, 8) \
            and m1.coefficient(3) == Fraction(7, 24) and m1.degree == 3
    ok = ok and debye_u(0).coefficients == (Fraction(1),)
    return CheckResult("recursion ground truth (D1, M1a exact)", ok, "rational equality")


def _check_degeneracies() -> CheckResult:
    for dim in range(3, 11):
        for ch in (Channel.TE, Channel.TM):
            poly = degeneracy_polynomial(ch, dim)
            for l in range(1, 51):
                if poly.evaluate_exact(l) != degeneracy(ch, l, dim):
                    return CheckResult("degeneracy polynomial identity", False,
                                       f"mismatch at D={dim} {ch} l={l}")
        if degeneracy(Channel.TM, 1, dim) != dim or \
                2 * degeneracy(Channel.TE, 1, dim) != dim * (dim - 1):
            return CheckResult("degeneracy polynomial identity", False,
                               f"l=1 values wrong at D={dim}")
    return CheckResult("degeneracy polynomial identity", True,
                       "D=3..10, l=1..50 exact")


def _check_prefactors() -> CheckResult:
    worst = 0.0
    for dim in (3, 4, 6, 9):
        g = Geometry.from_eps(0.1, dim)
        for bp in _PAIRS:
            for ch in (Channel.TE, Channel.TM, None):
                w = _channel_weight(dim, ch)
                zt = zero_T_expansion(dim, bp, ch)
                worst = max(worst, abs(zt.pfa_value(0.1)
                                       / (w * pfa_energy(g, bp, "zeroT")) - 1.0))
                ht = high_T_expansion(dim, bp, ch)
                worst = max(worst, abs(ht.pfa_value(0.1) * 2.0
                                       / (w * pfa_energy(g, bp, "highT", T=2.0)) - 1.0))
    return CheckResult("expansion prefactors match PFA (1e-12)", worst <= 1e-12,
                       f"worst {worst:.2e}")


def _check_assembly() -> CheckResult:
    worst = 0.0
    for dim in (4, 5, 6, 7):
        for bp in _PAIRS:
            for ch in (Channel.TE, Channel.TM):
                stored = zero_T_expansion(dim, bp, ch)
                asm = assemble_zero_T_expansion(dim, bp, ch)
                worst = max(worst, abs(asm.prefactor / stored.prefactor - 1.0))
                for p in (1, 2):
                    a, b = asm.coefficient(p), stored.coefficient(p)
                    worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    return CheckResult("zero-T assembly gate (1e-10)", worst <= 1e-10,
                       f"worst {worst:.2e}")


def _check_signs() -> CheckResult:
    pol = TruncationPolicy(rel_tol=1e-6)
    for bp in _PAIRS:
        want_negative = bp.is_homogeneous
        for dim in (3, 4):
            g = Geometry.from_eps(0.3, dim)
            e0 = zero_T_energy(g, bp, None, pol).value
            ecl = free_energy(g, bp, None, 1.0, pol).value
            for label, v in (("E0", e0), ("E(T=1)", ecl)):
                if (v < 0) != want_negative:
                    return CheckResult("sign dichotomy", False,
                                       f"{label} sign wrong for {bp} D={dim}")
    return CheckResult("sign dichotomy", True,
                       "homogeneous < 0, mixed > 0 (D=3,4; T=0,1)")


def fit_mixed_log_reading(eps_values=(1e-2, 1e-3, 1e-4),
                          channel: Channel = Channel.TE) -> dict:
    """Fit the D=3 mixed classical term to the two log-term readings.

    The ratio R(eps) = classical / PFA_cl minus the known 1 + eps(1 -+
    (8/3) log 2) terms is fit to c2*eps^2 + c_log*X with X = log(eps)
    ("ln" reading) or eps^2 log(eps) ("eps2_ln" reading); the residuals
    select the reading.  Returns a report dict.
    """
    bp = BoundaryPair(_PC, _IP)
    pol = TruncationPolicy(rel_tol=1e-12, l_max_hard=2 * 10**6)
    series = high_T_expansion(3, bp, channel)
    slope = series.coefficient(1)
    y = []
    for eps in eps_values:
        g = Geometry.from_eps(eps, 3)
        c = classical_term(g, bp, channel, pol)
        r = c.per_channel[channel.value] / series.pfa_value(eps)
        y.append(r - 1.0 - eps * slope)
    y = np.array(y)
    eps_arr = np.array(eps_values)
    out = {"channel": channel.value, "eps": list(eps_values)}
    resid = {}
    for reading, basis in (("ln", np.log(eps_arr)),
                           ("eps2_ln", eps_arr ** 2 * np.log(eps_arr))):
        a = np.column_stack([eps_arr ** 2, basis])
        coef, res, *_ = np.linalg.lstsq(a, y, rcond=None)
        pred = a @ coef
        rms = float(np.sqrt(np.mean((y - pred) ** 2)))
        resid[reading] = rms
        out[reading] = {"c_eps2": float(coef[0]), "c_log": float(coef[1]),
                        "rms_residual": rms}
    out["selected"] = "eps2_ln" if resid["eps2_ln"] * 10.0 <= resid["ln"] \
        else ("ln" if resid["ln"] * 10.0 <= resid["eps2_ln"] else "ambiguous")
    out["residual_improvement"] = resid["ln"] / max(resid["eps2_ln"], 1e-300)
    out["expected_c_log"] = -2.0 / (3.0 * 1.2020569031595943)
    return out


def _check_log_reading() -> CheckResult:
    rep = fit_mixed_log_reading()
    ok = rep["selected"] == "eps2_ln" and rep["residual_improvement"] >= 10.0
    fitted = rep["eps2_ln"]["c_log"]
    detail = (f"selected {rep['selected']} (improvement {rep['residual_improvement']:.1f}x, "
              f"fitted c_log {fitted:+.4f}, closed form {rep['expected_c_log']:+.4f})")
    return CheckResult("mixed D=3 log-term reading fit", ok, detail)


def run_selftest() -> list[CheckResult]:
    """Run the invariant suites; returns one row per check."""
    checks = [
        _check_recursion_ground_truth,
        _check_degeneracies,
        _check_wronskian,
        _check_overlap,
        _check_prefactors,
        _check_assembly,
        _check_log_reading,
        _check_signs,
    ]
    out = []
    for fn in checks:
        try:
            out.append(fn())
        except (Exception,) as exc:  # surface failures as rows, not crashes
            out.append(CheckResult(fn.__name__, False, f"raised {exc!r}"))
    return out
