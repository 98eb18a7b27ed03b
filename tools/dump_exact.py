"""Dump every field of the exact energies and forces on a fixed grid, bit for bit.

Each line is one call: its arguments, then either the full result (value,
per-channel split, l_used, p_used, error_estimate, warnings; floats as
float.hex) or the exception type and its ``partial``, ``l_used`` and
``p_used``; a force call records the result whose value ``force`` returns.
Then come the exact tables behind the series: every term of the small-gap
expansions (D 3..16, four pairs, TE/TM/total) and of the assembly route
(D 4..16), the degeneracy
polynomials (coefficients as Fraction text, values at l = 1..200 as
float.hex, scalar and array evaluation), the order-one Debye polynomials
at the library's Robin ratios, ln I and ln K across the z = 1e8 seam
of the uniform branch, up to z = 1e15, ln K in the small-z series
window, and f_l, m_ratio and the force kernel _Kernel.df of every pair on
both sides of nu = 50, which carry the sign of M_l.  Last come the exit code and full
stdout of a few cheap ``casimir-spheres`` runs (a CSV and a JSON sweep with
forces, a convergence ladder).  Two checkouts give byte-identical dumps exactly when a
change leaves the numbers and the CLI output untouched:

    PYTHONPATH=src python3 tools/dump_exact.py > new.txt
    diff old.txt new.txt

A change meant to move the energies only within their error estimates is
checked with

    PYTHONPATH=src python3 tools/dump_exact.py --compare old.txt new.txt

which prints the worst |new value - old value| / (old error_estimate) over
the calls and their per-channel splits, and exits non-zero if any call
changes l_used, p_used, its warnings or its failure type, if any value moves
by at least the call's error_estimate, if a call of OLD is missing from NEW,
if a table record of OLD is missing from NEW or differs there in a field of
OLD, or if a CLI run of OLD is missing from NEW or not byte-identical there.
Fields, tables and CLI runs that OLD does not have are not compared.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np

from casimir_spheres import cli, exact, f_l, log_bessel_i, log_bessel_k, m_ratio
from casimir_spheres import (BoundaryPair, Channel, Geometry, NonConvergenceError,
                             TruncationPolicy, assemble_zero_T_expansion,
                             classical_term, debye_m, debye_u,
                             degeneracy_polynomial, free_energy, high_T_expansion,
                             thermal_correction, zero_T_energy, zero_T_expansion)
from casimir_spheres.modes import nu as nu_of

T_FREE = 0.5
T_THERMAL = 0.1
# Orders on both sides of the branch seams, and z from AMOS's range across
# z = 1e8, where every order > 0 takes the uniform branch, to 1e15.
LARGE_Z_NU = (0.5, 1.5, 10.5, 49.5)
LARGE_Z = (3e4, 1e6, 9.9e7, 1e8, 1.01e8, 1.2e9, 1.26e10, 1e12, 1e15)
# ln K inside and at the edge of the small-z series window, z^2 <= 4e-5 (nu - 1).
SMALL_Z_NU = (2.0, 2.5)
SMALL_Z = (1e-4, 1e-3, 6.3e-3)
# f_l, m_ratio and _Kernel.df of every pair (M_l < 0 for the mixed ones) at the orders
# nearest nu = 1.5, 49.5 and 50.5 on their side of the nu = 50 seam, and u = a1 xi from
# 1e-6 to 1e9; at eps = 1e-9, |M_l| stays far from underflow out to u = 1e9.
KERNEL_L = {3: (1, 49, 50), 16: (1, 42, 43)}
KERNEL_EPS = (0.5, 1e-9)
KERNEL_U = (1e-6, 1.0, 1e3, 1e9)


def _hex(x):
    return None if x is None else float(x).hex()


def _record(label, fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = fn(*args)
        except NonConvergenceError as exc:
            return {"call": label, "raised": type(exc).__name__,
                    "partial": _hex(exc.partial), "l_used": exc.l_used,
                    "p_used": exc.p_used}
    return {"call": label, "value": _hex(res.value),
            "per_channel": {k: _hex(v) for k, v in sorted(res.per_channel.items())},
            "l_used": res.l_used, "p_used": res.p_used,
            "error_estimate": _hex(res.error_estimate),
            "warnings": list(res.warnings),
            "warned": [str(w.message) for w in caught]}


def calls():
    """(label, function, args) for every call of the dump."""
    fast = TruncationPolicy(rel_tol=1e-6)
    grid = itertools.product((3, 4), (0.3, 0.6), PAIRS, (None, Channel.TE))
    for dim, eps, bc, ch in grid:
        g, pair = Geometry.from_eps(eps, dim), BoundaryPair.from_string(bc)
        tag = f"D={dim} eps={eps} bc={bc} ch={ch and ch.value}"
        yield f"free T={T_FREE} {tag}", free_energy, (g, pair, ch, T_FREE, fast)
        yield f"zeroT {tag}", zero_T_energy, (g, pair, ch, fast)
        yield (f"thermal T={T_THERMAL} {tag}", thermal_correction,
               (g, pair, ch, T_THERMAL, fast))
        yield f"classical {tag}", classical_term, (g, pair, ch)
    g4 = Geometry.from_eps(1e-4, 3)
    for ch in (None, Channel.TE):
        yield (f"classical l_max_hard=1000 D=3 eps=1e-4 bc=pc,pc ch={ch and ch.value}",
               classical_term, (g4, BoundaryPair.from_string("pc,pc"), ch,
                                TruncationPolicy(l_max_hard=1000)))
    g3 = Geometry.from_eps(0.1, 3)
    pcpc = BoundaryPair.from_string("pc,pc")
    cap3 = TruncationPolicy(rel_tol=1e-6, l_max_hard=3)
    yield "zeroT l_max_hard=3", zero_T_energy, (g3, pcpc, None, cap3)
    yield "free l_max_hard=3", free_energy, (g3, pcpc, None, 0.5, cap3)
    yield "thermal l_max_hard=3", thermal_correction, (g3, pcpc, None, 0.05, cap3)
    yield "thermal T=1e-3 (warns)", thermal_correction, (g3, pcpc, None, 1e-3)
    yield "zeroT rel_tol=1e-9", zero_T_energy, (Geometry.from_eps(0.3, 3), pcpc)
    g5 = Geometry.from_eps(0.5, 3)
    yield ("free p_max_hard=45 TE", free_energy,
           (g5, pcpc, Channel.TE, 0.1, TruncationPolicy(p_max_hard=45)))
    yield ("free l_max_hard=8 TE", free_energy,
           (g5, pcpc, Channel.TE, 0.1, TruncationPolicy(l_max_hard=8)))
    yield ("free p_max_hard=45 total", free_energy,
           (g5, pcpc, None, 0.1, TruncationPolicy(p_max_hard=45)))
    # eps = 0.1 sums run past l = 50, into the uniform (Debye) branch.
    for bc, ch in itertools.product(("pc,pc", "pc,ip", "ip,pc"), (None, Channel.TE)):
        yield (f"zeroT debye D=3 eps=0.1 bc={bc} ch={ch and ch.value}", zero_T_energy,
               (g3, BoundaryPair.from_string(bc), ch, fast))
    yield ("free debye T=10 D=5 eps=0.1 bc=pc,ip", free_energy,
           (Geometry.from_eps(0.1, 5), BoundaryPair.from_string("pc,ip"), None, 10.0, fast))
    # At D = 16 the Robin ratios 7 and -6 come closest to nu (nu >= 8).
    g16 = Geometry.from_eps(0.6, 16)
    for bc in ("pc,ip", "ip,pc"):
        pair = BoundaryPair.from_string(bc)
        yield f"zeroT D=16 eps=0.6 bc={bc}", zero_T_energy, (g16, pair, None, fast)
        yield (f"free T={T_FREE} D=16 eps=0.6 bc={bc}", free_energy,
               (g16, pair, None, T_FREE, fast))
    # Homogeneous f_l(0) = ln(1 - e^s) once e^s is far below 1: at eps = 1e8
    # every term is ~ -(a1/a2)^(2 nu), and at D = 16 the d_l ~ nu^14 weights
    # magnify any absolute error of f_l(0).
    g_far = Geometry.from_eps(1e8, 3)
    for bc in ("pc,pc", "pc,ip"):
        yield (f"free T=20 D=3 eps=1e8 bc={bc}", free_energy,
               (g_far, BoundaryPair.from_string(bc), None, 20.0))
    g16 = Geometry.from_eps(1.0, 16)
    yield "classical D=16 eps=1 bc=pc,pc", classical_term, (g16, pcpc)
    yield "free T=10 D=16 eps=1 bc=pc,pc", free_energy, (g16, pcpc, None, 10.0)
    # Below its 8-ulp rounding allowance the classical term raises.
    yield ("classical rel_tol=1e-16 D=3 eps=0.3 bc=pc,pc", classical_term,
           (Geometry.from_eps(0.3, 3), pcpc, None, TruncationPolicy(rel_tol=1e-16)))
    # Small gaps at the default rel_tol: thousands of orders, whose frequency
    # integrals' estimates add up inside the tolerance.
    yield ("zeroT rel_tol=1e-9 D=3 eps=0.05 bc=pc,ip", zero_T_energy,
           (Geometry.from_eps(0.05, 3), BoundaryPair.from_string("pc,ip")))
    yield ("zeroT rel_tol=1e-9 D=3 eps=0.01 bc=pc,pc ch=TE", zero_T_energy,
           (Geometry.from_eps(0.01, 3), pcpc, Channel.TE))
    # Past nu = 50 the vacuum sum scores blocks of orders: one capped inside
    # a block, and one that stops at l = 51, just past the seam.
    yield ("zeroT l_max_hard=80 D=3 eps=0.02 bc=pc,pc", zero_T_energy,
           (Geometry.from_eps(0.02, 3), pcpc, None, TruncationPolicy(l_max_hard=80)))
    yield ("zeroT rel_tol=1e-6 D=3 eps=0.2 bc=pc,pc", zero_T_energy,
           (Geometry.from_eps(0.2, 3), pcpc, None, fast))
    # At D = 4 the first order is nu = 2, whose integrand reaches K at small z.
    yield ("zeroT rel_tol=1e-9 D=4 eps=0.3 bc=pc,pc", zero_T_energy,
           (Geometry.from_eps(0.3, 4), pcpc))
    # Large gaps: f lives at u below ~sqrt(2 nu)/eps, far below u = 1.
    for eps, bc in itertools.product(("1e4", "1e8"), ("pc,pc", "pc,ip")):
        yield (f"zeroT l_max_hard=200 D=3 eps={eps} bc={bc}", zero_T_energy,
               (Geometry.from_eps(float(eps), 3), BoundaryPair.from_string(bc), None,
                TruncationPolicy(l_max_hard=200)))
    # Forces, with the sums and estimate behind force's float (exact._force);
    # eps = 0.05 reaches past nu = 50 at T = 0.
    for dim, eps, bc, temp in itertools.product((3, 5), (0.05, 0.3), PAIRS,
                                                (0.0, 0.5, 10.0)):
        yield (f"force T={temp} D={dim} eps={eps} bc={bc}", exact._force,
               (Geometry.from_eps(eps, dim), BoundaryPair.from_string(bc), temp, fast))
    # At T = 0.05 the forces' Matsubara sums run past p = 64, so the estimate that
    # sizes each kernel call's window of frequencies decides long sums of df too.
    for bc in ("pc,pc", "pc,ip"):
        yield (f"force T=0.05 D=3 eps=0.5 bc={bc}", exact._force,
               (Geometry.from_eps(0.5, 3), BoundaryPair.from_string(bc), 0.05, fast))
    # At T = 0.002 the df sums cross windows: p_used 2436, in 128 kernel calls.
    yield ("force T=0.002 D=3 eps=0.5 bc=pc,ip", exact._force,
           (Geometry.from_eps(0.5, 3), BoundaryPair.from_string("pc,ip"), 0.002, fast))


def cli_runs():
    """(label, argv) of every CLI run of the dump."""
    sweep = ["--mode", "sweep", "--dim", "3,4", "--eps", "0.5", "--temp", "0,20",
             "--bc", "pc,pc", "--bc", "pc,ip", "--rel-tol", "1e-6", "--force"]
    yield "sweep csv", sweep + ["--format", "csv"]
    yield "sweep json", sweep + ["--format", "json"]
    yield "convergence", ["--mode", "convergence", "--dim", "3", "--eps", "0.3",
                          "--temp", "0.5", "--rel-tol", "1e-6"]


def _cli_record(label, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"cli": label, "argv": argv, "exit": code, "stdout": out.getvalue()}


PAIRS = ("pc,pc", "ip,ip", "pc,ip", "ip,pc")
CHANNELS = (None, Channel.TE, Channel.TM)


def _series(label, ser):
    return {"series": label, "prefactor": _hex(ser.prefactor),
            "leading_power": ser.leading_power,
            "terms": [[t.power, t.log_eps, _hex(t.coefficient)] for t in ser.terms]}


def _fractions(poly):
    return [str(c) for c in poly.coefficients]


def tables():
    """One record per exact table or series the library builds."""
    for dim, bc, ch in itertools.product(range(3, 17), PAIRS, CHANNELS):
        pair = BoundaryPair.from_string(bc)
        tag = f"D={dim} bc={bc} ch={ch and ch.value}"
        yield _series(f"zeroT {tag}", zero_T_expansion(dim, pair, ch))
        yield _series(f"highT {tag}", high_T_expansion(dim, pair, ch))
        if dim >= 4 and ch is not None:
            yield _series(f"assembled {tag}", assemble_zero_T_expansion(dim, pair, ch))
    ls = np.arange(1, 201, dtype=np.float64)
    for dim, ch in itertools.product(range(3, 17), (Channel.TE, Channel.TM)):
        poly = degeneracy_polynomial(ch, dim)
        nus = ls + (dim - 2) / 2.0
        yield {"degeneracy": f"D={dim} ch={ch.value}", "coefficients": _fractions(poly),
               "scalar": [_hex(poly(float(n))) for n in nus],
               "array": [_hex(v) for v in poly(nus)],
               "exact": [str(poly.evaluate_exact(l)) for l in range(1, 201)]}
    yield {"debye": "D_1", "coefficients": _fractions(debye_u(1))}
    alphas = sorted({Fraction(4 - dim, 2) for dim in range(3, 17)}
                    | {Fraction(dim - 2, 2) for dim in range(3, 17)})
    for a in alphas:
        yield {"debye": f"M_1 alpha={a}", "coefficients": _fractions(debye_m(a))}
    for nu in LARGE_Z_NU:
        yield {"bessel": f"large z nu={nu}", "z": [_hex(z) for z in LARGE_Z],
               "ln_i": [_hex(log_bessel_i(nu, z)) for z in LARGE_Z],
               "ln_k": [_hex(log_bessel_k(nu, z)) for z in LARGE_Z]}
    for nu in SMALL_Z_NU:
        yield {"bessel": f"small z nu={nu}", "z": [_hex(z) for z in SMALL_Z],
               "ln_k": [_hex(log_bessel_k(nu, z)) for z in SMALL_Z]}
    for dim, eps, bc, ch in itertools.product(KERNEL_L, KERNEL_EPS, PAIRS,
                                              (Channel.TE, Channel.TM)):
        g, pair = Geometry.from_eps(eps, dim), BoundaryPair.from_string(bc)
        xi = [u / g.a1 for u in KERNEL_U]
        kern = exact._Kernel(g, pair, ch)
        for l in KERNEL_L[dim]:
            yield {"kernel": f"D={dim} eps={eps} bc={bc} ch={ch.value} l={l}",
                   "u": [_hex(u) for u in KERNEL_U],
                   "f_l": [_hex(f_l(l, g, pair, ch, x)) for x in xi],
                   "m_ratio": [_hex(m_ratio(l, g, pair, ch, x)) for x in xi],
                   "df": [_hex(v) for v in kern.df(nu_of(l, dim), np.array(KERNEL_U))]}


TABLE_KINDS = ("series", "degeneracy", "debye", "bessel", "kernel")


def _table_key(rec):
    kind = next(k for k in TABLE_KINDS if k in rec)
    return kind, rec[kind]


def _load(path):
    """(call, CLI and table records, each by label)."""
    calls_by_label, cli_by_label, tables_by_label = {}, {}, {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "call" in rec:
                calls_by_label[rec["call"]] = rec
            elif "cli" in rec:
                cli_by_label[rec["cli"]] = rec
            else:
                tables_by_label[_table_key(rec)] = rec
    return calls_by_label, cli_by_label, tables_by_label


def _call_problems(old, new):
    """(problems, worst value shift in units of OLD's error_estimate) of one call."""
    problems = [f"{key} {old[key]!r} -> {new.get(key)!r}"
                for key in ("raised", "l_used", "p_used", "warnings", "warned")
                if key in old and old[key] != new.get(key)]
    if "raised" in new and "raised" not in old:
        problems.append(f"raised {new['raised']}")
    if "value" not in old or "value" not in new:
        return problems, 0.0
    err = float.fromhex(old["error_estimate"])
    pairs = [(old["value"], new["value"])]
    pairs += [(v, new["per_channel"].get(k)) for k, v in old["per_channel"].items()]
    worst = 0.0
    for a, b in pairs:
        if b is None:
            problems.append("per-channel split changed")
            continue
        delta = abs(float.fromhex(b) - float.fromhex(a))
        worst = max(worst, delta / err if err > 0.0 else (math.inf if delta else 0.0))
    if worst >= 1.0:
        problems.append(f"value moved by {worst:.3g} x error_estimate")
    return problems, worst


def compare(old_path, new_path) -> int:
    """Print how NEW's numbers moved against OLD's; 1 on any failed check."""
    old_calls, old_cli, old_tables = _load(old_path)
    new_calls, new_cli, new_tables = _load(new_path)
    failed = False
    worst, worst_label = 0.0, None
    for label, old in old_calls.items():
        if label not in new_calls:
            print(f"FAIL {label}: missing from NEW")
            failed = True
            continue
        problems, shift = _call_problems(old, new_calls[label])
        if shift > worst:
            worst, worst_label = shift, label
        for msg in problems:
            print(f"FAIL {label}: {msg}")
            failed = True
    for label in new_calls.keys() - old_calls.keys():
        print(f"new call {label}")
    for label, old in old_cli.items():
        if new_cli.get(label) != old:
            print(f"FAIL cli {label}: " + ("output differs" if label in new_cli
                                           else "missing from NEW"))
            failed = True
    for label in sorted(new_cli.keys() - old_cli.keys()):
        print(f"new cli run {label}")
    for label, old in old_tables.items():
        new = new_tables.get(label)
        if new is None or any(new.get(key) != value for key, value in old.items()):
            print(f"FAIL table {' '.join(label)}: " + ("differs" if label in new_tables
                                                       else "missing from NEW"))
            failed = True
    for label in sorted(new_tables.keys() - old_tables.keys()):
        print(f"new table {' '.join(label)}")
    print(f"worst |delta value| / error_estimate: {worst:.3g}"
          + (f" ({worst_label})" if worst_label else ""))
    return 1 if failed else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two dumps instead of writing one")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    for label, fn, args_ in calls():
        print(json.dumps(_record(label, fn, *args_), sort_keys=True))
    for rec in tables():
        print(json.dumps(rec, sort_keys=True))
    for label, argv in cli_runs():
        print(json.dumps(_cli_record(label, argv), sort_keys=True))


if __name__ == "__main__":
    main()
