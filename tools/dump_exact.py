"""Dump every field of the exact energies on a fixed grid, bit for bit.

Each line is one call: its arguments, then either the full result (value,
per-channel split, l_used, p_used, error_estimate, warnings; floats as
float.hex) or the exception type and its ``partial``.  Then come the exact
tables behind the series: every term of the small-gap expansions (D 3..16,
four pairs, TE/TM/total) and of the assembly route (D 4..16), the degeneracy
polynomials (coefficients as Fraction text, values at l = 1..200 as
float.hex, scalar and array evaluation), and the order-one Debye polynomials
at the library's Robin ratios.  Two checkouts give byte-identical dumps
exactly when a change leaves the numbers untouched:

    PYTHONPATH=src python3 tools/dump_exact.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import itertools
import json
import warnings
from fractions import Fraction

import numpy as np

from casimir_spheres import (BoundaryPair, Channel, Geometry, NonConvergenceError,
                             TruncationPolicy, assemble_zero_T_expansion,
                             classical_term, debye_d, debye_m,
                             degeneracy_polynomial, free_energy, high_T_expansion,
                             thermal_correction, zero_T_energy, zero_T_expansion)

T_FREE = 0.5
T_THERMAL = 0.1


def _hex(x):
    return None if x is None else float(x).hex()


def _record(label, fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = fn(*args)
        except NonConvergenceError as exc:
            return {"call": label, "raised": type(exc).__name__,
                    "partial": _hex(exc.partial)}
    return {"call": label, "value": _hex(res.value),
            "per_channel": {k: _hex(v) for k, v in sorted(res.per_channel.items())},
            "l_used": res.l_used, "p_used": res.p_used,
            "error_estimate": _hex(res.error_estimate),
            "warnings": list(res.warnings),
            "warned": [str(w.message) for w in caught]}


def calls():
    """(label, function, args) for every call of the dump."""
    fast = TruncationPolicy(rel_tol=1e-6)
    grid = itertools.product((3, 4), (0.3, 0.6), ("pc,pc", "pc,ip", "ip,pc"),
                             (None, Channel.TE))
    for dim, eps, bc, ch in grid:
        g, pair = Geometry.from_eps(eps, dim), BoundaryPair.from_string(bc)
        tag = f"D={dim} eps={eps} bc={bc} ch={ch and ch.value}"
        yield f"free T={T_FREE} {tag}", free_energy, (g, pair, ch, T_FREE, fast)
        yield f"zeroT {tag}", zero_T_energy, (g, pair, ch, fast)
        yield (f"thermal T={T_THERMAL} {tag}", thermal_correction,
               (g, pair, ch, T_THERMAL, fast))
        yield f"classical {tag}", classical_term, (g, pair, ch)
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
    yield {"debye": "D_1", "coefficients": _fractions(debye_d(1))}
    alphas = sorted({Fraction(4 - dim, 2) for dim in range(3, 17)}
                    | {Fraction(dim - 2, 2) for dim in range(3, 17)})
    for a in alphas:
        yield {"debye": f"M_1 alpha={a}", "coefficients": _fractions(debye_m(1, a))}


def main() -> None:
    for label, fn, args in calls():
        print(json.dumps(_record(label, fn, *args), sort_keys=True))
    for rec in tables():
        print(json.dumps(rec, sort_keys=True))


if __name__ == "__main__":
    main()
