"""Recompute ``references.json``: the frozen reference of every pool point.

Energies are computed at a hundredth of the workload's tolerance (the sweep
at 1e-9, forces included), so a reference is closer to the truth than any
result it checks.  Run from the repository root:

    python3 perfbench/make_references.py

It takes a few minutes on one core.  Only rerun it when the pools change;
a reference recomputed by changed code no longer checks that code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import casimir_spheres as cs  # noqa: E402
from casimir_spheres import cli, exact  # noqa: E402

import workloads as wl  # noqa: E402

SWEEP_REFERENCE_REL_TOL = 1e-9


def _energy_ref(res) -> dict:
    return {"value": res.value, "error_estimate": res.error_estimate,
            "l_used": res.l_used, "p_used": res.p_used}


def main() -> int:
    refs = {"vacuum": {}, "thermal": {}, "sweep": {}}
    policy = cs.TruncationPolicy(rel_tol=wl.VACUUM_REL_TOL / 100.0)
    for dim, bc, pool in wl.VACUUM_STRATA:
        for eps in pool:
            res = exact.zero_T_energy(cs.Geometry.from_eps(eps, dim),
                                      cs.BoundaryPair.from_string(bc), None, policy)
            refs["vacuum"][wl.vacuum_key(dim, bc, eps)] = _energy_ref(res)
            print("vacuum", dim, bc, eps, res.value, flush=True)
    policy = cs.TruncationPolicy(rel_tol=wl.THERMAL_REL_TOL / 100.0)
    for fname, dim, bc, temp, pool in wl.THERMAL_STRATA:
        for eps in pool:
            res = getattr(exact, fname)(cs.Geometry.from_eps(eps, dim),
                                        cs.BoundaryPair.from_string(bc), None, temp, policy)
            refs["thermal"][wl.thermal_key(fname, dim, bc, temp, eps)] = _energy_ref(res)
            print(fname, dim, bc, temp, eps, res.value, flush=True)
    out = ROOT / ".perfbench_out" / "references-sweep.csv"
    out.parent.mkdir(exist_ok=True)
    for pool in wl.SWEEP_EPS_STRATA:
        for eps in pool:
            argv = wl.sweep_argv(eps, wl.SWEEP_TEMPS, wl.SWEEP_BCS,
                                 SWEEP_REFERENCE_REL_TOL, out)
            if cli.main(argv) != 0:
                raise RuntimeError(f"reference sweep failed: {argv}")
            for key, rows in wl.read_csv_rows(out.read_text(encoding="utf-8")).items():
                refs["sweep"][key] = {
                    name: {k: row[k] for k in ("energy", "error_estimate", "force")}
                    for name, row in rows.items()}
            print("sweep", eps, flush=True)
    out.unlink()
    with open(wl.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
