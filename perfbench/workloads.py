"""The benchmark's workloads: seeded point selection, calls and their checks.

Each workload draws its points from fixed, stratified pools of equal size.
A stratum holds points of nearly equal cost (the gap varies by at most
0.3%), so the seed changes the inputs and their order but not the amount of
work: adaptive quadrature and the stopping rules make the cost jump with
the gap, and wider pools made the work differ by 10% between seeds.
Every pool point has a frozen reference in ``references.json``, computed at
a tighter tolerance by ``make_references.py``.

Only public names of ``casimir_spheres`` are used, and they are looked up at
call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import casimir_spheres as cs
from casimir_spheres import cli, exact

from layers import DEBYE_MIN_NU

REFERENCES_PATH = Path(__file__).with_name("references.json")

# Gap pools: the base gap times (1, 1.001, 1.002, 1.003).
_JITTER = (1.0, 1.001, 1.002, 1.003)


def _pool(base: float) -> tuple[float, ...]:
    return tuple(round(base * j, 6) for j in _JITTER)


# vacuum: small gaps, so the angular sums reach nu >= 50 (the Debye branch).
VACUUM_REL_TOL = 1e-9
VACUUM_STRATA = (  # (D, boundary pair, gap pool)
    (3, "pc,pc", _pool(0.1)),
    (3, "pc,ip", _pool(0.05)),
    (5, "pc,pc", _pool(0.1)),
)

# thermal: gaps >= 0.4 keep every order below nu = 50 at these temperatures;
# the low temperatures make the Matsubara sums long.
THERMAL_REL_TOL = 1e-9
THERMAL_STRATA = (  # (function, D, boundary pair, T, gap pool)
    ("free_energy", 3, "pc,pc", 0.1, _pool(0.4)),
    ("free_energy", 3, "pc,ip", 0.05, _pool(0.5)),
    ("free_energy", 5, "pc,pc", 0.05, _pool(0.5)),
    ("free_energy", 5, "pc,ip", 0.1, _pool(0.4)),
    ("thermal_correction", 3, "pc,pc", 0.02, _pool(0.5)),
    ("thermal_correction", 3, "pc,ip", 0.05, _pool(0.4)),
    ("thermal_correction", 5, "pc,pc", 0.05, _pool(0.4)),
    ("thermal_correction", 5, "pc,ip", 0.02, _pool(0.5)),
)

# sweep: one CLI sweep per gap pool; the seed picks the gap and the order.
SWEEP_REL_TOL = 1e-6
SWEEP_DIM = 3
SWEEP_EPS_STRATA = (_pool(0.2), _pool(0.3))
SWEEP_TEMPS = (0.0, 1.0)
SWEEP_BCS = ("pc,pc", "pc,ip")
SWEEP_CHANNELS = "total,te"
FORCE_REL_TOL = 0.01


def nu_max(result, dim: int) -> float:
    """Largest Bessel order an angular sum used: nu = l + (D - 2)/2."""
    return result.l_used + (dim - 2) / 2.0


def golden_tolerance(ref_value: float, ref_err: Optional[float],
                     new_err: Optional[float], rel_tol: float) -> float:
    """The tolerance ``cli.compare_golden`` applies to one stored row."""
    return max(10.0 * rel_tol * abs(ref_value), 10.0 * (ref_err or 0.0),
               10.0 * (new_err or 0.0), 1e-300)


@dataclass
class Call:
    """One operation: ``run`` computes it, ``check`` returns None when the
    outcome matches its reference and stays on the workload's layer, or a
    message saying why not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    points: int = 1  # energies, or CLI grid points, the call computes


def vacuum_key(dim, bc, eps) -> str:
    return f"D={dim} bc={bc} eps={eps!r}"


def thermal_key(fname, dim, bc, temp, eps) -> str:
    return f"{fname} D={dim} bc={bc} T={temp!r} eps={eps!r}"


def sweep_key(eps, temp, bc) -> str:
    return f"D={SWEEP_DIM} bc={bc} T={temp!r} eps={eps!r}"


def _energy_call(label, fn, ref, rel_tol, dim, on_layer, layer_msg) -> Call:
    def check(res) -> Optional[str]:
        tol = golden_tolerance(ref["value"], ref["error_estimate"],
                               res.error_estimate, rel_tol)
        if not abs(res.value - ref["value"]) <= tol:
            return (f"energy {res.value!r} misses reference {ref['value']!r} "
                    f"by more than {tol:.3e}")
        if not on_layer(nu_max(res, dim)):
            return f"{layer_msg} (nu_max = {nu_max(res, dim)})"
        return None

    return Call(label, fn, check)


def vacuum_calls(rng: random.Random, refs: dict) -> list[Call]:
    calls = []
    policy = cs.TruncationPolicy(rel_tol=VACUUM_REL_TOL)
    for dim, bc_str, pool in VACUUM_STRATA:
        eps = rng.choice(pool)
        geom, bc = cs.Geometry.from_eps(eps, dim), cs.BoundaryPair.from_string(bc_str)
        key = vacuum_key(dim, bc_str, eps)
        calls.append(_energy_call(
            key, lambda g=geom, b=bc: exact.zero_T_energy(g, b, None, policy),
            refs["vacuum"][key], VACUUM_REL_TOL, dim,
            lambda nu: nu >= DEBYE_MIN_NU, "vacuum point never reached the Debye branch"))
    rng.shuffle(calls)
    return calls


def thermal_calls(rng: random.Random, refs: dict) -> list[Call]:
    calls = []
    policy = cs.TruncationPolicy(rel_tol=THERMAL_REL_TOL)
    for fname, dim, bc_str, temp, pool in THERMAL_STRATA:
        eps = rng.choice(pool)
        geom, bc = cs.Geometry.from_eps(eps, dim), cs.BoundaryPair.from_string(bc_str)
        key = thermal_key(fname, dim, bc_str, temp, eps)
        calls.append(_energy_call(
            key,
            lambda f=fname, g=geom, b=bc, t=temp: getattr(exact, f)(g, b, None, t, policy),
            refs["thermal"][key], THERMAL_REL_TOL, dim,
            lambda nu: nu < DEBYE_MIN_NU, "thermal point reached the Debye branch"))
    rng.shuffle(calls)
    return calls


def read_csv_rows(text: str) -> dict[str, dict[str, dict]]:
    """CLI CSV output as {point key: {"channel|method": row}}, numbers as floats."""
    header = None
    points: dict[str, dict[str, dict]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        row = dict(zip(header, line.split(",")))
        for k in ("energy", "force", "error_estimate"):
            row[k] = float(row[k]) if row[k] else None
        key = sweep_key(float(row["eps"]), float(row["T"]), f"{row['bc_inner']},{row['bc_outer']}")
        points.setdefault(key, {})[f"{row['channel']}|{row['method']}"] = row
    return points


def check_sweep_rows(points: dict, ref_points: dict, rel_tol: float) -> Optional[str]:
    """None when every grid point's rows match their references."""
    if set(points) != set(ref_points):
        return f"grid points {sorted(points)} differ from {sorted(ref_points)}"
    for key, ref_rows in ref_points.items():
        rows = points[key]
        if set(rows) != set(ref_rows):
            return f"{key}: rows {sorted(rows)} differ from reference rows {sorted(ref_rows)}"
        for name, ref in ref_rows.items():
            row = rows[name]
            if row["status"] != "ok":
                return f"{key} row {name} has status {row['status']}"
            tol = golden_tolerance(ref["energy"], ref["error_estimate"],
                                   row["error_estimate"], rel_tol)
            if not abs(row["energy"] - ref["energy"]) <= tol:
                return f"{key} row {name}: energy {row['energy']!r} misses {ref['energy']!r}"
            if ref["force"] is not None:
                # The force carries no error estimate, and energy errors of
                # order rel_tol are amplified by 1/h in its difference stencil
                # (1.7e-4 relative at eps=0.3009 pc/ip T=0).  ``force`` itself
                # treats Richardson stencils that agree within 1% as reliable,
                # so that is the tolerance against the tighter reference.
                if row["force"] is None:
                    return f"{key} row {name}: no force computed"
                ftol = FORCE_REL_TOL * abs(ref["force"])
                if not abs(row["force"] - ref["force"]) <= ftol:
                    return f"{key} row {name}: force {row['force']!r} misses {ref['force']!r}"
    return None


def sweep_argv(eps, temps, bcs, rel_tol, out_path) -> list[str]:
    """A one-gap CLI sweep over ``temps`` x ``bcs``, computed in that order."""
    argv = ["--mode", "sweep", "--dim", str(SWEEP_DIM), "--eps", repr(eps),
            "--temp", ",".join(repr(t) for t in temps)]
    for bc in bcs:
        argv += ["--bc", bc]
    return argv + ["--channel", SWEEP_CHANNELS, "--rel-tol", repr(rel_tol),
                   "--threads", "1", "--force", "--format", "csv", "--out", str(out_path)]


def sweep_calls(rng: random.Random, refs: dict, out_path: Path) -> list[Call]:
    """One ``cli.main`` sweep per gap pool, over every temperature and pair.

    A call covers four grid points, one cheap (T = 1) and one costly
    (T = 0) per pair, so every call costs about the same; calls of one grid
    point each would make the median call flip between the two kinds.
    """
    calls = []
    for pool in SWEEP_EPS_STRATA:
        eps = rng.choice(pool)
        temps, bcs = list(SWEEP_TEMPS), list(SWEEP_BCS)
        rng.shuffle(temps)
        rng.shuffle(bcs)
        argv = sweep_argv(eps, temps, bcs, SWEEP_REL_TOL, out_path)
        ref_points = {sweep_key(eps, t, bc): refs["sweep"][sweep_key(eps, t, bc)]
                      for t in temps for bc in bcs}

        def check(rc, ref_points=ref_points):
            if rc != 0:
                return f"cli exited with {rc}"
            points = read_csv_rows(out_path.read_text(encoding="utf-8"))
            return check_sweep_rows(points, ref_points, SWEEP_REL_TOL)

        calls.append(Call(f"D={SWEEP_DIM} eps={eps!r} sweep", lambda argv=argv: cli.main(argv),
                          check, points=len(ref_points)))
    rng.shuffle(calls)
    return calls


def build(workload: str, seed: int, out_path: Path) -> list[Call]:
    """The workload's fixed list of calls for this seed."""
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "vacuum":
        return vacuum_calls(rng, refs)
    if workload == "thermal":
        return thermal_calls(rng, refs)
    if workload == "sweep":
        return sweep_calls(rng, refs, out_path)
    raise ValueError(f"unknown workload {workload!r}")
