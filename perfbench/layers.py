"""What the traced run wraps, and the per-layer metrics read from its spans.

Layers are the modules of ``casimir_spheres`` (``exact``, ``bessel``,
``signedlog``, ``debye``, ``asymptotics``, ``cli``) plus the ``scipy`` and
``mpmath`` calls they make.  Each wrapped function is patched at every
module attribute of the package that binds it (``cli`` imports ``force`` as
``force_fn``, the package root re-exports everything), because that is
where the program looks it up.  An attribute a later version no longer has
is skipped, and its metrics read 0.
"""

from __future__ import annotations

import sys

import numpy as np
import scipy.special

from spans import Recorder, self_times

# Branch seams of casimir_spheres.bessel, read from (nu, z) the way that
# module selects its branch.
SERIES_MAX_Z = 30.0
DEBYE_MIN_NU = 50.0


def log_i_branch(nu: float, z: float) -> str:
    if z <= SERIES_MAX_Z or z * z <= 100.0 * (nu + 1.0):
        return "series"
    return "debye" if nu >= DEBYE_MIN_NU else "amos"


def log_k_branch(nu: float, z: float) -> str:
    if nu >= DEBYE_MIN_NU:
        return "debye"
    if nu >= 2.0 and z * z <= 4e-5 * (nu - 1.0):
        return "series"
    return "amos"


def robin_branch(alpha: float, beta: float, nu: float, z: float) -> str:
    if beta == 0.0:
        return "plain"
    if nu >= DEBYE_MIN_NU and abs(alpha / beta) <= 0.25 * nu:
        return "debye"
    return "twoterm"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "casimir_spheres"
                                  or name.startswith("casimir_spheres."))]


def _bindings(owner, attr: str):
    """(module, attribute) pairs of the package bound to ``owner.attr``."""
    obj = getattr(owner, attr)
    out = [(owner, attr)]
    for mod in _package_modules():
        for name, val in list(vars(mod).items()):
            if val is obj and (mod, name) != (owner, attr):
                out.append((mod, name))
    return out


def _count_energy(rec: Recorder, res) -> None:
    rec.counts["exact.l_terms"] += res.l_used
    rec.counts["exact.p_terms"] += res.p_used


def _count_rows(rec: Recorder, rows) -> None:
    rec.counts["cli.rows"] += len(rows)


def targets(rec: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every attribute the traced run patches."""
    import mpmath  # only the traced run pays for importing it

    from casimir_spheres import asymptotics, bessel, cli, debye, exact
    from casimir_spheres.asymptotics import ExpansionSeries
    from casimir_spheres.signedlog import SignedLog

    robin_names = {b: "bessel.robin." + b for b in ("plain", "debye", "twoterm")}
    log_i_names = {b: "bessel.log_i." + b for b in ("series", "amos", "debye")}
    log_k_names = {b: "bessel.log_k." + b for b in ("series", "amos", "debye")}
    robin = lambda alpha, beta, nu, z, kind: robin_names[robin_branch(alpha, beta, nu, z)]
    log_i = lambda nu, z: log_i_names[log_i_branch(nu, z)]
    log_k = lambda nu, z: log_k_names[log_k_branch(nu, z)]
    specs = [  # (owner, attribute, span name, after)
        (exact, "zero_T_energy", "exact.energy", _count_energy),
        (exact, "free_energy", "exact.energy", _count_energy),
        (exact, "thermal_correction", "exact.energy", _count_energy),
        (exact, "force", "exact.force", None),
        (exact, "quad", "scipy.quad", None),
        (bessel, "robin_combination", robin, None),
        (bessel, "log_bessel_i", log_i, None),
        (bessel, "log_bessel_k", log_k, None),
        (bessel, "_robin_mpmath", "mpmath.fallback", None),
        (scipy.special, "ive", "scipy.amos", None),
        (scipy.special, "kve", "scipy.amos", None),
        (mpmath, "besseli", "mpmath.bessel", None),
        (mpmath, "besselk", "mpmath.bessel", None),
        (debye, "debye_u", "debye.table", None),
        (debye, "debye_v", "debye.table", None),
        (asymptotics, "pfa_energy", "asymptotics", None),
        (asymptotics, "zero_T_expansion", "asymptotics", None),
        (asymptotics, "high_T_expansion", "asymptotics", None),
        (ExpansionSeries, "evaluate", "asymptotics", None),
        (cli, "main", "cli.main", None),
        (cli, "_compute_point", "cli.point", _count_rows),
        (cli, "render_csv", "cli.render", None),
    ]
    out = []
    for owner, attr, name, after in specs:
        if not hasattr(owner, attr):
            continue
        wrapper = rec.span(getattr(owner, attr), name, after)
        bound = [(owner, attr)] if isinstance(owner, type) else _bindings(owner, attr)
        out.extend((mod, alias, wrapper) for mod, alias in bound)
    if hasattr(SignedLog, "__post_init__"):
        out.append((SignedLog, "__post_init__",
                    rec.counter(SignedLog.__post_init__, "signedlog.objects")))
    return out


class _Spans:
    """Per-name sums over one recorder's spans."""

    def __init__(self, rec: Recorder):
        name, parent, start, end = rec.arrays()
        self.rec, self.name, self.parent = rec, name, parent
        n = len(rec.names)
        dur = end - start
        self.calls = np.bincount(name, minlength=n)
        self.self_s = np.bincount(name, weights=self_times(parent, start, end), minlength=n)
        self.dur = dur

    def _ids(self, prefix: str) -> list[int]:
        return [i for i, nm in enumerate(self.rec.names)
                if nm == prefix or nm.startswith(prefix + ".")]

    def count(self, prefix: str) -> int:
        return int(sum(self.calls[i] for i in self._ids(prefix)))

    def self_time(self, prefix: str) -> float:
        return float(sum(self.self_s[i] for i in self._ids(prefix)))

    def outer_time(self, prefix: str) -> float:
        """Wall time spent inside spans of ``prefix``, nested ones counted once."""
        ids = np.array(self._ids(prefix), dtype=np.int64)
        if ids.size == 0:
            return 0.0
        mine = np.isin(self.name, ids)
        parent_mine = np.zeros_like(mine)
        has_parent = self.parent >= 0
        parent_mine[has_parent] = mine[self.parent[has_parent]]
        return float(self.dur[mine & ~parent_mine].sum())

    def nested_in(self, inner: str, outer: str) -> int:
        """Number of ``inner`` spans with an ``outer`` span among their ancestors."""
        outer_ids = set(self._ids(outer))
        hits = 0
        for idx in np.flatnonzero(np.isin(self.name, self._ids(inner))):
            p = int(self.parent[idx])
            while p >= 0 and int(self.name[p]) not in outer_ids:
                p = int(self.parent[p])
            hits += p >= 0
        return hits


# (metric, unit, better) for every per-layer metric, in report order.
# Layers that a workload may not enter at all (mpmath fallbacks, the force
# stencil, the CLI and the asymptotics it calls) report their time as a share
# of the traced pass: their absence then reads as a zero share, never as a
# time that is exactly 0 on every run.
PER_LAYER = (
    ("bessel.robin_calls", "count", "lower"),
    ("bessel.robin_self_s", "s", "lower"),
    ("bessel.robin_debye_calls", "count", "lower"),
    ("bessel.robin_twoterm_calls", "count", "lower"),
    ("bessel.robin_plain_calls", "count", "lower"),
    ("bessel.log_i_calls", "count", "lower"),
    ("bessel.log_k_calls", "count", "lower"),
    ("bessel.log_self_s", "s", "lower"),
    ("bessel.series_calls", "count", "lower"),
    ("bessel.amos_calls", "count", "lower"),
    ("bessel.debye_calls", "count", "lower"),
    ("signedlog.objects", "count", "lower"),
    ("scipy.quad_calls", "count", "lower"),
    ("scipy.quad_self_s", "s", "lower"),
    ("scipy.amos_calls", "count", "lower"),
    ("scipy.amos_s", "s", "lower"),
    ("mpmath.fallback_calls", "count", "lower"),
    ("mpmath.fallback_share", "ratio", "lower"),
    ("mpmath.fallback_frac", "ratio", "lower"),
    ("exact.energy_calls", "count", "lower"),
    ("exact.energy_self_s", "s", "lower"),
    ("exact.l_terms", "count", "lower"),
    ("exact.p_terms", "count", "lower"),
    ("exact.force_calls", "count", "lower"),
    ("exact.energies_per_force", "ratio", "lower"),
    ("exact.force_share", "ratio", "lower"),
    ("debye.table_s", "s", "lower"),
    ("asymptotics.calls", "count", "lower"),
    ("asymptotics.share", "ratio", "lower"),
    ("cli.rows", "count", "higher"),
    ("cli.self_share", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(rec: Recorder, warm_up: Recorder, pass_s: float) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``.

    ``rec`` holds one traced pass over the workload, which took ``pass_s``
    seconds; ``debye.table_s`` is the first-use table build seen during
    ``warm_up``.
    """
    s = _Spans(rec)
    twoterm = s.count("bessel.robin.twoterm")
    fallbacks = s.count("mpmath.fallback")
    forces = s.count("exact.force")
    return {
        "bessel.robin_calls": s.count("bessel.robin"),
        "bessel.robin_self_s": s.self_time("bessel.robin"),
        "bessel.robin_debye_calls": s.count("bessel.robin.debye"),
        "bessel.robin_twoterm_calls": twoterm,
        "bessel.robin_plain_calls": s.count("bessel.robin.plain"),
        "bessel.log_i_calls": s.count("bessel.log_i"),
        "bessel.log_k_calls": s.count("bessel.log_k"),
        "bessel.log_self_s": s.self_time("bessel.log_i") + s.self_time("bessel.log_k"),
        "bessel.series_calls": s.count("bessel.log_i.series") + s.count("bessel.log_k.series"),
        "bessel.amos_calls": s.count("bessel.log_i.amos") + s.count("bessel.log_k.amos"),
        "bessel.debye_calls": s.count("bessel.log_i.debye") + s.count("bessel.log_k.debye"),
        "signedlog.objects": rec.counts["signedlog.objects"],
        "scipy.quad_calls": s.count("scipy.quad"),
        "scipy.quad_self_s": s.self_time("scipy.quad"),
        "scipy.amos_calls": s.count("scipy.amos"),
        "scipy.amos_s": s.outer_time("scipy.amos"),
        "mpmath.fallback_calls": fallbacks,
        "mpmath.fallback_share": s.outer_time("mpmath.fallback") / pass_s,
        "mpmath.fallback_frac": fallbacks / twoterm if twoterm else 0.0,
        "exact.energy_calls": s.count("exact.energy"),
        "exact.energy_self_s": s.self_time("exact.energy"),
        "exact.l_terms": rec.counts["exact.l_terms"],
        "exact.p_terms": rec.counts["exact.p_terms"],
        "exact.force_calls": forces,
        "exact.energies_per_force": (s.nested_in("exact.energy", "exact.force") / forces
                                     if forces else 0.0),
        "exact.force_share": s.outer_time("exact.force") / pass_s,
        "debye.table_s": _Spans(warm_up).outer_time("debye.table") + s.outer_time("debye.table"),
        "asymptotics.calls": s.count("asymptotics"),
        "asymptotics.share": s.outer_time("asymptotics") / pass_s,
        "cli.rows": rec.counts["cli.rows"],
        "cli.self_share": s.self_time("cli") / pass_s,
    }
