"""Command-line front end: sweeps, comparisons, convergence and self tests.

Every run resolves its configuration (config file plus flag overrides),
embeds it in the output header, computes the requested grid and writes rows
sorted deterministically, so identical configs produce byte-identical output
regardless of the worker count.

Exit codes: 0 success; 1 configuration error (an unknown flag or config-file
key, a value the CLI or the library rejects, a config, golden or output file
that cannot be opened, or a golden file that is not a result file), found
before anything is computed and reported as one "configuration error:" line on
stderr; 2 numerical non-convergence (partial rows are still written, marked
in the status column); 3 golden-file mismatch beyond stored tolerances.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .asymptotics import (_channel_weight, high_T_expansion, pfa_energy,
                          zero_T_expansion)
from .errors import NonConvergenceError, OutOfRegimeError
from .exact import _energy, force as force_fn
from .geometry import Geometry, TruncationPolicy
from .modes import BoundaryPair, Channel
from .selftest import fit_mixed_log_reading, run_selftest

RESULT_FIELDS = ("D", "a1", "a2", "eps", "T", "bc_inner", "bc_outer", "channel",
                 "method", "energy", "force", "l_used", "p_used",
                 "error_estimate", "status")

_MODES = ("point", "sweep", "compare", "convergence", "selftest")
_CHANNELS = {"te": Channel.TE, "tm": Channel.TM, "total": None}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str = "point"
    dims: list[int] = field(default_factory=lambda: [3])
    eps_list: list[float] = field(default_factory=lambda: [0.1])
    temps: list[float] = field(default_factory=lambda: [0.0])
    bc_pairs: list[str] = field(default_factory=lambda: ["pc,pc"])
    channels: list[str] = field(default_factory=lambda: ["total"])
    rel_tol: float = 1e-9
    l_max_hard: int = 20000
    p_max_hard: int = 10**6
    fmt: str = "csv"
    out: str = "-"
    threads: int = 1
    golden: Optional[str] = None
    with_force: bool = False

    @property
    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(rel_tol=self.rel_tol, l_max_hard=self.l_max_hard,
                                p_max_hard=self.p_max_hard)

    def validate(self) -> None:
        """The CLI's own checks, then the library's types on every grid value."""
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not all((self.dims, self.eps_list, self.temps, self.bc_pairs, self.channels)):
            raise ConfigError("dim, eps, temp, bc and channel each need a value")
        if any(not (3 <= d <= 16) for d in self.dims):
            raise ConfigError("dims must be integers in [3, 16]")
        if any(not (math.isfinite(t) and t >= 0.0) for t in self.temps):
            raise ConfigError("temperatures must be finite and >= 0")
        if any(ch not in _CHANNELS for ch in self.channels):
            raise ConfigError(f"channels must be te/tm/total, got {self.channels}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.mode == "point" and (len(self.dims) * len(self.eps_list)
                                     * len(self.temps) * len(self.bc_pairs)) != 1:
            raise ConfigError("mode=point takes exactly one (dim, eps, T, bc) point")
        try:
            self.policy  # TruncationPolicy checks rel_tol and both caps
            for dim, eps, _temp, bc in _grid(self):
                Geometry.from_eps(eps, dim)
                BoundaryPair.from_string(bc)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _parse_floats(text: str) -> list[float]:
    """Comma list, or lo:hi:n for a logarithmic range."""
    if ":" in text:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if lo <= 0 or hi <= 0 or n < 1:
            raise ConfigError(f"bad log range {text!r}")
        if n == 1:
            return [lo]
        r = (hi / lo) ** (1.0 / (n - 1))
        return [lo * r ** i for i in range(n)]
    return [float(p) for p in text.split(",") if p.strip()]


def _items(cast, sep=","):
    """Parser of a sep-separated list; a repeated flag gives a list of items."""
    return lambda value: [cast(p) for p in (value if isinstance(value, list)
                                            else value.split(sep)) if p.strip()]


def _parse_bool(value) -> bool:
    """1/true/yes or 0/false/no; --force itself gives True."""
    text = str(value).strip().lower()
    if text not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {value!r}")
    return text in ("1", "true", "yes")


# One (field, flag, parser, help) row per RunConfig field, in field order.  One
# parser reads the flag value and the config-file value; a config-file key is
# the flag name without its dashes (``-`` as ``_``) or the field name.
_SETTINGS = (
    ("mode", "--mode", str, "|".join(_MODES)),
    ("dims", "--dim", _items(int), "comma list of space dimensions (3..16)"),
    ("eps_list", "--eps", _parse_floats, "comma list or lo:hi:n log range of gaps"),
    ("temps", "--temp", _parse_floats, "comma list of temperatures (units 1/a1)"),
    ("bc_pairs", "--bc", _items(str, ";"), "inner,outer pair from {pc, ip}; repeatable"),
    ("channels", "--channel", _items(lambda p: p.strip().lower()),
     "comma list from {te, tm, total}"),
    ("rel_tol", "--rel-tol", float, None),
    ("l_max_hard", "--l-max", int, None),
    ("p_max_hard", "--p-max", int, None),
    ("fmt", "--format", str, "csv|json"),
    ("out", "--out", str, "output path, '-' for stdout"),
    ("threads", "--threads", int, None),
    ("golden", "--golden", str, "compare against a stored result file; exit 3 on drift"),
    ("with_force", "--force", _parse_bool, "add the exact force -dE/dd to total rows"),
)
_ACTIONS = {"--bc": "append", "--force": "store_true"}
_CONFIG_KEYS = {key: name for name, flag, *_ in _SETTINGS
                for key in (flag[2:].replace("-", "_"), name)}


def _load_config_file(path: str) -> dict:
    """{field: raw value} of a flat ``key = value`` file."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key.replace("-", "_") not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[_CONFIG_KEYS[key.replace("-", "_")]] = val
    return out


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    # Flags left off the command line stay out of the namespace.
    p = _ArgumentParser(
        prog="casimir-spheres", add_help=True, argument_default=argparse.SUPPRESS,
        description="Casimir interaction of concentric hyperspheres: exact, "
                    "PFA and small-gap expansion evaluations.")
    p.add_argument("--config", help="flat key=value config file; flags override")
    for name, flag, _parse, help_ in _SETTINGS:
        p.add_argument(flag, dest=name, action=_ACTIONS.get(flag, "store"), help=help_)
    return p


def build_config(argv) -> RunConfig:
    args = vars(_build_parser().parse_args(argv))
    settings = _load_config_file(args.pop("config")) if "config" in args else {}
    settings.update(args)
    cfg = RunConfig()
    for name, flag, parse, _help in _SETTINGS:
        if name in settings:
            try:
                setattr(cfg, name, parse(settings[name]))
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from exc
    cfg.validate()
    return cfg


def _result_row(dim, geom, eps, temp, bc, channel, method, energy, frc, l_used,
                p_used, err, status) -> dict:
    return dict(zip(RESULT_FIELDS, (dim, geom.a1, geom.a2, eps, temp, bc.inner.value,
                                    bc.outer.value, channel, method, energy, frc,
                                    l_used, p_used, err, status)))


def _compute_point(cfg: RunConfig, point) -> list[dict]:
    """All rows for one (dim, eps, T, bc) grid point; runs in a worker."""
    dim, eps, temp, bc_str = point
    bc = BoundaryPair.from_string(bc_str)
    geom = Geometry.from_eps(eps, dim)
    policy = cfg.policy
    rows = []

    def row(channel_name, method, energy, l_used=0, p_used=0, err=None,
            frc=None, status="ok"):
        rows.append(_result_row(dim, geom, eps, temp, bc, channel_name, method,
                                energy, frc, l_used, p_used, err, status))

    regime = "zeroT" if temp == 0.0 else "highT"
    for ch_name in cfg.channels:
        ch = _CHANNELS[ch_name]
        label = "total" if ch is None else ch.value
        # exact
        try:
            res = _energy(geom, bc, ch, temp, policy)
        except NonConvergenceError as exc:
            row(label, "exact", exc.partial if exc.partial is not None
                else math.nan, exc.l_used, exc.p_used, status="failed")
        else:
            # A failed force keeps the converged energy; the row is failed.
            frc, status = None, "ok"
            if cfg.with_force and ch is None:
                try:
                    frc = force_fn(geom, bc, temp, policy)
                except NonConvergenceError:
                    status = "failed"
            row(label, "exact", res.value, res.l_used, res.p_used,
                res.error_estimate, frc, status)
        # pfa
        row(label, "pfa", _channel_weight(dim, ch) * pfa_energy(geom, bc, regime, temp))
        # expansion
        try:
            if temp == 0.0:
                val = zero_T_expansion(dim, bc, ch).evaluate(eps) / geom.a1
            else:
                val = high_T_expansion(dim, bc, ch).evaluate(eps) * temp
            row(label, "expansion", val)
        except OutOfRegimeError:
            pass  # expansions refuse eps > 0.5; no row
    return rows


def _grid(cfg: RunConfig):
    """(dim, eps, T, bc) of every grid point, in configuration order."""
    return itertools.product(cfg.dims, cfg.eps_list, cfg.temps, cfg.bc_pairs)


def _run_grid(cfg: RunConfig) -> list[dict]:
    points = list(_grid(cfg))
    if cfg.threads > 1 and len(points) > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(cfg.threads, len(points))) as ex:
            all_rows = [r for rows in ex.map(_compute_point, itertools.repeat(cfg), points)
                        for r in rows]
    else:
        all_rows = [r for p in points for r in _compute_point(cfg, p)]
    order = {"exact": 0, "pfa": 1, "expansion": 2}
    all_rows.sort(key=lambda r: (r["D"], r["eps"], r["T"], r["bc_inner"],
                                 r["bc_outer"], r["channel"], order[r["method"]]))
    return all_rows


def convergence_report(cfg: RunConfig) -> list[dict]:
    """Energy against (l_max, p_max) caps for the configured grid point."""
    rows = []
    for dim, eps, temp, bc_str in _grid(cfg):
        bc = BoundaryPair.from_string(bc_str)
        geom = Geometry.from_eps(eps, dim)
        res = _energy(geom, bc, None, temp, cfg.policy)
        ladder = sorted({max(1, int(res.l_used * f)) for f in
                         (0.25, 0.5, 0.75, 1.0, 1.5)})
        for lcap in ladder:
            pcap = max(1, res.p_used * 2) if temp > 0 else cfg.p_max_hard
            pol = dataclasses.replace(cfg.policy, l_max_hard=lcap, p_max_hard=pcap)
            try:
                r = _energy(geom, bc, None, temp, pol)
                energy, err, status = r.value, r.error_estimate, "ok"
                l_used, p_used = r.l_used, r.p_used
            except NonConvergenceError as exc:
                energy, err, status = exc.partial, None, "failed"
                l_used, p_used = exc.l_used, exc.p_used
            rows.append(_result_row(dim, geom, eps, temp, bc, "total", "exact",
                                    energy, None, l_used, p_used, err, status))
    return rows


def _fmt_num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.16e}"  # 17 significant digits
    return str(x)


# Keys that do not influence the numbers; excluded from the embedded config
# so output is byte-identical regardless of worker count or output routing.
_RUNTIME_ONLY = ("threads", "out", "golden")


def _embedded_config(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    for key in _RUNTIME_ONLY:
        d.pop(key, None)
    return d


def render_csv(cfg: RunConfig, rows: list[dict]) -> str:
    lines = [f"# casimir-spheres {__version__}"]
    for key, val in sorted(_embedded_config(cfg).items()):
        lines.append(f"# {key} = {val}")
    lines.append(",".join(RESULT_FIELDS))
    for r in rows:
        lines.append(",".join(_fmt_num(r[k]) for k in RESULT_FIELDS))
    return "\n".join(lines) + "\n"


def render_json(cfg: RunConfig, rows: list[dict]) -> str:
    doc = {"metadata": {"version": __version__,
                        "config": _embedded_config(cfg)},
           "rows": rows}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def parse_output(text: str) -> list[dict]:
    """Read back rows from either output format (used by --golden).

    ConfigError unless the CSV header and row lengths are RESULT_FIELDS', or
    the JSON has a ``rows`` list of rows that carry every field.
    """
    text = text.lstrip()
    if text.startswith("{"):
        rows = json.loads(text).get("rows")
        if isinstance(rows, list) and all(
                isinstance(r, dict) and r.keys() >= set(RESULT_FIELDS) for r in rows):
            return rows
        raise ConfigError("not a result file: JSON needs a 'rows' list of result rows")
    lines = [line.split(",") for line in text.splitlines()
             if line and not line.startswith("#")]
    if not lines or tuple(lines[0]) != RESULT_FIELDS \
            or any(len(vals) != len(RESULT_FIELDS) for vals in lines[1:]):
        raise ConfigError(f"not a result file: CSV needs the header {','.join(RESULT_FIELDS)}"
                          f" and rows of {len(RESULT_FIELDS)} values")
    rows = [dict(zip(RESULT_FIELDS, vals)) for vals in lines[1:]]
    for row in rows:
        for key in ("energy", "error_estimate", "force", "eps", "T", "a1", "a2"):
            row[key] = float(row[key]) if row[key] else None
    return rows


def _read_rows(path: str) -> list[dict]:
    """The rows of a stored result file; ConfigError if it holds none."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_output(fh.read())
        except ValueError as exc:  # ConfigError, undecodable text, bad JSON or numbers
            raise ConfigError(f"{path}: {exc}") from exc


def _drift(rows: list[dict], stored: list[dict], rel_tol: float) -> list[str]:
    key = lambda r: (str(r["D"]), f"{float(r['eps']):.12g}", f"{float(r['T']):.12g}",
                     r["bc_inner"], r["bc_outer"], r["channel"], r["method"])
    mine = {key(r): r for r in rows}
    theirs = {key(r): r for r in stored}
    problems = []
    for k, them in theirs.items():
        if k not in mine:
            problems.append(f"missing row {k}")
            continue
        e_new, e_old = mine[k]["energy"], them["energy"]
        if e_old is None or e_new is None:
            continue
        tol = max(10.0 * rel_tol * abs(e_old),
                  10.0 * (them.get("error_estimate") or 0.0),
                  10.0 * (mine[k].get("error_estimate") or 0.0), 1e-300)
        if abs(e_new - e_old) > tol:
            problems.append(
                f"row {k}: energy {e_new:.12e} drifted from stored {e_old:.12e} "
                f"(tolerance {tol:.3e})")
    return problems


def compare_golden(rows: list[dict], golden_path: str, rel_tol: float) -> list[str]:
    """One message per row of the result file ``golden_path`` that ``rows`` miss or drift from."""
    return _drift(rows, _read_rows(golden_path), rel_tol)


def run(cfg: RunConfig) -> int:
    # Files first: a bad --golden or --out is found before anything is computed.
    stored = _read_rows(cfg.golden) if cfg.golden else []
    with (contextlib.nullcontext(sys.stdout) if cfg.out == "-"
          else open(cfg.out, "w", encoding="utf-8")) as out:
        if cfg.mode == "selftest":
            results = run_selftest()
            lines = ["casimir-spheres selftest", "-" * 64]
            lines += [f"{'PASS' if r.passed else 'FAIL':4}  {r.name}: {r.detail}"
                      for r in results]
            lines += ["-" * 64, "mixed D=3 classical log-term fit report:",
                      json.dumps(fit_mixed_log_reading(), indent=1, sort_keys=True)]
            out.write("\n".join(lines) + "\n")
            return 0 if all(r.passed for r in results) else 2
        rows = convergence_report(cfg) if cfg.mode == "convergence" else _run_grid(cfg)
        out.write(render_csv(cfg, rows) if cfg.fmt == "csv" else render_json(cfg, rows))
    problems = _drift(rows, stored, cfg.rel_tol)
    for p in problems:
        print(f"golden mismatch: {p}", file=sys.stderr)
    if problems:
        return 3
    return 2 if any(r["status"] == "failed" for r in rows) else 0


def main(argv=None) -> int:
    try:
        return run(build_config(sys.argv[1:] if argv is None else argv))
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
