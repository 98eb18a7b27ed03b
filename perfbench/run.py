"""Layered benchmark of the exact Casimir routes.

Run from the repository root:

    python3 perfbench/run.py --workload vacuum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (closed loop, one caller, one call at a time):

* ``vacuum``  -- ``zero_T_energy`` at small gaps; the Debye branch (nu >= 50)
  dominates.
* ``thermal`` -- low-temperature ``free_energy`` and ``thermal_correction``
  with every order below nu = 50, so the Debye branch does no work.
* ``sweep``   -- in-process ``cli.main`` sweeps with forces, one per gap.

With ``--trace 0`` the run times the workload from outside and reports the
end-to-end metrics; the calls' times are normalised to a reference host
speed by a reference chunk timed throughout them (see ``calibrate.py``).  With ``--trace 1`` it alternates plain and traced
passes and reports the per-layer metrics read from the spans (see
``layers.py``).  Every call is checked against its frozen reference.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BASELINE_PATH = HERE / "baseline.json"

WORKLOADS = ("vacuum", "thermal", "sweep")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# The layer each workload exists for, as read from the traced run's counts.
# The untraced run checks the same property call by call (see workloads.py).
LAYER_PROPERTY = {
    "vacuum": ("the Debye branch does work",
               lambda m: m["bessel.debye_calls"] + m["bessel.robin_debye_calls"] > 0),
    "thermal": ("the Debye branch does no work",
                lambda m: m["bessel.debye_calls"] + m["bessel.robin_debye_calls"] == 0),
    "sweep": ("forces are computed", lambda m: m["exact.force_calls"] > 0),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the workload loop runs; at least one full pass is made")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import casimir_spheres from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "casimir_spheres" / "__init__.py").is_file():
        sys.exit(f"perfbench: no casimir_spheres package under {SRC}")
    sys.path.insert(0, str(SRC))
    import casimir_spheres

    if SRC.resolve() not in Path(casimir_spheres.__file__).resolve().parents:
        sys.exit(f"perfbench: casimir_spheres was imported from {casimir_spheres.__file__}")


def measure_setup(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter running ``warmup.py``, ``repeats``
    times.  Not normalised: see ``calibrate.py``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "warmup.py")], cwd=ROOT, env=env,
                       check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def timed_call(call, sampler=None):
    """Run one call; returns (raw seconds, normalised seconds or None,
    problem or None).  Any exception the call raises -- NonConvergenceError,
    PrecisionLossError or another -- is a failed operation, not a crash of
    the benchmark.  Without a sampler the time is not normalised."""
    if sampler is None:
        t0 = time.perf_counter()
        try:
            outcome, error = call.run(), None
        except Exception as exc:  # noqa: BLE001 - every raise is a failed operation
            outcome, error = None, exc
        raw, norm = time.perf_counter() - t0, None
    else:
        outcome, error, raw, norm = sampler.timed(call.run)
    if error is not None:
        return raw, norm, f"{type(error).__name__}: {error}"
    return raw, norm, call.check(outcome)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []  # workload off its layer

    def add(self, label: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"perfbench: FAILED {label}: {problem}", file=sys.stderr)


def run_untraced(calls, seconds: float, tally: Tally):
    """Cycle through the calls until ``seconds`` have passed, finishing at
    least one full pass, with the host-speed sampler on; returns each call's
    raw and normalised samples, and the run's mean reference-chunk time."""
    from calibrate import Sampler

    raw = [[] for _ in calls]
    norm = [[] for _ in calls]
    deadline = time.perf_counter() + seconds
    k = 0
    with Sampler() as sampler:
        while k < len(calls) or time.perf_counter() < deadline:
            i = k % len(calls)
            r, n, problem = timed_call(calls[i], sampler)
            raw[i].append(r)
            norm[i].append(n)
            tally.add(calls[i].label, problem)
            k += 1
    return raw, norm, sampler.mean_chunk_s()


def one_pass(calls, tally: Tally) -> float:
    t0 = time.perf_counter()
    for call in calls:
        tally.add(call.label, timed_call(call)[2])
    return time.perf_counter() - t0


def run_traced(calls, seconds: float, tally: Tally, warm_rec, span_path: Path) -> dict:
    """Alternate plain and traced passes for at most ``seconds`` (at least
    one pair).

    Counts come from the first traced pass (later passes must repeat them);
    times, shares and ratios are medians over the traced passes.
    """
    import layers
    from spans import Patch, Recorder

    plain, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    # Start another pair of passes only if it can end before the deadline.
    while not per_pass or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(one_pass(calls, tally))
        rec = Recorder()
        targets = layers.targets(rec)
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        with Patch(targets):
            traced.append(one_pass(calls, tally))
        for owner, attr, original in originals:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"wrapper left on {owner!r}.{attr}")
        per_pass.append(layers.layer_metrics(rec, warm_rec, traced[-1]))
        if len(per_pass) == 1:
            rec.save(span_path)
        del rec, targets
    out = {}
    for name, unit, _ in layers.PER_LAYER:
        if name == "trace.overhead_frac":
            value = statistics.median(traced) / statistics.median(plain) - 1.0
        elif unit != "count":
            value = statistics.median(m[name] for m in per_pass)
        else:
            value = per_pass[0][name]
            if any(m[name] != value for m in per_pass):
                print(f"perfbench: {name} differs between traced passes: "
                      f"{[m[name] for m in per_pass]}", file=sys.stderr)
        out[name] = (value, unit)
    return out


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


def run_record(args, load_before, extra) -> dict:
    import mpmath
    import numpy
    import scipy

    baseline = None
    if BASELINE_PATH.is_file():
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8")).get(args.workload)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before, "loadavg_after": list(os.getloadavg()),
            **extra, "baseline": baseline}


def run_one(args) -> int:
    import_package()
    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    load_before = list(os.getloadavg())

    import workloads
    from calibrate import REF_CHUNK_S
    from warmup import warm_up

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"sweep-{os.getpid()}.csv"
    tally = Tally()
    try:
        if args.trace:
            import layers
            from spans import Patch, Recorder

            warm_rec = Recorder()
            with Patch(layers.targets(warm_rec)):
                warm_up()
            calls = workloads.build(args.workload, args.seed, out_path)
            span_path = OUT_DIR / f"spans-{args.workload}.npz"
            metrics = run_traced(calls, args.seconds, tally, warm_rec, span_path)
            extra = {"span_file": str(span_path.relative_to(ROOT))}
            what, holds = LAYER_PROPERTY[args.workload]
            if not holds({k: v for k, (v, _) in metrics.items()}):
                tally.violations.append(f"{args.workload}: expected {what}")
        else:
            warm_up()
            calls = workloads.build(args.workload, args.seed, out_path)
            raw, norm, mean_chunk_s = run_untraced(calls, args.seconds, tally)
            # Each call's median over the passes: a partial last pass and an
            # odd slow pass then move neither metric.  Call times are
            # normalised to the reference host speed (see calibrate.py).
            per_call = [statistics.median(s) for s in norm]
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (sum(per_call), "s"),
                "solve_p50_s": (statistics.median(t / c.points for t, c in zip(per_call, calls)),
                                "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
            raw_per_call = [statistics.median(s) for s in raw]
            extra = {"raw_wall_s": sum(raw_per_call),
                     "host_slowdown": mean_chunk_s / REF_CHUNK_S,
                     "setup_samples_s": setup, "calls": [c.label for c in calls],
                     "samples_s": norm, "raw_samples_s": raw}
    finally:
        out_path.unlink(missing_ok=True)

    record = run_record(args, load_before, extra)
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"{args.workload:8s} {name:28s} {shown} {unit}")
    print(f"{args.workload:8s} {'failed/attempted':28s} {tally.failed:>8d}/{tally.attempted} calls")
    print(json.dumps({"record": record}, sort_keys=True))
    for msg in tally.violations:
        print(f"perfbench: workload off its layer: {msg}", file=sys.stderr)
    correct = tally.failed == 0 and not tally.violations
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, as one table."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S + args.seconds)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited with {res.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        print("\n".join(line for line in lines[:-2]))
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
