"""Tests of the benchmark's own machinery.  Run from the repository root:

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import scipy.special  # noqa: E402

import casimir_spheres as cs  # noqa: E402
from casimir_spheres import bessel, cli, exact  # noqa: E402
from casimir_spheres.signedlog import SignedLog  # noqa: E402

import layers  # noqa: E402
from spans import Patch, Recorder, self_times  # noqa: E402


def synthetic(spans):
    """A Recorder holding (name, parent, start, end) spans as given."""
    rec = Recorder()
    for name, parent, start, end in spans:
        rec.name.append(rec.name_id(name))
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    return rec


# force [0, 20] -> two energies, each with a quad holding robin calls;
# a third energy [21, 25] outside the force.
TREE = [
    ("exact.force", -1, 0.0, 20.0),          # 0
    ("exact.energy", 0, 1.0, 9.0),           # 1
    ("scipy.quad", 1, 2.0, 8.0),             # 2
    ("bessel.robin.debye", 2, 3.0, 4.0),     # 3
    ("bessel.robin.twoterm", 2, 5.0, 7.5),   # 4
    ("bessel.log_i.amos", 4, 5.5, 6.5),      # 5
    ("exact.energy", 0, 10.0, 19.0),         # 6
    ("exact.energy", -1, 21.0, 25.0),        # 7
]


def test_self_time_subtracts_direct_children_only():
    _, parent, start, end = synthetic(TREE).arrays()
    got = self_times(parent, start, end)
    np.testing.assert_allclose(got, [20 - 8 - 9, 8 - 6, 6 - 1 - 2.5, 1, 2.5 - 1, 1, 9, 4])


def test_self_times_sum_to_root_durations():
    _, parent, start, end = synthetic(TREE).arrays()
    roots = parent < 0
    assert self_times(parent, start, end).sum() == pytest.approx((end - start)[roots].sum())


def test_layer_sums_on_synthetic_tree():
    s = layers._Spans(synthetic(TREE))
    assert s.count("exact.energy") == 3
    assert s.count("bessel.robin") == 2
    assert s.count("bessel.robin.debye") == 1
    assert s.self_time("bessel.robin") == pytest.approx(1 + 1.5)
    assert s.outer_time("exact.energy") == pytest.approx(8 + 9 + 4)
    assert s.nested_in("exact.energy", "exact.force") == 2
    assert s.nested_in("bessel.log_i", "exact.force") == 1


def test_outer_time_counts_nested_spans_of_one_layer_once():
    s = layers._Spans(synthetic([("asymptotics", -1, 0.0, 5.0),
                                 ("asymptotics", 0, 1.0, 2.0)]))
    assert s.outer_time("asymptotics") == pytest.approx(5.0)
    assert s.self_time("asymptotics") == pytest.approx(5.0)


def test_layer_metrics_on_synthetic_tree():
    m = layers.layer_metrics(synthetic(TREE), Recorder(), pass_s=25.0)
    assert m["exact.force_calls"] == 1
    assert m["exact.energies_per_force"] == 2.0
    assert m["exact.force_share"] == pytest.approx(20.0 / 25.0)
    assert m["mpmath.fallback_frac"] == 0.0
    assert set(m) == {name for name, _, _ in layers.PER_LAYER} - {"trace.overhead_frac"}


def _current(targets):
    return [getattr(owner, attr) for owner, attr, _ in targets]


def test_patch_wraps_every_binding_and_restores_it():
    rec = Recorder()
    targets = layers.targets(rec)
    originals = _current(targets)
    patched = {(owner, attr) for owner, attr, _ in targets}
    # Names the program looks up under more than one binding are all wrapped.
    for owner, attr in ((exact, "zero_T_energy"), (cli, "zero_T_energy"), (cs, "zero_T_energy"),
                        (exact, "force"), (cli, "force_fn"), (exact, "robin_combination"),
                        (bessel, "log_bessel_i"), (scipy.special, "ive"),
                        (SignedLog, "__post_init__")):
        assert (owner, attr) in patched, (owner, attr)
    with Patch(targets):
        assert all(now is not orig for now, orig in zip(_current(targets), originals))
        res = exact.free_energy(cs.Geometry.from_eps(1.0, 3),
                                cs.BoundaryPair.from_string("pc,ip"), None, 5.0,
                                cs.TruncationPolicy(rel_tol=1e-4))
    assert all(now is orig for now, orig in zip(_current(targets), originals))
    m = layers.layer_metrics(rec, Recorder(), pass_s=1.0)
    assert m["exact.energy_calls"] == 1
    assert m["exact.l_terms"] == res.l_used
    assert m["bessel.robin_calls"] > 0
    assert m["signedlog.objects"] > 0


def test_patch_restores_after_an_exception():
    rec = Recorder()
    targets = layers.targets(rec)
    originals = _current(targets)
    with pytest.raises(ZeroDivisionError):
        with Patch(targets):
            1 / 0
    assert all(now is orig for now, orig in zip(_current(targets), originals))


def test_patch_restores_an_attribute_patched_twice():
    class Owner:
        attr = "original"

    with Patch([(Owner, "attr", "first"), (Owner, "attr", "second")]):
        assert Owner.attr == "second"
    assert Owner.attr == "original"


def _taken_branch(fn, args, spies):
    """Names of the spied functions of casimir_spheres.bessel that ``fn`` calls."""
    hits = []
    targets = []
    for name, (owner, attr) in spies.items():
        original = getattr(owner, attr)
        targets.append((owner, attr,
                        lambda *a, _o=original, _n=name, **k: (hits.append(_n), _o(*a, **k))[1]))
    with Patch(targets):
        fn(*args)
    return hits


LOG_I_SPIES = {"series": (bessel, "_log_i_series"), "debye": (bessel, "_log_i_debye"),
               "amos": (scipy.special, "ive")}
LOG_K_SPIES = {"series": (bessel, "_log_k_smallz"), "debye": (bessel, "_log_k_debye"),
               "amos": (scipy.special, "kve")}

NU_SEAM = (49.5, np.nextafter(50.0, 0.0), 50.0, 50.5)
Z_SEAM = (29.5, 30.0, np.nextafter(30.0, 31.0), 30.5)


@pytest.mark.parametrize("nu", NU_SEAM + (0.5, 10.5))
@pytest.mark.parametrize("z", Z_SEAM + (1e-3, 75.0, 200.0))
def test_log_branch_matches_bessel_at_seams(nu, z):
    assert _taken_branch(bessel.log_bessel_i, (nu, z), LOG_I_SPIES) == [layers.log_i_branch(nu, z)]
    assert _taken_branch(bessel.log_bessel_k, (nu, z), LOG_K_SPIES) == [layers.log_k_branch(nu, z)]


def test_seams_are_where_bessel_puts_them():
    assert layers.log_i_branch(0.5, 30.0) == "series"
    assert layers.log_i_branch(0.5, np.nextafter(30.0, 31.0)) == "amos"
    assert layers.log_i_branch(np.nextafter(50.0, 0.0), 200.0) == "amos"
    assert layers.log_i_branch(50.0, 200.0) == "debye"
    assert layers.log_k_branch(np.nextafter(50.0, 0.0), 30.0) == "amos"
    assert layers.log_k_branch(50.0, 30.0) == "debye"


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.5, 1.0), (-0.5, 1.0), (12.5, 1.0),
                                        (13.0, 1.0)])
@pytest.mark.parametrize("nu", NU_SEAM)
@pytest.mark.parametrize("kind", ["I", "K"])
def test_robin_branch_matches_bessel_at_nu_seam(alpha, beta, nu, kind):
    hits = _taken_branch(bessel.robin_combination, (alpha, beta, nu, 30.0, kind),
                         {"debye": (bessel, "_robin_debye")})
    taken = "debye" if hits else ("plain" if beta == 0.0 else "twoterm")
    assert taken == layers.robin_branch(alpha, beta, nu, 30.0)


def test_sweep_check_applies_golden_rule_and_force_tolerance():
    import workloads

    ref = {"total|exact": {"energy": 10.0, "error_estimate": 1e-5, "force": 50.0},
           "total|pfa": {"energy": 9.0, "error_estimate": None, "force": None}}

    def point(energy, force):
        return {"total|exact": {"energy": energy, "error_estimate": 1e-5, "force": force,
                                "status": "ok"},
                "total|pfa": {"energy": 9.0, "error_estimate": None, "force": None,
                              "status": "ok"}}

    def check(energy, force):
        return workloads.check_sweep_rows({"p": point(energy, force)}, {"p": ref}, 1e-6)

    assert check(10.0 + 9e-5, 50.4) is None
    assert "energy" in check(10.0 + 2e-4, 50.0)
    assert "force" in check(10.0, 50.6)
    assert "no force" in check(10.0, None)
    assert "grid points" in workloads.check_sweep_rows({}, {"p": ref}, 1e-6)


def test_sweep_rows_are_grouped_by_grid_point():
    import workloads

    text = ("# header\n"
            "D,a1,a2,eps,T,bc_inner,bc_outer,channel,method,energy,force,l_used,p_used,"
            "error_estimate,status\n"
            "3,1.0,1.2,2.0e-01,0.0e+00,pc,ip,total,exact,2.5e+00,3.0e+02,9,0,1.0e-06,ok\n"
            "3,1.0,1.2,2.0e-01,1.0e+00,pc,ip,TE,pfa,1.5e+00,,0,0,,ok\n")
    points = workloads.read_csv_rows(text)
    assert set(points) == {workloads.sweep_key(0.2, 0.0, "pc,ip"),
                           workloads.sweep_key(0.2, 1.0, "pc,ip")}
    row = points[workloads.sweep_key(0.2, 0.0, "pc,ip")]["total|exact"]
    assert (row["energy"], row["force"]) == (2.5, 300.0)


def test_normalise_scales_raw_time_by_reference_speed():
    from calibrate import REF_CHUNK_S, normalise

    assert normalise(2.0, [REF_CHUNK_S, REF_CHUNK_S]) == pytest.approx(2.0)
    assert normalise(2.0, [2 * REF_CHUNK_S]) == pytest.approx(1.0)  # slow host
    assert normalise(2.0, [0.5 * REF_CHUNK_S, 1.5 * REF_CHUNK_S]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        normalise(2.0, [])


def test_sampler_restores_handler_and_stops_timer():
    import signal

    from calibrate import Sampler

    def previous(signum, frame):
        raise AssertionError("the sampler's handler should be the one called")

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with pytest.raises(ZeroDivisionError):
            with Sampler(period=0.01):
                assert signal.getsignal(signal.SIGALRM) is not previous
                1 / 0
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)


def test_sampler_takes_its_chunks_out_of_the_call():
    import time

    from calibrate import Sampler, normalise

    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        return "done"

    with Sampler(period=0.01) as sampler:
        t0 = time.perf_counter()
        outcome, error, raw, norm = sampler.timed(busy)
        elapsed = time.perf_counter() - t0
        _, failure, _, _ = sampler.timed(lambda: 1 / 0)
    assert (outcome, error) == ("done", None)
    assert isinstance(failure, ZeroDivisionError)
    during = [d for start, d in sampler.samples if start < t0 + elapsed][:-1]
    assert len(during) >= 5  # one per 10 ms of a 200 ms call, minus slack
    # The busy loop's 0.2 s of wall time includes the chunks; raw time does not.
    assert raw == pytest.approx(0.2 - sum(during), abs=0.005)
    assert norm == pytest.approx(normalise(raw, during + [sampler.samples[len(during)][1]]))
