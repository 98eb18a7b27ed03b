"""The benchmark's traced run keeps each workload on its layer.

``perfbench/run.py --trace 1`` wraps the library's functions (``layers.targets``),
reads per-layer counts from one traced pass (``layers.layer_metrics``) and
fails the workload unless ``run.LAYER_PROPERTY`` holds for them.  The
untraced run cannot see that property: for the vacuum workload it asks for
Debye-labelled calls, which come only from ``bessel._log_bessel_array``
sending its uniform-branch elements through the public ``log_bessel_i/k``.
One cheap call per workload, under the same wrappers, checks it here.
"""

import importlib
from pathlib import Path

import pytest

from casimir_spheres import BoundaryPair, Geometry, TruncationPolicy, exact

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PCPC = BoundaryPair.from_string("pc,pc")

# Per workload: (public function of exact, positional arguments) of each call.
CALLS = {
    "vacuum": [("zero_T_energy", (Geometry.from_eps(0.1, 3), PCPC, None,
                                  TruncationPolicy(rel_tol=1e-9)))],
    "thermal": [("free_energy", (Geometry.from_eps(0.4, 3), PCPC, None, 0.1,
                                 TruncationPolicy(rel_tol=1e-9))),
                ("thermal_correction", (Geometry.from_eps(0.5, 3), PCPC, None, 0.02,
                                        TruncationPolicy(rel_tol=1e-9)))],
    "sweep": [("force", (Geometry.from_eps(0.3, 3), PCPC, 1.0,
                         TruncationPolicy(rel_tol=1e-6)))],
}


@pytest.mark.parametrize("workload", list(CALLS))
def test_traced_calls_hold_the_layer_property(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers, spans, run = (importlib.import_module(m) for m in ("layers", "spans", "run"))
    rec = spans.Recorder()
    with spans.Patch(layers.targets(rec)):
        for name, args in CALLS[workload]:
            getattr(exact, name)(*args)  # looked up under the wrappers
    metrics = layers.layer_metrics(rec, spans.Recorder(), 1.0)
    what, holds = run.LAYER_PROPERTY[workload]
    assert holds(metrics), (workload, what, {k: v for k, v in metrics.items()
                                             if k.endswith("_calls")})
