"""The benchmark's per-layer tracer still finds every boundary it wraps.

`bench/tracer.py` names package functions by module and attribute; a
rename would silently drop that layer's metrics from traced runs. It is
loaded here from its file, unchanged.
"""

import importlib.util
import pathlib

from fullgroups.clopen import cylinder
from fullgroups.systems import make_system

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
O2 = make_system({"kind": "odometer", "bases": [2]})


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_boundary_and_counts_shrink_input(tmp_path):
    tracing = _load_tracer()
    a, b = cylinder(O2, "00"), cylinder(O2, "01")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        tracer.enabled = True
        union = a.union(b)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert union == cylinder(O2, "0")
    tracer.dump(str(tmp_path / "spans.json"))
    totals = tracing.Totals()
    totals.add(tracing.load(str(tmp_path / "spans.json")))
    metrics = totals.metrics(1)
    assert metrics["clopen.shrink.calls"] == 1
    assert metrics["clopen.shrink.words_in"] == a.word_count() + b.word_count()
