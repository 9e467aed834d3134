"""The per-layer names ``BENCHMARK.json`` reads are spans of ``bench/tracer.py``.

A traced bench run looks up ``<span>.self_s`` and ``<span>.calls`` for each
of them, so a deleted or renamed traced function would end that run with a
``KeyError`` or read 0; this test makes it fail here instead.  It only reads
``bench/``: the tracer's bindings are built but never installed.
"""

import importlib.util
import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_per_layer_names_are_tracer_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(_ROOT, "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t._bindings()
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        layers = [metric["name"] for metric in json.load(fh)["per_layer"]]
    spans = [name.rsplit(".", 1)[0] for name in layers
             if name.endswith((".self_s", ".calls"))]
    assert spans
    assert sorted(set(spans) - set(t.names)) == []
