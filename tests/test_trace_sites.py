"""perfbench's tracer finds a binding of every layer function it names.

The benchmark wraps each name in tracing.LAYERS where a stimamp module binds
it, and raises SiteError for one that is missing, so moving a layer function
out of the module its name gives fails here, not only in a traced run.
"""

import importlib.util
import sys
from pathlib import Path

import stimamp.cli  # noqa: F401  loads every module the tracer looks in

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_layer_has_a_binding():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    assert sys.path == path
    assert [layer for layer in tracing.LAYERS if not tracer.bindings[layer]] == []
