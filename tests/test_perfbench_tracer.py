"""The benchmark's tracer finds every layer function and hook it wraps, so
renaming or removing one fails here rather than in a benchmark run."""

import importlib.util
from pathlib import Path

import monoweb
import monoweb.cli  # noqa: F401  (the tracer wraps names in every module)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_every_layer():
    tr = _tracer_module().Tracer()
    try:
        tr.install(monoweb)
        assert tr.missing == []
    finally:
        tr.remove()
