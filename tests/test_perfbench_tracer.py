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


def test_traced_tracking_fills_the_kept_counters():
    # the counters the benchmark keeps from a traced track_loop read the
    # fields of its MonodromyResult, so reshaping the result fails here
    from monoweb.fiber import BinaryForm, ProjectiveSystem, Rect
    from monoweb.monodromy import LoopSpec

    sys_ = ProjectiveSystem(Rect(-3, 3, -3, 3), form=BinaryForm.from_strings(
        ["-((x-1)^2 + y^2 + 0.0001)", "0", "1"]))
    tr = _tracer_module().Tracer()
    try:
        tr.install(monoweb)
        res = monoweb.monodromy.track_loop(sys_, LoopSpec((0.0, 0.0), 1.0))
    finally:
        tr.remove()
    assert tr.missing == []
    _, counts, _ = tr.layers()
    assert counts["track_solves"] == res.samples_solved
    assert counts["track_accepted"] == len(res.paths[0].ts)
    assert counts["depth_max"] == res.depth_reached
    assert res.depth_reached > 0
