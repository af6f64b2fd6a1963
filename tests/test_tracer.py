"""perfbench's span tracer still finds every layer it wraps in the package."""

import importlib.util
from pathlib import Path

from sumset_ramsey import cli, coloring, dynamics, power_2coloring

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    spans = _load_spans()
    window = coloring.Coloring.__dict__["window"]
    word_from_coloring = dynamics.word_from_coloring
    # installing looks up every LAYERS entry, so a missing name raises here
    with spans.Tracer().installed() as tracer:
        assert coloring.Coloring.__dict__["window"] is not window
        assert cli.word_from_coloring is dynamics.word_from_coloring
        assert dynamics.word_from_coloring(power_2coloring(1, 2), 50).n == 50
    assert {"dynamics.word_from_coloring", "coloring.window"} <= set(tracer.names)
    assert tracer.counts["coloring.window.positions"] == 50
    assert coloring.Coloring.__dict__["window"] is window
    assert dynamics.word_from_coloring is cli.word_from_coloring is word_from_coloring
