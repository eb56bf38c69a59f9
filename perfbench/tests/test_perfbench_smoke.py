"""Every workload at minimal size runs without a failed operation; a traced round works."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for p in (str(BENCH), str(BENCH.parent / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_minimal_size(name):
    wl = run.workload_class(name)(seed=3, small=True)
    wl.setup()
    phase = wl.measure(0.0)
    wl.check()
    assert wl.attempted >= 1
    assert wl.failed == 0, wl.failures
    assert phase["item_ms"] > 0 and phase["batch_s"] > 0


def test_traced_round_fills_the_layers_it_stresses():
    wl = run.workload_class("masstree")(seed=3, small=True)
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
        phase = wl.measure(0.0, tracer)
    finally:
        tracer.uninstall()
    layers = run.layer_metrics(wl, tracer, phase)
    assert layers["potentials.word_sum_bounds.calls"] > 0
    assert layers["model.load_model.calls"] == 1
    assert 0.0 <= layers["massdist.children.hit_ratio"] < 1.0
    assert layers["massdist.children.built"] == layers["massdist.make_children.calls"] > 0
