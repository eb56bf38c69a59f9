"""Unit tests of the benchmark's own machinery: spans, comparisons, oracles, catalog."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from common import Calibrator, same_printed  # noqa: E402
from oracles import bernoulli_dyadic_cdf, self_similar_cdf  # noqa: E402
from tracer import Tracer, aggregate, self_times  # noqa: E402


def test_self_times_nested_and_back_to_back():
    # 0 root [0, 10]; 1 a [1, 3] with 2 grandchild [1.5, 2.5]; 3 b [3, 5] right
    # after a; 4 c [4.5, 6] overlapping b; 5 d [9, 12] running past the root
    start = [0.0, 1.0, 1.5, 3.0, 4.5, 9.0]
    end = [10.0, 3.0, 2.5, 5.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0, 0]
    got = self_times(start, end, parent)
    # root loses the union [1, 6] and the clipped [9, 10]; the grandchild counts only against a
    assert got == pytest.approx([4.0, 1.0, 1.0, 2.0, 1.5, 3.0])


def test_calibrator_weights_each_stretch_by_its_own_speed():
    c = Calibrator()
    nom = c.NOMINAL_S
    # one 0.01 s kernel sample a second: nominal speed before t = 10, half speed from then on
    c.samples = [(t, t + 0.01, nom if t < 10 else 2 * nom) for t in range(20)]
    assert c.scale(3.2, 3.8) == pytest.approx(0.6)
    assert c.scale(14.2, 14.8) == pytest.approx(0.3)
    # the switch falls at the midpoint 9.5; the samples at 9 and 10 lie inside and are removed
    assert c.scale(9.0, 11.0) == pytest.approx(0.5 + 1.5 * 0.5 - 0.01 - 0.01 * 0.5)
    # a lone slow sample is outvoted by its two neighbours
    c.samples[5] = (5, 5.01, 10 * nom)
    assert c.scale(4.6, 5.4) == pytest.approx(0.8 - 0.01)


def test_aggregate_splits_setup_from_rounds():
    spans = {"names": ["x", "y"], "name_id": [0, 1, 0], "parent": [-1, 0, -1],
             "run": [-1, -1, 0], "start": [0.0, 0.5, 2.0], "end": [1.0, 0.75, 4.0]}
    assert aggregate(spans, setup=True) == {
        "x": {"calls": 1, "s": 1.0, "self_s": 0.75},
        "y": {"calls": 1, "s": 0.25, "self_s": 0.25}}
    assert aggregate(spans, setup=False) == {"x": {"calls": 1, "s": 2.0, "self_s": 2.0}}
    assert aggregate(spans)["x"]["calls"] == 2


def test_wrapped_calls_record_parents_and_counters():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda n: list(range(n)), ("inner.items", lambda a, r: len(r)))
    outer = tracer.wrap("outer", lambda: inner(3) + inner(2))
    tracer.run_id = 0
    assert outer() == [0, 1, 2, 0, 1]
    spans = tracer.spans()
    assert [spans["names"][i] for i in spans["name_id"]] == ["outer", "inner", "inner"]
    assert spans["parent"] == [-1, 0, 0]
    assert spans["counters"] == {"inner.items": 5.0}


def test_install_wraps_every_importer_and_uninstall_restores():
    import gibbsdim.cli as cli
    import gibbsdim.thermo as thermo
    from gibbsdim import LocallyConstantPotential, SftSpec
    originals = (thermo._perron, thermo.beta, cli.beta)
    tracer = Tracer()
    tracer.install()
    try:
        assert thermo.beta is cli.beta and thermo.beta is not originals[1]
        spec = SftSpec(alphabet=("0", "1"), incidence=[[1, 1], [1, 1]])
        thermo.pressure(LocallyConstantPotential.from_values(spec, [0.0, 0.0]))
    finally:
        tracer.uninstall()
    assert (thermo._perron, thermo.beta, cli.beta) == originals
    assert aggregate(tracer.spans())["thermo.perron"]["calls"] == 1


def test_same_printed_compares_nine_digits_and_exact_integers():
    a = "# model: \"sha256:0123456789ab\"\nq,beta\n-1,1.23456789\n"
    assert same_printed(a, a)
    assert same_printed("x,0.5\n", "x,5e-1\n")
    assert not same_printed("x,1.23456789\n", "x,1.23456788\n")
    assert not same_printed("sha256:012345678901\n", "sha256:012345678902\n")
    assert not same_printed("a,1\n", "b,1\n")


def test_bernoulli_oracle_matches_known_values_and_the_self_similar_oracle():
    assert bernoulli_dyadic_cdf(0.5, 0.25) == 0.25
    assert bernoulli_dyadic_cdf(0.75, 0.25) == pytest.approx(0.4375)
    for x in np.random.default_rng(0).random(20):
        assert self_similar_cdf(float(x), [0.5, 0.5], [0.0, 0.5], [0.25, 0.75], (0.0, 1.0), 1e-15) \
            == pytest.approx(bernoulli_dyadic_cdf(float(x), 0.25), abs=1e-14)


def test_self_similar_oracle_is_flat_on_gaps():
    args = ([0.25, 0.25], [0.0, 0.75], [0.5, 0.5], (0.0, 1.0), 1e-15)
    assert self_similar_cdf(0.5, *args) == 0.5
    assert self_similar_cdf(0.3, *args) == self_similar_cdf(0.7, *args)


def test_stress_model_reproduces_the_test_suite_constructors():
    sys.path.insert(0, str(ROOT / "tests"))
    import helpers
    from stress import EXPECTED_BLOCK_STATES, block_states, stress_model
    rng = np.random.default_rng(1)
    spec = helpers.random_mixing_spec(rng, 6)
    phi = helpers.random_potential(rng, spec, 3)
    spec2, phi2, psi2 = stress_model()
    assert spec2 == spec and phi2 == phi
    assert psi2.min_value() == psi2.max_value() == 1.0
    assert block_states(phi2) == EXPECTED_BLOCK_STATES


def test_import_profile_parser():
    from wl_cli import import_times
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.optimize._x",
        "import time:       150 |        200 |   scipy.optimize",
        "import time:        10 |         10 |   numpy",
        "import time:       100 |        610 | gibbsdim",
    ])
    assert import_times(stderr) == pytest.approx((610e-6, 500e-6))


def test_benchmark_json_lists_what_the_benchmark_prints():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(n, u) for n, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_catalog(run.cli_command_names())
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert math.isclose(max(m["bound"] for m in spec["end_to_end"]),
                        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))
