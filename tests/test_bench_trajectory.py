"""The benchmark trajectory: each root ``BENCH_*.json`` covers the whole benchmark.

A record holds, per workload of ``BENCHMARK.json``, the parent's and the
change's median and quartiles of every end-to-end metric, with the seeds and
the number of parent/change pairs they were taken from.  A record's claim
names the workload and end-to-end metric the change improves, measured over
at least ``CLAIM_PAIRS`` pairs on that workload.  The claim holds when the
change is better in at least ``CLAIM_WINS`` of every ``CLAIM_PAIRS`` pairs and
its median beats the parent's by more than the parent's quartile spread;
every other end-to-end median stays within its ``BENCHMARK.json`` bound,
and no workload fails more operations than at the parent.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
CLAIM_PAIRS = 10
CLAIM_WINS = 9


def test_the_trajectory_has_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_names_every_workload_and_metric(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    for workload in bench["workloads"]:
        entry = record["workloads"][workload["name"]]
        assert entry["pairs"] >= 1
        assert entry["seeds"] and all(isinstance(s, int) for s in entry["seeds"])
        for metric in bench["end_to_end"]:
            stats = entry["metrics"][metric["name"]]
            for side in ("parent", "change"):
                q1, median, q3 = (stats[side][k] for k in ("q1", "median", "q3"))
                assert q1 <= median <= q3


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_claims_a_measured_end_to_end_metric(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["workload"] in {w["name"] for w in bench["workloads"]}
    assert claim["metric"] in {m["name"] for m in bench["end_to_end"]}
    assert record["workloads"][claim["workload"]]["pairs"] >= CLAIM_PAIRS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_claim_holds_and_no_other_metric_passes_its_bound(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    claim = record["claim"]
    for workload in bench["workloads"]:
        entry = record["workloads"][workload["name"]]
        assert entry["failed"]["change"] <= entry["failed"]["parent"]
        for metric in bench["end_to_end"]:
            stats = entry["metrics"][metric["name"]]
            # sign * (parent - change) is the gain, whichever direction is better
            sign = 1.0 if metric["better"] == "lower" else -1.0
            parent, change = stats["parent"]["median"], stats["change"]["median"]
            if (workload["name"], metric["name"]) == (claim["workload"], claim["metric"]):
                wins = stats["change_lower" if sign > 0 else "change_higher"]
                assert wins * CLAIM_PAIRS >= CLAIM_WINS * entry["pairs"]
                assert sign * (parent - change) > stats["parent"]["q3"] - stats["parent"]["q1"]
            else:
                assert sign * (change - parent) <= metric["bound"] * parent
