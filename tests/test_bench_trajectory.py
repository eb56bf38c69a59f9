"""The benchmark trajectory: each root ``BENCH_*.json`` covers the whole benchmark.

A record holds, per workload of ``BENCHMARK.json``, the parent's and the
change's median and quartiles of every end-to-end metric, with the seeds and
the number of parent/change pairs they were taken from.  A record's claim
names the workload and end-to-end metric the change improves, measured over
at least ``CLAIM_PAIRS`` pairs on that workload.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
CLAIM_PAIRS = 10


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
