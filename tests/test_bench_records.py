"""Committed benchmark records (``BENCH_*.json`` at the repo root).

A speed claim counts only with a committed record of the benchmark run
before and after the change.  Each record must cover every workload and every
end-to-end metric that ``BENCHMARK.json`` declares, give both sides as
numbers, and show the same result digest on both sides: a change that moves
a digest changed the exact results, so its timings compare different work.
A record's claim names a declared workload and metric, gives one parent and
one change value per seed, and its change median beats its parent median.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_covers_the_declared_benchmark(path):
    record = json.loads(path.read_text())
    for workload in DECLARED["workloads"]:
        entry = record["workloads"][workload["name"]]
        assert entry["seeds"] and _is_number(entry["run_seconds"])
        for metric in DECLARED["end_to_end"]:
            row = entry["metrics"][metric["name"]]
            assert _is_number(row["parent"]) and _is_number(row["change"])
            assert row["unit"] == metric["unit"]
        assert set(entry["digests"]) == {str(s) for s in entry["seeds"]}
        for seed, digests in entry["digests"].items():
            assert digests["parent"] == digests["change"], (workload["name"], seed)


def _claim_values(claim) -> tuple[list, list]:
    """The parent and change values of a claim, in the order of its seeds:
    two lists parallel to the seeds (``BENCH_10.json``), or ``runs`` keyed
    by seed."""
    if isinstance(claim["parent"], list):
        return claim["parent"], claim["change"]
    runs = claim["runs"]
    assert set(runs) == {str(s) for s in claim["seeds"]}
    seeds = [str(s) for s in claim["seeds"]]
    return [runs[s]["parent"] for s in seeds], [runs[s]["change"] for s in seeds]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_claim_is_declared_and_beats_the_parent(path):
    claim = json.loads(path.read_text())["claim"]
    assert claim["workload"] in {w["name"] for w in DECLARED["workloads"]}
    metrics = {m["name"]: m for m in DECLARED["end_to_end"]}
    assert claim["metric"] in metrics
    parent, change = _claim_values(claim)
    assert len(parent) == len(change) == len(claim["seeds"]) > 0
    assert all(map(_is_number, parent + change))
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    if metrics[claim["metric"]]["better"] == "lower":
        assert change_median < parent_median
    else:
        assert change_median > parent_median
