"""Every committed benchmark summary records the gain it claims.

A `BENCH_*.json` at the root of the repository holds the paired runs behind
one claimed gain.  Its `claim` must name a workload and an end-to-end metric
that `BENCHMARK.json` declares, and its record of that workload must give the
parent's and the change's median of that metric.  `BENCHMARK.json` is only
read here.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUMMARIES = sorted(ROOT.glob("BENCH_*.json"))


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_summaries_are_committed():
    assert SUMMARIES


@pytest.mark.parametrize("path", SUMMARIES, ids=lambda path: path.name)
def test_a_summary_records_its_claim(path):
    benchmark = _load(ROOT / "BENCHMARK.json")
    summary = _load(path)
    claim = summary["claim"]
    assert claim["workload"] in {workload["name"] for workload in benchmark["workloads"]}
    assert claim["metric"] in {metric["name"] for metric in benchmark["end_to_end"]}
    record = summary["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    for side in ("parent", "change"):
        assert type(record[side]["median"]) in (int, float), side
