"""BENCHMARK.json names exactly the metrics and workloads run.py reports.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import LAYER_METRICS, LAYER_UNITS, POOL, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_the_tracer_table():
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    reported = {name: LAYER_UNITS[qty] for name, (_, qty) in LAYER_METRICS.items()}
    reported["trace.overhead_frac"] = "fraction"
    assert declared == reported


def test_workloads_match_and_every_pool_entry_has_a_reference():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    refs = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert {name: len(entries) for name, entries in refs.items()} == {
        name: POOL for name in WORKLOADS}
