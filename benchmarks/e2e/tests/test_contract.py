"""``BENCHMARK.json`` and the benchmark's own tables say the same."""

import json
import re
from pathlib import Path

from e2e import metrics, run

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS


def test_workloads_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_match():
    listed = SPEC["end_to_end"]
    assert [m["name"] for m in listed] == [
        m.name for m in metrics.END_TO_END
    ]
    for spec, metric in zip(listed, metrics.END_TO_END):
        assert spec == {
            "name": metric.name, "unit": metric.unit,
            "better": metric.better, "bound": metric.bound,
        }
        assert 0 < spec["bound"] <= 0.25
    setup = next(m for m in listed if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in listed)


def test_per_layer_metrics_match():
    listed = SPEC["per_layer"]
    assert 1 <= len(listed) <= 128
    assert listed == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]


def test_names_and_units_are_well_formed_and_unique():
    every = metrics.END_TO_END + metrics.PER_LAYER
    names = [m.name for m in every] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    for metric in every:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")


def test_payload_fills_inapplicable_layers_with_zero():
    values = {"graph.passes_ms": 1.5}
    payload = metrics.payload(values, metrics.PER_LAYER)
    assert list(payload) == [m.name for m in metrics.PER_LAYER]
    assert payload["graph.passes_ms"] == {"value": 1.5, "unit": "ms"}
    assert payload["serve.encode_ms"]["value"] == 0.0
