"""The metric list the run prints agrees with BENCHMARK.json, and a
result is completed or refused as the manifest says."""

import json
from pathlib import Path

import pytest

import manifest
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_benchmark_json_names_the_same_metrics_and_workloads():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == manifest.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == manifest.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS) == list(manifest.MEASURED)


def test_measured_layers_are_listed_layers():
    for names in manifest.MEASURED.values():
        assert names <= set(manifest.PER_LAYER)


def test_layers_off_the_path_read_zero():
    measured = {name: (1.5, manifest.PER_LAYER[name])
                for name in manifest.MEASURED["engine-imdb"]}
    out = manifest.complete("engine-imdb", True, measured)
    assert set(out) == set(manifest.PER_LAYER)
    assert out["wal.append_p50_ms"] == (0.0, "ms")
    assert out["core.neighbor_ms"] == (1.5, "ms")


def test_a_missing_or_mislabelled_metric_is_refused():
    measured = {name: (1.0, unit)
                for name, unit in manifest.END_TO_END.items()}
    assert manifest.complete("serve-dblp", False, measured) == measured
    with pytest.raises(manifest.Incomplete):
        manifest.complete("serve-dblp", False, {
            k: v for k, v in measured.items() if k != "query_p50_ms"})
    with pytest.raises(manifest.Incomplete):
        manifest.complete("serve-dblp", False,
                          dict(measured, setup_s=(1.0, "ms")))
    with pytest.raises(manifest.Incomplete):
        manifest.complete("serve-dblp", False,
                          dict(measured, other_ms=(1.0, "ms")))
