"""Every workload end to end at tiny scale, untraced and traced."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import manifest

RUN = Path(__file__).resolve().parents[1] / "run.py"
ROOT = RUN.parents[1]

WORKLOADS = sorted(manifest.MEASURED)

#: A few per-layer metrics each workload must measure (not fill with 0).
LAYERS = {
    "engine-imdb": {"core.neighbor_calls", "core.getcommunity_ms",
                    "dijkstra.calls_per_answer", "answer_delay_p50_ms"},
    "serve-dblp": {"http.transport_p50_ms", "pool.dispatch_p50_ms",
                   "serialize.encode_p50_ms", "client.connections_opened"},
    "ingest-dblp": {"wal.append_p50_ms", "pool.broadcast_p50_ms",
                    "maintenance.update_index_ms", "wal.fsyncs_per_delta",
                    "delta_ack_p50_ms", "delta_ack_p75_ms"},
    "routed-dblp": {"router.legs_per_query", "router.leg_p50_ms",
                    "http.transport_p50_ms"},
}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == manifest.END_TO_END
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = run(workload, 1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: metric["unit"] for name, metric
            in metrics.items()} == manifest.PER_LAYER
    for name in LAYERS[workload] | {"query_p95_ms", "throughput_qps",
                                    "setup.dataset_s", "setup.ready_s"}:
        assert metrics[name]["value"] > 0, name
    for name in set(manifest.PER_LAYER) - manifest.MEASURED[workload]:
        assert metrics[name]["value"] == 0.0, name


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in RUN.parent.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-dblp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
