"""Startup-path benchmark: legacy JSON load vs snapshot load.

A serving worker's cold start is bounded by how fast it can get a
graph + index into memory. The legacy path parses two JSON documents
and re-runs the CSR build (sort, dedup, reverse-adjacency); the
snapshot path maps little-endian sections as read-only numpy views
and derives only the reverse adjacency. This file
measures both on the bench-scale datasets and records the ratio in
``extra_info["speedup"]`` — the acceptance bar is that the snapshot
load is measurably faster than the JSON load.

Run with ``pytest benchmarks/bench_snapshot_load.py --benchmark-json``
and merge the medians into ``bench_results.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.graph.io import load_database_graph, save_database_graph
from repro.snapshot import load_snapshot, write_snapshot
from repro.text.persistence import load_index, save_index


@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory, dblp, imdb):
    """Both artifact forms of both bench datasets, written once."""
    root = tmp_path_factory.mktemp("snapshot-bench")
    for name, bundle in (("dblp", dblp), ("imdb", imdb)):
        save_database_graph(bundle.dbg, root / f"{name}.graph.json")
        save_index(bundle.search.index, root / f"{name}.index.json")
        write_snapshot(root / f"{name}.snapshot", bundle.dbg,
                       bundle.search.index)
    return root


def _load_json(root, name):
    dbg = load_database_graph(root / f"{name}.graph.json")
    index = load_index(root / f"{name}.index.json", dbg)
    return dbg, index


def _load_snapshot(root, name):
    snapshot = load_snapshot(root / f"{name}.snapshot")
    return snapshot.dbg, snapshot.index


@pytest.mark.parametrize("dataset", ("dblp", "imdb"))
@pytest.mark.parametrize("form", ("json", "snapshot"))
def test_artifact_load(benchmark, dataset, form, artifact_dir):
    loader = _load_json if form == "json" else _load_snapshot
    dbg, index = benchmark.pedantic(
        lambda: loader(artifact_dir, dataset), rounds=5, iterations=1)
    assert index is not None and dbg.n > 0


@pytest.mark.parametrize("dataset", ("dblp", "imdb"))
def test_snapshot_load_faster_than_json(dataset, artifact_dir,
                                        benchmark):
    """The headline ratio, best-of-5 per side to dampen noise."""
    def best_of(n, fn):
        best = float("inf")
        for _ in range(n):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    json_s = best_of(5, lambda: _load_json(artifact_dir, dataset))
    snap_s = best_of(5, lambda: _load_snapshot(artifact_dir, dataset))
    benchmark.pedantic(
        lambda: _load_snapshot(artifact_dir, dataset),
        rounds=3, iterations=1)
    benchmark.extra_info["json_seconds"] = json_s
    benchmark.extra_info["snapshot_seconds"] = snap_s
    benchmark.extra_info["speedup"] = json_s / snap_s
    assert snap_s < json_s, (
        f"snapshot load ({snap_s:.4f}s) not faster than JSON load "
        f"({json_s:.4f}s)")
