"""Zero-copy snapshot benchmarks: cold open, spawn latency, memory.

A snapshot is loaded by mapping its sections, so every worker process
opens it as read-only views over one page-cache copy instead of
parsing and materializing its own. Three measurements back that up:

* **cold open** — ``load_snapshot``: maps the sections and verifies
  checksums but defers the ``nodes.json`` parse and every per-node
  materialization;
* **worker spawn** — ``QueryEngine.from_snapshot``, the exact load a
  pool worker (and every watchdog respawn) pays before it can serve;
* **per-worker memory** — USS/RSS of pool workers at 1 vs 4 workers
  (Linux only, read from ``/proc/<pid>/smaps_rollup``), recorded in
  ``extra_info`` so the sharing claim is auditable.

Run with ``pytest benchmarks/bench_mmap_load.py --benchmark-json``
and merge the medians into ``bench_results.json``.
"""

from __future__ import annotations

import statistics
import sys

import pytest

from repro.engine import QueryEngine
from repro.parallel.pool import WorkerPool
from repro.snapshot import load_snapshot, write_snapshot


@pytest.fixture(scope="session")
def snapshot_path(tmp_path_factory, dblp):
    """One bench-scale snapshot."""
    root = tmp_path_factory.mktemp("mmap-bench")
    write_snapshot(root / "dblp.snapshot", dblp.dbg,
                   dblp.search.index)
    return root / "dblp.snapshot"


def test_cold_open(benchmark, snapshot_path):
    snapshot = benchmark.pedantic(
        lambda: load_snapshot(snapshot_path),
        rounds=5, iterations=1)
    assert snapshot.dbg.n > 0


def test_worker_spawn(benchmark, snapshot_path):
    engine = benchmark.pedantic(
        lambda: QueryEngine.from_snapshot(snapshot_path),
        rounds=5, iterations=1)
    assert engine.snapshot_id is not None


def _smaps_rollup(pid):
    """``{field: kiB}`` from ``/proc/<pid>/smaps_rollup``."""
    fields = {}
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            parts = line.split()
            if len(parts) >= 3 and parts[-1] == "kB":
                fields[parts[0].rstrip(":")] = int(parts[-2])
    return fields


def _worker_memory(snapshot_path, workers):
    """Mean per-worker (USS kiB, RSS kiB) of a warmed pool."""
    pool = WorkerPool(snapshot_path, workers=workers)
    pool.start(wait_ready=True)
    try:
        pool.stats()                      # every worker answered once
        uss, rss = [], []
        for pid in pool.pids().values():
            rollup = _smaps_rollup(pid)
            uss.append(rollup.get("Private_Clean", 0)
                       + rollup.get("Private_Dirty", 0))
            rss.append(rollup.get("Rss", 0))
        return (statistics.mean(uss), statistics.mean(rss))
    finally:
        pool.shutdown()


@pytest.mark.skipif(sys.platform != "linux",
                    reason="needs /proc/<pid>/smaps_rollup")
def test_worker_memory_sharing(benchmark, snapshot_path):
    """Per-worker USS/RSS at 1 vs 4 workers.

    Shared pages (the mapped sections) show up in RSS but not USS;
    the recorded numbers let operators size ``--workers`` from the
    *unique* per-worker footprint instead of naive RSS × N.
    """
    one_uss, one_rss = _worker_memory(snapshot_path, workers=1)
    four_uss, four_rss = _worker_memory(snapshot_path, workers=4)
    benchmark.pedantic(
        lambda: load_snapshot(snapshot_path),
        rounds=3, iterations=1)
    benchmark.extra_info["workers1_uss_kib"] = one_uss
    benchmark.extra_info["workers1_rss_kib"] = one_rss
    benchmark.extra_info["workers4_uss_kib"] = four_uss
    benchmark.extra_info["workers4_rss_kib"] = four_rss
    assert four_uss > 0 and four_rss >= four_uss
