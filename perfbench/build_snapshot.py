"""Set-up step run as its own process: dataset -> index -> snapshot.

Usage::

    python perfbench/build_snapshot.py '<json plan>'

The plan names the dataset (``dblp`` or ``imdb``), its generator
config, the index radius, the snapshot store to publish into and,
optionally, a shard count and output root to partition the snapshot
for the router. Prints one JSON line: the seconds spent generating,
indexing and publishing (partitioning counts as publishing) plus the
published paths. Running it in a child keeps the benchmark process's
peak memory free of the build.
"""

from __future__ import annotations

import json
import sys
import time


def build(plan: dict) -> dict:
    """Run one plan; returns timings and paths."""
    from repro.snapshot.store import SnapshotStore
    from repro.text.inverted_index import CommunityIndex

    start = time.perf_counter()
    if plan["dataset"] == "dblp":
        from repro.datasets.dblp import DBLPConfig, dblp_graph
        _, dbg = dblp_graph(DBLPConfig(**plan["config"]))
    else:
        from repro.datasets.imdb import IMDBConfig, imdb_graph
        _, dbg = imdb_graph(IMDBConfig(**plan["config"]))
    generated = time.perf_counter()
    index = CommunityIndex.build(dbg, float(plan["radius"]))
    indexed = time.perf_counter()
    snapshot = SnapshotStore(plan["store"]).publish(
        dbg, index, provenance={"dataset": plan["dataset"],
                                "index_radius": plan["radius"],
                                "builder": "perfbench"})
    out = {"snapshot": str(snapshot.path), "nodes": dbg.n}
    if plan.get("shards"):
        from repro.shard import partition_snapshot
        _, routing = partition_snapshot(snapshot.path, plan["shard_root"],
                                        int(plan["shards"]))
        out["routing"] = str(routing)
    published = time.perf_counter()
    out.update(dataset_s=generated - start, index_s=indexed - generated,
               publish_s=published - indexed)
    return out


if __name__ == "__main__":
    print(json.dumps(build(json.loads(sys.argv[1]))))
