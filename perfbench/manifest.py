"""The metrics a run prints, by name and unit, and where each applies.

``BENCHMARK.json`` lists the same names (``tests/test_manifest.py``
keeps the two in step). Every workload prints every end-to-end metric
with ``--trace 0`` and every per-layer metric with ``--trace 1``. A
per-layer metric of a layer the workload's requests never cross (the
WAL on a read-only workload, the shard router off the routed one, HTTP
in-process) is printed as 0: that layer did no work in the run.
"""

from __future__ import annotations

from typing import Dict, Set

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "peak_mem_mb": "MiB",
    "success_rate": "fraction",
}

PER_LAYER: Dict[str, str] = {
    "query_p95_ms": "ms",
    "throughput_qps": "1/s",
    "answer_delay_p50_ms": "ms",
    "delta_ack_p50_ms": "ms",
    "delta_ack_p75_ms": "ms",
    "loadgen.lag_p95_ms": "ms",
    "client.connections_opened": "count",
    "http.transport_p50_ms": "ms",
    "server.handle_p50_ms": "ms",
    "admission.wait_p95_ms": "ms",
    "admission.rejected": "count",
    "pool.dispatch_p50_ms": "ms",
    "pool.broadcast_p50_ms": "ms",
    "engine.resolve_ms": "ms",
    "engine.project_ms": "ms",
    "engine.enumerate_ms": "ms",
    "engine.translate_ms": "ms",
    "results.hit_ratio": "fraction",
    "results.invalidations": "count",
    "projcache.hit_ratio": "fraction",
    "core.neighbor_ms": "ms",
    "core.neighbor_calls": "count",
    "core.bestcore_ms": "ms",
    "core.bestcore_calls": "count",
    "core.getcommunity_ms": "ms",
    "core.getcommunity_calls": "count",
    "core.project_ms": "ms",
    "dijkstra.calls_per_answer": "count",
    "dijkstra.ms": "ms",
    "dijkstra.memo_hit_ratio": "fraction",
    "serialize.encode_p50_ms": "ms",
    "wal.append_p50_ms": "ms",
    "wal.fsyncs_per_delta": "count",
    "wal.bytes_per_delta": "bytes",
    "maintenance.extend_ms": "ms",
    "maintenance.update_index_ms": "ms",
    "router.legs_per_query": "count",
    "router.merge_rounds_per_query": "count",
    "router.leg_p50_ms": "ms",
    "router.merge_ms": "ms",
    "setup.dataset_s": "s",
    "setup.index_s": "s",
    "setup.publish_s": "s",
    "setup.ready_s": "s",
    "trace.unaccounted_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

_EVERYWHERE = {
    "query_p95_ms", "throughput_qps", "engine.resolve_ms",
    "engine.project_ms", "engine.enumerate_ms", "engine.translate_ms",
    "results.hit_ratio", "results.invalidations", "projcache.hit_ratio",
    "setup.dataset_s", "setup.index_s", "setup.publish_s", "setup.ready_s",
    "trace.unaccounted_frac", "trace.overhead_frac",
}
_HTTP = {
    "client.connections_opened", "http.transport_p50_ms",
    "server.handle_p50_ms", "admission.wait_p95_ms", "admission.rejected",
    "serialize.encode_p50_ms",
}

#: The per-layer metrics each workload measures; the rest read 0.
MEASURED: Dict[str, Set[str]] = {
    "engine-imdb": _EVERYWHERE | {
        "answer_delay_p50_ms", "core.neighbor_ms", "core.neighbor_calls",
        "core.bestcore_ms", "core.bestcore_calls", "core.getcommunity_ms",
        "core.getcommunity_calls", "core.project_ms",
        "dijkstra.calls_per_answer", "dijkstra.ms",
        "dijkstra.memo_hit_ratio"},
    "serve-dblp": _EVERYWHERE | _HTTP | {
        "loadgen.lag_p95_ms", "pool.dispatch_p50_ms"},
    "ingest-dblp": _EVERYWHERE | _HTTP | {
        "delta_ack_p50_ms", "delta_ack_p75_ms", "pool.dispatch_p50_ms",
        "pool.broadcast_p50_ms", "wal.append_p50_ms",
        "wal.fsyncs_per_delta", "wal.bytes_per_delta",
        "maintenance.extend_ms", "maintenance.update_index_ms"},
    "routed-dblp": _EVERYWHERE | _HTTP | {
        "loadgen.lag_p95_ms", "router.legs_per_query",
        "router.merge_rounds_per_query", "router.leg_p50_ms",
        "router.merge_ms"},
}


class Incomplete(RuntimeError):
    """A run did not measure every metric it owes."""


def complete(workload: str, trace: bool,
             metrics: Dict[str, tuple]) -> Dict[str, tuple]:
    """``metrics`` with the layers the workload does not cross filled
    in as 0; raises :class:`Incomplete` if a metric the workload should
    have measured is missing or carries another unit."""
    wanted = PER_LAYER if trace else END_TO_END
    owed = MEASURED[workload] if trace else set(END_TO_END)
    out = {}
    for name, unit in wanted.items():
        if name in metrics:
            value, got_unit = metrics[name]
            if got_unit != unit:
                raise Incomplete(f"{name} measured in {got_unit}, "
                                 f"not {unit}")
            out[name] = (value, unit)
        elif name in owed:
            raise Incomplete(f"{workload} measured no {name}")
        else:
            out[name] = (0.0, unit)
    extra = set(metrics) - set(wanted)
    if extra:
        raise Incomplete(f"{workload} measured unlisted {sorted(extra)}")
    return out
