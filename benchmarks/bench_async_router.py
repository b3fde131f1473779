"""Router front-end benchmark: threaded vs asyncio at shards=2.

One bench-scale DBLP snapshot is partitioned into a two-shard fleet
of real :class:`CommunityService` backends; the *same* backends are
then fronted by the threaded :class:`RouterService` and by the
event-loop :class:`AsyncRouterService` in turn. Closed-loop clients
drive an identical mixed top-k workload through each front end's
HTTP stack, so the two cells isolate exactly the transport
difference — thread-per-leg fan-out vs one event loop multiplexing
every shard leg over pooled keep-alive connections.

Both cells land in ``bench_results.json`` and sit under the 25 %
regression gate of ``tools/bench_compare.py`` like every other
serving benchmark. Cells recorded before the HTTP front ends sent
each response in one write with ``TCP_NODELAY`` were measured through
a ~40 ms keep-alive stall on every client exchange and shard leg, so
they say more about that stall than about either front end; compare
only cells recorded since.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ -k async_router``.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.engine.engine import QueryEngine
from repro.service import CommunityService, ServiceClient
from repro.shard import RouterService, partition_snapshot
from repro.shard.aio import AsyncRouterService
from repro.snapshot import SnapshotStore

#: Closed-loop client threads per measured round.
CLIENTS = 4

#: Requests per client per measured round.
REQUESTS_PER_CLIENT = 6

#: Measured rounds per cell; the gate compares their median.
ROUNDS = 5

#: Fleet width: both front ends run over the same two-shard fleet.
SHARDS = 2


@pytest.fixture(scope="module")
def shard_fleet(tmp_path_factory, dblp):
    """Started two-shard backends + manifest, shared by both cells."""
    store = tmp_path_factory.mktemp("aio-bench-store")
    SnapshotStore(store).publish(
        dblp.dbg, dblp.search.engine.index,
        provenance={"dataset": dblp.label, "purpose": "aio-bench"})
    tmp = tmp_path_factory.mktemp("aio-bench-fleet")
    manifest, _ = partition_snapshot(store, tmp, SHARDS)
    backends = []
    for entry in manifest.shards:
        engine = QueryEngine.from_snapshot(
            tmp / entry.store / entry.snapshot_id)
        backends.append(
            CommunityService(engine, port=0, workers=2).start())
    yield manifest, tmp, [b.url for b in backends]
    for backend in backends:
        backend.shutdown()


@pytest.fixture(params=("threaded", "async"),
                ids=("front_threaded", "front_async"))
def router(request, shard_fleet):
    """A started router of the parametrized flavor over the fleet."""
    manifest, tmp, urls = shard_fleet
    cls = RouterService if request.param == "threaded" \
        else AsyncRouterService
    service = cls(manifest, urls, root=tmp).start()
    yield request.param, service
    service.shutdown()


def _workload(params):
    """A mixed top-k request list spanning the paper's sweep axes."""
    cells = [(params.query(), params.default_rmax)]
    cells += [(params.query(l=l), params.default_rmax)
              for l in params.l_values[:2]]
    cells += [(params.query(), rmax) for rmax in params.rmax_values[:2]]
    return [{"keywords": keywords, "rmax": rmax, "k": 5}
            for keywords, rmax in cells]


def _closed_loop(url, requests, clients, requests_each):
    """``clients`` closed-loop workers; returns (latencies, seconds)."""
    latencies = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def worker(worker_id):
        client = ServiceClient(url, timeout=60.0)
        barrier.wait()
        for i in range(requests_each):
            body = requests[(worker_id + i) % len(requests)]
            start = time.perf_counter()
            response = client.request("POST", "/query", body)
            elapsed = time.perf_counter() - start
            assert response["count"] >= 0
            with lock:
                latencies.append(elapsed)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    return latencies, time.perf_counter() - start


def test_front_end_throughput(benchmark, dblp, router):
    """Sustained routed QPS and latency percentiles per front end."""
    front_end, service = router
    requests = _workload(dblp.params)

    # Warm every backend's projection cache once per cell, so the
    # measured rounds compare serving paths rather than cold starts.
    warm = ServiceClient(service.url, timeout=60.0)
    for body in requests:
        warm.request("POST", "/query", body)

    rounds = []

    def round_trip():
        latencies, elapsed = _closed_loop(
            service.url, requests, CLIENTS, REQUESTS_PER_CLIENT)
        rounds.append((latencies, len(latencies) / elapsed))

    benchmark.pedantic(round_trip, rounds=ROUNDS, iterations=1)
    latencies = sorted(lat for sample, _ in rounds for lat in sample)
    qps = statistics.median(rate for _, rate in rounds)
    benchmark.extra_info.update({
        "front_end": front_end,
        "shards": SHARDS,
        "clients": CLIENTS,
        "requests": len(latencies),
        "qps": round(qps, 2),
        "p50_ms": round(
            latencies[len(latencies) // 2] * 1e3, 2),
        "p95_ms": round(
            latencies[int(len(latencies) * 0.95) - 1] * 1e3, 2),
    })
