"""Worker-process entry point for the parallel query pool.

Each worker is a separate OS process that loads its own
:class:`~repro.engine.QueryEngine` from the *same published snapshot*
the parent serves, then answers tasks from its private task queue
until it receives the ``None`` shutdown sentinel. Because snapshots
are immutable content-addressed artifacts, N workers loading the same
snapshot id are guaranteed to agree on every answer — the pool never
ships graphs over the queues, only :class:`~repro.engine.spec.QuerySpec`
objects in and :class:`~repro.core.community.Community` tuples out.

Task protocol (all tuples, all picklable):

* in:  ``(request_id, op, payload)`` where ``op`` is one of
  ``query`` / ``reload`` / ``stats`` / ``ping`` / ``warm`` (a list
  of specs executed into the worker's private result cache — only
  the warmed count returns, never the communities) / ``delta`` (an
  ``(lsn, wire_delta, banks_reweight)`` triple applied through the
  worker engine's idempotent-per-LSN ``apply_delta``);
* out: ``(request_id, worker_id, "started", None)`` the moment the
  task is picked off the queue — the pool's watchdog starts the
  request lease here, so queue wait behind earlier tasks never
  counts against it — then ``(request_id, worker_id, "ok", result)``,
  ``(request_id, worker_id, "query_error", message)`` for a
  :class:`~repro.exceptions.QueryError` (a bad query, not a broken
  worker — the parent re-raises it as ``QueryError`` so the service
  still answers 400, exactly as in-process execution would), or
  ``(request_id, worker_id, "error", "ExcType: message")`` for
  anything else (re-raised as
  :class:`~repro.exceptions.WorkerError`).

A ``query`` returns ``(communities, timings, counters)`` so the
parent can merge the worker's per-stage wall-clock and cache counters
into its own :class:`~repro.engine.context.QueryContext` — that is
how ``/metrics`` keeps aggregating stage timings when execution moves
out of process. ``stats`` reports the worker's identity (pid,
snapshot id, generation) plus its private projection-cache and
Dijkstra-memo counters; ``reload`` re-points the worker at a snapshot
path and returns the adopted snapshot id.

When the pool carries a WAL path, every worker incarnation replays
the log's pending deltas right after loading its snapshot — at first
spawn, at watchdog respawn, and after every ``reload`` — so a fresh
process converges with the parent's delta state before it answers
anything. Replay and broadcast can race (a respawn replaying while
the parent broadcasts the next delta); the per-LSN idempotency in
:meth:`~repro.engine.engine.QueryEngine.apply_delta` makes the order
irrelevant.

Any exception inside a task is caught and reported as an ``error``
result — a worker only exits on the sentinel, a hard crash (which
the pool's monitor detects and repairs), or on noticing it has been
orphaned: the task loop polls with a timeout and exits when its
parent pid changes, so a hard-killed (``kill -9``) server never
leaks worker processes that block on the queue forever.
"""

from __future__ import annotations

import os
import queue as queue_mod
from typing import Any, Dict, Tuple

from repro import faults
from repro.engine.context import QueryContext
from repro.engine.engine import QueryEngine
from repro.engine.spec import QuerySpec
from repro.exceptions import QueryError
from repro.graph.dijkstra import _thread_memo


def _run_query(engine: QueryEngine, spec: QuerySpec) -> Tuple:
    """Execute one spec; returns (communities, timings, counters)."""
    context = QueryContext()
    communities = engine.execute(spec, context)
    return (communities, dict(context.timings),
            dict(context.counters))


def _stats(worker_id: int, engine: QueryEngine) -> Dict[str, Any]:
    """This worker's identity and private counters."""
    memo = _thread_memo()
    payload: Dict[str, Any] = {
        "worker": worker_id,
        "pid": os.getpid(),
        "snapshot_id": engine.snapshot_id,
        "generation": engine.generation,
        "dijkstra_memo_hits": memo.hits,
        "dijkstra_memo_misses": memo.misses,
    }
    payload.update(engine.cache.stats.as_dict())
    payload.update(engine.results.as_dict())
    return payload


def _reload(worker_id: int, engine: QueryEngine, path: str,
            wal_path: Any = None) -> Dict[str, Any]:
    """Swap this worker onto the snapshot at ``path``."""
    faults.hit("worker.reload")
    faults.hit(f"worker.{worker_id}.reload")
    snapshot = engine.load_snapshot(path)
    if wal_path is not None:
        from repro.wal.log import replay
        replay(engine, wal_path)
    return {"snapshot_id": snapshot.id,
            "generation": engine.generation}


def _apply_delta(worker_id: int, engine: QueryEngine,
                 payload: Tuple) -> Dict[str, Any]:
    """Apply one broadcast delta (idempotent per LSN)."""
    from repro.wal.records import delta_from_wire
    faults.hit("worker.delta")
    faults.hit(f"worker.{worker_id}.delta")
    lsn, wire, banks_reweight = payload
    engine.apply_delta(delta_from_wire(wire), bool(banks_reweight),
                       lsn=lsn)
    return {"applied_lsn": engine.applied_lsn,
            "generation": engine.generation}


def worker_main(worker_id: int, snapshot_path: str, task_queue: Any,
                result_queue: Any,
                result_cache_bytes: Any = None,
                wal_path: Any = None) -> None:
    """Process target: load the snapshot, serve tasks until sentinel.

    The worker maps the snapshot, so every worker shares one
    page-cache copy of the sections and spawn (and watchdog respawn,
    and reload) skips any deserialization.
    """
    # A spawned (not forked) worker starts with a fresh interpreter:
    # re-read REPRO_FAILPOINTS so chaos scenarios reach it too.
    faults.reload_env()
    faults.hit("worker.start")
    faults.hit(f"worker.{worker_id}.start")
    engine = QueryEngine.from_snapshot(
        snapshot_path, result_cache_bytes=result_cache_bytes,
        wal_path=wal_path)
    parent = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=5.0)
        except queue_mod.Empty:
            # A hard-killed parent (kill -9, a fired ``exit``
            # failpoint) can never send the shutdown sentinel; the
            # reparented orphan would otherwise block here forever,
            # holding the server's inherited pipes and fds open.
            if os.getppid() != parent:
                break
            continue
        if task is None:
            break
        request_id, op, payload = task
        result_queue.put((request_id, worker_id, "started", None))
        try:
            if op == "query":
                faults.hit("worker.exec")
                faults.hit(f"worker.{worker_id}.exec")
                result: Any = _run_query(engine, payload)
            elif op == "stats":
                result = _stats(worker_id, engine)
            elif op == "reload":
                result = _reload(worker_id, engine, payload,
                                 wal_path)
            elif op == "delta":
                result = _apply_delta(worker_id, engine, payload)
            elif op == "warm":
                # Pre-warm this worker's private result cache; no
                # communities cross the queue, just the count.
                result = {"warmed": engine.warm(payload)}
            elif op == "ping":
                result = {"worker": worker_id, "pid": os.getpid()}
            else:
                raise ValueError(f"unknown pool op {op!r}")
            result_queue.put((request_id, worker_id, "ok", result))
        except QueryError as error:
            # A bad query, not a broken worker — keep the error's
            # identity so the parent answers 400, not 500.
            result_queue.put(
                (request_id, worker_id, "query_error", str(error)))
        except Exception as error:  # noqa: BLE001 — boundary: report
            # the failure to the parent instead of dying.
            result_queue.put(
                (request_id, worker_id, "error",
                 f"{type(error).__name__}: {error}"))
