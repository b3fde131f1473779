"""Where the traced run wraps the program, one function per role.

Every wrapper sits on a public entry point of a layer, in the module
where callers look the name up. The span names are the layer names
the report uses:

========================  =============================================
span                      wrapped callable
========================  =============================================
``server.handle``         ``CommunityService.handle`` (request id from
                          the ``?rid=`` the load generator appends, or
                          the bare path when there is none)
``admission.run``         ``AdmissionController.run``; ``value`` is the
                          queue wait before the job started
``pool.execute``          ``ParallelQueryEngine.execute``; ``value`` is
                          the worker-reported stage seconds
``serialize.to_dict``     ``results_to_dict`` as imported by the server
``serialize.dumps``       ``json.dumps`` as called by the server
``pool.apply_delta``      ``ParallelQueryEngine.apply_delta``
``engine.apply_delta``    ``QueryEngine.apply_delta`` (parent's own)
``wal.append``            ``WriteAheadLog.append_delta``
``maintenance.*``         ``extend_database_graph`` / ``update_index``
``router.handle``         ``RouterService.handle`` (request id as for
                          ``server.handle``)
``router.leg``            ``ReplicaSet.call`` (one shard leg)
``router.fanout``         ``ThreadedFanout.fan`` (one merge round)
``router.merge``          ``merge_top_k`` as imported by the router,
                          ``RouterCore.reduce_all`` and
                          ``RouterCore.fetch_result``
``core.*``                Alg. 2/3/4 where ``comm_k``/``comm_all`` call
                          them, Alg. 6 where the engine calls it
``dijkstra``              ``bounded_dijkstra`` where Alg. 2/4/6 call it
``engine.translate``      ``translate_community`` where called
========================  =============================================

A name missing from the program (renamed by a later change) is
skipped and listed in the trace's ``missing`` entry, so the benchmark
keeps running and the report shows which layer went dark.
"""

from __future__ import annotations

import time
import types
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from spans import START, VALUE, Recorder


def rid_from_path(path: Any) -> Optional[str]:
    """The ``rid`` query parameter of a request path, if any."""
    if not isinstance(path, str) or "?" not in path:
        return None
    values = parse_qs(urlsplit(path).query).get("rid")
    return values[0] if values else None


def _handle_rid(self: Any, method: str, path: str, *rest: Any) -> Any:
    """The request id the load generator appended, else the bare path
    (``/query`` for a router leg, ``/metrics`` for a scrape)."""
    return rid_from_path(path) or str(path).split("?", 1)[0]


def install_server(rec: Recorder) -> None:
    """Wrap the HTTP service, admission, pool, serializer, WAL and
    index maintenance of a ``serve`` process."""
    from repro.engine import engine as engine_mod
    from repro.service import admission, server
    from repro.text import maintenance

    rec.wrap(server.CommunityService, "handle", "server.handle",
             rid_of=_handle_rid)
    _wrap_admission(rec, admission.AdmissionController)
    rec.wrap(server, "results_to_dict", "serialize.to_dict")
    _wrap_json(rec, server)
    rec.wrap(engine_mod.QueryEngine, "apply_delta",
             "engine.apply_delta")
    try:
        from repro.parallel import engine as parallel
    except ImportError:
        rec.missing.append("repro.parallel.engine")
    else:
        _wrap_execute(rec, parallel.ParallelQueryEngine, "pool.execute")
        rec.wrap(parallel.ParallelQueryEngine, "apply_delta",
                 "pool.apply_delta")
    try:
        from repro.wal import log
    except ImportError:
        rec.missing.append("repro.wal.log")
    else:
        rec.wrap(log.WriteAheadLog, "append_delta", "wal.append")
    rec.wrap(maintenance, "extend_database_graph", "maintenance.extend")
    rec.wrap(maintenance, "update_index", "maintenance.update_index")


def install_router(rec: Recorder) -> None:
    """Wrap the threaded scatter-gather router of a ``serve-router``
    process."""
    from repro.shard import router, routing, transport

    rec.wrap(router.RouterService, "handle", "router.handle",
             rid_of=_handle_rid)
    rec.wrap(transport.ReplicaSet, "call", "router.leg")
    rec.wrap(router, "merge_top_k", "router.merge")
    rec.wrap(routing.RouterCore, "reduce_all", "router.merge")
    rec.wrap(routing.RouterCore, "fetch_result", "router.merge")
    fan = getattr(transport.ThreadedFanout, "fan", None)
    if fan is None:
        rec.missing.append("ThreadedFanout.fan")
        return

    def traced_fan(self: Any, calls: Any) -> Any:
        if not rec.active():
            return fan(self, calls)
        with rec.span("router.fanout"):
            carried = {key: rec.carry(call) for key, call in calls.items()}
            return fan(self, carried)

    transport.ThreadedFanout.fan = traced_fan


def install_core(rec: Recorder) -> None:
    """Wrap the paper's algorithms where the in-process engine calls
    them (the engine-imdb workload)."""
    from repro.core import comm_all, comm_k, getcommunity, neighbor, \
        projection
    from repro.engine import engine as engine_mod
    from repro.engine import stream

    for module in (comm_k, comm_all):
        rec.wrap(module, "neighbor", "core.neighbor")
        rec.wrap(module, "best_core", "core.bestcore")
        rec.wrap(module, "get_community", "core.getcommunity")
    rec.wrap(engine_mod, "run_projection", "core.project")
    for module in (neighbor, getcommunity, projection):
        rec.wrap(module, "bounded_dijkstra", "dijkstra")
    rec.wrap(engine_mod, "translate_community", "engine.translate")
    rec.wrap(stream, "translate_community", "engine.translate")


# ----------------------------------------------------------------------
def _wrap_admission(rec: Recorder, cls: Any) -> None:
    """``admission.run`` spans whose ``value`` is the wait before the
    job started; the job runs under the span on the pool thread."""
    run = getattr(cls, "run", None)
    if run is None:
        rec.missing.append("AdmissionController.run")
        return

    def traced_run(self: Any, fn: Any, deadline_seconds: Any = None
                   ) -> Any:
        if not rec.active():
            return run(self, fn, deadline_seconds)
        started = []
        with rec.span("admission.run") as span:
            context = rec.current()

            def job(remaining: Any) -> Any:
                started.append(time.perf_counter())
                with rec.adopt(context):
                    return fn(remaining)
            try:
                return run(self, job, deadline_seconds)
            finally:
                span[VALUE] = ((started[0] if started
                                else time.perf_counter()) - span[START])

    cls.run = traced_run


def _wrap_execute(rec: Recorder, cls: Any, name: str) -> None:
    """Query-execution spans whose ``value`` is the stage seconds the
    engine (or its pool workers) reported into the query context."""
    execute = getattr(cls, "execute", None)
    if execute is None:
        rec.missing.append(f"{cls.__name__}.execute")
        return
    from repro.engine.context import QueryContext

    def traced_execute(self: Any, spec: Any, context: Any = None) -> Any:
        if not rec.active():
            return execute(self, spec, context)
        if context is None:
            context = QueryContext()
        before = sum(context.timings.values())
        with rec.span(name) as span:
            result = execute(self, spec, context)
            span[VALUE] = sum(context.timings.values()) - before
        return result

    cls.execute = traced_execute


def _wrap_json(rec: Recorder, module: Any) -> None:
    """Time ``json.dumps`` as ``module`` calls it, by giving the module
    a ``json`` namespace whose ``dumps`` records a span."""
    real = getattr(module, "json", None)
    if real is None:
        rec.missing.append(f"{module.__name__}.json")
        return
    proxy = types.SimpleNamespace(**{
        name: getattr(real, name) for name in dir(real)
        if not name.startswith("__")})
    rec.wrap(proxy, "dumps", "serialize.dumps")
    module.json = proxy
