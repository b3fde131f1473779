"""The scatter-gather router front end.

:class:`RouterService` is the thread-per-request front end of a
sharded deployment. The routing *policy* — spec validation against
the manifest's keyword Blooms, ownership filtering, the
partial-result contract, fleet health roll-up, verify-then-rollback
reloads, metrics — lives in the socketless
:class:`~repro.shard.routing.RouterCore`, and the exact overfetching
k-way merge in :func:`~repro.shard.merge.merge_top_k`. This module
owns the transport: a :class:`~repro.shard.transport.ReplicaSet`
of keep-alive clients per shard (failing legs over to sibling boxes
before giving a shard up), a :class:`~repro.shard.transport.
ThreadedFanout` pool for concurrent rounds, and the
``ThreadingHTTPServer`` socket plumbing.

Endpoints mirror the single-box service where they overlap:

* ``POST /query`` — fanned to the shards whose Bloom admits every
  keyword; PDk answers come from the exact overfetching k-way merge,
  PDall from the ownership-filtered union in canonical ``(cost,
  core)`` order. The response envelope adds ``shards_answered`` /
  ``shards_total`` / ``partial``: a shard whose whole replica set
  times out, sheds, or crashes mid-fan-out costs *coverage*, not
  availability — the router answers ``200`` with what the live
  shards proved.
* ``POST /batch`` — shard-aware batching: one ``/batch`` per shard
  carrying exactly the entries that shard is eligible for, answers
  reassembled per entry (each entry gets its own partiality fields).
* ``GET /healthz`` — aggregated fleet health (per-shard rows with
  per-replica detail plus a rolled-up status).
* ``GET /metrics`` — ``repro_router_*`` counters/gauges (including
  ``repro_router_failover_total``) plus per-shard fan-out latency
  histograms.
* ``POST /admin/reload`` — re-reads the routing manifest and
  broadcasts per-replica reloads with rollback; with
  ``{"transfer": true}`` each shard snapshot is pushed over the wire
  first (see :func:`~repro.shard.routing.reload_fleet`).

The router holds no query state between requests — overfetch rounds
re-ask shards with larger ``k`` (queries are idempotent stateless
reads, retried by the client layer on torn connections), so any
number of router replicas can sit behind one load balancer.
"""

from __future__ import annotations

import json
import threading
import time
from functools import partial
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.community import Community
from repro.exceptions import QueryError, ServiceError, WorkerError
from repro.service.client import ServiceClient
from repro.service.errors import BadRequest, NotFound
from repro.service.server import (
    JSON_CONTENT_TYPE,
    METRICS_CONTENT_TYPE,
    Response,
    ServiceHandler,
)
from repro.shard.manifest import RoutingManifest
from repro.shard.merge import FetchManyFn, FetchResult, merge_top_k
from repro.shard.routing import (
    DEFAULT_SHARD_RETRIES,
    DEFAULT_SHARD_TIMEOUT,
    QueryPlan,
    RouterCore,
    build_replica_sets,
    reload_fleet,
)
from repro.shard.transport import ThreadedFanout

PathLike = Union[str, Path]


class RouterService:
    """Scatter-gather front end over per-shard community services.

    Each ``shard_urls`` entry names one shard's replica set — a
    single URL, or comma-separated sibling URLs that serve the same
    shard snapshot (``"http://a:8420,http://b:8420"``); entry ``i``
    serves shard ``i``. ``root`` is the partition root the manifest
    was loaded from; ``/admin/reload`` re-reads it and resolves
    per-shard stores against it. The service is socketless until
    :meth:`start`, and :meth:`handle` is directly testable — the
    same contract as :class:`~repro.service.CommunityService`.
    """

    def __init__(self, manifest: RoutingManifest,
                 shard_urls: List[str],
                 root: Optional[PathLike] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 shard_timeout: float = DEFAULT_SHARD_TIMEOUT,
                 shard_retries: int = DEFAULT_SHARD_RETRIES,
                 retry_seed: Optional[int] = None) -> None:
        self.core = RouterCore(manifest, root=root)
        self.replica_sets = build_replica_sets(
            manifest, shard_urls, self.core,
            lambda url: ServiceClient(url, timeout=shard_timeout,
                                      retries=shard_retries,
                                      retry_seed=retry_seed))
        self._fanout = ThreadedFanout(
            2 * sum(len(r.urls) for r in self.replica_sets))
        self._httpd = ThreadingHTTPServer((host, port), ServiceHandler)
        self._httpd.daemon_threads = True                 # type: ignore[attr-defined]
        self._httpd.service = self                        # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def manifest(self) -> RoutingManifest:
        """The live routing manifest (current generation)."""
        return self.core.capture()

    @property
    def root(self) -> Optional[Path]:
        """The partition root reloads resolve against."""
        return self.core.root

    @property
    def metrics(self):
        """The request-latency metrics registry (shared with core)."""
        return self.core.metrics

    # ------------------------------------------------------------------
    # lifecycle (same surface as CommunityService)
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound interface."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound (possibly ephemeral) port."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RouterService":
        """Serve on a background thread; returns ``self``."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True,
                name="repro-router-accept")
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._serving = True
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and release the fan-out pool."""
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._fanout.shutdown()
        for replicas in self.replica_sets:
            replicas.close()

    def __enter__(self) -> "RouterService":
        """Context-manager entry (the server need not be started)."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: always shut down."""
        self.shutdown()

    # ------------------------------------------------------------------
    # routing (mirrors CommunityService.handle)
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes) -> Response:
        """Serve one request; never raises."""
        start = time.perf_counter()
        parts = tuple(p for p in path.split("?", 1)[0].split("/") if p)
        template = "/" + "/".join(parts[:2]) if parts else "/"
        try:
            template, result, content_type = self._route(
                method, parts, body)
            status, payload = 200, result
        except ServiceError as error:
            status = error.status
            payload = json.dumps(
                {"error": str(error), "status": status})
            content_type = JSON_CONTENT_TYPE
        except (QueryError, WorkerError) as error:
            status = 400 if isinstance(error, QueryError) else 503
            payload = json.dumps(
                {"error": str(error), "status": status})
            content_type = JSON_CONTENT_TYPE
        except Exception as error:  # noqa: BLE001 — boundary: any bug
            # becomes a 500 response rather than a dead connection.
            status = 500
            payload = json.dumps({"error": str(error), "status": 500})
            content_type = JSON_CONTENT_TYPE
        self.core.metrics.observe_request(template, status,
                                          time.perf_counter() - start)
        return status, template, payload, content_type

    def _route(self, method: str, parts: Tuple[str, ...],
               body: bytes) -> Tuple[str, str, str]:
        """Dispatch to a handler; returns (template, body, type)."""
        if method == "GET" and parts == ("metrics",):
            return "/metrics", self.render_metrics(), \
                METRICS_CONTENT_TYPE
        if method == "GET" and parts == ("healthz",):
            return "/healthz", json.dumps(self._health()), \
                JSON_CONTENT_TYPE
        if method == "POST" and parts == ("query",):
            return "/query", json.dumps(self._query(body)), \
                JSON_CONTENT_TYPE
        if method == "POST" and parts == ("batch",):
            return "/batch", json.dumps(self._batch(body)), \
                JSON_CONTENT_TYPE
        if method == "POST" and parts == ("admin", "reload"):
            return "/admin/reload", \
                json.dumps(reload_fleet(self.core, self.replica_sets,
                                        body)), \
                JSON_CONTENT_TYPE
        raise NotFound(f"no route {method} /{'/'.join(parts)}")

    # ------------------------------------------------------------------
    # fan-out plumbing
    # ------------------------------------------------------------------
    def _leg(self, shard_id: int, path: str,
             payload: Dict[str, Any]) -> Any:
        """One ``POST`` leg to a shard; returns the response dict, or
        the error that killed the leg (after client retries and
        replica failover)."""
        self.core.count("fanout_legs")
        start = time.perf_counter()
        status = 200
        try:
            result = self.replica_sets[shard_id].call(
                lambda client: client.request(
                    "POST", path, payload, idempotent=True))
        except ServiceError as error:
            status, result = getattr(error, "status", 500), error
        self.core.observe_leg(shard_id, status,
                              time.perf_counter() - start)
        return result

    def _fetch_many(self, plan: QueryPlan,
                    first: Optional[Dict[int, Any]] = None
                    ) -> FetchManyFn:
        """A :func:`merge_top_k` fetcher bound to one query plan.

        ``first`` holds round-1 replies a ``/batch`` leg already
        fetched; each is served once, and every other fetch is a
        fresh ``/query`` leg.
        """
        first = dict(first or {})

        def fetch_one(shard_id: int,
                      want: int) -> Optional[FetchResult]:
            """Fetch + filter one shard's first ``want`` answers."""
            if shard_id in first:
                result = first.pop(shard_id)
            else:
                result = self._leg(shard_id, "/query",
                                   self.core.shard_payload(
                                       plan.spec, want, plan.deadline,
                                       plan.want_labels))
            return self.core.fetch_result(plan, shard_id, result,
                                          want)

        def fetch_many(wants: Dict[int, int]
                       ) -> Dict[int, Optional[FetchResult]]:
            """One concurrent overfetch round; a leg's client error
            (raised by :meth:`RouterCore.leg_empty` on its fan-out
            thread) fails the whole query, on the request thread."""
            results = self._fanout.fan({
                shard_id: partial(fetch_one, shard_id, want)
                for shard_id, want in wants.items()})
            for result in results.values():
                if isinstance(result, BadRequest):
                    raise result
            return results

        return fetch_many

    def _answer(self, plan: QueryPlan,
                first: Optional[Dict[int, Any]] = None
                ) -> Tuple[List[Community], int]:
        """One query's merged answer and how many shards delivered.

        PDk goes through the exact overfetching merge, PDall through
        one fan-out round and the ownership-filtered union. ``first``
        holds replies a ``/batch`` leg already fetched; every eligible
        shard missing from it gets a fresh ``/query`` leg.
        """
        if plan.spec.mode == "topk":
            outcome = merge_top_k(self._fetch_many(plan, first),
                                  plan.eligible, plan.spec.k or 0)
            self.core.note_topk(outcome)
            communities = outcome.communities
            answered, failed = outcome.answered, outcome.failed
        else:
            replies = dict(first or {})
            payload = self.core.shard_payload(
                plan.spec, None, plan.deadline, plan.want_labels)
            replies.update(self._fanout.fan({
                shard_id: partial(self._leg, shard_id, "/query",
                                  payload)
                for shard_id in plan.eligible
                if shard_id not in replies}))
            communities, answered, failed = \
                self.core.reduce_all(plan, replies)
        self.core.note_partial(failed)
        return communities, len(answered)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _query(self, body: bytes) -> Dict[str, Any]:
        """``POST /query``: scatter, filter, merge, gather."""
        plan = self.core.parse_query(body)
        start = time.perf_counter()
        communities, answered = self._answer(plan)
        return self.core.envelope(
            plan, communities, answered=answered,
            elapsed=time.perf_counter() - start)

    def _batch(self, body: bytes) -> Dict[str, Any]:
        """``POST /batch``: shard-aware batched scatter-gather.

        Round 1 sends each shard **one** ``/batch`` containing
        exactly the entries it is eligible for — one HTTP round-trip
        keeps every shard's worker pool busy, which is the point of
        batching. Top-k entries that then fail the exactness check
        (a shard's filtered prefix ran short) refetch individually
        with doubled ``k`` — rare, and still stateless. A shard that
        400s its whole batch (one entry's unknown keyword or bad
        ``rmax`` fails all of them) is re-asked per entry, so each
        entry gets its own verdict.
        """
        plans, deadline, want_labels = self.core.parse_batch(body)
        start = time.perf_counter()
        by_shard: Dict[int, List[int]] = {}
        for entry_index, plan in enumerate(plans):
            for shard_id in plan.eligible:
                by_shard.setdefault(shard_id, []).append(entry_index)
        options: Dict[str, Any] = {}
        if deadline is not None:
            options["deadline_seconds"] = deadline
        if want_labels:
            options["labels"] = True
        round_one = self._fanout.fan({
            shard_id: partial(self._leg, shard_id, "/batch", {
                "queries": [self.core.shard_payload(
                    plans[i].spec, plans[i].spec.k, deadline,
                    want_labels) for i in indexes],
                **options})
            for shard_id, indexes in by_shard.items()})

        # Per entry, round 1 comes from the shard batch replies (a
        # failed shard batch stands in as that shard's error, except
        # a 400, which is re-asked per entry).
        envelopes = []
        for entry_index, plan in enumerate(plans):
            first = {}
            for shard_id in plan.eligible:
                result = round_one[shard_id]
                if isinstance(result, BadRequest):
                    continue
                if isinstance(result, dict):
                    position = by_shard[shard_id].index(entry_index)
                    result = result["results"][position]
                first[shard_id] = result
            communities, answered = self._answer(plan, first)
            envelopes.append(self.core.envelope(
                plan, communities, answered=answered))
        return {
            "queries": len(envelopes),
            "results": envelopes,
            "elapsed_seconds": time.perf_counter() - start,
        }

    # ------------------------------------------------------------------
    # health + metrics
    # ------------------------------------------------------------------
    def _health(self) -> Dict[str, Any]:
        """``GET /healthz``: fan health probes to every replica."""
        manifest = self.core.capture()
        responses = self._fanout.fan({
            (replicas.shard_id, index): client.health
            for replicas in self.replica_sets
            for index, client in enumerate(replicas.clients)})
        return self.core.health_payload(manifest, self.replica_sets,
                                        responses)

    def render_metrics(self) -> str:
        """One Prometheus scrape of the router."""
        return self.core.render_metrics(self.replica_sets)
