"""The community-query service: threaded HTTP/JSON over one engine.

:class:`CommunityService` puts a network front on
:class:`~repro.engine.QueryEngine` using only the standard library
(``http.server.ThreadingHTTPServer``). Endpoints:

* ``POST /query`` — one-shot COMM-all / COMM-k; body mirrors
  :class:`~repro.engine.QuerySpec` (``keywords``, ``rmax``, ``k`` or
  ``mode``, ``algorithm``, ``aggregate``, ``deadline_seconds``,
  ``labels``);
* ``POST /batch`` — a list of such queries in one request, answered
  in order; with a :class:`~repro.parallel.ParallelQueryEngine` the
  entries execute concurrently across the worker processes;
* ``POST /sessions`` — open an interactive PDk session (projection +
  heap seeding happen here, once);
* ``POST /sessions/{id}/next`` — enlarge ``k``: up to ``k`` further
  ranked answers with **no** re-projection or re-seeding (the leased
  stream resumes); ``410 Gone`` once the lease expired or the graph
  changed under it;
* ``DELETE /sessions/{id}`` — release a lease early;
* ``POST /admin/reload`` — atomically swap the engine onto the newest
  published snapshot (from the configured ``snapshot_source`` or a
  ``path`` in the body); in-flight queries finish on the artifact they
  started with, open sessions from the old artifact answer ``410``,
  and the adopted generation's result cache is re-warmed with the
  query log's hottest specs before the response returns;
* ``POST /admin/delta`` — online ingestion: a validated
  :class:`~repro.text.maintenance.GraphDelta` body is appended to the
  delta WAL (when one is attached) *before* the engine applies it —
  the acknowledgment (the returned ``lsn``) is durable. Malformed
  deltas (duplicate node ids, unknown edge endpoints, NaN/negative
  weights) answer a typed 400 before touching either;
* ``GET /admin/querylog`` — the ring-buffer ledger of admitted query
  specs (normalized keys + counts), for offline hot-key mining
  (``python -m repro warm``);
* ``GET /metrics`` — Prometheus text format (stage timings, cache and
  shedding counters, queue depth, latency histograms, active snapshot
  id + load timestamp);
* ``GET /healthz`` — liveness plus the current engine generation and
  snapshot id.

Every query-executing route passes through the
:class:`~repro.service.admission.AdmissionController`: a full queue
sheds with ``429`` immediately, and the per-request deadline both
bounds the wait (``503``) and flows into ``QuerySpec.budget_seconds``
so the BU/TD baselines self-censor. Connection threads (unbounded,
cheap — they mostly block on the admission future) are therefore
decoupled from query threads (bounded, hot).

Routing and handling live on :meth:`CommunityService.handle`, which is
plain ``(method, path, body) -> (status, template, payload)`` — unit
tests exercise it without a socket; the integration suite drives the
real server through :class:`~repro.service.client.ServiceClient`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import faults
from repro.engine.context import QueryContext
from repro.engine.engine import QueryEngine
from repro.engine.spec import QuerySpec
from repro.exceptions import (
    QueryError,
    ServiceError,
    SnapshotError,
    SnapshotNotFoundError,
    WorkerError,
)
from repro.snapshot.snapshot import load_snapshot
from repro.snapshot.store import locate_snapshot
from repro.wal.records import parse_delta
from repro.service.admission import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_WORKERS,
    AdmissionController,
)
from repro.service.errors import BadRequest, Conflict, NotFound, \
    ShuttingDown
from repro.service.http import (
    SnapshotTransfer,
    route_snapshot_transfer,
    snapshot_store_of,
)
from repro.service.metrics import ServiceMetrics, prefixed, split_rates
from repro.service.querylog import DEFAULT_QUERYLOG_CAPACITY, QueryLog
from repro.service.serialize import (
    community_to_dict,
    context_to_dict,
    results_to_dict,
)
from repro.service.sessions import (
    DEFAULT_MAX_SESSIONS,
    DEFAULT_TTL_SECONDS,
    SessionLease,
    SessionManager,
)

#: Content type for the Prometheus exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds :meth:`CommunityService.shutdown` waits for in-flight and
#: queued work before tearing the admission pool down hard.
DEFAULT_DRAIN_SECONDS = 5.0

#: ``Retry-After`` value (seconds) sent with 429/503 sheds.
RETRY_AFTER_SECONDS = 1

#: How many of the query log's hottest specs the service replays into
#: the result cache right after a reload adopts a new generation.
DEFAULT_WARM_TOP = 8

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: One response: status, metric path template, body (text for
#: JSON/metrics, raw bytes for snapshot sections), content type.
Response = Tuple[int, str, Union[str, bytes], str]


def _parse_body(body: bytes) -> Dict[str, Any]:
    """The request body as a JSON object (empty body -> ``{}``)."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise BadRequest(f"request body is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    return payload


def _keywords_of(payload: Dict[str, Any]) -> List[str]:
    """The ``keywords`` field: a list, or a comma-separated string."""
    keywords = payload.get("keywords")
    if isinstance(keywords, str):
        keywords = [kw.strip() for kw in keywords.split(",")
                    if kw.strip()]
    if not isinstance(keywords, list) or not keywords \
            or not all(isinstance(kw, str) for kw in keywords):
        raise BadRequest(
            "'keywords' must be a non-empty list of strings "
            "(or a comma-separated string)")
    return keywords


def _float_of(payload: Dict[str, Any], name: str,
              required: bool = True,
              default: Optional[float] = None) -> Optional[float]:
    """A numeric field, validated."""
    if name not in payload:
        if required:
            raise BadRequest(f"missing required field {name!r}")
        return default
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"{name!r} must be a number")
    return float(value)


def _int_of(payload: Dict[str, Any], name: str,
            default: Optional[int] = None) -> Optional[int]:
    """An integer field, validated."""
    if name not in payload:
        return default
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{name!r} must be an integer")
    return value


def _served_from_cache(context: QueryContext) -> bool:
    """Whether a query was answered purely from the result cache.

    True only for a pure prefix lookup: at least one result-cache hit
    and neither a miss nor an extension — i.e. zero enumeration work
    happened anywhere (parent or pool worker; worker counters merge
    into the same context).
    """
    return (context.counter("result_cache_hits") > 0
            and context.counter("result_cache_misses") == 0
            and context.counter("result_cache_extensions") == 0)


def _context_delta(before_timings: Dict[str, float],
                   before_counters: Dict[str, int],
                   context: QueryContext) -> QueryContext:
    """What ``context`` accumulated since the snapshot was taken.

    Session contexts are cumulative (that is how clients verify
    enlargement is free), so the service folds per-call *deltas* into
    the global metrics to avoid double counting.
    """
    delta = QueryContext()
    for name, seconds in context.timings.items():
        gained = seconds - before_timings.get(name, 0.0)
        if gained > 0:
            delta.add_time(name, gained)
    for name, value in context.counters.items():
        gained = value - before_counters.get(name, 0)
        if gained > 0:
            delta.count(name, gained)
    return delta


def content_length(value: Optional[str]) -> int:
    """A request's body length from its ``Content-Length`` header.

    An absent header means no body. Anything but a plain decimal
    count raises :class:`BadRequest`: ``int()`` alone would let
    ``-5`` through (a negative read) and crash on ``abc``.
    """
    if value is None:
        return 0
    text = value.strip()
    if not (text.isascii() and text.isdigit()):
        raise BadRequest(f"malformed Content-Length {value!r}")
    return int(text)


def encode_response(status: int, content_type: str,
                    payload: Union[str, bytes], close: bool) -> bytes:
    """One whole HTTP/1.1 response: status line, headers and body.

    :class:`ServiceHandler` sends it with one write. Headers and body
    in two sends would let Nagle's algorithm hold the body back until
    the client acknowledges the headers, which on a keep-alive
    connection it delays by about 40 ms.
    """
    data = payload if isinstance(payload, bytes) \
        else payload.encode("utf-8")
    reason = http.client.responses.get(status, "")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n")
    if status in (429, 503):
        # Both shed classes are transient: tell clients when to come
        # back, so their retry loops need not guess.
        head += f"Retry-After: {RETRY_AFTER_SECONDS}\r\n"
    head += "Connection: close\r\n\r\n" if close \
        else "Connection: keep-alive\r\n\r\n"
    return head.encode("latin-1") + data


class ServiceHandler(BaseHTTPRequestHandler):
    """Per-connection glue: read body, delegate, write response.

    All routing and semantics live on the owning
    :class:`CommunityService` (``self.server.service``); this class
    only speaks HTTP. Accepted sockets run with ``TCP_NODELAY`` and
    each response leaves in one write (:func:`encode_response`).
    """

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_GET(self) -> None:            # noqa: N802 — http.server API
        """Route GET requests."""
        self._dispatch("GET")

    def do_POST(self) -> None:           # noqa: N802
        """Route POST requests."""
        self._dispatch("POST")

    def do_DELETE(self) -> None:         # noqa: N802
        """Route DELETE requests."""
        self._dispatch("DELETE")

    def do_PUT(self) -> None:            # noqa: N802
        """Route PUT requests (snapshot section uploads)."""
        self._dispatch("PUT")

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default stderr access log (metrics cover it)."""

    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        service: "CommunityService" = self.server.service  # type: ignore[attr-defined]
        try:
            length = content_length(self.headers.get("Content-Length"))
        except BadRequest as error:
            # The body cannot be skipped, so the connection closes.
            self.close_connection = True
            self.wfile.write(encode_response(
                400, JSON_CONTENT_TYPE,
                json.dumps({"error": str(error), "status": 400}),
                close=True))
            return
        body = self.rfile.read(length) if length else b""
        status, template, payload, content_type = service.handle(
            method, self.path, body)
        self.wfile.write(encode_response(
            status, content_type, payload, self.close_connection))


class CommunityService:
    """One engine served over HTTP, with admission control.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` / :attr:`url`). The service is a context manager::

        with CommunityService(engine).start() as service:
            client = ServiceClient(service.url)
            ...
    """

    def __init__(self, engine: QueryEngine,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = DEFAULT_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 session_ttl: float = DEFAULT_TTL_SECONDS,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 default_deadline: Optional[float] = None,
                 snapshot_source: Optional[Union[str, Path]] = None,
                 drain_seconds: float = DEFAULT_DRAIN_SECONDS,
                 warm_top: int = DEFAULT_WARM_TOP,
                 querylog_capacity: int = DEFAULT_QUERYLOG_CAPACITY,
                 wal: Optional[Any] = None
                 ) -> None:
        self.engine = engine
        self.default_deadline = default_deadline
        #: The delta write-ahead log (an open
        #: :class:`~repro.wal.log.WriteAheadLog`) or ``None`` —
        #: without one ``/admin/delta`` still works but acknowledged
        #: deltas die with the process.
        self.wal = wal
        #: The :class:`~repro.wal.compact.Compactor` when background
        #: compaction is on (``serve --compact-interval``); surfaced
        #: in ``/healthz`` and ``/metrics``.
        self.compactor: Optional[Any] = None
        #: Serializes delta acknowledgment (WAL append + engine
        #: apply) against compaction commits, so no delta is logged
        #: against a base that is being checkpointed away mid-append.
        self.ingest_lock = threading.Lock()
        #: How many hot specs to replay into the result cache after a
        #: generation swap (``0`` disables post-reload warming).
        self.warm_top = warm_top
        #: Ring buffer of admitted ``/query``/``/batch`` specs — the
        #: source both the post-reload warming pass and the offline
        #: miner (``GET /admin/querylog``) draw from.
        self.querylog = QueryLog(capacity=querylog_capacity)
        #: Graceful-shutdown budget: how long :meth:`shutdown` lets
        #: queued + in-flight work finish before tearing down hard.
        self.drain_seconds = drain_seconds
        #: Where ``POST /admin/reload`` looks for the newest published
        #: snapshot: a snapshot directory or a store root.
        self.snapshot_source = snapshot_source
        #: Cross-box transfer state (``/admin/snapshot...`` routes);
        #: ``None`` when no snapshot store is derivable, in which
        #: case those routes answer 400.
        store_root = snapshot_store_of(snapshot_source)
        self.snapshot_transfer = (SnapshotTransfer(store_root)
                                  if store_root is not None else None)
        self.admission = AdmissionController(
            workers=workers, queue_depth=queue_depth,
            default_deadline=default_deadline)
        self.sessions = SessionManager(
            engine, ttl_seconds=session_ttl, max_sessions=max_sessions)
        self.metrics = ServiceMetrics()
        self._httpd = ThreadingHTTPServer((host, port), ServiceHandler)
        self._httpd.daemon_threads = True                 # type: ignore[attr-defined]
        self._httpd.service = self                        # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    # ------------------------------------------------------------------
    # lifecycle
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

    def start(self) -> "CommunityService":
        """Serve on a background thread; returns ``self`` (chainable)."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True,
                name="repro-service-accept")
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._serving = True
        self._httpd.serve_forever()

    def shutdown(self, drain_seconds: Optional[float] = None) -> None:
        """Graceful stop: drain in-flight work, then tear down.

        Sequence: stop admitting (new submissions shed ``503
        ShuttingDown`` + ``Retry-After``), let queued and in-flight
        jobs finish for up to ``drain_seconds`` (default: the
        constructor's :attr:`drain_seconds`), then close the listener
        and fail whatever is left. A request admitted before SIGTERM
        therefore completes normally as long as it fits the drain
        budget.

        Safe on a service that never served a socket (tests drive
        :meth:`handle` directly): ``HTTPServer.shutdown`` blocks
        forever unless ``serve_forever`` is running, so it is only
        called when serving actually started.
        """
        if drain_seconds is None:
            drain_seconds = self.drain_seconds
        drained = self.admission.drain(drain_seconds)
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.admission.shutdown()
        #: Whether the last shutdown finished all admitted work inside
        #: the drain budget (callers/ops scripts can assert on it).
        self.drained_clean = drained

    def __enter__(self) -> "CommunityService":
        """Context-manager entry (the server need not be started)."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: always shut down."""
        self.shutdown()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes) -> Response:
        """Serve one request; never raises.

        Returns ``(status, path_template, body, content_type)``. The
        template (e.g. ``/sessions/{id}/next``) keys the latency
        histograms, so metric cardinality stays bounded however many
        session ids exist.
        """
        start = time.perf_counter()
        parts = tuple(p for p in path.split("?", 1)[0].split("/") if p)
        template = path
        try:
            faults.hit("service.request")
            template, result, content_type = self._route(
                method, parts, body)
            status, payload = 200, result
        except ServiceError as error:
            status = error.status
            template = self._error_template(template, parts)
            payload = json.dumps(
                {"error": str(error), "status": status})
            content_type = JSON_CONTENT_TYPE
        except WorkerError as error:
            # A pool worker crashed or blew its lease mid-request. The
            # request is lost but the *service* is healthy (the
            # watchdog respawned the worker), so this is transient
            # unavailability: 503 + Retry-After, not a 500.
            status = 503
            template = self._error_template(template, parts)
            payload = json.dumps({"error": str(error), "status": 503})
            content_type = JSON_CONTENT_TYPE
        except QueryError as error:
            status = 400
            template = self._error_template(template, parts)
            payload = json.dumps({"error": str(error), "status": 400})
            content_type = JSON_CONTENT_TYPE
        except Exception as error:  # noqa: BLE001 — boundary: any bug
            # becomes a 500 response rather than a dead connection.
            status = 500
            template = self._error_template(template, parts)
            payload = json.dumps({"error": str(error), "status": 500})
            content_type = JSON_CONTENT_TYPE
        self.metrics.observe_request(template, status,
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
        if method == "POST" and parts == ("admin", "reload"):
            return "/admin/reload", \
                json.dumps(self._admin_reload(body)), \
                JSON_CONTENT_TYPE
        if method == "POST" and parts == ("admin", "delta"):
            return "/admin/delta", \
                json.dumps(self._admin_delta(body)), \
                JSON_CONTENT_TYPE
        if method == "GET" and parts == ("admin", "querylog"):
            return "/admin/querylog", \
                json.dumps(self._admin_querylog()), \
                JSON_CONTENT_TYPE
        if parts[:2] == ("admin", "snapshot"):
            return route_snapshot_transfer(
                self.snapshot_transfer, method, parts, body)
        if method == "POST" and parts == ("query",):
            return "/query", json.dumps(self._query(body)), \
                JSON_CONTENT_TYPE
        if method == "POST" and parts == ("batch",):
            return "/batch", json.dumps(self._batch(body)), \
                JSON_CONTENT_TYPE
        if method == "POST" and parts == ("sessions",):
            return "/sessions", \
                json.dumps(self._session_create(body)), \
                JSON_CONTENT_TYPE
        if method == "POST" and len(parts) == 3 \
                and parts[0] == "sessions" and parts[2] == "next":
            return "/sessions/{id}/next", \
                json.dumps(self._session_next(parts[1], body)), \
                JSON_CONTENT_TYPE
        if method == "DELETE" and len(parts) == 2 \
                and parts[0] == "sessions":
            self.sessions.close(parts[1])
            return "/sessions/{id}", json.dumps({"closed": True}), \
                JSON_CONTENT_TYPE
        raise NotFound(f"no route {method} /{'/'.join(parts)}")

    @staticmethod
    def _error_template(template: str, parts: Tuple[str, ...]) -> str:
        """A bounded-cardinality metric label for failed requests."""
        if template.startswith("/") and "{" in template:
            return template          # routing already templated it
        if parts == ("admin", "reload"):
            return "/admin/reload"
        if parts == ("admin", "delta"):
            return "/admin/delta"
        if parts[:2] == ("admin", "snapshot"):
            if len(parts) == 4:
                return ("/admin/snapshot/{id}/commit"
                        if parts[3] == "commit"
                        else "/admin/snapshot/{id}/{section}")
            if len(parts) == 3:
                return "/admin/snapshot/{id}"
            return "/admin/snapshot"
        if parts[:1] == ("sessions",) and len(parts) == 3:
            return "/sessions/{id}/next"
        if parts[:1] == ("sessions",) and len(parts) == 2:
            return "/sessions/{id}"
        return "/" + "/".join(parts[:1]) if parts else "/"

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _health(self) -> Dict[str, Any]:
        """Liveness payload.

        ``status`` is ``"ok"`` normally and ``"degraded"`` once the
        pool's crash-storm breaker opened (the service still answers,
        on fewer workers) — orchestrators alert on it without parsing
        metrics."""
        health = {
            "status": "ok",
            "generation": self.engine.generation,
            "snapshot": self.engine.snapshot_id,
            # Delta divergence is surfaced whether or not a WAL is
            # attached: a dirty engine with no WAL is exactly the
            # state an operator must notice (a restart loses it).
            "dirty": bool(getattr(self.engine, "dirty", False)),
            "deltas_applied": int(getattr(self.engine,
                                          "deltas_applied", 0)),
            "sessions": self.sessions.count,
            "queued": self.admission.queued,
            "in_flight": self.admission.in_flight,
        }
        if self.wal is not None:
            wal_block = dict(self.wal.as_dict(), enabled=True,
                             dirty=health["dirty"])
            if self.compactor is not None:
                wal_block["compaction"] = self.compactor.as_dict()
                if self.compactor.degraded:
                    health["status"] = "degraded"
            health["wal"] = wal_block
        results = getattr(self.engine, "results", None)
        if results is not None:
            health["result_cache"] = results.as_dict()
        health["querylog"] = self.querylog.as_dict()
        pool = getattr(self.engine, "pool", None)
        if pool is not None:
            health["pool_workers"] = pool.workers
            health["pool_alive"] = pool.alive
            health["pool_degraded"] = pool.degraded
            if pool.degraded:
                health["status"] = "degraded"
        return health

    def _admin_reload(self, body: bytes) -> Dict[str, Any]:
        """``POST /admin/reload``: swap onto the newest snapshot.

        Resolves the configured :attr:`snapshot_source` (or a ``path``
        supplied in the body) — a snapshot directory or a store root,
        in which case the store's ``latest`` wins — loads it with
        checksum verification, and atomically swaps the engine onto
        it. A ``snapshot`` id in the body resolves against the
        service's own snapshot store instead: the cross-box form,
        used after a :func:`~repro.service.http.push_snapshot`, so no
        filesystem path crosses a box boundary. In-flight queries
        finish on the artifact they started with; a reload to a
        content-identical snapshot is a no-op that keeps the cache
        warm and open sessions valid.
        """
        faults.hit("service.reload")
        payload = _parse_body(body)
        snapshot_id = payload.get("snapshot")
        if snapshot_id is not None:
            if self.snapshot_transfer is None:
                raise BadRequest(
                    "cannot reload by snapshot id: the service has "
                    "no snapshot store (serve with --snapshot)")
            try:
                source: Any = self.snapshot_transfer.store.resolve(
                    str(snapshot_id))
            except SnapshotNotFoundError as error:
                raise NotFound(str(error))
        else:
            source = payload.get("path") or self.snapshot_source
        if source is None:
            raise BadRequest(
                "no snapshot source configured; serve with a "
                "--snapshot source or supply 'path' in the body")
        try:
            snapshot = load_snapshot(locate_snapshot(source))
        except SnapshotNotFoundError as error:
            raise NotFound(str(error))
        except SnapshotError as error:
            raise BadRequest(str(error))
        with self.ingest_lock:
            superseded = 0
            if self.wal is not None:
                # Record the supersede point *before* the swap: pool
                # workers replay the WAL as part of their reload, and
                # without a checkpoint naming the incoming snapshot
                # they would refuse it as foreign history. If the
                # swap fails and rolls back, the stale checkpoint is
                # harmless for replay of the previous snapshot but
                # the log should be compacted or the service
                # restarted (see OPERATIONS.md).
                lsn_before = self.wal.lsn
                if self.engine.generation != snapshot.id:
                    self.wal.append_checkpoint(snapshot.id,
                                               lsn_before)
            try:
                changed = self.engine.swap_snapshot(snapshot)
            except SnapshotError as error:
                # The engine already rolled everyone back to the
                # previous snapshot; report the failure without
                # pretending the request was malformed.
                raise ServiceError(str(error))
            if self.wal is not None and changed:
                # The adopted snapshot supersedes everything logged
                # before it — drop the folded prefix.
                superseded = self.wal.truncate(lsn_before)
        # An adopted new generation starts with an empty result cache
        # — re-warm it with the workload's observed head before the
        # next client asks, so the first post-reload repeats are hits.
        warmed = self.warm() if changed else 0
        result = {
            "reloaded": changed,
            "snapshot": snapshot.id,
            "generation": self.engine.generation,
            "loaded_at": self.engine.snapshot_loaded_at,
            "warmed": warmed,
        }
        if self.wal is not None:
            result["wal_superseded"] = superseded
            result["wal_lsn"] = self.wal.lsn
        return result

    def _admin_delta(self, body: bytes) -> Dict[str, Any]:
        """``POST /admin/delta``: ingest one graph delta, durably.

        Body: ``{"nodes": [...], "edges": [[u, v, w], ...],
        "banks_reweight": false}`` — the
        :class:`~repro.text.maintenance.GraphDelta` wire form.
        Validation happens first (typed 400 before any side effect),
        then, under the ingest lock, the delta is appended to the WAL
        — fsynced per the serving policy — and only then applied to
        the engine: an acknowledged LSN is always recoverable. On a
        :class:`~repro.parallel.ParallelQueryEngine` the apply also
        fans the delta out to every pool worker.

        A shard backend refuses with :class:`Conflict` (409) before
        any side effect: the delta's ids are shard-local, and applying
        it would leave the halo copies on other shards stale and let
        replicas of this shard drift apart.
        """
        faults.hit("service.delta")
        partition = getattr(self.engine, "partition", None)
        if partition is not None:
            raise Conflict(
                f"this service serves shard {partition.get('shard')} "
                f"of {partition.get('of')}; a shard cannot apply a "
                f"delta on its own (its halo copies on other shards "
                f"would go stale)")
        payload = _parse_body(body)
        banks = payload.get("banks_reweight", False)
        if not isinstance(banks, bool):
            raise BadRequest("'banks_reweight' must be a boolean")
        delta = parse_delta(payload, base_nodes=self.engine.dbg.n)
        with self.ingest_lock:
            lsn = None
            if self.wal is not None:
                lsn = self.wal.append_delta(
                    delta,
                    base=getattr(self.engine, "base_snapshot_id",
                                 None),
                    banks_reweight=banks)
            self.engine.apply_delta(delta, banks, lsn=lsn)
        # Sessions opened against the pre-delta generation now answer
        # 410 on their next call; that is the same contract a reload
        # imposes, and clients already handle it.
        result = {
            "lsn": lsn,
            "nodes_added": delta.node_count(),
            "edges_added": len(delta.new_edges),
            "generation": self.engine.generation,
            "dirty": getattr(self.engine, "dirty", True),
            "deltas_applied": getattr(self.engine, "deltas_applied",
                                      0),
        }
        if self.wal is not None:
            result["pending_deltas"] = self.wal.pending_count
        return result

    def _admin_querylog(self) -> Dict[str, Any]:
        """``GET /admin/querylog``: the hot-spec ledger, for miners."""
        return {
            "querylog": self.querylog.as_dict(),
            "top": self.querylog.top(),
        }

    def warm(self, specs: Optional[List[QuerySpec]] = None,
             top: Optional[int] = None) -> int:
        """Replay specs into the engine's result cache (best effort).

        With no ``specs``, mines this service's own query log for its
        ``top`` (default :attr:`warm_top`) hottest entries. Returns
        how many specs were actually computed into the cache (already
        -warm and uncacheable specs don't count). Warming is an
        optimization: any failure degrades to a cold cache, never to
        a failed request.
        """
        if specs is None:
            limit = self.warm_top if top is None else top
            if not limit:
                return 0
            specs = self.querylog.top_specs(limit)
        if not specs:
            return 0
        warm = getattr(self.engine, "warm", None)
        if warm is None:
            return 0
        try:
            return int(warm(list(specs)))
        except Exception:  # noqa: BLE001 — warming must never take
            # the service down; a cold cache just recomputes.
            return 0

    @staticmethod
    def _spec_of(payload: Dict[str, Any]) -> QuerySpec:
        """A validated :class:`QuerySpec` from one query payload."""
        keywords = _keywords_of(payload)
        rmax = _float_of(payload, "rmax")
        k = _int_of(payload, "k")
        mode = payload.get("mode") or ("topk" if k is not None
                                       else "all")
        return QuerySpec(
            tuple(keywords), rmax, mode=mode, k=k,
            algorithm=payload.get("algorithm", "pd"),
            aggregate=payload.get("aggregate", "sum"),
            budget_seconds=_float_of(payload, "budget_seconds",
                                     required=False))

    @staticmethod
    def _clamp_budget(spec: QuerySpec,
                      remaining: Optional[float]) -> QuerySpec:
        """Tighten the spec's budget to the admission deadline."""
        if remaining is not None and (
                spec.budget_seconds is None
                or remaining < spec.budget_seconds):
            return replace(spec, budget_seconds=remaining)
        return spec

    def _query(self, body: bytes) -> Dict[str, Any]:
        """``POST /query``: one-shot COMM-all / COMM-k."""
        payload = _parse_body(body)
        spec = self._spec_of(payload)
        deadline = _float_of(payload, "deadline_seconds",
                             required=False,
                             default=self.default_deadline)
        want_labels = bool(payload.get("labels", False))
        context = QueryContext()
        start = time.perf_counter()

        def job(remaining: Optional[float]) -> Any:
            return self.engine.execute(
                self._clamp_budget(spec, remaining), context)

        results = self.admission.run(job, deadline)
        self.metrics.observe_context(context)
        self.querylog.record(spec)
        return results_to_dict(
            results,
            dbg=self.engine.dbg if want_labels else None,
            context=context, spec=spec,
            elapsed_seconds=time.perf_counter() - start,
            cached=_served_from_cache(context))

    def _batch(self, body: bytes) -> Dict[str, Any]:
        """``POST /batch``: fan a list of queries across the pool.

        Body: ``{"queries": [<query payload>, ...]}`` plus optional
        batch-wide ``deadline_seconds``/``labels``. The batch is one
        admission job (one queue slot, one deadline) but its queries
        run **concurrently** when the engine is a
        :class:`~repro.parallel.ParallelQueryEngine` — that is the
        whole point: one HTTP round-trip keeps every worker process
        busy. Results come back in request order, one standard query
        envelope per entry, each with its own per-query stats.

        On a plain in-process engine the batch degrades gracefully to
        a sequential loop with identical semantics.
        """
        payload = _parse_body(body)
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise BadRequest(
                "'queries' must be a non-empty list of query objects")
        if not all(isinstance(q, dict) for q in queries):
            raise BadRequest("every batch entry must be an object")
        specs = [self._spec_of(query) for query in queries]
        deadline = _float_of(payload, "deadline_seconds",
                             required=False,
                             default=self.default_deadline)
        want_labels = bool(payload.get("labels", False))
        contexts = [QueryContext() for _ in specs]
        start = time.perf_counter()

        def job(remaining: Optional[float]) -> List[Any]:
            run_specs = [self._clamp_budget(spec, remaining)
                         for spec in specs]
            fan_out = getattr(self.engine, "execute_batch", None)
            if fan_out is not None:
                return fan_out(run_specs, contexts)
            return [self.engine.execute(spec, ctx)
                    for spec, ctx in zip(run_specs, contexts)]

        all_results = self.admission.run(job, deadline)
        elapsed = time.perf_counter() - start
        dbg = self.engine.dbg if want_labels else None
        envelopes = []
        for spec, context, results in zip(specs, contexts,
                                          all_results):
            self.metrics.observe_context(context)
            self.querylog.record(spec)
            envelopes.append(results_to_dict(
                results, dbg=dbg, context=context, spec=spec,
                cached=_served_from_cache(context)))
        return {
            "queries": len(envelopes),
            "results": envelopes,
            "elapsed_seconds": elapsed,
        }

    def _session_create(self, body: bytes) -> Dict[str, Any]:
        """``POST /sessions``: lease an interactive PDk stream."""
        payload = _parse_body(body)
        keywords = _keywords_of(payload)
        rmax = _float_of(payload, "rmax")
        aggregate = payload.get("aggregate", "sum")
        ttl = _float_of(payload, "ttl_seconds", required=False)
        deadline = _float_of(payload, "deadline_seconds",
                             required=False,
                             default=self.default_deadline)

        def job(remaining: Optional[float]) -> SessionLease:
            return self.sessions.create(keywords, rmax,
                                        aggregate=aggregate,
                                        ttl_seconds=ttl)

        lease = self.admission.run(job, deadline)
        # The creation context starts empty, so the whole thing is the
        # delta to fold into the service-wide metrics.
        self.metrics.observe_context(lease.context)
        return {
            "session": lease.id,
            "generation": lease.generation,
            "ttl_seconds": lease.ttl_seconds,
            "keywords": list(lease.keywords),
            "rmax": lease.rmax,
            "stats": context_to_dict(lease.context),
        }

    def _session_next(self, session_id: str,
                      body: bytes) -> Dict[str, Any]:
        """``POST /sessions/{id}/next``: enlarge k, no recomputation."""
        payload = _parse_body(body)
        k = _int_of(payload, "k", default=10)
        deadline = _float_of(payload, "deadline_seconds",
                             required=False,
                             default=self.default_deadline)
        want_labels = bool(payload.get("labels", False))

        def job(remaining: Optional[float]) -> Any:
            lease = self.sessions.get(session_id)
            before_t = dict(lease.context.timings)
            before_c = dict(lease.context.counters)
            communities, lease = self.sessions.next(session_id, k)
            self.metrics.observe_context(
                _context_delta(before_t, before_c, lease.context))
            return communities, lease

        communities, lease = self.admission.run(job, deadline)
        dbg = self.engine.dbg if want_labels else None
        return {
            "session": lease.id,
            "generation": lease.generation,
            "returned": len(communities),
            "emitted": lease.stream.emitted,
            "exhausted": lease.stream.exhausted,
            "communities": [community_to_dict(c, dbg)
                            for c in communities],
            "stats": context_to_dict(lease.context),
        }

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """One Prometheus scrape of the whole service."""
        cache_counters, cache_gauges = split_rates(
            self.engine.cache.stats.as_dict(), ("cache_hit_rate",))
        counters = prefixed(cache_counters, prefix="repro_projection_",
                            suffix="_total")
        counters.update(prefixed(self.admission.stats.as_dict(),
                                 prefix="repro_", suffix="_total"))
        counters.update(prefixed(self.sessions.stats.as_dict(),
                                 prefix="repro_", suffix="_total"))
        gauges = prefixed(cache_gauges, prefix="repro_projection_")
        results = getattr(self.engine, "results", None)
        if results is not None:
            rc_counters, rc_gauges = split_rates(
                results.as_dict(), ("result_cache_hit_rate",))
            # Occupancy/capacity are instantaneous values, not
            # monotone counters — keep them out of the _total family
            # (bytes stays there: the dashboards key on
            # repro_result_cache_bytes_total).
            for name in ("result_cache_entries",
                         "result_cache_capacity_bytes"):
                if name in rc_counters:
                    rc_gauges[name] = rc_counters.pop(name)
            counters.update(prefixed(rc_counters, prefix="repro_",
                                     suffix="_total"))
            gauges.update(prefixed(rc_gauges, prefix="repro_"))
        gauges.update({
            "repro_queue_depth": float(self.admission.queued),
            "repro_in_flight": float(self.admission.in_flight),
            "repro_sessions_active": float(self.sessions.count),
            "repro_engine_generation": float(
                self.engine.generation_epoch),
            "repro_projection_cache_size": float(
                len(self.engine.cache)),
            "repro_engine_dirty": float(
                bool(getattr(self.engine, "dirty", False))),
        })
        counters["repro_engine_deltas_applied_total"] = float(
            getattr(self.engine, "deltas_applied", 0))
        if self.wal is not None:
            counters.update({
                "repro_wal_appends_total": float(self.wal.appends),
                "repro_wal_fsyncs_total": float(self.wal.fsyncs),
                "repro_wal_truncations_total": float(
                    self.wal.truncations),
                "repro_wal_replayed_records_total": float(
                    self.wal.replayed),
            })
            gauges.update({
                "repro_wal_lsn": float(self.wal.lsn),
                "repro_wal_pending_deltas": float(
                    self.wal.pending_count),
                "repro_wal_bytes": float(self.wal.wal_bytes),
            })
        if self.compactor is not None:
            counters["repro_wal_compactions_total"] = float(
                self.compactor.compactions)
            counters["repro_wal_compaction_failures_total"] = float(
                self.compactor.failures)
            counters["repro_wal_folded_deltas_total"] = float(
                self.compactor.folded)
            gauges["repro_wal_compaction_degraded"] = float(
                bool(self.compactor.degraded))
        infos: Dict[str, Any] = {}
        if self.engine.snapshot_id is not None:
            infos["repro_snapshot_info"] = {
                "snapshot_id": self.engine.snapshot_id}
            gauges["repro_snapshot_loaded_timestamp_seconds"] = \
                float(self.engine.snapshot_loaded_at or 0.0)
        self._worker_metrics(counters, gauges, infos)
        return self.metrics.render(counters=counters, gauges=gauges,
                                   infos=infos)

    def _worker_metrics(self, counters: Dict[str, float],
                        gauges: Dict[str, float],
                        infos: Dict[str, Any]) -> None:
        """Fold pool-worker observability into one scrape.

        Engines without a pool contribute nothing. With a
        :class:`~repro.parallel.ParallelQueryEngine`:

        * ``repro_worker_info{worker,pid,snapshot_id,generation}`` —
          one identity row per worker, which is how the reload smoke
          test asserts every worker adopted the new snapshot;
        * ``repro_worker_*_total`` — the workers' private projection
          cache and Dijkstra-memo counters, summed (per-stage wall
          clock needs no special handling: workers report timings per
          query and the service folds them into
          ``repro_stage_seconds_total`` exactly as in-process
          execution does);
        * ``repro_pool_workers`` / ``repro_pool_workers_alive`` /
          ``repro_pool_respawns_total`` — pool health.
        """
        stats_of = getattr(self.engine, "worker_stats", None)
        pool = getattr(self.engine, "pool", None)
        if stats_of is None or pool is None:
            return
        per_worker = stats_of()
        rows = []
        summed: Dict[str, float] = {}
        for stats in per_worker:
            rows.append({
                "worker": str(stats.get("worker")),
                "pid": str(stats.get("pid", "")),
                "snapshot_id": str(stats.get("snapshot_id", "")),
                "generation": str(stats.get("generation", "")),
                "alive": str(bool(stats.get("alive"))).lower(),
            })
            for name, value in stats.items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    continue
                if name in ("worker", "pid"):
                    continue
                summed[name] = summed.get(name, 0.0) + float(value)
        infos["repro_worker_info"] = rows
        worker_counters, worker_gauges = split_rates(
            summed, ("cache_hit_rate", "result_cache_hit_rate"))
        counters.update(prefixed(worker_counters,
                                 prefix="repro_worker_",
                                 suffix="_total"))
        gauges.update(prefixed(worker_gauges, prefix="repro_worker_"))
        gauges["repro_pool_workers"] = float(pool.workers)
        gauges["repro_pool_workers_alive"] = float(pool.alive)
        gauges["repro_pool_degraded"] = float(
            bool(getattr(pool, "degraded", False)))
        counters["repro_pool_respawns_total"] = float(pool.respawns)
        # Alias kept alongside respawns_total: dashboards built on the
        # conventional restart counter name need no relabeling.
        counters["repro_worker_restarts_total"] = float(pool.respawns)
        counters["repro_pool_timeouts_total"] = float(
            getattr(pool, "timeouts", 0))
