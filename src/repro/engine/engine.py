"""The query engine: plan, project (with caching), run, translate.

:class:`QueryEngine` is the execution layer between the inverted
indexes and the paper's algorithms. One engine owns

* the database graph and (optionally) its
  :class:`~repro.text.inverted_index.CommunityIndex`;
* an :class:`~repro.engine.registry.AlgorithmRegistry` of backends
  sharing one invocation contract;
* a :class:`~repro.engine.cache.ProjectionCache` so repeated and
  interactive ``(keyword set, Rmax)`` queries skip Algorithm 6;
* a :class:`~repro.engine.results.ResultCache` so a repeated query
  skips the enumeration too — exact repeats are pure lookups,
  smaller-k queries slice the cached ranked prefix, larger-k queries
  resume the cached frontier and compute only the tail;
* a **generation** token, changed on every index change
  (``build_index``, ``apply_delta``, assignment, or snapshot swap),
  which stale-checks every cache entry and every open PDk session.

The generation is an opaque string, not a counter: in-memory changes
produce process-local ``g<epoch>`` tokens, while
:meth:`QueryEngine.swap_snapshot` adopts the *snapshot id* — a durable
content hash — so two workers serving the same published snapshot
agree on the generation, and swapping to a content-identical snapshot
is a no-op (the projection cache stays warm, open sessions stay
valid).

Queries capture ``(graph, index, generation)`` once at entry, so a
concurrent :meth:`~QueryEngine.swap_snapshot` never mixes artifacts
mid-query — in-flight queries finish on the graph they started on.

Execution is staged — resolve → project → enumerate → translate — and
each stage reports wall-clock and counters into the caller's
:class:`~repro.engine.context.QueryContext`, which is how both the
benchmark harness and ``repro.analysis`` observe a query now.

The :class:`~repro.core.search.CommunitySearch` facade is a thin
wrapper over this class; new infrastructure (sharding, batching,
async fan-out) should build against the engine directly.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.community import Community
from repro.core.comm_k import TopKStream
from repro.core.cost import AggregateSpec
from repro.core.projection import ProjectionResult
from repro.core.projection import project as run_projection
from repro.engine.cache import DEFAULT_CAPACITY, ProjectionCache
from repro.engine.context import QueryContext, ensure_context
from repro.engine.registry import REGISTRY, AlgorithmRegistry
from repro.engine.results import (
    DEFAULT_RESULT_CACHE_BYTES,
    CachedStream,
    ResultCache,
    ResultEntry,
    result_key,
)
from repro.engine.spec import QuerySpec
from repro.exceptions import QueryError
from repro.graph.database_graph import DatabaseGraph
from repro.snapshot.snapshot import Snapshot
from repro.snapshot.snapshot import load_snapshot as _load_snapshot
from repro.text.inverted_index import CommunityIndex
from repro.text.maintenance import GraphDelta, apply_delta


def translate_community(community: Community,
                        projection: ProjectionResult,
                        dbg: DatabaseGraph) -> Community:
    """Projected ids -> ``G_D`` ids, re-inducing edges against ``G_D``.

    Uses the projection's memoized
    :attr:`~repro.core.projection.ProjectionResult.relabel_map`, so
    the ``{new: old}`` dict is built once per projection rather than
    once per answer. Edge re-induction restores Definition 2.1 exactly
    (see :mod:`repro.core.projection` for why ``E'`` may under-cover).
    """
    relabeled = community.relabel(projection.relabel_map)
    return Community(
        core=relabeled.core,
        cost=relabeled.cost,
        centers=relabeled.centers,
        pnodes=relabeled.pnodes,
        nodes=relabeled.nodes,
        edges=tuple(dbg.graph.induced_edges(relabeled.nodes)),
    )


class QueryEngine:
    """Executes :class:`~repro.engine.spec.QuerySpec` s on one graph."""

    def __init__(self, dbg: DatabaseGraph,
                 index: Optional[CommunityIndex] = None,
                 registry: Optional[AlgorithmRegistry] = None,
                 cache: Optional[ProjectionCache] = None,
                 cache_capacity: int = DEFAULT_CAPACITY,
                 results: Optional[ResultCache] = None,
                 result_cache_bytes: Optional[int] = None) -> None:
        self.dbg = dbg
        self.registry = registry if registry is not None else REGISTRY
        self.cache = (cache if cache is not None
                      else ProjectionCache(cache_capacity))
        self.results = (results if results is not None
                        else ResultCache(
                            DEFAULT_RESULT_CACHE_BYTES
                            if result_cache_bytes is None
                            else result_cache_bytes))
        self._lock = threading.Lock()
        self._epoch = 0
        self._generation = "g0"
        self._index = index
        self._snapshot_id: Optional[str] = None
        self._snapshot_loaded_at: Optional[float] = None
        self._base_snapshot_id: Optional[str] = None
        self._partition: Optional[Dict[str, Any]] = None
        self._deltas_applied = 0
        self._applied_lsn = 0

    # ------------------------------------------------------------------
    # snapshot lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(cls, source: Union[str, Path, Snapshot],
                      verify: bool = True,
                      registry: Optional[AlgorithmRegistry] = None,
                      cache_capacity: int = DEFAULT_CAPACITY,
                      result_cache_bytes: Optional[int] = None,
                      wal_path: Optional[Union[str, Path, Any]] = None
                      ) -> "QueryEngine":
        """An engine serving a snapshot, generation = snapshot id.

        A *path* source is mapped by
        :func:`repro.snapshot.load_snapshot`; an already-loaded
        :class:`Snapshot` source is adopted as-is.

        ``wal_path`` (a path or an open
        :class:`~repro.wal.log.WriteAheadLog`) replays the log's
        pending deltas onto the freshly loaded snapshot before the
        engine is returned — the restart-recovery path; the engine
        comes up already converged with every acknowledged delta.
        """
        snapshot = (source if isinstance(source, Snapshot)
                    else _load_snapshot(source, verify=verify))
        engine = cls(snapshot.dbg, snapshot.index, registry=registry,
                     cache_capacity=cache_capacity,
                     result_cache_bytes=result_cache_bytes)
        engine._generation = snapshot.id
        engine._snapshot_id = snapshot.id
        engine._base_snapshot_id = snapshot.id
        engine._snapshot_loaded_at = time.time()
        engine._partition = snapshot.provenance.get("partition")
        if wal_path is not None:
            from repro.wal.log import replay
            replay(engine, wal_path)
        return engine

    def load_snapshot(self, path: Union[str, Path],
                      verify: bool = True) -> Snapshot:
        """Load the snapshot at ``path`` and swap the engine onto it."""
        snapshot = _load_snapshot(path, verify=verify)
        self.swap_snapshot(snapshot)
        return snapshot

    def swap_snapshot(self, snapshot: Snapshot) -> bool:
        """Atomically swap graph + index to a loaded snapshot.

        The swap happens under the engine lock, and queries capture
        their ``(graph, index, generation)`` once at entry — in-flight
        queries finish on the artifact they started with, new queries
        see the snapshot; nothing is dropped. The snapshot id becomes
        the generation, so cached projections and open PDk sessions
        from the previous artifact go stale (sessions observe 410
        Gone), while swapping to a *content-identical* snapshot is a
        no-op that keeps the cache warm. Returns ``True`` when the
        engine actually changed artifacts.
        """
        with self._lock:
            if self._generation == snapshot.id:
                self._snapshot_loaded_at = time.time()
                return False
            self.dbg = snapshot.dbg
            self._index = snapshot.index
            self._epoch += 1
            self._generation = snapshot.id
            self._snapshot_id = snapshot.id
            self._base_snapshot_id = snapshot.id
            self._deltas_applied = 0
            self._applied_lsn = 0
            self._snapshot_loaded_at = time.time()
            self._partition = snapshot.provenance.get("partition")
        self.cache.invalidate()
        self.results.invalidate()
        return True

    @property
    def snapshot_id(self) -> Optional[str]:
        """Id of the snapshot being served.

        ``None`` when the engine state was never loaded from a
        snapshot *or* has diverged from it (an in-memory
        ``build_index``/``apply_delta`` after the load).
        """
        return self._snapshot_id

    @property
    def snapshot_loaded_at(self) -> Optional[float]:
        """Epoch seconds of the last snapshot load/swap, if any."""
        return self._snapshot_loaded_at

    @property
    def partition(self) -> Optional[Dict[str, Any]]:
        """The ``partition`` provenance of the served snapshot (shard
        id, shard count, source snapshot, halo radius) when it is one
        shard of a partitioned graph; ``None`` otherwise."""
        return self._partition

    # ------------------------------------------------------------------
    # index lifecycle — every change advances the generation
    # ------------------------------------------------------------------
    @property
    def index(self) -> Optional[CommunityIndex]:
        """The attached community index, if any."""
        return self._index

    @index.setter
    def index(self, index: Optional[CommunityIndex]) -> None:
        """Attach/replace the index, invalidating cached projections."""
        with self._lock:
            self._index = index
            self._epoch += 1
            self._generation = f"g{self._epoch}"
            self._snapshot_id = None
            self._base_snapshot_id = None
            self._deltas_applied = 0
            self._applied_lsn = 0
        self.cache.invalidate()
        self.results.invalidate()

    @property
    def generation(self) -> str:
        """Opaque token naming the engine's current artifact.

        Changes on every index change; equals the snapshot id while
        serving an unmodified snapshot. Tags every cache entry and
        every open session.
        """
        return self._generation

    @property
    def generation_epoch(self) -> int:
        """Monotonic count of index changes (numeric, for gauges)."""
        return self._epoch

    def build_index(self, radius: float,
                    keywords: Optional[Sequence[str]] = None
                    ) -> CommunityIndex:
        """Build and attach the two inverted indexes for radius R."""
        self.index = CommunityIndex.build(self.dbg, radius, keywords)
        return self.index

    def apply_delta(self, delta: GraphDelta,
                    banks_reweight: bool = False,
                    lsn: Optional[int] = None
                    ) -> Tuple[DatabaseGraph, CommunityIndex]:
        """Grow the graph, update the index, evict stale projections.

        Delegates to :func:`repro.text.maintenance.apply_delta`, then
        swaps in the grown graph/index. The assignment changes the
        generation, so projections computed before the delta can never
        be served again — the cache-correctness property the
        maintenance property tests assert.

        ``lsn`` is the delta's WAL sequence number; applying is
        idempotent per LSN (a delta at or below :attr:`applied_lsn`
        is a no-op), which makes the two delivery paths — a pool
        broadcast and a respawned worker's WAL replay — safe to race.
        The base snapshot lineage survives the delta: the engine is
        ``dirty`` (its generation no longer names a snapshot) but
        :attr:`base_snapshot_id` still records which artifact the
        deltas grew from, anchoring WAL replay and prune protection.
        """
        if lsn is not None and lsn <= self._applied_lsn:
            return self.dbg, self.index
        if self.index is None:
            raise QueryError(
                "apply_delta needs an attached index; call "
                "build_index(radius=...) first")
        new_dbg, new_index = apply_delta(self.index, delta,
                                         banks_reweight)
        base = self._base_snapshot_id
        applied = self._deltas_applied
        self.dbg = new_dbg
        self.index = new_index          # changes generation, evicts
        self._base_snapshot_id = base
        self._deltas_applied = applied + 1
        if lsn is not None:
            self._applied_lsn = lsn
        return new_dbg, new_index

    @property
    def dirty(self) -> bool:
        """``True`` when in-memory deltas have diverged the engine
        from the snapshot it loaded (restart would lose them without
        a WAL)."""
        return self._deltas_applied > 0

    @property
    def deltas_applied(self) -> int:
        """Deltas applied since the last snapshot load/swap."""
        return self._deltas_applied

    @property
    def base_snapshot_id(self) -> Optional[str]:
        """The snapshot the current state grew from — still set when
        :attr:`snapshot_id` nulls out after a delta."""
        return self._base_snapshot_id

    @property
    def applied_lsn(self) -> int:
        """Highest WAL LSN applied (0 when none carried an LSN)."""
        return self._applied_lsn

    def _capture(self) -> Tuple[DatabaseGraph,
                                Optional[CommunityIndex], str]:
        """One consistent ``(graph, index, generation)`` observation."""
        with self._lock:
            return self.dbg, self._index, self._generation

    # ------------------------------------------------------------------
    # projection (Algorithm 6), cached
    # ------------------------------------------------------------------
    def project(self, keywords: Sequence[str], rmax: float,
                context: Optional[QueryContext] = None,
                use_cache: bool = True) -> ProjectionResult:
        """The query's projection, from cache when possible.

        Counters: ``projection_cache_hits`` / ``projection_cache_misses``
        record cache traffic, ``projection_runs`` counts actual
        Algorithm 6 executions — a repeated query shows ``runs == 1``
        however many times it is asked.
        """
        _, index, generation = self._capture()
        return self._project(index, generation, keywords, rmax,
                             context, use_cache)

    def _project(self, index: Optional[CommunityIndex],
                 generation: str, keywords: Sequence[str],
                 rmax: float, context: Optional[QueryContext],
                 use_cache: bool = True) -> ProjectionResult:
        """Projection against an already-captured index/generation."""
        ctx = ensure_context(context)
        if index is None:
            raise QueryError(
                "no index built; call build_index(radius=...) first or "
                "query with use_projection=False")
        with ctx.stage("resolve"):
            for keyword in keywords:
                index.require_keyword(keyword)
        key = (frozenset(keywords), float(rmax))
        if use_cache:
            cached = self.cache.get(key, generation)
            if cached is not None:
                ctx.count("projection_cache_hits")
                return cached
            ctx.count("projection_cache_misses")
        with ctx.stage("project"):
            projection = run_projection(index, list(keywords), rmax)
        ctx.count("projection_runs")
        if use_cache:
            self.cache.put(key, generation, projection)
        return projection

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def iter_all(self, spec: QuerySpec,
                 context: Optional[QueryContext] = None
                 ) -> Iterator[Community]:
        """Streaming COMM-all through the registered backend.

        Validation, projection and backend startup happen eagerly —
        only the enumeration itself is lazy — so a bad algorithm name
        or keyword fails at the call site, not on first ``next()``.
        """
        if spec.mode != "all":
            raise QueryError(
                f"iter_all needs an 'all' spec, got {spec.mode!r}")
        ctx = ensure_context(context)
        backend = self.registry.get(spec.algorithm)
        graph, node_lists, projection, origin = \
            self._query_graph(spec, ctx)
        results = iter(backend.run_all(
            graph, spec.keywords, spec.rmax, node_lists=node_lists,
            aggregate=spec.aggregate,
            budget_seconds=spec.budget_seconds, stats=ctx.baseline))
        return self._drive(results, projection, origin, ctx)

    def _drive(self, results: Iterator[Community],
               projection: Optional[ProjectionResult],
               origin: DatabaseGraph,
               ctx: QueryContext) -> Iterator[Community]:
        """Pump a backend iterator, timing enumerate/translate.

        ``origin`` is the full graph captured when the query started;
        translation must use it (not ``self.dbg``, which a concurrent
        snapshot swap may have replaced mid-enumeration).
        """
        while True:
            start = time.perf_counter()
            try:
                community = next(results)
            except StopIteration:
                ctx.add_time("enumerate", time.perf_counter() - start)
                return
            ctx.add_time("enumerate", time.perf_counter() - start)
            if projection is not None:
                with ctx.stage("translate"):
                    community = translate_community(
                        community, projection, origin)
            ctx.count("communities")
            yield community

    def run_all(self, spec: QuerySpec,
                context: Optional[QueryContext] = None
                ) -> List[Community]:
        """Materialized COMM-all, result-cached per generation."""
        ctx = ensure_context(context)
        if not self._result_cacheable(spec):
            return list(self.iter_all(spec, ctx))
        _, _, generation = self._capture()
        key = result_key(spec.keywords, spec.rmax, spec.algorithm,
                         spec.aggregate, "all")
        served = self.results.fetch(key, generation, None, ctx)
        if served is not None:
            return served
        results = list(self.iter_all(spec, ctx))
        self.results.install(ResultEntry(
            key, generation, prefix=results, complete=True))
        return results

    def top_k(self, spec: QuerySpec,
              context: Optional[QueryContext] = None
              ) -> List[Community]:
        """COMM-k through the registered backend.

        Result-cached: an exact repeat of a cached spec is a pure
        lookup, a smaller ``k`` slices the cached ranked prefix, and a
        larger ``k`` resumes the retained stream (``pd``) to compute
        only the tail — see :mod:`repro.engine.results`.
        """
        if spec.mode != "topk":
            raise QueryError(
                f"top_k needs a 'topk' spec, got {spec.mode!r}")
        ctx = ensure_context(context)
        backend = self.registry.get(spec.algorithm)
        captured = self._capture()
        dbg, index, generation = captured
        cacheable = self._result_cacheable(spec)
        key = ""
        if cacheable:
            key = result_key(spec.keywords, spec.rmax, spec.algorithm,
                             spec.aggregate, "topk")
            served = self.results.fetch(key, generation, spec.k, ctx)
            if served is not None:
                return served
        graph, node_lists, projection, origin = \
            self._query_graph(spec, ctx, captured=captured)
        if cacheable and backend.streams:
            # Enumerate through a resumable stream so the cache keeps
            # the frontier: a later, larger k computes only the tail.
            # Byte-identical to the registry's run_top_k — which is
            # literally TopKStream(...).take(k).
            with ctx.stage("enumerate"):
                inner = TopKStream(graph, list(spec.keywords),
                                   spec.rmax, node_lists=node_lists,
                                   aggregate=spec.aggregate)
            stream = inner
            if projection is not None:
                from repro.engine.stream import ProjectedTopKStream
                stream = ProjectedTopKStream(inner, projection, origin,
                                             context=None)
            entry = ResultEntry(key, generation, stream=stream)
            results = self.results.materialize(entry, spec.k, ctx)
            self.results.install(entry)
            return results
        with ctx.stage("enumerate"):
            results = backend.run_top_k(
                graph, spec.keywords, spec.k, spec.rmax,
                node_lists=node_lists, aggregate=spec.aggregate,
                budget_seconds=spec.budget_seconds, stats=ctx.baseline)
        if projection is not None:
            with ctx.stage("translate"):
                results = [
                    translate_community(c, projection, origin)
                    for c in results]
        ctx.count("communities", len(results))
        if cacheable:
            # A materialized (non-streaming) answer still serves exact
            # repeats and smaller-k slices; a short answer is complete.
            self.results.install(ResultEntry(
                key, generation, prefix=results,
                complete=len(results) < spec.k))
        return results

    def execute(self, spec: QuerySpec,
                context: Optional[QueryContext] = None
                ) -> List[Community]:
        """Run any spec to a materialized answer list."""
        if spec.mode == "topk":
            return self.top_k(spec, context)
        return self.run_all(spec, context)

    def top_k_stream(self, keywords: Sequence[str], rmax: float,
                     use_projection: Optional[bool] = None,
                     aggregate: AggregateSpec = "sum",
                     context: Optional[QueryContext] = None
                     ) -> Union[TopKStream, "ProjectedTopKStream",
                                CachedStream]:
        """A resumable PDk stream (``take(k)`` then ``more(n)``).

        With the result cache enabled the stream is a
        :class:`~repro.engine.results.CachedStream` view over the
        shared cache entry for this query: a session opened after a
        warm ``/query`` (or another session) serves the cached prefix
        with zero enumeration, and enlargements past the frontier
        extend the shared entry for everyone.
        """
        ctx = ensure_context(context)
        spec = QuerySpec(tuple(keywords), rmax, mode="all",
                         aggregate=aggregate,
                         use_projection=use_projection)
        captured = self._capture()
        _, _, generation = captured
        cacheable = self.results.enabled
        key = result_key(spec.keywords, spec.rmax, "pd",
                         spec.aggregate, "topk")
        if cacheable:
            entry = self.results.attach(key, generation, ctx)
            if entry is not None:
                return CachedStream(self.results, entry, context=ctx)
        graph, node_lists, projection, origin = \
            self._query_graph(spec, ctx, captured=captured)
        with ctx.stage("enumerate"):
            inner = TopKStream(graph, list(spec.keywords), rmax,
                               node_lists=node_lists,
                               aggregate=aggregate)
        from repro.engine.stream import ProjectedTopKStream
        if not cacheable:
            if projection is None:
                return inner
            return ProjectedTopKStream(inner, projection, origin,
                                       context=ctx)
        stream = inner
        if projection is not None:
            stream = ProjectedTopKStream(inner, projection, origin,
                                         context=None)
        entry = ResultEntry(key, generation, stream=stream)
        self.results.install(entry)
        return CachedStream(self.results, entry, context=ctx)

    def warm(self, specs: Sequence[QuerySpec]) -> int:
        """Run specs so their answers are cached; returns how many
        actually computed (the rest were already warm or failed
        validation — an unknown keyword after a reload is skipped, not
        fatal)."""
        warmed = 0
        for spec in specs:
            if not self._result_cacheable(spec):
                continue
            ctx = QueryContext()
            try:
                self.execute(spec, ctx)
            except QueryError:
                continue
            if ctx.counter("result_cache_hits") == 0:
                warmed += 1
        return warmed

    # ------------------------------------------------------------------
    def _result_cacheable(self, spec: QuerySpec) -> bool:
        """Whether this spec's answer may be cached and served.

        Budget-capable backends (bu/td) are excluded outright: their
        answers can be deadline-censored and they fill pool baseline
        stats — neither survives being replayed from a cache. The
        polynomial-delay backends (pd, naive) ignore budgets, so their
        answers are pure functions of ``(generation, spec)``.
        """
        if not self.results.enabled:
            return False
        return not self.registry.get(spec.algorithm).supports_budget

    def _query_graph(self, spec: QuerySpec, ctx: QueryContext,
                     captured: Optional[Tuple[DatabaseGraph,
                                              Optional[CommunityIndex],
                                              str]] = None):
        """Pick the execution graph: projection, or ``G_D`` directly.

        Captures the engine state once (or adopts the caller's
        ``captured`` triple — the result-cache paths capture early so
        the entry's generation tag matches the artifacts the answer
        was computed on), so everything downstream — projection,
        enumeration, translation — runs against one consistent
        ``(graph, index, generation)`` even if a snapshot swap lands
        mid-query. Returns
        ``(graph, node_lists, projection, origin_graph)``.
        """
        dbg, index, generation = (captured if captured is not None
                                  else self._capture())
        use_projection = spec.use_projection
        if use_projection is None:
            use_projection = index is not None
        if use_projection:
            projection = self._project(index, generation,
                                       spec.keywords, spec.rmax, ctx)
            return (projection.subgraph, projection.node_lists,
                    projection, dbg)
        node_lists = None
        if index is not None:
            with ctx.stage("resolve"):
                for keyword in spec.keywords:
                    index.require_keyword(keyword)
                node_lists = [
                    index.nodes(kw) for kw in spec.keywords]
        return dbg, node_lists, None, dbg
