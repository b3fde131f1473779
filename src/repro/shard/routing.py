"""The socketless routing core behind the router front end.

:class:`RouterCore` is everything the scatter-gather router knows
that does **not** involve sockets or threads: validating query specs
against the manifest's keyword Blooms, building per-shard leg
payloads, globalizing and ownership-filtering shard answers,
interpreting a leg's reply as a :class:`~repro.shard.merge.
FetchResult`, assembling response envelopes with the partial-result
contract, aggregating health rows, adopting new manifest
generations, and rendering ``repro_router_*`` metrics. The front end
(:mod:`repro.shard.router`) owns only *how* rounds fan out.

Every request handler captures the manifest **once** via
:meth:`RouterCore.capture` and threads it through the request: a
concurrent ``/admin/reload`` swapping :attr:`RouterCore.manifest`
mid-request can therefore never mix two generations' owner maps or
node maps inside one answer — the same capture-once discipline the
engine applies to snapshots.

:func:`reload_fleet` is the admin plane: the verify-then-rollback
manifest rollout, including the cross-box form that pushes each
shard's snapshot over the wire (:func:`~repro.service.http.
push_snapshot`) and reloads by snapshot id, so partition and serve
need no shared filesystem.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.community import Community
from repro.engine.spec import QuerySpec
from repro.exceptions import QueryError, ServiceError
from repro.service.errors import BadRequest
from repro.service.http import push_snapshot
from repro.service.metrics import ServiceMetrics
from repro.service.serialize import (
    communities_from_dicts,
    community_to_dict,
    spec_to_dict,
)
from repro.service.server import (
    _float_of,
    _int_of,
    _keywords_of,
    _parse_body,
)
from repro.shard.manifest import RoutingManifest
from repro.shard.merge import (
    FetchResult,
    MergeOutcome,
    filter_owned,
    globalize,
    merge_all,
)
from repro.shard.transport import ReplicaSet, parse_shard_urls
from repro.text.inverted_index import UNKNOWN_KEYWORD

PathLike = Union[str, Path]

#: Default per-leg socket timeout (seconds). Shorter than the client
#: default: a hung shard should cost one partial result, not a stuck
#: router thread.
DEFAULT_SHARD_TIMEOUT = 10.0

#: Default idempotent-retry budget per shard leg (PR 5 semantics).
DEFAULT_SHARD_RETRIES = 2


class QueryPlan:
    """One parsed ``/query`` request, pinned to a manifest capture."""

    def __init__(self, manifest: RoutingManifest, spec: QuerySpec,
                 deadline: Optional[float], want_labels: bool,
                 eligible: List[int]) -> None:
        self.manifest = manifest
        self.spec = spec
        self.deadline = deadline
        self.want_labels = want_labels
        self.eligible = eligible
        #: Relabeled global node labels, filled while absorbing legs
        #: (``None`` when the caller did not ask for labels).
        self.labels: Optional[Dict[str, str]] = \
            {} if want_labels else None
        #: Shards whose legs answered from their result caches
        #: (``"cached": true`` in the leg envelope) — surfaced as
        #: ``shards_cached`` in the merged response.
        self.cached_shards: set = set()


class RouterCore:
    """The router's socketless brain: policy, validation, bookkeeping."""

    def __init__(self, manifest: RoutingManifest,
                 root: Optional[PathLike] = None) -> None:
        self.manifest = manifest
        self.root = Path(root) if root is not None else None
        self.metrics = ServiceMetrics()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        """Bump a router counter (rendered with a ``_total`` suffix)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) \
                + value

    def gauge(self, name: str, value: float) -> None:
        """Set a router gauge."""
        with self._lock:
            self._gauges[name] = value

    def observe_leg(self, shard_id: int, status: int,
                    seconds: float) -> None:
        """Record one fan-out leg's latency under a per-shard label."""
        self.metrics.observe_request(f"shard:{shard_id:02d}", status,
                                     seconds)

    def note_failover(self, shard_id: int, from_url: str,
                      to_url: str) -> None:
        """Count one replica failover (the ``on_failover`` hook)."""
        self.count("failover")

    # ------------------------------------------------------------------
    # manifest lifecycle
    # ------------------------------------------------------------------
    def capture(self) -> RoutingManifest:
        """The manifest for one request — read once, used throughout."""
        with self._lock:
            return self.manifest

    def adopt(self, manifest: RoutingManifest,
              root: Path) -> None:
        """Switch to a freshly rolled-out manifest generation."""
        with self._lock:
            self.manifest = manifest
            if self.root is None:
                self.root = root

    # ------------------------------------------------------------------
    # request parsing
    # ------------------------------------------------------------------
    def spec_of(self, payload: Dict[str, Any],
                manifest: RoutingManifest) -> QuerySpec:
        """A validated :class:`QuerySpec` from one query payload."""
        keywords = _keywords_of(payload)
        rmax = _float_of(payload, "rmax")
        k = _int_of(payload, "k")
        mode = payload.get("mode") or ("topk" if k is not None
                                       else "all")
        spec = QuerySpec(
            tuple(keywords), rmax, mode=mode, k=k,
            algorithm=payload.get("algorithm", "pd"),
            aggregate=payload.get("aggregate", "sum"),
            budget_seconds=_float_of(payload, "budget_seconds",
                                     required=False))
        for keyword in spec.keywords:
            if not manifest.keyword_known(keyword):
                raise QueryError(
                    f"keyword {keyword!r} {UNKNOWN_KEYWORD}")
        return spec

    def parse_query(self, body: bytes) -> QueryPlan:
        """Parse one ``/query`` body against a manifest capture."""
        manifest = self.capture()
        payload = _parse_body(body)
        spec = self.spec_of(payload, manifest)
        deadline = _float_of(payload, "deadline_seconds",
                             required=False)
        want_labels = bool(payload.get("labels", False))
        eligible = manifest.shards_for(spec.keywords)
        self.count("queries")
        return QueryPlan(manifest, spec, deadline, want_labels,
                         eligible)

    def parse_batch(self, body: bytes
                    ) -> Tuple[List[QueryPlan], Optional[float], bool]:
        """Parse one ``/batch`` body into per-entry plans.

        All entries share one manifest capture — a batch must not
        straddle a reload either.
        """
        manifest = self.capture()
        payload = _parse_body(body)
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise BadRequest(
                "'queries' must be a non-empty list of query objects")
        if not all(isinstance(q, dict) for q in queries):
            raise BadRequest("every batch entry must be an object")
        deadline = _float_of(payload, "deadline_seconds",
                             required=False)
        want_labels = bool(payload.get("labels", False))
        plans = []
        for query in queries:
            spec = self.spec_of(query, manifest)
            plans.append(QueryPlan(
                manifest, spec, deadline, want_labels,
                manifest.shards_for(spec.keywords)))
        self.count("queries", len(plans))
        self.count("batches")
        return plans, deadline, want_labels

    # ------------------------------------------------------------------
    # leg payloads and leg interpretation
    # ------------------------------------------------------------------
    @staticmethod
    def shard_payload(spec: QuerySpec, k: Optional[int],
                      deadline: Optional[float],
                      labels: bool) -> Dict[str, Any]:
        """The ``/query`` body one shard leg carries."""
        payload: Dict[str, Any] = {
            "keywords": list(spec.keywords),
            "rmax": spec.rmax,
            "mode": spec.mode,
            "algorithm": spec.algorithm,
            "aggregate": spec.aggregate,
        }
        if k is not None:
            payload["k"] = k
        if deadline is not None:
            payload["deadline_seconds"] = deadline
        if labels:
            payload["labels"] = True
        return payload

    @staticmethod
    def leg_empty(result: Any) -> bool:
        """Whether a failed leg actually means "no answers here".

        Only the shard's unknown-keyword 400 does: a Bloom false
        positive routed a query the shard cannot resolve, and for the
        fleet that is an empty contribution, not an outage. Any other
        shard 400 (an ``rmax`` beyond the index radius, say) is the
        client's error; it is raised here so the client gets the 400
        the single box would answer.
        """
        if not isinstance(result, BadRequest):
            return False
        if UNKNOWN_KEYWORD in str(result):
            return True
        raise result

    def absorb(self, plan: QueryPlan, shard_id: int,
               response: Dict[str, Any]) -> List[Community]:
        """Globalize + ownership-filter one leg's communities.

        Collects relabeled node labels into ``plan.labels`` when the
        caller asked shards for them.
        """
        entry = plan.manifest.shards[shard_id]
        if response.get("cached"):
            if shard_id not in plan.cached_shards:
                plan.cached_shards.add(shard_id)
                self.count("cached_legs")
        else:
            # A later (enlarged-k) round that recomputed unmarks the
            # shard: the envelope reports the final round's truth.
            plan.cached_shards.discard(shard_id)
        raw = response.get("communities", [])
        if plan.labels is not None:
            for community in raw:
                for local, label in community.get("labels",
                                                 {}).items():
                    plan.labels[str(entry.node_map[int(local)])] = \
                        label
        return filter_owned(
            globalize(communities_from_dicts(raw), entry.node_map),
            plan.manifest.owners, shard_id)

    def fetch_result(self, plan: QueryPlan, shard_id: int,
                     result: Any, want: int
                     ) -> Optional[FetchResult]:
        """Interpret one top-k leg's reply for the merge driver.

        ``result`` is a response dict or the error that killed the
        leg; ``None`` (a dead shard) degrades the merge to a partial
        answer.
        """
        if self.leg_empty(result):
            return FetchResult(kept=[], raw_count=0, exhausted=True)
        if not isinstance(result, dict):
            return None
        raw = result.get("communities", [])
        exhausted = len(raw) < want
        frontier = (float(raw[-1]["cost"])
                    if raw and not exhausted else None)
        return FetchResult(
            kept=self.absorb(plan, shard_id, result),
            raw_count=len(raw), exhausted=exhausted,
            frontier=frontier)

    def reduce_all(self, plan: QueryPlan,
                   responses: Dict[int, Any]
                   ) -> Tuple[List[Community], List[int], List[int]]:
        """Union one COMM-all fan-out round's leg replies."""
        answered: List[int] = []
        failed: List[int] = []
        per_shard: List[List[Community]] = []
        for shard_id in plan.eligible:
            result = responses[shard_id]
            if isinstance(result, dict):
                answered.append(shard_id)
                per_shard.append(self.absorb(plan, shard_id, result))
            elif self.leg_empty(result):
                answered.append(shard_id)
            else:
                failed.append(shard_id)
        return merge_all(per_shard), answered, failed

    # ------------------------------------------------------------------
    # response assembly
    # ------------------------------------------------------------------
    def note_topk(self, outcome: MergeOutcome) -> None:
        """Fold a merge drive's bookkeeping into the counters."""
        self.count("merge_rounds", outcome.rounds)
        self.count("merge_candidates", outcome.candidates)
        self.gauge("last_merge_depth", float(outcome.candidates))

    def note_partial(self, failed: List[int]) -> None:
        """Count a partial answer and its missing shards."""
        if failed:
            self.count("partial_results")
        self.count("shard_failures", len(failed))

    def envelope(self, plan: QueryPlan,
                 communities: List[Community],
                 answered: int,
                 elapsed: Optional[float] = None) -> Dict[str, Any]:
        """The router's ``/query`` response envelope.

        Single-box fields (``count``/``communities``/``query``) plus
        the partial-result contract: ``shards_total`` is how many
        shards the query needed, ``shards_answered`` how many
        delivered; ``partial`` flags any gap. Clients that cannot
        tolerate partial answers must check it — the status stays
        200. ``shards_cached`` lists the shards whose final legs were
        served from their result caches (``cached: true`` downstream).
        """
        labels = plan.labels
        rendered = []
        for community in communities:
            entry = community_to_dict(community)
            if labels is not None:
                entry["labels"] = {
                    str(u): labels[str(u)] for u in community.nodes
                    if str(u) in labels}
            rendered.append(entry)
        total = len(plan.eligible)
        envelope: Dict[str, Any] = {
            "count": len(rendered),
            "communities": rendered,
            "query": spec_to_dict(plan.spec),
            "shards_answered": answered,
            "shards_total": total,
            "partial": answered < total,
            "shards_cached": sorted(plan.cached_shards),
        }
        if elapsed is not None:
            envelope["elapsed_seconds"] = float(elapsed)
        return envelope

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health_payload(self, manifest: RoutingManifest,
                       replica_sets: List[ReplicaSet],
                       responses: Dict[Tuple[int, int], Any]
                       ) -> Dict[str, Any]:
        """``GET /healthz``: per-shard, per-replica rows + roll-up.

        ``responses`` maps ``(shard_id, replica_index)`` to a health
        dict or the error that made the replica unreachable. A shard
        is healthy when **any** replica answers ``ok`` on the
        manifest's expected snapshot; the fleet is ``ok`` only when
        every shard is healthy (a shard surviving on its last
        replica still rolls up ``ok`` — failover is the designed
        posture, coverage loss is not).
        """
        rows = []
        status = "ok"
        reachable = 0
        for replicas in replica_sets:
            shard_id = replicas.shard_id
            entry = manifest.shards[shard_id]
            replica_rows = []
            shard_ok = False
            shard_reachable = False
            for index, url in enumerate(replicas.urls):
                result = responses.get((shard_id, index))
                replica_row: Dict[str, Any] = {"url": url}
                if isinstance(result, dict):
                    shard_reachable = True
                    replica_row["status"] = result.get("status",
                                                       "ok")
                    replica_row["snapshot"] = result.get("snapshot")
                    replica_row["generation"] = \
                        result.get("generation")
                    if replica_row["status"] == "ok" \
                            and replica_row["snapshot"] \
                            == entry.snapshot_id:
                        shard_ok = True
                else:
                    replica_row["status"] = "unreachable"
                    replica_row["error"] = str(result)
                replica_rows.append(replica_row)
            if shard_reachable:
                reachable += 1
            # The shard-level row keeps the single-replica shape the
            # fleet tooling already parses, reported from the best
            # replica, plus the per-replica detail.
            best = next(
                (r for r in replica_rows
                 if r.get("status") == "ok"
                 and r.get("snapshot") == entry.snapshot_id),
                next((r for r in replica_rows
                      if r.get("status") != "unreachable"),
                     replica_rows[0]))
            row: Dict[str, Any] = {
                "shard": shard_id,
                "url": best["url"],
                "expected_snapshot": entry.snapshot_id,
                "status": best.get("status", "unreachable"),
                "replicas": replica_rows,
            }
            for field in ("snapshot", "generation", "error"):
                if field in best:
                    row[field] = best[field]
            if not shard_ok:
                status = "degraded"
                if row["status"] == "ok":
                    # Reachable but on the wrong artifact.
                    row["status"] = "degraded"
            rows.append(row)
        return {
            "status": status,
            "generation": manifest.generation,
            "shards_total": len(replica_sets),
            "shards_reachable": reachable,
            "shards": rows,
        }

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def render_metrics(self, replica_sets: List[ReplicaSet]) -> str:
        """One Prometheus scrape of the router.

        ``repro_router_*_total`` counters (fan-out legs, merge rounds
        and candidate depth, partial results, shard failures,
        replica failovers, reloads/rollbacks), fleet gauges, identity
        rows per shard replica, and per-shard fan-out latency
        histograms under ``path="shard:NN"``.
        """
        manifest = self.capture()
        with self._lock:
            counters = {
                f"repro_router_{name}_total": value
                for name, value in self._counters.items()}
            gauges = {
                f"repro_router_{name}": value
                for name, value in self._gauges.items()}
        counters.setdefault("repro_router_failover_total", 0.0)
        gauges["repro_router_shards"] = float(len(replica_sets))
        gauges["repro_router_replicas"] = float(
            sum(len(r.urls) for r in replica_sets))
        gauges["repro_router_manifest_nodes"] = float(
            manifest.total_nodes)
        infos: Dict[str, Any] = {
            "repro_router_manifest_info": {
                "generation": manifest.generation,
                "source_snapshot":
                    manifest.source_snapshot or "",
            },
            "repro_router_shard_info": [
                {
                    "shard": str(replicas.shard_id),
                    "url": url,
                    "active": str(url
                                  == replicas.active_url).lower(),
                    "snapshot_id":
                        manifest.shards[
                            replicas.shard_id].snapshot_id,
                }
                for replicas in replica_sets
                for url in replicas.urls],
        }
        return self.metrics.render(counters=counters, gauges=gauges,
                                   infos=infos)


# ----------------------------------------------------------------------
# the admin plane: verify-then-rollback fleet reload
# ----------------------------------------------------------------------
def reload_fleet(core: RouterCore,
                 replica_sets: List[ReplicaSet],
                 body: bytes) -> Dict[str, Any]:
    """``POST /admin/reload``: broadcast a manifest generation swap
    with rollback, optionally shipping snapshots cross-box.

    Re-reads ``routing.json`` (from the configured partition root or
    a ``path`` in the body), then walks every replica of every shard
    in order: record what it serves now, roll it onto the new
    manifest's shard snapshot, and verify it adopted the expected id.
    With ``{"transfer": true}`` the shard snapshot is first **pushed
    over the wire** into the replica's own store
    (checksum-verified section by section) and the reload addresses
    it by snapshot id — the cross-box path, requiring no shared
    filesystem. Any failure rolls every already-switched replica
    back to its recorded snapshot and leaves the router on the old
    manifest — the fleet is never left mixed-generation by a failed
    reload, matching the single-box PR 5 contract.
    """
    payload = _parse_body(body)
    source = payload.get("path") or core.root
    transfer = bool(payload.get("transfer", False))
    if source is None:
        raise BadRequest(
            "no partition root configured; start the router "
            "with one or supply 'path' in the body")
    root = Path(source)
    new_manifest = RoutingManifest.load(root)
    if len(new_manifest.shards) != len(replica_sets):
        raise BadRequest(
            f"new manifest names {len(new_manifest.shards)} "
            f"shards; this router fronts {len(replica_sets)}")
    old_manifest = core.capture()
    if new_manifest.generation == old_manifest.generation:
        return {"reloaded": False,
                "generation": old_manifest.generation,
                "shards": len(replica_sets)}
    previous: List[Tuple[int, int, Optional[str]]] = []
    try:
        for replicas in replica_sets:
            shard_id = replicas.shard_id
            entry = new_manifest.shards[shard_id]
            expected = entry.snapshot_id
            snapshot_dir = root / entry.store / expected
            for index, client in enumerate(replicas.clients):
                before = client.health().get("snapshot")
                # Recorded before the reload is issued: a replica
                # that adopts the wrong snapshot (and fails
                # verification below) must still be rolled back.
                previous.append((shard_id, index, before))
                if transfer:
                    push_snapshot(client, snapshot_dir)
                    reply = client.admin_reload(snapshot=expected)
                else:
                    reply = client.admin_reload(
                        path=str(root / entry.store))
                adopted = reply.get("snapshot")
                if adopted != expected:
                    raise ServiceError(
                        f"shard {shard_id} replica "
                        f"{replicas.urls[index]} adopted "
                        f"{adopted!r}, manifest expects "
                        f"{expected!r}")
    except Exception as error:  # noqa: BLE001 — any failed leg
        # triggers the fleet-wide rollback.
        core.count("reload_rollbacks")
        _rollback(core, old_manifest, replica_sets, previous)
        raise ServiceError(
            f"sharded reload failed and was rolled back: "
            f"{error}")
    core.adopt(new_manifest, root)
    core.count("reloads")
    return {
        "reloaded": True,
        "generation": new_manifest.generation,
        "shards": len(replica_sets),
        "transfer": transfer,
    }


def _rollback(core: RouterCore, old_manifest: RoutingManifest,
              replica_sets: List[ReplicaSet],
              previous: List[Tuple[int, int, Optional[str]]]
              ) -> None:
    """Point already-reloaded replicas back at their old snapshots.

    Best effort: reload by snapshot id first (works cross-box — the
    old artifact is still in the replica's store), falling back to a
    shared-filesystem path when the router has a partition root. A
    replica that cannot be rolled back (crashed mid-reload) is left
    for its own watchdog; the router still refuses to adopt the new
    manifest, so /healthz shows the mismatch against the old
    expectations.
    """
    for shard_id, index, snapshot_id in previous:
        if snapshot_id is None:
            continue
        client = replica_sets[shard_id].clients[index]
        try:
            client.admin_reload(snapshot=snapshot_id)
            continue
        except ServiceError:
            pass
        store = old_manifest.store_path(
            core.root, shard_id) if core.root is not None else None
        if store is None:
            continue
        try:
            client.admin_reload(path=str(store / snapshot_id))
        except ServiceError:
            continue


def build_replica_sets(manifest: RoutingManifest,
                       shard_urls: List[str],
                       core: RouterCore,
                       client_factory: Callable[[str], Any]
                       ) -> List[ReplicaSet]:
    """Validate ``--shard-url`` arity and build one set per shard.

    Raises :class:`~repro.exceptions.ServiceError` on a shard-count
    mismatch — at construction, so a misconfigured router dies at
    startup, not at first query.
    """
    groups = parse_shard_urls(shard_urls)
    if len(groups) != len(manifest.shards):
        raise ServiceError(
            f"manifest names {len(manifest.shards)} shards but "
            f"{len(groups)} shard URLs were supplied")
    return [
        ReplicaSet(entry.shard_id, urls,
                   client_factory=client_factory,
                   on_failover=core.note_failover)
        for entry, urls in zip(manifest.shards, groups)]
