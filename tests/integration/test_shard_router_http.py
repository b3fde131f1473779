"""Socket-level integration tests for the sharded serving tier.

A fig4 snapshot is partitioned into shard snapshots; each shard runs
a genuine :class:`CommunityService` on an ephemeral port, and a
started :class:`RouterService` fans out to them over real HTTP.
Covers the acceptance properties:

* routed answers identical to a single-snapshot service;
* a dead shard degrading to a 200 partial response
  (``shards_answered``/``shards_total``) instead of a 503;
* **replica failover** — a killed primary with a live sibling still
  yields the exact, non-partial answer, increments
  ``repro_router_failover_total`` once, and the promoted sibling
  stays sticky;
* **concurrent reload** — queries in flight while ``/admin/reload``
  rolls the fleet complete on the origin generation, including a
  reload that fails and rolls back mid-query;
* **cross-box transfer reload** — ``{"transfer": true}`` pushes shard
  snapshots over the wire and survives a mid-transfer checksum
  mismatch with a fleet-wide rollback;
* **shard deltas** — a shard backend refuses ``/admin/delta`` with a
  typed 409 and keeps its answers, while a plain ``serve`` still
  acknowledges deltas.
"""

import threading
import time

import pytest

from repro import faults
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX, \
    figure4_graph
from repro.engine.engine import QueryEngine
from repro.exceptions import ServiceError
from repro.service import CommunityService, Conflict, ServiceClient
from repro.shard import RouterService, partition_snapshot
from repro.snapshot import read_manifest
from repro.snapshot.store import SnapshotStore
from repro.text.inverted_index import CommunityIndex
from repro.wal.log import WriteAheadLog

FIG4_TOTAL = 5


def _build_fleet(tmp, shard_timeout=10.0, retries=2):
    """Partition fig4 and start (router, shard services, reference)."""
    dbg = figure4_graph()
    store = SnapshotStore(tmp / "store")
    snapshot = store.publish(dbg, CommunityIndex.build(dbg, 10.0),
                             provenance={"dataset": "fig4"})
    manifest, _ = partition_snapshot(tmp / "store", tmp / "parts", 2)
    shards = []
    for entry in manifest.shards:
        engine = QueryEngine.from_snapshot(
            tmp / "parts" / entry.store / entry.snapshot_id)
        shards.append(CommunityService(engine, port=0).start())
    router = RouterService(
        manifest, [s.url for s in shards], root=tmp / "parts",
        shard_timeout=shard_timeout, shard_retries=retries).start()
    reference = CommunityService(
        QueryEngine.from_snapshot(snapshot.path), port=0).start()
    return router, shards, reference


def _norm(response):
    return sorted((tuple(c["core"]), round(c["cost"], 9))
                  for c in response["communities"])


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("router_http")
    router, shards, reference = _build_fleet(tmp)
    yield router, shards, reference
    router.shutdown()
    reference.shutdown()
    for service in shards:
        service.shutdown()


class TestRoutedAnswersOverHttp:
    def test_query_matches_single_snapshot(self, fleet):
        router, _, reference = fleet
        via_router = ServiceClient(router.url, timeout=30.0)
        single = ServiceClient(reference.url, timeout=30.0)
        for extra in ({"mode": "all"}, {"k": 1}, {"k": 3}, {"k": 50}):
            body = {"keywords": list(FIG4_QUERY),
                    "rmax": FIG4_RMAX, **extra}
            routed = via_router.request("POST", "/query", body)
            ref = single.request("POST", "/query", body)
            assert routed["count"] == ref["count"]
            assert _norm(routed) == _norm(ref)
            if "k" in extra:
                assert [round(c["cost"], 9)
                        for c in routed["communities"]] \
                    == [round(c["cost"], 9)
                        for c in ref["communities"]]
            assert routed["shards_answered"] \
                == routed["shards_total"] == 2
            assert routed["partial"] is False

    def test_batch_matches_single_snapshot(self, fleet):
        router, _, reference = fleet
        body = {"queries": [
            {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 2},
            {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
             "mode": "all"},
        ]}
        routed = ServiceClient(router.url, timeout=30.0).request(
            "POST", "/batch", body)
        ref = ServiceClient(reference.url, timeout=30.0).request(
            "POST", "/batch", body)
        assert routed["queries"] == ref["queries"] == 2
        for got, want in zip(routed["results"], ref["results"]):
            assert _norm(got) == _norm(want)

    def test_healthz_and_metrics_over_http(self, fleet):
        router, _, _ = fleet
        client = ServiceClient(router.url, timeout=30.0)
        health = client.request("GET", "/healthz")
        assert health["status"] == "ok"
        assert health["shards_reachable"] == 2
        metrics = client.metrics()
        assert "repro_router_queries_total" in metrics
        assert "repro_router_shards 2" in metrics


class TestDegradedFleet:
    def test_dead_shard_yields_200_partial(self, tmp_path):
        """The acceptance scenario: one backend down -> the router
        still answers 200 with the surviving shard's communities and
        reports the gap instead of failing the whole query."""
        router, shards, reference = _build_fleet(
            tmp_path, shard_timeout=2.0, retries=0)
        try:
            client = ServiceClient(router.url, timeout=30.0)
            shards[1].shutdown()

            body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                    "mode": "all"}
            routed = client.request("POST", "/query", body)
            assert routed["partial"] is True
            assert routed["shards_answered"] == 1
            assert routed["shards_total"] == 2
            # The surviving shard's answers are a strict subset of
            # the full result set.
            full = ServiceClient(reference.url, timeout=30.0).request(
                "POST", "/query", body)
            assert 0 < routed["count"] < full["count"] + 1
            assert set(_norm(routed)) <= set(_norm(full))

            health = client.request("GET", "/healthz")
            assert health["status"] == "degraded"
            assert health["shards_reachable"] == 1
            down = [row for row in health["shards"]
                    if row["status"] != "ok"]
            assert len(down) == 1 and "error" in down[0]

            metrics = client.metrics()
            assert "repro_router_partial_results_total" in metrics
            assert "repro_router_shard_failures_total" in metrics
        finally:
            router.shutdown()
            reference.shutdown()
            shards[0].shutdown()


def _clean(response):
    """A response with its volatile fields dropped: timing, and the
    cache provenance markers (``cached``/``shards_cached``), which
    legitimately depend on what ran before — the *answers* must not."""
    out = dict(response)
    out.pop("elapsed_seconds", None)
    out.pop("cached", None)
    out.pop("shards_cached", None)
    if "results" in out:
        out["results"] = [_clean(r) for r in out["results"]]
    return out


def _partition(tmp, dbg, radius, parts_name, shards=2):
    """Publish ``dbg`` at ``radius`` and partition the latest."""
    SnapshotStore(tmp / "store").publish(
        dbg, CommunityIndex.build(dbg, radius),
        provenance={"index_radius": radius})
    manifest, _ = partition_snapshot(tmp / "store", tmp / parts_name,
                                     shards)
    return manifest


def _start_backends(manifest, parts_root, replicas=1, stores=None):
    """One :class:`CommunityService` per shard replica.

    ``stores`` maps ``(shard_id, replica)`` to each box's snapshot
    source; ``None`` defaults every replica to its shard's partition
    store (shared-filesystem layout).
    """
    services, urls = [], []
    for entry in manifest.shards:
        snapshot_dir = parts_root / entry.store / entry.snapshot_id
        group = []
        for index in range(replicas):
            if stores is None:
                source = parts_root / entry.store
            else:
                source = stores[(entry.shard_id, index)]
            engine = QueryEngine.from_snapshot(snapshot_dir)
            group.append(CommunityService(
                engine, port=0, snapshot_source=source).start())
        services.append(group)
        urls.append(",".join(s.url for s in group))
    return services, urls


def _stop(*closables):
    for closable in closables:
        closable.shutdown()


class TestReplicaFailover:
    def test_killed_primary_fails_over_exactly_once(self, tmp_path):
        manifest = _partition(tmp_path, figure4_graph(), 10.0,
                              "parts")
        backends, urls = _start_backends(manifest, tmp_path / "parts",
                                         replicas=2)
        router = RouterService(
            manifest, urls, root=tmp_path / "parts",
            shard_timeout=5.0, shard_retries=0).start()
        try:
            client = ServiceClient(router.url, timeout=30.0)
            body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                    "mode": "all"}
            before = _clean(client.request("POST", "/query", body))
            assert before["partial"] is False

            backends[0][0].shutdown()      # shard 0's primary dies

            after = _clean(client.request("POST", "/query", body))
            assert after == before         # exact, not partial
            metrics = client.metrics()
            assert "repro_router_failover_total 1" in metrics

            # Sticky promotion: the next call starts on the sibling,
            # no second failover.
            again = _clean(client.request("POST", "/query", body))
            assert again == before
            assert "repro_router_failover_total 1" \
                in client.metrics()

            # The fleet still rolls up ok: surviving on a sibling is
            # the designed posture, not an outage.
            health = client.request("GET", "/healthz")
            assert health["status"] == "ok"
        finally:
            _stop(router, *[s for g in backends for s in g])


@pytest.fixture()
def reload_fleet_env(tmp_path):
    """A two-generation fleet fronted by the router.

    Generation 1 (index radius 10) is serving; generation 2 (radius
    4) is partitioned and ready to roll out from ``parts2``.
    """
    dbg = figure4_graph()
    manifest1 = _partition(tmp_path, dbg, 10.0, "parts1")
    manifest2 = _partition(tmp_path, dbg, 4.0, "parts2")
    assert manifest2.generation != manifest1.generation
    backends, urls = _start_backends(manifest1, tmp_path / "parts1")
    router = RouterService(manifest1, urls,
                           root=tmp_path / "parts1").start()
    reference = CommunityService(
        QueryEngine.from_snapshot(
            SnapshotStore(tmp_path / "store").resolve()),
        port=0).start()        # the store's latest = generation 2
    yield router, manifest2, tmp_path / "parts2", reference
    faults.clear()
    _stop(router, reference, *[s for g in backends for s in g])


QUERY_ALL = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
             "mode": "all"}

#: Generation 2 is indexed at radius 4, so post-roll-out queries must
#: stay within it; the origin generation answers this too, but with a
#: different (radius-10-index) artifact behind it.
QUERY_NEW = {"keywords": list(FIG4_QUERY), "rmax": 4.0,
             "mode": "all"}


class TestConcurrentReload:
    def test_inflight_queries_complete_on_origin_generation(
            self, reload_fleet_env):
        router, manifest2, parts2, reference = reload_fleet_env
        client = ServiceClient(router.url, timeout=30.0)
        before = _clean(client.request("POST", "/query", QUERY_ALL))

        # Every backend reload stalls 1s, holding the fleet mid-roll
        # long enough to query through it deterministically.
        faults.activate("service.reload", "always:sleep(1.0)")
        outcome = {}
        try:
            def roll():
                outcome.update(client.request(
                    "POST", "/admin/reload", {"path": str(parts2)}))
            roller = threading.Thread(target=roll)
            roller.start()
            time.sleep(0.25)
            mid = _clean(ServiceClient(router.url, timeout=30.0)
                         .request("POST", "/query", QUERY_ALL))
            roller.join(timeout=30.0)
            assert not roller.is_alive()
        finally:
            faults.clear()
        # The in-flight query answered on the origin generation,
        # exactly and non-partially.
        assert mid == before
        assert mid["partial"] is False
        assert outcome["reloaded"] is True
        assert outcome["generation"] == manifest2.generation

        # The rolled-out fleet answers the new generation exactly
        # (the origin rmax now exceeds the new index radius — the
        # mid-roll answer above could only have come from gen 1).
        after = client.request("POST", "/query", QUERY_NEW)
        want = ServiceClient(reference.url, timeout=30.0).request(
            "POST", "/query", QUERY_NEW)
        assert _norm(after) == _norm(want)
        health = client.request("GET", "/healthz")
        assert health["generation"] == manifest2.generation
        assert health["status"] == "ok"

    def test_failed_reload_rolls_back_around_inflight_query(
            self, reload_fleet_env):
        router, manifest2, parts2, _ = reload_fleet_env
        client = ServiceClient(router.url, timeout=30.0)
        before = _clean(client.request("POST", "/query", QUERY_ALL))
        old_generation = client.request("GET",
                                        "/healthz")["generation"]

        # The first backend's reload dies before anything swaps.
        faults.activate("service.reload", "nth(1):raise")
        inflight = {}
        try:
            def ask():
                inflight.update(ServiceClient(
                    router.url, timeout=30.0).request(
                        "POST", "/query", QUERY_ALL))
            asker = threading.Thread(target=ask)
            asker.start()
            with pytest.raises(ServiceError, match="rolled back"):
                client.request("POST", "/admin/reload",
                               {"path": str(parts2)})
            asker.join(timeout=30.0)
            assert not asker.is_alive()
        finally:
            faults.clear()
        # The concurrent query survived the failed roll-out with the
        # exact origin answer.
        assert _clean(inflight) == before
        assert inflight["partial"] is False

        # Nothing moved: same generation, same answers, and the
        # rollback is visible in the metrics.
        health = client.request("GET", "/healthz")
        assert health["generation"] == old_generation
        assert health["status"] == "ok"
        assert _clean(client.request("POST", "/query", QUERY_ALL)) \
            == before
        assert "repro_router_reload_rollbacks_total 1" \
            in client.metrics()

        # The fault was once-only: the retry rolls the fleet forward.
        retried = client.request("POST", "/admin/reload",
                                 {"path": str(parts2)})
        assert retried["reloaded"] is True
        assert retried["generation"] == manifest2.generation


@pytest.fixture()
def crossbox_fleet(tmp_path):
    """Backends whose only snapshot source is their OWN empty store —
    the no-shared-filesystem deployment."""
    dbg = figure4_graph()
    manifest1 = _partition(tmp_path, dbg, 10.0, "parts1")
    manifest2 = _partition(tmp_path, dbg, 4.0, "parts2")
    stores = {(entry.shard_id, 0): tmp_path / f"box-{entry.shard_id}"
              for entry in manifest1.shards}
    backends, urls = _start_backends(manifest1, tmp_path / "parts1",
                                     stores=stores)
    router = RouterService(manifest1, urls,
                           root=tmp_path / "parts1").start()
    yield router, manifest2, tmp_path / "parts2"
    faults.clear()
    _stop(router, *[s for g in backends for s in g])


class TestCrossBoxTransferReload:
    def test_transfer_reload_needs_no_shared_filesystem(
            self, crossbox_fleet):
        router, manifest2, parts2 = crossbox_fleet
        client = ServiceClient(router.url, timeout=30.0)
        outcome = client.request(
            "POST", "/admin/reload",
            {"path": str(parts2), "transfer": True})
        assert outcome["reloaded"] is True
        assert outcome["transfer"] is True
        assert outcome["generation"] == manifest2.generation
        # Every backend now serves its pushed shard snapshot.
        health = client.request("GET", "/healthz")
        assert health["status"] == "ok"
        for row, entry in zip(health["shards"], manifest2.shards):
            assert row["snapshot"] == entry.snapshot_id
        result = client.request("POST", "/query", QUERY_NEW)
        assert result["partial"] is False and result["count"] >= 1

    def test_corrupted_transfer_rolls_the_fleet_back(
            self, crossbox_fleet):
        router, manifest2, parts2 = crossbox_fleet
        client = ServiceClient(router.url, timeout=30.0)
        before = _clean(client.request("POST", "/query", QUERY_ALL))
        old_generation = client.request("GET",
                                        "/healthz")["generation"]

        # Each shard pushes each section once, shard 0 first — the
        # second evaluation of this per-section failpoint corrupts
        # shard 1's copy in flight, after shard 0 already switched.
        entry = manifest2.shards[0]
        shard_manifest = read_manifest(
            parts2 / entry.store / entry.snapshot_id)
        section = sorted(shard_manifest["sections"])[0]
        faults.activate(f"snapshot.transfer.{section}",
                        "nth(2):corrupt")
        try:
            with pytest.raises(ServiceError, match="rolled back"):
                client.request(
                    "POST", "/admin/reload",
                    {"path": str(parts2), "transfer": True})
        finally:
            faults.clear()

        # Shard 0 was rolled back; the fleet still serves the origin
        # generation exactly.
        health = client.request("GET", "/healthz")
        assert health["generation"] == old_generation
        assert health["status"] == "ok"
        assert _clean(client.request("POST", "/query", QUERY_ALL)) \
            == before
        assert "repro_router_reload_rollbacks_total 1" \
            in client.metrics()

        # With the wire healthy again the same roll-out succeeds.
        retried = client.request(
            "POST", "/admin/reload",
            {"path": str(parts2), "transfer": True})
        assert retried["reloaded"] is True
        assert retried["generation"] == manifest2.generation


def _delta(engine):
    """A valid delta for ``engine``'s graph: one new node carrying a
    query keyword, wired to node 0 (shard-local ids on a shard)."""
    return {"nodes": [{"keywords": [FIG4_QUERY[0]]}],
            "edges": [[0, engine.dbg.n, 1.0]]}


class TestShardDelta:
    def test_shard_backend_refuses_deltas_with_409(self, tmp_path):
        manifest = _partition(tmp_path, figure4_graph(), 10.0,
                              "parts")
        entry = manifest.shards[0]
        engine = QueryEngine.from_snapshot(
            tmp_path / "parts" / entry.store / entry.snapshot_id)
        assert engine.partition["shard"] == 0
        with WriteAheadLog(tmp_path / "shard.wal") as wal:
            service = CommunityService(engine, port=0,
                                       wal=wal).start()
            try:
                client = ServiceClient(service.url, timeout=30.0)
                before = client.request("POST", "/query", QUERY_ALL)
                with pytest.raises(Conflict, match="shard 0 of 2"):
                    client.request("POST", "/admin/delta",
                                   _delta(engine))
                after = client.request("POST", "/query", QUERY_ALL)
                assert _norm(after) == _norm(before)
                assert wal.lsn == 0 and wal.pending_count == 0
                assert engine.deltas_applied == 0
            finally:
                service.shutdown()

    def test_unsharded_service_still_acks_deltas(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        dbg = figure4_graph()
        snapshot = store.publish(dbg, CommunityIndex.build(dbg, 10.0))
        engine = QueryEngine.from_snapshot(snapshot.path)
        assert engine.partition is None
        with CommunityService(engine, port=0).start() as service:
            reply = ServiceClient(service.url, timeout=30.0).request(
                "POST", "/admin/delta", _delta(engine))
        assert reply["nodes_added"] == 1
        assert reply["edges_added"] == 1
