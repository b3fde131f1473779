"""Router semantics against a real two-shard fig4 fleet.

The shard backends are genuine :class:`CommunityService` servers on
ephemeral ports (the router speaks HTTP to them through
:class:`ServiceClient`); the router itself is driven through
:meth:`RouterService.handle` — no router socket needed.
"""

import json

import pytest

from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX, \
    figure4_graph
from repro.engine.engine import QueryEngine
from repro.exceptions import ServiceError
from repro.service import CommunityService
from repro.shard import RouterService, partition_snapshot
from repro.snapshot.store import SnapshotStore
from repro.text.inverted_index import CommunityIndex


def _fleet(tmp, radius):
    """(router, single-box service, manifest) over partitioned fig4
    indexed at ``radius``."""
    dbg = figure4_graph()
    store = SnapshotStore(tmp / "store")
    snapshot = store.publish(dbg, CommunityIndex.build(dbg, radius),
                             provenance={"dataset": "fig4"})
    manifest, _ = partition_snapshot(tmp / "store", tmp / "parts", 2)
    shards = []
    urls = []
    for entry in manifest.shards:
        engine = QueryEngine.from_snapshot(
            tmp / "parts" / entry.store / entry.snapshot_id)
        service = CommunityService(engine, port=0).start()
        shards.append(service)
        urls.append(service.url)
    router = RouterService(manifest, urls, root=tmp / "parts")
    reference = CommunityService(
        QueryEngine.from_snapshot(snapshot.path), port=0)
    yield router, reference, manifest
    router.shutdown()
    reference.shutdown()
    for service in shards:
        service.shutdown()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    yield from _fleet(tmp_path_factory.mktemp("fleet"), 10.0)


@pytest.fixture(scope="module")
def fleet_r4(tmp_path_factory):
    """The same fleet indexed at R=4, so ``rmax`` 9 is out of range."""
    yield from _fleet(tmp_path_factory.mktemp("fleet4"), 4.0)


def _post(service, path, payload):
    status, _, body, _ = service.handle(
        "POST", path, json.dumps(payload).encode())
    return status, json.loads(body)


def _norm(response):
    return sorted((tuple(c["core"]), round(c["cost"], 9))
                  for c in response["communities"])


def test_router_rejects_mismatched_urls(fleet):
    _, _, manifest = fleet
    with pytest.raises(ServiceError):
        RouterService(manifest, ["http://127.0.0.1:1"])


def test_query_all_matches_single_box(fleet):
    router, reference, _ = fleet
    body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
            "mode": "all"}
    status, routed = _post(router, "/query", body)
    ref_status, single = _post(reference, "/query", body)
    assert status == ref_status == 200
    assert routed["count"] == single["count"]
    assert _norm(routed) == _norm(single)
    assert routed["shards_answered"] == routed["shards_total"] == 2
    assert routed["partial"] is False
    # The router's PDall contract: canonical (cost, core) order.
    keys = [(c["cost"], tuple(c["core"]))
            for c in routed["communities"]]
    assert keys == sorted(keys)


def test_query_top_k_matches_single_box(fleet):
    router, reference, _ = fleet
    for k in (1, 3, 5, 50):
        body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                "k": k}
        _, routed = _post(router, "/query", body)
        _, single = _post(reference, "/query", body)
        assert [round(c["cost"], 9) for c in routed["communities"]] \
            == [round(c["cost"], 9) for c in single["communities"]]
        assert _norm(routed) == _norm(single)


def test_query_labels_are_global(fleet):
    router, _, _ = fleet
    dbg = figure4_graph()
    _, routed = _post(router, "/query",
                      {"keywords": list(FIG4_QUERY),
                       "rmax": FIG4_RMAX, "k": 2, "labels": True})
    for community in routed["communities"]:
        for node, label in community["labels"].items():
            assert dbg.label_of(int(node)) == label


def test_unknown_keyword_is_definitive_400(fleet):
    router, _, _ = fleet
    status, body = _post(router, "/query",
                         {"keywords": ["nosuchkeyword"], "rmax": 4.0})
    assert status == 400
    assert "does not occur" in body["error"]


@pytest.mark.parametrize("shape", ({"k": 3}, {"mode": "all"}))
def test_other_shard_400s_reach_the_client(fleet_r4, shape):
    """Only the unknown-keyword 400 means "no answers on this shard";
    an ``rmax`` beyond the index radius is the client's error and is
    answered 400, as the single box answers it."""
    router, reference, _ = fleet_r4
    body = dict(shape, keywords=list(FIG4_QUERY), rmax=9.0)
    status, routed = _post(router, "/query", body)
    ref_status, single = _post(reference, "/query", body)
    assert ref_status == 400
    assert status == 400, routed
    assert "exceeds the index radius" in routed["error"]


def test_batch_with_a_bad_entry_is_a_400_like_the_single_box(
        fleet_r4):
    router, reference, _ = fleet_r4
    valid = {"keywords": list(FIG4_QUERY), "rmax": 4.0, "k": 3}
    body = {"queries": [valid, dict(valid, rmax=9.0)]}
    status, routed = _post(router, "/batch", body)
    ref_status, _ = _post(reference, "/batch", body)
    assert ref_status == 400
    assert status == 400, routed
    assert "exceeds the index radius" in routed["error"]
    # The valid entry alone still answers exactly, not partially.
    status, routed = _post(router, "/batch", {"queries": [valid]})
    _, single = _post(reference, "/batch", {"queries": [valid]})
    assert status == 200
    entry = routed["results"][0]
    assert entry["partial"] is False
    assert _norm(entry) == _norm(single["results"][0])


def test_batch_matches_single_box(fleet):
    router, reference, _ = fleet
    body = {"queries": [
        {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 3},
        {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
         "mode": "all"},
    ]}
    status, routed = _post(router, "/batch", body)
    _, single = _post(reference, "/batch", body)
    assert status == 200
    assert routed["queries"] == 2
    topk_r, all_r = routed["results"]
    topk_s, all_s = single["results"]
    assert [round(c["cost"], 9) for c in topk_r["communities"]] \
        == [round(c["cost"], 9) for c in topk_s["communities"]]
    assert _norm(all_r) == _norm(all_s)
    for entry in routed["results"]:
        assert entry["shards_answered"] == entry["shards_total"]
        assert entry["partial"] is False


def test_batch_validation(fleet):
    router, _, _ = fleet
    status, _ = _post(router, "/batch", {"queries": []})
    assert status == 400
    status, _ = _post(router, "/batch", {"queries": ["nope"]})
    assert status == 400


def test_healthz_aggregates_fleet(fleet):
    router, _, manifest = fleet
    status, _, body, _ = router.handle("GET", "/healthz", b"")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["generation"] == manifest.generation
    assert health["shards_reachable"] == 2
    for row in health["shards"]:
        assert row["snapshot"] == row["expected_snapshot"]


def test_metrics_exposes_router_series(fleet):
    router, _, _ = fleet
    _post(router, "/query",
          {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 2})
    status, _, body, content_type = router.handle("GET", "/metrics",
                                                  b"")
    assert status == 200
    assert content_type.startswith("text/plain")
    for series in ("repro_router_queries_total",
                   "repro_router_fanout_legs_total",
                   "repro_router_merge_rounds_total",
                   "repro_router_shards 2",
                   "repro_router_shard_info",
                   "repro_router_manifest_info"):
        assert series in body, series
    assert 'path="shard:00"' in body


def test_reload_same_generation_is_noop(fleet):
    router, _, manifest = fleet
    status, body = _post(router, "/admin/reload", {})
    assert status == 200
    assert body["reloaded"] is False
    assert body["generation"] == manifest.generation


def test_reload_shard_count_mismatch_is_400(fleet, tmp_path):
    router, _, _ = fleet
    dbg = figure4_graph()
    store = SnapshotStore(tmp_path / "store")
    store.publish(dbg, CommunityIndex.build(dbg, 10.0))
    partition_snapshot(tmp_path / "store", tmp_path / "parts3", 3)
    status, body = _post(router, "/admin/reload",
                         {"path": str(tmp_path / "parts3")})
    assert status == 400
    assert "3" in body["error"]


def test_unknown_route_404(fleet):
    router, _, _ = fleet
    status, _, _, _ = router.handle("GET", "/nope", b"")
    assert status == 404


def _series(scrape, name):
    """The value of one unlabelled series in a Prometheus scrape."""
    for line in scrape.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError(f"{name} missing from the scrape")


def test_batch_top_k_entries_count_merge_depth(fleet):
    """A ``/batch`` top-k entry books its merge like a ``/query``."""
    router, _, manifest = fleet
    fresh = RouterService(manifest,
                          [r.url for r in router.replica_sets])
    try:
        status, body = _post(fresh, "/batch", {"queries": [
            {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
             "k": 3}]})
        assert status == 200 and body["results"][0]["count"] == 3
        scrape = fresh.render_metrics()
        assert _series(scrape, "repro_router_merge_rounds_total") >= 1
        assert _series(scrape,
                       "repro_router_merge_candidates_total") > 0
        assert _series(scrape, "repro_router_last_merge_depth") > 0
        assert _series(scrape,
                       "repro_router_shard_failures_total") == 0
    finally:
        fresh.shutdown()


def test_leg_empty_only_for_the_unknown_keyword_400():
    from repro.service.errors import BadRequest
    from repro.shard.routing import RouterCore

    assert RouterCore.leg_empty(
        BadRequest("keyword 'x' does not occur in the database"))
    assert not RouterCore.leg_empty({"communities": []})
    assert not RouterCore.leg_empty(ServiceError("shard down"))
    with pytest.raises(BadRequest, match="exceeds"):
        RouterCore.leg_empty(
            BadRequest("Rmax=9.0 exceeds the index radius R=4.0"))
