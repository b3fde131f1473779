"""Command-line query tool: ``python -m repro``.

Workflows:

* build a demo graph+index and save them::

      python -m repro build --dataset dblp --out-graph g.json.gz \
          --out-index idx.json.gz --radius 8

* query saved artifacts (or a built-in dataset directly)::

      python -m repro query --graph g.json.gz --index idx.json.gz \
          --keywords kw0009a,kw0009b --rmax 6 --k 10

      python -m repro query --dataset imdb \
          --keywords kw0009a,kw0009b,kw0009c --rmax 11 --all

* serve queries over HTTP (see :mod:`repro.service`)::

      python -m repro serve --dataset dblp --radius 8 --port 8420

* snapshot lifecycle (see :mod:`repro.snapshot`) — build once,
  publish atomically, serve and hot-reload from the store::

      python -m repro snapshot build --dataset fig4 --store ./snaps
      python -m repro snapshot verify ./snaps
      python -m repro serve --snapshot ./snaps --port 8420
      # after publishing a newer snapshot:
      curl -X POST http://127.0.0.1:8420/admin/reload
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import Tuple

from repro.core.search import CommunitySearch
from repro.engine.context import QueryContext
from repro.engine.spec import QuerySpec
from repro.exceptions import ReproError
from repro.graph.database_graph import DatabaseGraph
from repro.graph.io import load_database_graph, save_database_graph
from repro.text.persistence import load_index, save_index


def _load_dataset(name: str) -> DatabaseGraph:
    if name == "dblp":
        from repro.datasets.dblp import DBLPConfig, dblp_graph
        return dblp_graph(DBLPConfig(n_authors=1_500))[1]
    if name == "imdb":
        from repro.datasets.imdb import IMDBConfig, imdb_graph
        return imdb_graph(IMDBConfig(n_users=300, n_movies=200,
                                     n_ratings=8_000))[1]
    if name == "fig4":
        from repro.datasets.paper_example import figure4_graph
        return figure4_graph()
    raise ReproError(f"unknown dataset {name!r} (dblp, imdb, fig4)")


def _resolve_search(args) -> Tuple[DatabaseGraph, CommunitySearch]:
    if args.graph:
        dbg = load_database_graph(args.graph)
    elif args.dataset:
        dbg = _load_dataset(args.dataset)
    else:
        raise ReproError("pass --graph FILE or --dataset NAME")
    search = CommunitySearch(dbg)
    if getattr(args, "index", None):
        search.index = load_index(args.index, dbg)
    return dbg, search


def cmd_build(args) -> int:
    """``build``: generate a dataset; save graph and/or index."""
    dbg = _load_dataset(args.dataset)
    print(f"{args.dataset}: {dbg.n} nodes, {dbg.m} edges")
    if args.out_graph:
        save_database_graph(dbg, args.out_graph)
        print(f"graph -> {args.out_graph}")
    if args.out_index:
        search = CommunitySearch(dbg)
        start = time.perf_counter()
        index = search.build_index(radius=args.radius)
        print(f"index built in {time.perf_counter() - start:.1f}s "
              f"(R={args.radius:g}, {index.size_bytes() / 1e6:.1f} MB)")
        save_index(index, args.out_index)
        print(f"index -> {args.out_index}")
    return 0


def cmd_query(args) -> int:
    """``query``: run a community query and print the answers.

    Queries are normalized into a :class:`~repro.engine.QuerySpec`
    and executed by the facade's engine; ``--stats`` prints the
    engine's per-stage instrumentation (resolve/project/enumerate/
    translate timings, projection-cache traffic) afterwards.
    ``--json`` swaps the human rendering for the machine-readable
    envelope of :mod:`repro.service.serialize` — byte-compatible with
    what ``POST /query`` on the HTTP service returns.
    """
    dbg, search = _resolve_search(args)
    keywords = [kw.strip() for kw in args.keywords.split(",")
                if kw.strip()]
    if search.index is None:
        print(f"no index given; building one at R={args.rmax:g} ...",
              file=sys.stderr)
        search.build_index(radius=args.rmax)

    if args.all:
        spec = QuerySpec.comm_all(keywords, args.rmax,
                                  algorithm=args.algorithm,
                                  aggregate=args.aggregate)
    else:
        spec = QuerySpec.comm_k(keywords, args.k, args.rmax,
                                algorithm=args.algorithm,
                                aggregate=args.aggregate)
    context = QueryContext()
    start = time.perf_counter()
    results = search.engine.execute(spec, context)
    elapsed = time.perf_counter() - start

    if args.json:
        from repro.service.serialize import dumps, results_to_dict
        print(dumps(results_to_dict(results, dbg=dbg, context=context,
                                    spec=spec,
                                    elapsed_seconds=elapsed),
                    indent=2))
        return 0

    for rank, community in enumerate(results, start=1):
        print(f"#{rank}")
        print(community.describe(dbg))
        print()
    mode = "all" if args.all else f"top-{args.k}"
    print(f"{len(results)} communities ({mode}, Rmax={args.rmax:g}, "
          f"{args.algorithm}) in {elapsed:.2f}s")
    if args.stats:
        print(f"stages: {context.render()}")
    return 0


def _raise_sigterm(signum, frame):
    """Turn SIGTERM into a normal exit so cleanup handlers run."""
    raise SystemExit(0)


def cmd_serve(args) -> int:
    """``serve``: put the engine behind the HTTP/JSON service.

    Binds ``--host:--port`` (port 0 picks an ephemeral one), builds an
    index at ``--radius`` when none was loaded, and serves until
    interrupted. With ``--snapshot`` the engine loads a published
    snapshot (checksum-verified) instead of building anything, and
    ``POST /admin/reload`` hot-swaps to whatever that source's newest
    snapshot is; combined with ``--workers N`` (N > 1) queries execute
    on N worker *processes* sharing that snapshot, so COMM-all
    throughput scales with cores instead of saturating one. A reload
    fans out to every worker behind its in-flight work.
    ``--port-file`` writes ``host port`` after binding so scripts
    (CI smoke tests) can discover an ephemeral port.
    """
    from repro.service import CommunityService

    engine_close = None
    result_cache_bytes = int(
        getattr(args, "result_cache_mb", 64) * 1024 * 1024)
    wal = None
    if getattr(args, "wal", None):
        if not getattr(args, "snapshot", None):
            raise ReproError(
                "--wal needs --snapshot: WAL replay folds deltas "
                "onto a published snapshot, not an in-process build")
        from repro.wal import WriteAheadLog

        wal = WriteAheadLog(args.wal, fsync=args.wal_fsync)
        print(f"WAL {wal.path} open (fsync={wal.fsync_policy}, "
              f"lsn={wal.lsn}, {wal.pending_count} pending deltas)",
              file=sys.stderr)
    if getattr(args, "snapshot", None):
        from repro.snapshot.store import locate_snapshot

        path = locate_snapshot(args.snapshot)
        if args.workers > 1:
            # Process tier: N workers, each its own engine over the
            # same snapshot — true multi-core query execution. The
            # admission pool keeps `workers` threads, each blocking
            # on one pool response at a time.
            from repro.parallel import ParallelQueryEngine

            engine = ParallelQueryEngine(
                path, workers=args.workers,
                lease_seconds=args.worker_lease,
                result_cache_bytes=result_cache_bytes,
                wal_path=wal).start()
            engine_close = engine.close
            print(f"started {args.workers} worker processes",
                  file=sys.stderr)
        else:
            from repro.engine.engine import QueryEngine

            engine = QueryEngine.from_snapshot(
                path, result_cache_bytes=result_cache_bytes,
                wal_path=wal)
        if wal is not None and engine.deltas_applied:
            print(f"replayed {engine.deltas_applied} pending "
                  f"delta(s) through LSN {engine.applied_lsn}",
                  file=sys.stderr)
        dbg = engine.dbg
        loaded_id = (engine.snapshot_id
                     or getattr(engine, "base_snapshot_id", None))
        print(f"loaded snapshot {loaded_id} from {path}",
              file=sys.stderr)
    else:
        dbg, search = _resolve_search(args)
        if search.index is None:
            print(f"building index at R={args.radius:g} ...",
                  file=sys.stderr)
            search.build_index(radius=args.radius)
        engine = search.engine
        from repro.engine.results import ResultCache

        engine.results = ResultCache(result_cache_bytes)
    service = CommunityService(
        engine, host=args.host, port=args.port,
        workers=args.workers, queue_depth=args.queue_depth,
        session_ttl=args.session_ttl, max_sessions=args.max_sessions,
        default_deadline=args.deadline,
        snapshot_source=getattr(args, "snapshot", None),
        drain_seconds=args.drain_seconds,
        warm_top=getattr(args, "warm_top", 8),
        wal=wal)
    compactor = None
    if wal is not None and getattr(args, "compact_interval", 0) > 0:
        from repro.service.http import snapshot_store_of
        from repro.snapshot.store import SnapshotStore
        from repro.wal import Compactor

        store_root = snapshot_store_of(args.snapshot)
        if store_root is None:
            raise ReproError(
                "--compact-interval needs --snapshot to point at a "
                "snapshot *store* (compaction publishes new "
                "snapshots into it)")
        compactor = Compactor(
            wal, SnapshotStore(store_root), engine=engine,
            lock=service.ingest_lock,
            interval=args.compact_interval,
            min_deltas=args.compact_min_deltas).start()
        service.compactor = compactor
        print(f"compactor running every "
              f"{args.compact_interval:g}s "
              f"(min {args.compact_min_deltas} deltas)",
              file=sys.stderr)
    if args.port_file:
        with open(args.port_file, "w") as handle:
            handle.write(f"{service.host} {service.port}\n")
    print(f"serving {dbg.n} nodes / {dbg.m} edges on {service.url} "
          f"({args.workers} workers, queue {args.queue_depth})")
    # SIGTERM (``kill``, process supervisors) must unwind through the
    # finally block, or a --workers pool would leave orphaned worker
    # processes behind.
    signal.signal(signal.SIGTERM, _raise_sigterm)
    try:
        service.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        print("shutting down", file=sys.stderr)
    finally:
        if compactor is not None:
            compactor.stop()
        service.shutdown()
        if engine_close is not None:
            engine_close()
        if wal is not None:
            wal.close()
    return 0


def cmd_serve_router(args) -> int:
    """``serve-router``: front a shard fleet with the scatter-gather
    router.

    Loads the routing manifest from ``--manifest`` (a partition root
    or the ``routing.json`` file) and fans queries out to the
    ``--shard-url`` backends — one flag per shard, in shard order,
    each value a single URL or a comma-separated replica set
    (``http://a:8420,http://b:8420``) of siblings serving that
    shard's snapshot; each backend is an ordinary ``serve
    --snapshot`` server. The router itself is stateless: run as many
    replicas as needed over the same manifest.
    """
    from repro.shard import RoutingManifest, RouterService, \
        parse_shard_urls

    from pathlib import Path

    manifest = RoutingManifest.load(args.manifest)
    groups = parse_shard_urls(list(args.shard_url))
    if len(groups) != len(manifest.shards):
        print(f"error: the routing manifest names "
              f"{len(manifest.shards)} shards but {len(groups)} "
              f"--shard-url values were supplied; pass exactly one "
              f"--shard-url per shard, in shard order "
              f"(comma-separate replica URLs within one flag)",
              file=sys.stderr)
        return 2
    root = Path(args.manifest)
    if root.is_file():
        root = root.parent
    router = RouterService(
        manifest, list(args.shard_url), root=root,
        host=args.host, port=args.port,
        shard_timeout=args.shard_timeout,
        shard_retries=args.retries)
    if args.port_file:
        with open(args.port_file, "w") as handle:
            handle.write(f"{router.host} {router.port}\n")
    replicas = sum(len(urls) for urls in groups)
    print(f"routing {len(manifest.shards)} shards / {replicas} "
          f"replicas ({manifest.total_nodes} nodes, generation "
          f"{manifest.generation}) on {router.url}")
    signal.signal(signal.SIGTERM, _raise_sigterm)
    try:
        router.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        print("shutting down", file=sys.stderr)
    finally:
        router.shutdown()
    return 0


def cmd_warm(args) -> int:
    """``warm``: mine a live service's query log, replay the head.

    Fetches ``GET /admin/querylog``, runs the offline miner
    (:func:`repro.analysis.hot_keys.hot_keys`) over it, and replays
    the ``--top`` hottest specs as ordinary ``POST /query`` calls —
    each one either hits the result cache (already warm; free) or
    computes the answer into it. Run it after a deploy or reload to
    pre-pay the workload's head before clients arrive; the service
    also does this itself after ``/admin/reload`` (``--warm-top``),
    so this command is for external orchestration (cron, deploy
    hooks) and for warming beyond the server's own default.
    """
    import json as _json

    from repro.analysis.hot_keys import hot_keys
    from repro.service.client import ServiceClient

    with ServiceClient(args.url, timeout=args.timeout) as client:
        log = client.request("GET", "/admin/querylog", None)
        rows = hot_keys(log, top=args.top)
        report = []
        for row in rows:
            response = client.request("POST", "/query", row["query"])
            report.append({
                "key": row["key"],
                "count": row["count"],
                "cached": bool(response.get("cached")),
                "answers": response.get("count", 0),
            })
    warmed = sum(1 for row in report if not row["cached"])
    if args.json:
        print(_json.dumps({"replayed": len(report),
                           "computed": warmed,
                           "already_warm": len(report) - warmed,
                           "queries": report},
                          indent=2, sort_keys=True))
    else:
        for row in report:
            state = "warm" if row["cached"] else "computed"
            print(f"{state:9s} x{row['count']:<5d} {row['key']}")
        print(f"replayed {len(report)} hot specs "
              f"({warmed} computed, {len(report) - warmed} already "
              f"warm)")
    return 0


def cmd_compact(args) -> int:
    """``compact``: fold a WAL's pending deltas into a snapshot.

    The offline form of the background compactor: load the WAL's base
    snapshot from the store, apply the pending deltas in LSN order,
    publish the folded artifact (staged + atomic), verify it, append
    a ``checkpoint`` record, and truncate the folded prefix. Run it
    while the service is stopped, or against a copy — the serving
    path runs the same machinery in-process via
    ``serve --compact-interval``.
    """
    from repro.snapshot.store import SnapshotStore
    from repro.wal import Compactor, WriteAheadLog

    wal = WriteAheadLog(args.wal, fsync="always")
    try:
        pending = wal.pending_count
        if pending < args.min_deltas:
            print(f"{pending} pending delta(s), below "
                  f"--min-deltas {args.min_deltas}; nothing to do")
            return 0
        start = time.perf_counter()
        compactor = Compactor(wal, SnapshotStore(args.store),
                              min_deltas=args.min_deltas)
        snapshot_id = compactor.compact_once()
        elapsed = time.perf_counter() - start
        print(f"folded {compactor.folded} delta(s) into "
              f"{snapshot_id} ({elapsed:.1f}s); WAL now at "
              f"lsn={wal.lsn} with {wal.pending_count} pending")
    finally:
        wal.close()
    return 0


def cmd_snapshot_build(args) -> int:
    """``snapshot build``: build a dataset's index and publish it.

    Generation and index construction go through the same
    :func:`repro.bench.workloads.load_dataset` path the benchmark
    harness uses, so a published artifact is exactly what the
    benchmarks measure. ``fig4`` (the paper's running example) is
    built directly — it has no scale knob.
    """
    from repro.snapshot.store import SnapshotStore

    start = time.perf_counter()
    if args.dataset == "fig4":
        from repro.datasets.paper_example import figure4_graph
        from repro.text.inverted_index import CommunityIndex

        dbg = figure4_graph()
        index = CommunityIndex.build(dbg, args.radius)
        snapshot = SnapshotStore(args.store).publish(
            dbg, index,
            provenance={"dataset": "fig4",
                        "index_radius": args.radius,
                        "builder": "repro.cli"})
    else:
        from repro.bench.workloads import load_dataset, \
            publish_snapshot

        bundle = load_dataset(args.dataset, args.scale)
        snapshot = publish_snapshot(args.store, bundle)
    elapsed = time.perf_counter() - start
    counts = snapshot.counts
    print(f"published {snapshot.id} -> {snapshot.path}")
    print(f"  {counts['nodes']} nodes, {counts['edges']} edges, "
          f"{counts['node_postings']} node postings, "
          f"{counts['edge_postings']} edge postings "
          f"({elapsed:.1f}s)")
    return 0


def cmd_snapshot_partition(args) -> int:
    """``snapshot partition``: split a snapshot into a shard fleet.

    Reads the source snapshot (a snapshot directory or a store root),
    partitions it into ``--shards`` owned regions plus halos, publishes
    each shard snapshot under ``<out>/shards/NN`` and writes the
    routing manifest ``<out>/routing.json`` (see :mod:`repro.shard`).
    """
    from repro.shard import partition_snapshot

    start = time.perf_counter()
    manifest, path = partition_snapshot(
        args.snapshot, args.out, args.shards,
        halo_radius=args.halo_radius)
    elapsed = time.perf_counter() - start
    print(f"partitioned {manifest.source_snapshot} into "
          f"{len(manifest.shards)} shards "
          f"(generation {manifest.generation}, {elapsed:.1f}s)")
    print(f"routing manifest -> {path}")
    for entry in manifest.shards:
        counts = entry.counts
        print(f"  shard {entry.shard_id:02d}: {entry.snapshot_id}  "
              f"{entry.owned_nodes} owned / "
              f"{len(entry.node_map)} total nodes, "
              f"{counts.get('vocab', 0)} keywords -> {entry.store}")
    return 0


def _inspect_routing(path, as_json: bool) -> int:
    """Render a routing manifest (the shard table) for ``snapshot
    inspect`` pointed at a partition root."""
    import json as _json

    from repro.shard import RoutingManifest

    manifest = RoutingManifest.load(path)
    if as_json:
        print(_json.dumps(manifest.to_dict(), indent=2,
                          sort_keys=True))
        return 0
    print(f"routing    {manifest.generation} "
          f"({len(manifest.shards)} shards)")
    print(f"created    {manifest.created_at or '-'}")
    print(f"source     {manifest.source_snapshot or '-'}")
    print(f"radius     R={manifest.index_radius:g}, "
          f"halo={manifest.halo_radius:g}")
    print(f"nodes      {manifest.total_nodes} global")
    for entry in manifest.shards:
        counts = entry.counts
        print(f"shard {entry.shard_id:02d}   {entry.snapshot_id}  "
              f"{entry.owned_nodes} owned / "
              f"{len(entry.node_map)} nodes, "
              f"{counts.get('vocab', 0)} keywords  "
              f"-> {entry.store}")
    return 0


def cmd_snapshot_inspect(args) -> int:
    """``snapshot inspect``: print a snapshot's manifest summary.

    Pointed at a partition root (or ``routing.json`` itself), prints
    the shard table instead of a single snapshot's sections.
    """
    import json as _json

    from repro.shard import is_routing_root
    from repro.snapshot.snapshot import read_manifest
    from repro.snapshot.store import locate_snapshot

    if is_routing_root(args.path):
        return _inspect_routing(args.path, args.json)
    manifest = read_manifest(locate_snapshot(args.path))
    if args.json:
        print(_json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    counts = manifest["counts"]
    print(f"snapshot   {manifest['id']}")
    print(f"created    {manifest['created_at']}")
    print(f"provenance {manifest.get('provenance') or '-'}")
    print(f"counts     {counts['nodes']} nodes, {counts['edges']} "
          f"edges, {counts['vocab']} keywords, "
          f"{counts['node_postings']}/{counts['edge_postings']} "
          f"node/edge postings")
    total = 0
    for name in sorted(manifest["sections"]):
        section = manifest["sections"][name]
        total += section["bytes"]
        print(f"section    {name}: {section['file']} "
              f"{section['bytes']} bytes "
              f"sha256={section['sha256'][:12]}...")
    print(f"mapped     {total} bytes, shareable across workers")
    return 0


def cmd_snapshot_verify(args) -> int:
    """``snapshot verify``: checksum + decode every section."""
    from repro.snapshot.snapshot import verify_snapshot
    from repro.snapshot.store import locate_snapshot

    path = locate_snapshot(args.path)
    manifest = verify_snapshot(path)
    print(f"ok: {manifest['id']} at {path} verified "
          f"({len(manifest['sections'])} sections)")
    return 0


def cmd_snapshot_list(args) -> int:
    """``snapshot list``: published snapshots, newest first."""
    from repro.snapshot.store import SnapshotStore

    manifests = SnapshotStore(args.store).list()
    if not manifests:
        print("(empty store)")
        return 0
    for manifest in manifests:
        marker = "*" if manifest["latest"] else " "
        counts = manifest["counts"]
        dataset = manifest.get("provenance", {}).get("dataset", "-")
        print(f"{marker} {manifest['id']}  {manifest['created_at']}  "
              f"{dataset:>6}  {counts['nodes']} nodes / "
              f"{counts['edges']} edges")
    return 0


def cmd_snapshot_prune(args) -> int:
    """``snapshot prune``: drop all but the newest snapshots."""
    from repro.snapshot.store import SnapshotStore

    removed = SnapshotStore(args.store).prune(
        keep=args.keep, wal=getattr(args, "wal", None))
    for snapshot_id in removed:
        print(f"removed {snapshot_id}")
    print(f"{len(removed)} snapshot(s) pruned")
    return 0


def cmd_snapshot_push(args) -> int:
    """``snapshot push``: ship a snapshot to a remote box over HTTP.

    Drives the cross-box transfer protocol (begin → checksum-verified
    section PUTs → atomic commit) against a service started with a
    snapshot store; re-pushing content the remote already holds is
    detected by the content-addressed id and costs one round trip.
    With ``--reload`` the remote service is then swapped onto the
    pushed snapshot by id — deploy to a box that shares no
    filesystem with the build host.
    """
    from repro.service.client import ServiceClient
    from repro.service.http import push_snapshot
    from repro.snapshot.store import locate_snapshot

    snapshot_dir = locate_snapshot(args.snapshot)
    with ServiceClient(args.url, timeout=args.timeout) as client:
        reply = push_snapshot(client, snapshot_dir)
        snapshot_id = reply["snapshot"]
        if reply.get("complete"):
            print(f"{snapshot_id} already on {args.url} "
                  f"(content match; nothing sent)")
        else:
            print(f"pushed {snapshot_id} -> {args.url}")
        if args.reload_after:
            adopted = client.admin_reload(snapshot=snapshot_id)
            print(f"reloaded {args.url} onto "
                  f"{adopted.get('snapshot')} "
                  f"(generation {adopted.get('generation')})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Keyword community search over relational "
                    "database graphs (Qin et al., ICDE 2009).")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="generate and save a demo "
                                         "graph and/or index")
    build.add_argument("--dataset", required=True,
                       choices=("dblp", "imdb", "fig4"))
    build.add_argument("--out-graph", help="write the graph here "
                                           "(.json or .json.gz)")
    build.add_argument("--out-index", help="write the index here")
    build.add_argument("--radius", type=float, default=8.0,
                       help="index radius R (max Rmax; default 8)")
    build.set_defaults(func=cmd_build)

    query = sub.add_parser("query", help="run a community query")
    source = query.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="a saved graph file")
    source.add_argument("--dataset", choices=("dblp", "imdb", "fig4"),
                        help="generate a built-in dataset instead")
    query.add_argument("--index", help="a saved index file")
    query.add_argument("--keywords", required=True,
                       help="comma-separated query keywords")
    query.add_argument("--rmax", type=float, required=True,
                       help="community radius Rmax")
    query.add_argument("--k", type=int, default=10,
                       help="top-k (default 10)")
    query.add_argument("--all", action="store_true",
                       help="enumerate all communities instead of "
                            "top-k")
    query.add_argument("--algorithm", default="pd",
                       choices=("pd", "bu", "td", "naive"))
    query.add_argument("--aggregate", default="sum",
                       choices=("sum", "max"))
    query.add_argument("--stats", action="store_true",
                       help="print per-stage engine instrumentation "
                            "(timings, cache traffic) after the "
                            "answers")
    query.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON (same shape "
                            "as the HTTP service's POST /query)")
    query.set_defaults(func=cmd_query)

    serve = sub.add_parser("serve", help="serve queries over HTTP "
                                         "(JSON API + /metrics)")
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="a saved graph file")
    source.add_argument("--dataset", choices=("dblp", "imdb", "fig4"),
                        help="generate a built-in dataset instead")
    source.add_argument("--snapshot",
                        help="serve a published snapshot (a snapshot "
                             "directory or a store root, whose "
                             "'latest' is used); enables POST "
                             "/admin/reload")
    serve.add_argument("--index", help="a saved index file")
    serve.add_argument("--radius", type=float, default=8.0,
                       help="index radius R when building in-process "
                            "(default 8)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8420,
                       help="port to bind (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=4,
                       help="concurrent query executions (default 4); "
                            "with --snapshot and N > 1, N worker "
                            "*processes* are started so queries use "
                            "N cores (otherwise threads in-process)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       dest="queue_depth",
                       help="admitted-but-waiting requests before "
                            "shedding with 429 (default 16)")
    serve.add_argument("--session-ttl", type=float, default=300.0,
                       dest="session_ttl",
                       help="idle seconds before a session lease "
                            "expires (default 300)")
    serve.add_argument("--max-sessions", type=int, default=64,
                       dest="max_sessions",
                       help="concurrent session leases (default 64)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in seconds "
                            "(none by default)")
    serve.add_argument("--port-file", default=None,
                       help="write 'host port' here after binding "
                            "(for scripts using an ephemeral port)")
    serve.add_argument("--drain-seconds", type=float, default=5.0,
                       dest="drain_seconds",
                       help="graceful-shutdown budget: how long "
                            "SIGTERM/SIGINT lets in-flight requests "
                            "finish before hard teardown (default 5)")
    serve.add_argument("--worker-lease", type=float, default=120.0,
                       dest="worker_lease",
                       help="per-request watchdog lease for pool "
                            "workers in seconds; a worker silent "
                            "past this is killed and respawned "
                            "(default 120)")
    serve.add_argument("--result-cache-mb", type=float, default=64.0,
                       dest="result_cache_mb",
                       help="result-cache budget in MiB per engine "
                            "(LRU by serialized bytes; 0 disables "
                            "the cache; default 64)")
    serve.add_argument("--warm-top", type=int, default=8,
                       dest="warm_top",
                       help="after POST /admin/reload adopts a new "
                            "generation, replay this many of the "
                            "query log's hottest specs into the "
                            "fresh result cache (0 disables; "
                            "default 8)")
    serve.add_argument("--wal", default=None,
                       help="durable delta write-ahead log file "
                            "(requires --snapshot): POST /admin/delta "
                            "appends here before applying, and "
                            "startup replays pending deltas so a "
                            "crash loses at most the unacknowledged "
                            "tail")
    serve.add_argument("--wal-fsync", dest="wal_fsync",
                       choices=("always", "batch", "off"),
                       default="always",
                       help="WAL durability policy: 'always' fsyncs "
                            "per delta (power-loss safe), 'batch' "
                            "fsyncs every few appends, 'off' only "
                            "flushes (still survives kill -9, not "
                            "power loss); default always")
    serve.add_argument("--compact-interval", type=float, default=0.0,
                       dest="compact_interval",
                       help="seconds between background WAL "
                            "compactions into the snapshot store "
                            "(0 disables, the default; needs --wal "
                            "and a store root --snapshot)")
    serve.add_argument("--compact-min-deltas", type=int, default=1,
                       dest="compact_min_deltas",
                       help="skip a compaction cycle when fewer "
                            "deltas are pending (default 1)")
    serve.set_defaults(func=cmd_serve)

    compact = sub.add_parser(
        "compact",
        help="fold a delta WAL's pending records into a freshly "
             "published snapshot (offline compaction)")
    compact.add_argument("--wal", required=True,
                         help="the delta WAL file to fold")
    compact.add_argument("--store", required=True,
                         help="snapshot store holding the WAL's base "
                              "snapshot; the folded snapshot is "
                              "published here")
    compact.add_argument("--min-deltas", type=int, default=1,
                         dest="min_deltas",
                         help="do nothing when fewer deltas are "
                              "pending (default 1)")
    compact.set_defaults(func=cmd_compact)

    warm = sub.add_parser(
        "warm",
        help="mine a running service's query log and replay the "
             "hottest specs to warm its result cache")
    warm.add_argument("--url", required=True,
                      help="base URL of the service to warm")
    warm.add_argument("--top", type=int, default=8,
                      help="how many of the hottest specs to replay "
                           "(default 8)")
    warm.add_argument("--timeout", type=float, default=30.0,
                      help="per-request timeout in seconds "
                           "(default 30)")
    warm.add_argument("--json", action="store_true",
                      help="emit a machine-readable warming report")
    warm.set_defaults(func=cmd_warm)

    router = sub.add_parser(
        "serve-router",
        help="front a partitioned shard fleet with the stateless "
             "scatter-gather router")
    router.add_argument("--manifest", required=True,
                        help="partition root (or routing.json) "
                             "written by 'snapshot partition'")
    router.add_argument("--shard-url", action="append", required=True,
                        dest="shard_url",
                        help="one value per shard, in shard order "
                             "(repeat the flag); each value is a "
                             "backend URL or a comma-separated "
                             "replica set of sibling URLs serving "
                             "the same shard snapshot, e.g. "
                             "http://a:8420,http://b:8420")
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=8421,
                        help="port to bind (0 = ephemeral; "
                             "default 8421)")
    router.add_argument("--port-file", default=None,
                        help="write 'host port' here after binding")
    router.add_argument("--shard-timeout", type=float, default=10.0,
                        dest="shard_timeout",
                        help="per-shard fan-out socket timeout in "
                             "seconds (default 10); a slower shard "
                             "degrades the answer to partial")
    router.add_argument("--retries", type=int, default=2,
                        help="idempotent retry budget per shard leg "
                             "(default 2)")
    router.set_defaults(func=cmd_serve_router)

    snapshot = sub.add_parser(
        "snapshot", help="build / inspect / verify / list / prune "
                         "immutable snapshot artifacts")
    snapshot_sub = snapshot.add_subparsers(dest="snapshot_command",
                                           required=True)

    snap_build = snapshot_sub.add_parser(
        "build", help="build a dataset's graph + index and publish "
                      "them into a snapshot store")
    snap_build.add_argument("--dataset", required=True,
                            choices=("dblp", "imdb", "fig4"))
    snap_build.add_argument("--scale", default="bench",
                            choices=("tiny", "bench", "paper"),
                            help="dataset scale (ignored for fig4; "
                                 "default bench)")
    snap_build.add_argument("--store", required=True,
                            help="snapshot store directory (created "
                                 "if missing)")
    snap_build.add_argument("--radius", type=float, default=10.0,
                            help="index radius R for fig4 (dblp/imdb "
                                 "use their paper radius)")
    snap_build.set_defaults(func=cmd_snapshot_build)

    snap_partition = snapshot_sub.add_parser(
        "partition", help="split a published snapshot into K shard "
                          "snapshots + a routing manifest")
    snap_partition.add_argument("--snapshot", required=True,
                                help="source snapshot directory or "
                                     "store root")
    snap_partition.add_argument("--out", required=True,
                                help="partition root to write "
                                     "(shards/NN stores + "
                                     "routing.json)")
    snap_partition.add_argument("--shards", type=int, required=True,
                                help="number of shards K")
    snap_partition.add_argument("--halo-radius", type=float,
                                default=None, dest="halo_radius",
                                help="undirected halo distance "
                                     "(default 3R, the proven exact "
                                     "bound; smaller risks wrong "
                                     "answers)")
    snap_partition.set_defaults(func=cmd_snapshot_partition)

    snap_inspect = snapshot_sub.add_parser(
        "inspect", help="print a snapshot's manifest (or, pointed at "
                        "a partition root, the shard routing table)")
    snap_inspect.add_argument("path", help="snapshot directory or "
                                           "store root")
    snap_inspect.add_argument("--json", action="store_true",
                              help="print the raw manifest JSON")
    snap_inspect.set_defaults(func=cmd_snapshot_inspect)

    snap_verify = snapshot_sub.add_parser(
        "verify", help="recompute every section checksum and decode "
                       "the snapshot")
    snap_verify.add_argument("path", help="snapshot directory or "
                                          "store root")
    snap_verify.set_defaults(func=cmd_snapshot_verify)

    snap_list = snapshot_sub.add_parser(
        "list", help="list a store's published snapshots")
    snap_list.add_argument("store", help="snapshot store directory")
    snap_list.set_defaults(func=cmd_snapshot_list)

    snap_prune = snapshot_sub.add_parser(
        "prune", help="delete all but the newest snapshots")
    snap_prune.add_argument("store", help="snapshot store directory")
    snap_prune.add_argument("--keep", type=int, default=2,
                            help="snapshots to retain (default 2)")
    snap_prune.add_argument("--wal", default=None,
                            help="delta WAL whose base snapshot (and "
                                 "pending-delta bases) must never be "
                                 "pruned, whatever --keep says")
    snap_prune.set_defaults(func=cmd_snapshot_prune)

    snap_push = snapshot_sub.add_parser(
        "push", help="ship a local snapshot to a remote service's "
                     "store over HTTP (no shared filesystem)")
    snap_push.add_argument("--snapshot", required=True,
                           help="local snapshot directory or store "
                                "root (LATEST is pushed)")
    snap_push.add_argument("--url", required=True,
                           help="base URL of the receiving service "
                                "(serve --snapshot <store>)")
    snap_push.add_argument("--reload", action="store_true",
                           dest="reload_after",
                           help="after the push commits, reload the "
                                "service onto the pushed snapshot")
    snap_push.add_argument("--timeout", type=float, default=60.0,
                           help="per-request socket timeout in "
                                "seconds (default 60)")
    snap_push.set_defaults(func=cmd_snapshot_push)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
