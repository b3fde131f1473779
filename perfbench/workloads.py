"""The four workloads: deploy, drive, check, report.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome` whose ``metrics`` hold the end-to-end metrics (or,
with ``trace``, the per-layer ones). The traced run repeats the
untraced measurement first — one set-up, same traffic — so
``trace.overhead_frac`` compares the two on the same inputs, then
deploys again with the span wrappers and replays exactly as many
requests.

Scales (``bench`` is what ``BENCHMARK.json`` runs; ``tiny`` is for the
benchmark's own smoke tests):

* engine-imdb: IMDB at 150 users / 100 movies / 4,000 ratings (half
  the ``bench`` IMDB) with Rmax 9–11 — at full bench scale an Rmax-13
  query takes 1–2 s, too slow for the 200 queries a p95 needs. It
  sends a fixed count of queries (:func:`engine_count`: four passes of
  135) rather than running for a fixed time, and the served workloads
  fix their request counts the same way (:func:`read_counts`,
  :func:`ingest_counts`).
* serve-dblp: the repo's bench DBLP config, index radius and query
  grid (``repro.bench.workloads``: 2,500 authors, radius 8, l 2–6,
  Rmax 4–8, k 50–250); at 1,000 authors its p95 spread three times
  wider between runs.
* routed-dblp: DBLP at 1,000 authors — partitioning bench DBLP takes
  ~6 s, and set-up is repeated twice per run.
* ingest-dblp: DBLP at 100 authors — every delta rebuilds the graph
  and copies the index, ~1 s per process at bench scale, and p75 of
  the acknowledgement time needs 40 deltas per run (64 are sent).

Every workload reports every end-to-end metric (``manifest.py``). The
paper's answer delay (engine-imdb) and the delta acknowledgement time
(ingest-dblp) exist on one workload each, and ``query_p95_ms`` and
``throughput_qps`` did not repeat within a bound from run to run, so
these are reported with the per-layer metrics of the traced run, taken
from its untraced pass.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench.workloads import _SCALES as REPO_SCALES
from repro.bench.workloads import DBLP_PARAMS, IMDB_PARAMS

import check
import deploy
import layers
import loadgen
import spans as spanlib
import stats
import traffic
from traffic import Query

Metrics = Dict[str, Tuple[float, str]]


#: The repo's bench DBLP generator config (2,500 authors).
BENCH_DBLP = dataclasses.asdict(REPO_SCALES[("dblp", "bench")])

#: engine-imdb's Rmax: the low three of the IMDB grid (9–11).
IMDB_RMAX = IMDB_PARAMS.rmax_values[:3]


@dataclass(frozen=True)
class Scale:
    """Dataset sizes, rates and sample minimums for one benchmark
    scale. The DBLP query grid and index radius are always the repo's
    (``DBLP_PARAMS``)."""

    imdb: Dict[str, int]
    dblp: Dict[str, int]
    dblp_ingest: Dict[str, int]
    dblp_routed: Dict[str, int]
    setups: int
    min_queries: int
    engine_rate: float        # engine-imdb queries per --second, all passes
    engine_passes: int        # engine-imdb passes; each query's best counts
    closed_rate: float        # served closed-loop queries/s, likewise
    open_rate: float          # served reads, requests/s on 2 connections
    min_deltas: int           # per ingest run; the ack p75 needs 40
    delta_rate: float         # ingest deltas/s the run length assumes
    reads_per_delta: int      # ingest reads sent after each delta


SCALES = {
    "bench": Scale(
        imdb={"n_users": 150, "n_movies": 100, "n_ratings": 4000},
        dblp=BENCH_DBLP,
        dblp_ingest=dict(BENCH_DBLP, n_authors=100),
        dblp_routed=dict(BENCH_DBLP, n_authors=1000),
        setups=2, min_queries=stats.min_samples(95), engine_rate=54.0,
        engine_passes=4, closed_rate=40.0, open_rate=8.0,
        min_deltas=stats.min_samples(75), delta_rate=6.4,
        reads_per_delta=4),
    "tiny": Scale(
        imdb={"n_users": 30, "n_movies": 20, "n_ratings": 400},
        dblp={"n_authors": 60}, dblp_ingest={"n_authors": 60},
        dblp_routed={"n_authors": 60},
        setups=1, min_queries=10, engine_rate=10.0, engine_passes=2,
        closed_rate=20.0, open_rate=20.0,
        min_deltas=3, delta_rate=1.0, reads_per_delta=4),
}


@dataclass
class Run:
    """One invocation's arguments plus its scratch space."""

    seed: int
    seconds: float
    trace: bool
    scale: Scale
    work: deploy.WorkDir


@dataclass
class Outcome:
    """What a workload reports."""

    metrics: Metrics = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    traffic: Dict[str, Any] = field(default_factory=dict)


def ms(seconds: float) -> float:
    """Seconds to milliseconds."""
    return seconds * 1000.0


def put(metrics: Metrics, name: str, value: float, unit: str) -> None:
    """Record one metric (skipped when there was nothing to measure)."""
    if value is not None and not math.isnan(value):
        metrics[name] = (float(value), unit)


def put_percentile(out: Metrics, name: str, seconds: List[float],
                   p: float) -> None:
    """Record the ``p``-th percentile of ``seconds`` in ms, warning when
    the sample count does not support it."""
    if not stats.supports(len(seconds), p):
        print(f"perfbench: {name} rests on only {len(seconds)} samples",
              file=sys.stderr)
    put(out, name, ms(stats.percentile(seconds, p)), "ms")


def setup_parts(out: Metrics, report: Dict[str, float],
                ready_s: float) -> None:
    """The ``setup.*`` split of one set-up."""
    put(out, "setup.dataset_s", report["dataset_s"], "s")
    put(out, "setup.index_s", report["index_s"], "s")
    put(out, "setup.publish_s", report["publish_s"], "s")
    put(out, "setup.ready_s", ready_s, "s")


# ======================================================================
# engine-imdb: the paper's algorithms in-process, closed loop
# ======================================================================
@dataclass
class EngineDrive:
    """One pass of the engine-imdb closed loop."""

    samples: List[loadgen.Sample]
    elapsed: float
    gaps: Dict[int, List[float]]            # query index -> answer gaps
    timings: Dict[str, float]
    counters: Dict[str, int]


def _drive_engine(engine: Any, queries: List[Query], count: int,
                  recorder: Optional[spanlib.Recorder] = None
                  ) -> EngineDrive:
    from repro.engine.context import QueryContext
    from repro.engine.spec import QuerySpec
    from repro.exceptions import QueryError

    gaps: Dict[int, List[float]] = {}
    totals = QueryContext()

    def stream(query: Query, context: Any) -> Iterator[Any]:
        """The query's answers one at a time, through the engine's
        streaming API (``iter_all`` for PDall, a ``top_k_stream``
        cursor for PDk)."""
        if query.k is None:
            yield from engine.iter_all(
                QuerySpec(query.keywords, query.rmax, mode="all"),
                context)
            return
        cursor = engine.top_k_stream(query.keywords, query.rmax,
                                     context=context)
        for _ in range(query.k):
            batch = cursor.take(1)
            if not batch:
                return
            yield batch[0]

    def send(index: int) -> Optional[check.Answer]:
        context = QueryContext()
        answers = []
        gaps[index] = []
        scope = (recorder.span("engine.query", rid=index)
                 if recorder is not None else nullcontext())
        try:
            with scope:
                last = time.perf_counter()
                for community in stream(queries[index], context):
                    now = time.perf_counter()
                    gaps[index].append(now - last)
                    last = now
                    answers.append(community)
        except QueryError:
            return None
        totals.merge(context)
        return check.answer_of(answers)

    samples, elapsed = loadgen.closed_loop(count, send, 1, 0.0, count)
    return EngineDrive(samples, elapsed, gaps, dict(totals.timings),
                       dict(totals.counters))


def best_of(drives: List[EngineDrive]) -> Tuple[List[float], List[float]]:
    """Per-query latency and per-answer gap, each the lowest over the
    passes, for the queries every pass answered."""
    latencies: List[float] = []
    gaps: List[float] = []
    for samples in zip(*(drive.samples for drive in drives)):
        if any(s.outcome is None for s in samples):
            continue
        latencies.append(min(s.latency for s in samples))
        index = samples[0].index
        gaps.extend(map(min, zip(*(drive.gaps[index]
                                   for drive in drives))))
    return latencies, gaps


def engine_count(run: Run, available: int) -> int:
    """How many engine-imdb queries one pass sends: whole rounds of the
    stratified stream (so every run covers each (band, l, Rmax) cell
    equally), enough for the percentiles the mode reports (the traced
    run's p95, the untraced median) and for the passes to fill
    ``--seconds`` at the scale's ``engine_rate``, capped at the
    stream's length. The count depends on the arguments only, never on
    the program's speed, so a faster engine does not change the work
    behind the percentiles or the memory peak."""
    scale = run.scale
    size = traffic.engine_round(IMDB_RMAX)
    needed = scale.min_queries if run.trace else stats.min_samples(50)
    rounds = max(math.ceil(needed / size),
                 math.ceil(run.seconds * scale.engine_rate
                           / scale.engine_passes / size))
    return min(rounds, available // size) * size


def engine_imdb(run: Run) -> Outcome:
    """In-process ``QueryEngine.from_snapshot`` over IMDB, one caller,
    every spec distinct, a fixed count of queries (:func:`engine_count`)."""
    from repro.engine.engine import QueryEngine
    from repro.graph import dijkstra

    scale = run.scale
    plan = {"dataset": "imdb", "config": scale.imdb,
            "radius": max(IMDB_RMAX)}
    queries = traffic.engine_stream(run.seed, IMDB_RMAX)
    setup_times: List[float] = []
    engine = None
    for _ in range(1 if run.trace else scale.setups):
        engine = None                       # one engine alive at a time
        gc.collect()
        start = time.perf_counter()
        report = deploy.build(run.work, plan)
        loaded = time.perf_counter()
        engine = QueryEngine.from_snapshot(report["snapshot"])
        ready_s = time.perf_counter() - loaded
        setup_times.append(time.perf_counter() - start)

    count = engine_count(run, len(queries))
    drives = [_drive_engine(engine, queries, count)]
    for _ in range(1, 1 if run.trace else scale.engine_passes):
        engine = None
        gc.collect()
        engine = QueryEngine.from_snapshot(report["snapshot"])
        drives.append(_drive_engine(engine, queries, count))
    peak_mb = deploy.own_peak_mb()
    drive = drives[0]
    done = len(drive.samples)
    latencies, gaps = best_of(drives)
    failed = sum(1 for s in drive.samples if s.outcome is None)
    out = Outcome(attempted=done, failed=failed)
    if run.trace:
        recorder = spanlib.Recorder()
        layers.install_core(recorder)
        traced_engine = QueryEngine.from_snapshot(report["snapshot"])
        memo = dijkstra._thread_memo()      # the one caller's memo
        memo_before = memo.hits, memo.misses
        traced = _drive_engine(traced_engine, queries, done, recorder)
        memo_hits = memo.hits - memo_before[0]
        put(out.metrics, "dijkstra.memo_hit_ratio", stats.ratio(
            memo_hits, memo_hits + memo.misses - memo_before[1]),
            "fraction")
        _engine_layers(out.metrics, drive, traced, recorder, engine)
        put_percentile(out.metrics, "query_p95_ms", latencies, 95)
        put(out.metrics, "throughput_qps", len(latencies) / sum(latencies),
            "1/s")
        put_percentile(out.metrics, "answer_delay_p50_ms", gaps, 50)
        setup_parts(out.metrics, report, ready_s)
        put(out.metrics, "trace.overhead_frac",
            stats.percentile([s.latency for s in traced.samples], 50)
            / stats.percentile(latencies, 50) - 1.0, "fraction")
    else:
        m = out.metrics
        put(m, "setup_s", statistics.median(setup_times), "s")
        put_percentile(m, "query_p50_ms", latencies, 50)
        put(m, "peak_mem_mb", peak_mb, "MiB")
        put(m, "success_rate", 1.0 - stats.ratio(failed, done),
            "fraction")

    reference = check.Reference(report["snapshot"])
    out.mismatched = check.mismatches(
        reference, [queries[s.index] for s in drive.samples],
        [s.outcome for s in drive.samples])
    answers = [len(s.outcome) for s in drive.samples if s.outcome]
    out.traffic = traffic.shape([queries[s.index] for s in drive.samples],
                                answers)
    out.traffic["pdall_frac"] = stats.ratio(
        sum(1 for s in drive.samples if queries[s.index].k is None), done)
    return out


def _engine_layers(m: Metrics, drive: EngineDrive, traced: EngineDrive,
                   recorder: spanlib.Recorder, engine: Any) -> None:
    """Per-layer metrics of engine-imdb: stage timers and cache
    counters from the untraced pass, spans from the traced one."""
    queries = len(drive.samples)
    for stage in ("resolve", "project", "enumerate", "translate"):
        put(m, f"engine.{stage}_ms",
            ms(drive.timings.get(stage, 0.0)) / queries, "ms")
    counters = drive.counters
    put(m, "results.hit_ratio", stats.ratio(
        counters.get("result_cache_hits", 0),
        counters.get("result_cache_hits", 0)
        + counters.get("result_cache_misses", 0)), "fraction")
    put(m, "results.invalidations",
        engine.results.stats.invalidations, "count")
    put(m, "projcache.hit_ratio", stats.ratio(
        counters.get("projection_cache_hits", 0),
        counters.get("projection_cache_hits", 0)
        + counters.get("projection_cache_misses", 0)), "fraction")

    spans = recorder.spans
    by_name: Dict[str, List[spanlib.Span]] = {}
    for span in spans:
        by_name.setdefault(span[spanlib.NAME], []).append(span)
    traced_queries = len(traced.samples)

    def total_ms(name: str) -> float:
        return ms(sum(spanlib.duration(s) for s in by_name.get(name, ())))

    for name, label in (("core.neighbor", "neighbor"),
                        ("core.bestcore", "bestcore"),
                        ("core.getcommunity", "getcommunity")):
        put(m, f"core.{label}_ms", total_ms(name) / traced_queries, "ms")
        put(m, f"core.{label}_calls",
            len(by_name.get(name, ())) / traced_queries, "count")
    put(m, "core.project_ms", total_ms("core.project") / traced_queries,
        "ms")
    answers = sum(len(s.outcome or ()) for s in traced.samples)
    put(m, "dijkstra.calls_per_answer",
        stats.ratio(len(by_name.get("dijkstra", ())), answers), "count")
    put(m, "dijkstra.ms", total_ms("dijkstra") / traced_queries, "ms")
    roots = by_name.get("engine.query", [])
    selfs = spanlib.self_times(spans)
    put(m, "trace.unaccounted_frac", stats.ratio(
        sum(selfs[s[spanlib.ID]] for s in roots),
        sum(spanlib.duration(s) for s in roots)), "fraction")


# ======================================================================
# served workloads: serve-dblp, ingest-dblp, routed-dblp
# ======================================================================
@dataclass
class Deployment:
    """A running deployment and how long it took to bring up."""

    fleet: deploy.Fleet
    url: str
    snapshot: str
    nodes: int
    setup_s: float
    ready_s: float
    report: Dict[str, Any]
    shard_urls: List[str] = field(default_factory=list)
    span_files: List[str] = field(default_factory=list)


def deploy_served(run: Run, kind: str, traced: bool) -> Deployment:
    """Build the DBLP snapshot and bring up the ``kind`` deployment
    (``serve``, ``ingest`` or ``routed``); all of it is one set-up."""
    scale = run.scale
    configs = {"ingest": scale.dblp_ingest, "routed": scale.dblp_routed}
    plan = {"dataset": "dblp", "config": configs.get(kind, scale.dblp),
            "radius": DBLP_PARAMS.index_radius,
            "shards": 2 if kind == "routed" else 0}
    start = time.perf_counter()
    report = deploy.build(run.work, plan)
    launched = time.perf_counter()
    fleet = deploy.Fleet()
    role = "server" if traced else None
    shard_urls: List[str] = []
    try:
        if kind == "routed":
            shard_root = deploy.Path(report["routing"]).parent
            stores = sorted((shard_root / "shards").iterdir())
            for number, store in enumerate(stores):
                fleet.start(deploy.Server(
                    run.work, f"shard{number}",
                    ["serve", "--snapshot", str(store), "--workers", "1"],
                    role))
            fleet.wait_ready()
            shard_urls = [server.url for server in fleet.servers]
            cli = ["serve-router", "--manifest", report["routing"]]
            for url in shard_urls:
                cli += ["--shard-url", url]
            front = fleet.start(deploy.Server(
                run.work, "router", cli, "router" if traced else None))
        else:
            cli = ["serve", "--snapshot", report["snapshot"],
                   "--workers", "2"]
            if kind == "ingest":
                cli += ["--wal", str(run.work.fresh("wal.log")),
                        "--wal-fsync", "always"]
            front = fleet.start(deploy.Server(run.work, "server", cli,
                                              role))
        fleet.wait_ready()
    except BaseException:
        fleet.stop()
        raise
    done = time.perf_counter()
    return Deployment(
        fleet, front.url, report["snapshot"], report["nodes"],
        done - start, done - launched, report, shard_urls,
        [str(s.spans_path) for s in fleet.servers if s.spans_path])


@dataclass
class Reply:
    """What the generator keeps of one HTTP exchange."""

    ok: bool
    answer: Optional[check.Answer] = None
    stats: Optional[Dict[str, Any]] = None
    low: int = 0
    high: int = 0
    lsn: Optional[int] = None


def query_sender(client: Any, queries: List[Query], tag: str,
                 offset: int = 0,
                 window: Optional[Callable[[], Tuple[int, int]]] = None
                 ) -> Callable[[int], Reply]:
    """``send(i)`` for the load loops: ``POST /query?rid=<tag><i>``
    carrying query ``offset + i``. ``window`` reports (deltas
    acknowledged, deltas sent) for the ingest answer check."""
    from repro.exceptions import ServiceError

    def send(index: int) -> Reply:
        low = window()[0] if window else 0
        try:
            body = client.request(
                "POST", f"/query?rid={tag}{index}",
                queries[offset + index].payload(), idempotent=True)
        except ServiceError:
            return Reply(False)
        high = window()[1] if window else 0
        if body.get("partial"):
            return Reply(False)
        return Reply(True, check.answer_of(body["communities"]),
                     body.get("stats"), low, high)
    return send


def scrape(urls: List[str]) -> Dict[str, float]:
    """Every ``/metrics`` sample summed across ``urls``, by name with
    labels dropped and by the whole labelled series."""
    from repro.service.client import ServiceClient

    totals: Dict[str, float] = {}
    for url in urls:
        with ServiceClient(url, timeout=30.0) as client:
            text = client.metrics()
        for line in text.splitlines():
            name, _, value = line.rpartition(" ")
            if not name or line.startswith("#"):
                continue
            try:
                number = float(value)
            except ValueError:
                continue
            keys = {name, name.split("{", 1)[0]}
            for key in keys:
                totals[key] = totals.get(key, 0.0) + number
    return totals


@dataclass
class Served:
    """One measured pass over a deployment."""

    reads: List[Tuple[str, loadgen.Sample]]     # (rid, sample)
    query_of: Dict[str, Query]
    deltas: List[Tuple[str, loadgen.Sample]]
    closed_elapsed: float
    peak_mb: float
    connections: int
    counters: Dict[str, float]                  # /metrics, after - before
    wal_bytes: float = 0.0

    def latencies(self) -> List[float]:
        """Latency of every successful read."""
        return [s.latency for _, s in self.reads if s.outcome.ok]


def read_counts(run: Run) -> Tuple[int, int]:
    """serve-dblp / routed-dblp requests per phase: the open loop
    covers half of ``--seconds`` at the fixed rate, the closed loop the
    other half at the scale's ``closed_rate``, and together they reach
    the sample minimum. The counts depend on the arguments only, so a
    faster program does not change the number or the open/closed mix
    of samples behind the percentiles, nor how full the caches get."""
    scale = run.scale
    open_count = math.ceil(run.seconds / 2 * scale.open_rate)
    closed_count = max(scale.min_queries - open_count,
                       math.ceil(run.seconds / 2 * scale.closed_rate))
    return open_count, closed_count


def drive_reads(run: Run, deployment: Deployment, queries: List[Query],
                open_count: int) -> Served:
    """serve-dblp / routed-dblp: ``open_count`` requests at the fixed
    rate on two keep-alive connections, then the rest of ``queries``
    back to back on the same two connections (closed loop)."""
    from repro.service.client import ServiceClient

    scale = run.scale
    probes = deployment.shard_urls or [deployment.url]
    before = scrape(probes)
    sampler = deploy.MemorySampler(deployment.fleet.pids)
    sampler.sample()
    with ServiceClient(deployment.url, timeout=60.0) as client:
        opened = loadgen.open_loop(
            open_count, scale.open_rate,
            query_sender(client, queries, "o"), threads=2,
            idle=sampler.maybe)
        sampler.sample()
        closed_count = len(queries) - open_count
        closed, elapsed = loadgen.closed_loop(
            closed_count, query_sender(client, queries, "c", open_count),
            2, 0.0, closed_count)
        sampler.sample()
        connections = client.connections_opened
    after = scrape(probes)
    reads = ([(f"o{s.index}", s) for s in opened]
             + [(f"c{s.index}", s) for s in closed])
    query_of = {f"o{s.index}": queries[s.index] for s in opened}
    query_of.update({f"c{s.index}": queries[open_count + s.index]
                     for s in closed})
    return Served(reads, query_of, [], elapsed, sampler.peak_mb,
                  connections, _delta(before, after))


def ingest_counts(run: Run) -> Tuple[int, int]:
    """ingest-dblp deltas and reads per run: enough deltas for the ack
    p75 and for ``--seconds`` at the scale's nominal ``delta_rate``,
    and ``reads_per_delta`` reads after each (at least a p95's worth).
    Like :func:`read_counts`, fixed by the arguments alone."""
    scale = run.scale
    deltas = max(scale.min_deltas, math.ceil(run.seconds * scale.delta_rate))
    per = max(scale.reads_per_delta, math.ceil(scale.min_queries / deltas))
    return deltas, deltas * per


def drive_ingest(run: Run, deployment: Deployment, reads: List[Query],
                 deltas: List[dict]) -> Served:
    """ingest-dblp, one caller in lockstep: each delta on one
    connection, acknowledged, then an equal share of the reads back to
    back on the other. A read never overlaps a delta, so which reads
    meet a freshly invalidated cache is fixed by the traffic, not by
    timing."""
    from repro.exceptions import ServiceError
    from repro.service.client import ServiceClient

    before = scrape([deployment.url])
    sampler = deploy.MemorySampler(deployment.fleet.pids)
    sampler.sample()
    progress = {"sent": 0, "acked": 0}
    per = len(reads) // len(deltas)
    read_samples: List[loadgen.Sample] = []
    delta_samples: List[loadgen.Sample] = []
    with ServiceClient(deployment.url, timeout=60.0) as reader, \
            ServiceClient(deployment.url, timeout=60.0) as writer:
        def send_delta(index: int) -> Reply:
            progress["sent"] += 1
            try:
                body = writer.request(
                    "POST", f"/admin/delta?rid=d{index}", deltas[index])
            except ServiceError:
                return Reply(False)
            progress["acked"] += 1
            return Reply(body.get("lsn") is not None, lsn=body.get("lsn"))

        def window() -> Tuple[int, int]:
            return progress["acked"], progress["sent"]

        read = query_sender(reader, reads, "r", window=window)
        for index in range(len(deltas)):
            delta_samples.append(loadgen.call(index, send_delta))
            sampler.sample()
            for offset in range(index * per, (index + 1) * per):
                read_samples.append(loadgen.call(offset, read))
        sampler.sample()
        connections = reader.connections_opened \
            + writer.connections_opened
    after = scrape([deployment.url])
    return Served([(f"r{s.index}", s) for s in read_samples],
                  {f"r{s.index}": reads[s.index] for s in read_samples},
                  [(f"d{s.index}", s) for s in delta_samples], 0.0,
                  sampler.peak_mb, connections, _delta(before, after),
                  after.get("repro_wal_bytes", 0.0))


def _delta(before: Dict[str, float], after: Dict[str, float]
           ) -> Dict[str, float]:
    return {name: value - before.get(name, 0.0)
            for name, value in after.items()}


def throughput(kind: str, served: Served) -> float:
    """Completed reads per second of the closed loop; ingest-dblp's one
    caller reads between deltas, so there: reads over their summed
    latency."""
    if kind == "ingest":
        latencies = served.latencies()
        return len(latencies) / sum(latencies)
    closed_ok = sum(1 for rid, s in served.reads
                    if rid[0] == "c" and s.outcome.ok)
    return closed_ok / served.closed_elapsed


def served_workload(run: Run, kind: str) -> Outcome:
    """serve-dblp, ingest-dblp or routed-dblp, end to end."""
    scale = run.scale
    times = []
    deployment = None
    for _ in range(1 if run.trace else scale.setups):
        if deployment is not None:
            deployment.fleet.stop()
        deployment = deploy_served(run, kind, traced=False)
        times.append(deployment.setup_s)

    deltas: List[dict] = []
    if kind == "ingest":
        delta_count, read_count = ingest_counts(run)
        queries = traffic.zipf_stream(run.seed, [read_count])
        deltas = traffic.delta_stream(delta_count, deployment.nodes)

        def measure(dep: Deployment) -> Served:
            return drive_ingest(run, dep, queries, deltas)
    else:
        open_count, closed_count = read_counts(run)
        queries = traffic.zipf_stream(run.seed, [open_count, closed_count])

        def measure(dep: Deployment) -> Served:
            return drive_reads(run, dep, queries, open_count)

    try:
        served = measure(deployment)
    finally:
        deployment.fleet.stop()

    out = Outcome()
    out.attempted = len(served.reads) + len(served.deltas)
    out.failed = sum(1 for _, s in served.reads + served.deltas
                     if not s.outcome.ok)
    if run.trace:
        traced_deployment = deploy_served(run, kind, traced=True)
        try:
            traced = measure(traced_deployment)
        finally:
            traced_deployment.fleet.stop()
        _served_layers(out.metrics, kind, served, traced,
                       traced_deployment)
        setup_parts(out.metrics, deployment.report, deployment.ready_s)
        put_percentile(out.metrics, "query_p95_ms", served.latencies(), 95)
        put(out.metrics, "throughput_qps", throughput(kind, served), "1/s")
        put(out.metrics, "trace.overhead_frac",
            stats.percentile(traced.latencies(), 50)
            / stats.percentile(served.latencies(), 50) - 1.0, "fraction")
    else:
        m = out.metrics
        put(m, "setup_s", statistics.median(times), "s")
        put_percentile(m, "query_p50_ms", served.latencies(), 50)
        put(m, "peak_mem_mb", served.peak_mb, "MiB")
        put(m, "success_rate",
            1.0 - stats.ratio(out.failed, out.attempted), "fraction")

    reference = check.Reference(deployment.snapshot)
    good = [(rid, s) for rid, s in served.reads if s.outcome.ok]
    if kind == "ingest":
        acked = [(s.outcome.lsn, deltas[int(rid[1:])])
                 for rid, s in served.deltas if s.outcome.ok]
        out.mismatched = check.mismatches_during_ingest(
            reference, [(served.query_of[rid], s.outcome.answer,
                         s.outcome.low, s.outcome.high)
                        for rid, s in good], acked)
        out.traffic["deltas_acked"] = len(acked)
        out.traffic["tuples_per_delta"] = stats.ratio(
            sum(len(body["nodes"]) for _, body in acked), len(acked))
    else:
        out.mismatched = check.mismatches(
            reference, [served.query_of[rid] for rid, _ in good],
            [s.outcome.answer for _, s in good])
    out.traffic.update(traffic.shape(
        [served.query_of[rid] for rid, _ in served.reads],
        [len(s.outcome.answer) for _, s in good]))
    return out


def _served_layers(m: Metrics, kind: str, untraced: Served,
                   traced: Served, deployment: Deployment) -> None:
    """Per-layer metrics of a served workload: spans of the traced
    pass, stage timers and cache counters of the untraced one."""
    if kind == "ingest":
        acks = [s.wall for _, s in untraced.deltas if s.outcome.ok]
        put_percentile(m, "delta_ack_p50_ms", acks, 50)
        put_percentile(m, "delta_ack_p75_ms", acks, 75)
    else:                                   # the open loop's lateness
        lags = [s.lag for _, s in traced.reads]
        put(m, "loadgen.lag_p95_ms", ms(stats.percentile(lags, 95)), "ms")
    put(m, "client.connections_opened", traced.connections, "count")
    _span_layers(m, kind, traced, [spanlib.load(path) for path in
                                   deployment.span_files])

    counters = untraced.counters
    stages = ("resolve", "project", "enumerate", "translate")
    stage_sums: Dict[str, float] = {}
    if kind == "routed":
        # Routed replies carry no stage timers: take the shards' own
        # per-stage totals, summed over every leg of every query.
        queries = sum(1 for _, s in untraced.reads if s.outcome.ok)
        for stage in stages:
            stage_sums[stage] = counters.get(
                f'repro_stage_seconds_total{{stage="{stage}"}}', 0.0)
    else:
        replies = [s.outcome for _, s in untraced.reads
                   if s.outcome.ok and s.outcome.stats]
        queries = len(replies)
        for reply in replies:
            for stage, seconds in reply.stats.get("timings", {}).items():
                stage_sums[stage] = stage_sums.get(stage, 0.0) + seconds
    if queries:
        for stage in stages:
            put(m, f"engine.{stage}_ms",
                ms(stage_sums.get(stage, 0.0)) / queries, "ms")

    pooled = kind != "routed"
    rc = "repro_worker_result_cache_" if pooled else "repro_result_cache_"
    pc = "repro_worker_cache_" if pooled else "repro_projection_cache_"
    hits = counters.get(rc + "hits_total", 0.0)
    put(m, "results.hit_ratio", stats.ratio(
        hits, hits + counters.get(rc + "misses_total", 0.0)
        + counters.get(rc + "extensions_total", 0.0)), "fraction")
    put(m, "results.invalidations",
        counters.get(rc + "invalidations_total", 0.0), "count")
    phits = counters.get(pc + "hits_total", 0.0)
    put(m, "projcache.hit_ratio", stats.ratio(
        phits, phits + counters.get(pc + "misses_total", 0.0)),
        "fraction")
    put(m, "admission.rejected",
        counters.get("repro_admission_shed_queue_full_total", 0.0)
        + counters.get("repro_admission_shed_deadline_total", 0.0),
        "count")
    if kind == "ingest":
        appends = counters.get("repro_wal_appends_total", 0.0)
        put(m, "wal.fsyncs_per_delta", stats.ratio(
            counters.get("repro_wal_fsyncs_total", 0.0), appends),
            "count")
        put(m, "wal.bytes_per_delta",
            stats.ratio(untraced.wal_bytes, appends), "bytes")


def _span_layers(m: Metrics, kind: str, traced: Served,
                 documents: List[Dict[str, Any]]) -> None:
    """Per-layer metrics from the span files of every server."""
    spans: List[spanlib.Span] = []
    for number, document in enumerate(documents):
        base = (number + 1) * 10 ** 9          # ids are per process
        for span in document["spans"]:
            span = list(span)
            span[spanlib.ID] += base
            if span[spanlib.PARENT] is not None:
                span[spanlib.PARENT] += base
            spans.append(span)
    selfs = spanlib.self_times(spans)
    named: Dict[str, List[spanlib.Span]] = {}
    for span in spans:
        named.setdefault(span[spanlib.NAME], []).append(span)

    def p(name: str, values: List[float], q: float) -> None:
        put(m, name, ms(stats.percentile(values, q)), "ms")

    def queries_only(name: str) -> List[spanlib.Span]:
        """Spans of ``name`` inside a generator-sent query (request id
        ``o``/``c``/``r`` + number), not a scrape or a probe."""
        return [s for s in named.get(name, ())
                if s[spanlib.RID] and s[spanlib.RID][0] in "ocr"]

    front = "router.handle" if kind == "routed" else "server.handle"
    handles = {s[spanlib.RID]: s for s in queries_only(front)}
    walls = {rid: s.wall for rid, s in traced.reads if s.outcome.ok}
    p("http.transport_p50_ms",
      [walls[rid] - spanlib.duration(h) for rid, h in handles.items()
       if rid in walls], 50)
    # CommunityService.handle of query requests: the front server, or
    # the router's /query legs on every shard server.
    servers = ([s for s in named.get("server.handle", ())
                if s[spanlib.RID] == "/query"] if kind == "routed"
               else list(handles.values()))
    p("server.handle_p50_ms", [spanlib.duration(s) for s in servers], 50)
    server_ids = {s[spanlib.ID] for s in servers}
    encode: Dict[int, float] = {}
    for name in ("serialize.to_dict", "serialize.dumps"):
        for span in named.get(name, ()):
            if span[spanlib.PARENT] in server_ids:
                encode[span[spanlib.PARENT]] = encode.get(
                    span[spanlib.PARENT], 0.0) + spanlib.duration(span)
    p("serialize.encode_p50_ms", list(encode.values()), 50)
    p("admission.wait_p95_ms",
      [s[spanlib.VALUE] for s in named.get("admission.run", ())], 95)
    if kind != "routed":
        p("pool.dispatch_p50_ms",
          [spanlib.duration(s) - s[spanlib.VALUE]
           for s in named.get("pool.execute", ())], 50)
    if kind == "ingest":
        p("pool.broadcast_p50_ms",
          [selfs[s[spanlib.ID]] for s in named.get("pool.apply_delta", ())],
          50)
        p("wal.append_p50_ms",
          [spanlib.duration(s) for s in named.get("wal.append", ())], 50)
        deltas = max(1, len(named.get("wal.append", ())))
        for name, label in (("maintenance.extend", "extend"),
                            ("maintenance.update_index", "update_index")):
            put(m, f"maintenance.{label}_ms", ms(sum(
                spanlib.duration(s) for s in named.get(name, ())))
                / deltas, "ms")
    if kind == "routed":
        queries = max(1, len(handles))
        legs = queries_only("router.leg")
        put(m, "router.legs_per_query", len(legs) / queries, "count")
        put(m, "router.merge_rounds_per_query",
            len(queries_only("router.fanout")) / queries, "count")
        p("router.leg_p50_ms", [spanlib.duration(s) for s in legs], 50)
        put(m, "router.merge_ms", ms(sum(
            selfs[s[spanlib.ID]] for s in queries_only("router.merge")))
            / queries, "ms")
    put(m, "trace.unaccounted_frac", stats.ratio(
        sum(selfs[h[spanlib.ID]] for rid, h in handles.items()
            if rid in walls),
        sum(walls[rid] for rid in handles if rid in walls)), "fraction")
    missing = sorted({name for doc in documents
                      for name in doc.get("missing", ())})
    if missing:
        print(f"perfbench: not traced (missing): {missing}",
              file=sys.stderr)


# ======================================================================
WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "engine-imdb": engine_imdb,
    "serve-dblp": lambda run: served_workload(run, "serve"),
    "ingest-dblp": lambda run: served_workload(run, "ingest"),
    "routed-dblp": lambda run: served_workload(run, "routed"),
}
