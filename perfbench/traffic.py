"""Seeded traffic: query specs, delta batches and their measured shape.

All randomness flows from the ``--seed`` argument through one
``random.Random`` per stream; the program under test only ever sees
the generated requests.

* A *topic* is a ``(keywords, Rmax)`` pair: an ``l``-subset of one
  KWF band's six planted keywords (paper Tables II/IV) and one Rmax
  from the grid. Subsets, not just the band's first ``l`` keywords,
  give enough distinct topics that a run never has to repeat one.
* :func:`engine_stream` walks topics without repetition (both engine
  caches miss by construction), stratified over (band, l, Rmax) so
  every run sees the same mix, PDk (``k`` in {10, 50}) with PDall on
  the sparse bands. Its query set is fixed; the seed orders it.
* :func:`zipf_stream` spans the repo's DBLP sweep grid
  (``repro.bench.workloads.DBLP_PARAMS``: every KWF band, l 2–6,
  Rmax 4–8, k 50–250). It draws topics by a Zipf law and ``k``
  uniformly, so the head repeats exact specs (result-cache hits),
  repeats topics with another ``k`` (prefix slices and extensions) and
  the tail stays cold. The popularity ranking and the requests drawn
  from it are part of the workload's definition and fixed; the seed
  orders them.
* :func:`delta_stream` appends one tuple per delta, carrying a
  planted keyword and wired to existing nodes in both directions. The
  delta sequence is fixed too: its per-delta cost varies with where the
  tuple attaches, and every run should apply the same work; the seed
  varies the reads beside it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.workloads import DBLP_PARAMS, BenchParams
from repro.datasets.vocab import BENCH_BANDS

Topic = Tuple[Tuple[str, ...], float]

#: Zipf exponent of the served read stream. Web and search query logs
#: are commonly fitted with an exponent near 1; at 1.1 over the 1,425
#: DBLP topics a 240-request run repeats about a third of its specs
#: exactly and a fifth of its topics with another ``k``, so hits,
#: prefix reuse and cold queries all carry weight (the run prints the
#: measured shares on its traffic line).
ZIPF_S = 1.1

#: Seeds the fixed topic popularity ranking and engine-imdb's fixed
#: query set (not the ``--seed``).
RANKING_SEED = 2009

#: Seeds the fixed delta batch ingest-dblp applies (not the ``--seed``).
DELTA_SEED = 1970


@dataclass(frozen=True)
class Query:
    """One query request."""

    keywords: Tuple[str, ...]
    rmax: float
    k: Optional[int]            # None: PDall (COMM-all)

    @property
    def topic(self) -> Topic:
        """The ``(keywords, Rmax)`` pair the engine caches key on."""
        return self.keywords, self.rmax

    def payload(self) -> Dict[str, object]:
        """The ``POST /query`` body."""
        body: Dict[str, object] = {"keywords": list(self.keywords),
                                   "rmax": self.rmax}
        if self.k is not None:
            body["k"] = self.k
        return body


def topics(l_values: Sequence[int], rmax_values: Sequence[float],
           bands=BENCH_BANDS) -> List[Tuple[float, Topic]]:
    """Every ``(band KWF, topic)`` in a fixed canonical order."""
    out = []
    for band in bands:
        for l in l_values:
            for subset in itertools.combinations(band.keywords, l):
                for rmax in rmax_values:
                    out.append((band.kwf, (subset, float(rmax))))
    return out


ENGINE_L = (2, 3, 4)


def engine_round(rmax_values: Sequence[float], bands=BENCH_BANDS) -> int:
    """Queries per round of :func:`engine_stream`: one per
    (band, l, Rmax) cell."""
    return len(bands) * len(ENGINE_L) * len(rmax_values)


def engine_stream(seed: int, rmax_values: Sequence[float]
                  ) -> List[Query]:
    """engine-imdb: every topic at most once, stratified.

    Topics are grouped into cells of (band, l, Rmax); each cell is in a
    fixed order (:data:`RANKING_SEED`) and the stream takes one topic
    from every cell per round. Within a cell the rounds alternate PDk
    ``k`` between 10 and 50; on KWF <= .0006 and l <= 3 every third
    round is PDall instead, each cell's turn starting at its position.
    The first ``n`` whole rounds are thus the same queries for every
    seed: the query set is part of the workload's definition, like the
    Zipf ranking, because drawing the subsets per seed spread the
    median query cost by 9 % (IQR over median, 20 seeds). The seed
    shuffles the order inside each round."""
    fixed = random.Random(RANKING_SEED)
    cells: Dict[Tuple[float, int, float], List[Topic]] = {}
    for kwf, (keywords, rmax) in topics(ENGINE_L, rmax_values):
        cells.setdefault((kwf, len(keywords), rmax), []).append(
            (keywords, rmax))
    for pool in cells.values():
        fixed.shuffle(pool)
    rng = random.Random(seed)
    out = []
    for round_ in range(max(len(pool) for pool in cells.values())):
        batch = []
        for phase, (cell, pool) in enumerate(cells.items()):
            if round_ >= len(pool):
                continue
            keywords, rmax = pool[round_]
            turn = round_ + phase
            kwf, l, _ = cell
            if kwf <= 0.0006 and l <= 3 and turn % 3 == 0:
                batch.append(Query(keywords, rmax, None))
            else:
                batch.append(Query(keywords, rmax, (10, 50)[turn % 2]))
        rng.shuffle(batch)
        out.extend(batch)
    return out


def zipf_stream(seed: int, phases: Sequence[int],
                params: BenchParams = DBLP_PARAMS) -> List[Query]:
    """The served read stream: PDk queries, topics Zipf-distributed
    over a fixed ranking of the band x l x Rmax space of ``params`` and
    ``k`` drawn from its grid, one block per load phase (``phases``
    gives each block's length).

    Which requests each phase sends is fixed (drawn with
    :data:`RANKING_SEED`); the seed orders the requests inside each
    phase. Every seed thus sends the same specs the same number of
    times, in the open loop and in the closed loop alike, so the
    run-to-run spread of the tail percentiles is the program's, not
    which slow specs a seed put in the queueing open loop (drawing and
    ordering the whole stream per seed spread routed-dblp's p95 by
    0.19–0.3 of its median); the order still decides which requests
    meet a cold cache, extend a prefix or queue behind another."""
    rng = random.Random(RANKING_SEED)
    ranked = [topic for _, topic in topics(params.l_values,
                                           params.rmax_values)]
    rng.shuffle(ranked)
    weights = list(itertools.accumulate(
        1.0 / (rank ** ZIPF_S) for rank in range(1, len(ranked) + 1)))
    order = random.Random(seed)
    out: List[Query] = []
    for count in phases:
        block = []
        for _ in range(count):
            keywords, rmax = rng.choices(ranked, cum_weights=weights)[0]
            block.append(Query(keywords, rmax,
                               rng.choice(params.k_values)))
        order.shuffle(block)
        out.extend(block)
    return out


def delta_stream(count: int, base_nodes: int) -> List[Dict[str, object]]:
    """``count`` ``POST /admin/delta`` bodies. Delta ``i`` adds one
    tuple with one planted keyword and two edges to already existing
    nodes (one in, one out); new ids are assigned densely, so the
    stream is valid applied in order."""
    rng = random.Random(DELTA_SEED)
    keywords = [kw for band in BENCH_BANDS for kw in band.keywords]
    n = base_nodes
    out = []
    for i in range(count):
        weight = rng.choice((1.0, 1.585, 2.0))
        out.append({
            "nodes": [{"keywords": [rng.choice(keywords)],
                       "label": f"delta {i}", "provenance": None}],
            "edges": [[n, rng.randrange(n), weight],
                      [rng.randrange(n), n, weight]]})
        n += 1
    return out


def shape(queries: Sequence[Query], answers: Sequence[int]
          ) -> Dict[str, float]:
    """The measured traffic properties later claims depend on:
    distinct specs vs requests, the share of exact repeats and of
    same-topic repeats with another ``k``, and answers per query."""
    seen_specs = set()
    seen_topics = set()
    exact = same_topic = 0
    for query in queries:
        if query in seen_specs:
            exact += 1
        elif query.topic in seen_topics:
            same_topic += 1
        seen_specs.add(query)
        seen_topics.add(query.topic)
    n = len(queries)
    return {
        "requests": n,
        "distinct_specs": len(seen_specs),
        "distinct_topics": len(seen_topics),
        "exact_repeat_frac": exact / n if n else 0.0,
        "topic_repeat_frac": same_topic / n if n else 0.0,
        "answers_per_query": (sum(answers) / len(answers)
                              if answers else 0.0),
    }
