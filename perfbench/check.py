"""Answer checks against the plain reference engine.

The reference is a :class:`~repro.engine.engine.QueryEngine` over the
same (unsharded) snapshot with the result cache off and no pool. An
answer is its communities' ``(core, cost)`` pairs in rank order. Two
answers agree when their costs match rank by rank (to 1e-9 relative)
and each run of equal costs holds the same cores. The order *within*
an equal-cost run is unspecified by the program's contract (the shard
router merges ties in canonical core order, the engine in projected-id
order), and when a top-k answer is cut inside such a run, any cores
of the reference's full run may fill it. Checks run after the
measured phases, never inside them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from traffic import Query

Answer = List[Tuple[Tuple[int, ...], float]]

#: Relative tolerance on community costs.
COST_TOLERANCE = 1e-9


def answer_of(communities: Sequence) -> Answer:
    """``(core, cost)`` pairs of engine communities or response
    dicts."""
    out = []
    for community in communities:
        if isinstance(community, dict):
            out.append((tuple(community["core"]),
                        float(community["cost"])))
        else:
            out.append((tuple(community.core), float(community.cost)))
    return out


def close(a: float, b: float) -> bool:
    """Costs equal to the tolerance."""
    return abs(a - b) <= COST_TOLERANCE * max(1.0, abs(b))


def levels(answer: Answer) -> List[Tuple[float, List[Tuple[int, ...]]]]:
    """Runs of equal cost, in rank order, with their cores."""
    runs: List[Tuple[float, List[Tuple[int, ...]]]] = []
    for core, cost in answer:
        if runs and close(runs[-1][0], cost):
            runs[-1][1].append(core)
        else:
            runs.append((cost, [core]))
    return runs


def same(got: Answer, want: Answer,
         boundary: Optional[List[Tuple[int, ...]]] = None) -> bool:
    """Whether ``got`` agrees with the reference answer ``want``.

    ``boundary`` is every reference core at the last cost level when
    the answer was cut at ``k`` inside that level; ``got``'s last level
    may then be any selection of them."""
    if got == want:
        return True
    if len(got) != len(want) or not all(
            close(a, b) for (_, a), (_, b) in zip(got, want)):
        return False
    got_runs, want_runs = levels(got), levels(want)
    for position, ((_, cores), (_, expected)) in enumerate(
            zip(got_runs, want_runs)):
        if position == len(got_runs) - 1 and boundary is not None:
            if Counter(cores) - Counter(boundary):
                return False
        elif sorted(cores) != sorted(expected):
            return False
    return True


class Reference:
    """A plain engine over one snapshot, answers memoized per spec."""

    def __init__(self, snapshot_path: str) -> None:
        from repro.engine.engine import QueryEngine

        self.engine = QueryEngine.from_snapshot(snapshot_path,
                                                result_cache_bytes=0)
        self._answers: Dict[Query, Answer] = {}

    def answer(self, query: Query) -> Answer:
        """The reference answer to one query."""
        if query not in self._answers:
            from repro.engine.context import QueryContext
            from repro.engine.spec import QuerySpec

            if query.k is None:
                spec = QuerySpec(query.keywords, query.rmax, mode="all")
            else:
                spec = QuerySpec(query.keywords, query.rmax,
                                 mode="topk", k=query.k)
            self._answers[query] = answer_of(
                self.engine.execute(spec, QueryContext()))
        return self._answers[query]

    def agrees(self, query: Query, got: Answer) -> bool:
        """Whether ``got`` is a correct answer to ``query``."""
        want = self.answer(query)
        if same(got, want):
            return True
        boundary = None
        if query.k is not None and len(want) == query.k and want:
            last = want[-1][1]
            k = 2 * query.k + 16
            while True:
                deeper = self.answer(Query(query.keywords, query.rmax, k))
                if len(deeper) < k or not close(deeper[-1][1], last):
                    break
                k *= 2
            boundary = [core for core, cost in deeper if close(cost, last)]
        return same(got, want, boundary)

    def apply(self, body: dict, lsn: int) -> None:
        """Apply one acknowledged ``/admin/delta`` body, the way the
        server parses it; forgets memoized answers."""
        from repro.wal.records import parse_delta

        delta = parse_delta(body, base_nodes=self.engine.dbg.n)
        self.engine.apply_delta(delta, bool(body.get("banks_reweight")),
                                lsn=lsn)
        self._answers.clear()


def mismatches(reference: Reference, queries: Sequence[Query],
               answers: Sequence[Optional[Answer]]) -> int:
    """How many returned answers differ from the reference (``None``
    entries — failed requests — are not checked)."""
    return sum(1 for query, got in zip(queries, answers)
               if got is not None and not reference.agrees(query, got))


def mismatches_during_ingest(reference: Reference,
                             reads: Sequence[Tuple[Query, Answer, int, int]],
                             deltas: Sequence[Tuple[int, dict]]) -> int:
    """Reads that match no state they could have observed.

    Each read is ``(query, answer, low, high)``: at least ``low``
    deltas were acknowledged before it was sent and at most ``high``
    had been sent before its reply arrived, so the server answered
    from the state after some ``s`` in ``[low, high]`` deltas. The
    reference walks the acknowledged deltas in LSN order and settles
    each read at the first state in its window that matches.
    """
    pending = list(range(len(reads)))
    ordered = sorted(deltas, key=lambda item: item[0])
    applied = failed = 0
    while pending:
        still = []
        for position in pending:
            query, got, low, high = reads[position]
            if low <= applied and reference.agrees(query, got):
                continue
            if applied >= min(high, len(ordered)):
                failed += 1             # its last possible state
            else:
                still.append(position)
        pending = still
        if pending:
            lsn, body = ordered[applied]
            reference.apply(body, lsn)
            applied += 1
    return failed
