"""Answer comparison, including reads that race deltas."""

import check
from traffic import Query


def test_same_compares_cores_exactly_and_costs_to_tolerance():
    a = [((1, 2), 3.0), ((4, 5), 6.0)]
    assert check.same(a, [((1, 2), 3.0 + 1e-12), ((4, 5), 6.0)])
    assert not check.same(a, [((1, 2), 3.1), ((4, 5), 6.0)])
    assert not check.same(a, [((4, 5), 6.0), ((1, 2), 3.0)])
    assert not check.same(a, a[:1])


class FakeReference:
    """Answers are the number of deltas applied so far."""

    def __init__(self):
        self.applied = 0

    def answer(self, query):
        return [((self.applied,), 0.0)]

    def agrees(self, query, got):
        return check.same(got, self.answer(query))

    def apply(self, body, lsn):
        assert lsn == self.applied + 1
        self.applied += 1


def test_ingest_reads_match_any_state_in_their_window():
    q = Query(("a",), 1.0, 1)
    deltas = [(1, {}), (2, {}), (3, {})]
    reads = [(q, [((0,), 0.0)], 0, 0),      # before any delta
             (q, [((1,), 0.0)], 0, 1),      # raced delta 1, saw it
             (q, [((1,), 0.0)], 1, 2),      # raced delta 2, missed it
             (q, [((3,), 0.0)], 3, 3)]
    assert check.mismatches_during_ingest(FakeReference(), reads,
                                          deltas) == 0


def test_ingest_read_outside_its_window_is_a_mismatch():
    q = Query(("a",), 1.0, 1)
    deltas = [(1, {}), (2, {})]
    reads = [(q, [((2,), 0.0)], 0, 1),      # state 2 not yet possible
             (q, [((0,), 0.0)], 1, 2)]      # state 0 no longer possible
    assert check.mismatches_during_ingest(FakeReference(), reads,
                                          deltas) == 2


def test_equal_cost_runs_may_come_in_any_order():
    want = [((1,), 1.0), ((2,), 2.0), ((3,), 2.0), ((4,), 3.0)]
    assert check.same([((1,), 1.0), ((3,), 2.0), ((2,), 2.0), ((4,), 3.0)],
                      want)
    # the cores of a run must still be the same
    assert not check.same([((1,), 1.0), ((5,), 2.0), ((2,), 2.0),
                           ((4,), 3.0)], want)


def test_answer_cut_inside_a_tie_may_pick_any_of_the_tied_cores():
    want = [((1,), 1.0), ((2,), 2.0)]           # k = 2, cut at cost 2
    got = [((1,), 1.0), ((3,), 2.0)]
    assert not check.same(got, want)
    assert check.same(got, want, boundary=[(2,), (3,)])
    assert not check.same(got, want, boundary=[(2,), (4,)])
