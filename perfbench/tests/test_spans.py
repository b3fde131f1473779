"""Span recording and self-time arithmetic."""

import threading
import types

import pytest

import spans
from spans import Recorder


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered((0.0, 10.0), []) == 0.0
    assert spans.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0)]) == 3.0
    assert spans.covered((0.0, 10.0), [(1.0, 2.0), (5.0, 6.0)]) == 2.0
    # children sticking out of the parent only count inside it
    assert spans.covered((0.0, 10.0), [(-5.0, 1.0), (9.0, 20.0)]) == 2.0
    assert spans.covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def _span(sid, parent, start, end):
    return [sid, parent, None, f"s{sid}", start, end, None]


def test_self_time_subtracts_only_direct_children():
    tree = [_span(1, None, 0.0, 10.0),
            _span(2, 1, 1.0, 5.0),
            _span(3, 2, 2.0, 4.0),          # grandchild: not 1's concern
            _span(4, 1, 4.0, 7.0)]          # overlaps sibling 2
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 6.0)
    assert selfs[2] == pytest.approx(4.0 - 2.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(3.0)


def test_parallel_children_count_once():
    tree = [_span(1, None, 0.0, 10.0),
            _span(2, 1, 1.0, 9.0), _span(3, 1, 1.0, 9.0)]
    assert spans.self_times(tree)[1] == pytest.approx(2.0)


def test_recorder_links_parents_and_request_ids():
    rec = Recorder()
    with rec.span("outer", rid="q1"):
        with rec.span("inner"):
            pass
    inner, outer = rec.spans
    assert inner[spans.PARENT] == outer[spans.ID]
    assert inner[spans.RID] == "q1"
    assert outer[spans.PARENT] is None
    assert outer[spans.START] <= inner[spans.START]
    assert inner[spans.END] <= outer[spans.END]


def test_carry_hands_the_open_span_to_another_thread():
    rec = Recorder()

    def leg():
        with rec.span("leg"):
            pass

    with rec.span("outer", rid="q2"):
        worker = threading.Thread(target=rec.carry(leg))
        worker.start()
        worker.join(timeout=5)
    assert not worker.is_alive()
    leg_span = next(s for s in rec.spans if s[spans.NAME] == "leg")
    outer = next(s for s in rec.spans if s[spans.NAME] == "outer")
    assert leg_span[spans.PARENT] == outer[spans.ID]
    assert leg_span[spans.RID] == "q2"
    with rec.span("later"):
        pass
    assert rec.spans[-1][spans.PARENT] is None


def test_wrap_records_calls_and_preserves_results():
    rec = Recorder()
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    assert rec.wrap(module, "double", "layer.double") is not None
    assert module.double(21) == 42
    assert [s[spans.NAME] for s in rec.spans] == ["layer.double"]
    assert rec.wrap(module, "absent", "layer.absent") is None
    assert len(rec.missing) == 1 and rec.missing[0].endswith(".absent")


def test_wrappers_record_nothing_outside_the_installing_process():
    rec = Recorder()
    module = types.SimpleNamespace(f=lambda: 1)
    rec.wrap(module, "f", "f")
    rec.owner = -1                    # as seen from a forked worker
    assert module.f() == 1
    assert rec.spans == []


def test_dump_and_load_round_trip(tmp_path):
    rec = Recorder()
    with rec.span("a", rid="r"):
        pass
    path = tmp_path / "spans.json"
    rec.dump(str(path))
    loaded = spans.load(str(path))
    assert loaded["missing"] == []
    assert loaded["spans"][0][spans.NAME] == "a"
