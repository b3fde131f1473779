"""Property tests for the mapped snapshot load path.

Two properties back the zero-copy load:

1. every array a snapshot load hands out is a read-only view —
   mutation raises instead of silently corrupting the shared pages;
2. an engine over the mapped artifact and an engine over the
   in-memory (list-backed) graph and index the artifact was written
   from answer PDall and PDk identically, community for community, on
   adversarial Hypothesis graphs — so mapping can never change what a
   query returns, only how the bytes are held. The in-memory
   reference never touched disk.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import QueryEngine
from repro.engine.spec import QuerySpec
from repro.snapshot import load_snapshot, write_snapshot

from test_snapshot_props import _same_graph, _same_index, artifacts


def _community_key(communities):
    return [(c.core, c.cost, c.centers, c.pnodes, c.nodes, c.edges)
            for c in communities]


@settings(max_examples=25, deadline=None)
@given(case=artifacts())
def test_mmap_load_round_trips_and_views_are_read_only(
        case, tmp_path_factory):
    dbg, index, _ = case
    path = tmp_path_factory.mktemp("mmap") / "s"
    write_snapshot(path, dbg, index)
    loaded = load_snapshot(path)
    _same_graph(loaded.dbg, dbg)
    if index is not None:
        _same_index(index, loaded.index)
    for arr in (loaded.dbg.graph.forward.indptr,
                loaded.dbg.graph.forward.targets,
                loaded.dbg.graph.forward.weights):
        arr = np.asarray(arr)
        assert not arr.flags.writeable
        if arr.size:
            with pytest.raises(ValueError):
                arr[0] = 1


@settings(max_examples=20, deadline=None)
@given(case=artifacts(), data=st.data())
def test_copy_and_mmap_engines_answer_identically(
        case, data, tmp_path_factory):
    dbg, index, _ = case
    path = tmp_path_factory.mktemp("modes") / "s"
    write_snapshot(path, dbg, index)
    reference = QueryEngine(dbg, index)    # in memory, never on disk
    mapped = QueryEngine.from_snapshot(path)

    vocab = sorted(dbg.vocabulary())
    if not vocab:
        return
    keywords = data.draw(st.lists(st.sampled_from(vocab),
                                  min_size=1, max_size=2,
                                  unique=True))
    rmax = data.draw(st.sampled_from([1.0, 4.0, 9.0]))
    if index is not None:
        # Projection refuses Rmax beyond the index radius R.
        rmax = min(rmax, index.radius)

    spec = QuerySpec(tuple(keywords), rmax, mode="all")
    all_a = _community_key(reference.run_all(spec))
    all_b = _community_key(mapped.run_all(spec))
    assert all_a == all_b
    # The same answers serialize to the same JSON — no numpy scalar
    # may leak out of the mapped arrays.
    assert json.dumps(all_b, default=str) \
        == json.dumps(all_a, default=str)

    stream_a = reference.top_k_stream(keywords, rmax).take(3)
    stream_b = mapped.top_k_stream(keywords, rmax).take(3)
    assert _community_key(stream_a) == _community_key(stream_b)
