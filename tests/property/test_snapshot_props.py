"""Property tests for snapshot and legacy-file round trips.

One generator produces adversarial artifacts — composite-tuple
provenance primary keys, unicode keywords and labels, keywords with
empty postings (explicit build vocabularies containing words absent
from the graph), legacy files gzipped or not — and the properties
assert that

1. a snapshot round-trips the graph and index exactly;
2. the legacy single-file formats (now shims over the same codec)
   round-trip them exactly too;
3. re-serializing loaded content reproduces the identical snapshot id
   — serialization is deterministic, so content-addressing is stable
   across write/load/write cycles.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.csr import CompiledGraph
from repro.graph.database_graph import DatabaseGraph
from repro.graph.io import load_database_graph, save_database_graph
from repro.snapshot import load_snapshot, write_snapshot
from repro.text.inverted_index import CommunityIndex
from repro.text.persistence import load_index, save_index

_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)),  # no lone surrogates
    min_size=1, max_size=6)

_PK = st.recursive(
    st.one_of(st.integers(-10**6, 10**6), _TEXT),
    lambda children: st.tuples(children, children),
    max_leaves=4)


@st.composite
def artifacts(draw):
    """A ``(dbg, index_or_None, gzip_legacy_files)`` case."""
    n = draw(st.integers(min_value=0, max_value=8))
    vocab = draw(st.lists(_TEXT, min_size=1, max_size=4,
                          unique=True))
    edges = draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)),
                  st.integers(0, max(n - 1, 0)),
                  st.floats(min_value=0.0, max_value=9.0,
                            allow_nan=False, width=64)),
        max_size=12)) if n else []
    edges = [e for e in edges if e[0] != e[1]]
    graph = CompiledGraph.from_edges(n, edges)
    keywords = [draw(st.frozensets(st.sampled_from(vocab),
                                   max_size=3)) for _ in range(n)]
    labels = [draw(_TEXT) for _ in range(n)]
    provenance = [draw(st.none() | st.tuples(_TEXT, _PK))
                  for _ in range(n)]
    dbg = DatabaseGraph(graph, keywords, labels, provenance)

    index = None
    if draw(st.booleans()):
        radius = float(draw(st.sampled_from([2, 5, 8])))
        explicit = None
        if draw(st.booleans()):
            # Explicit vocabulary with a word no node carries —
            # produces keywords whose postings are empty.
            explicit = vocab + [draw(_TEXT)]
        index = CommunityIndex.build(dbg, radius, keywords=explicit)
    return dbg, index, draw(st.booleans())


def _same_graph(a: DatabaseGraph, b: DatabaseGraph) -> None:
    assert a.n == b.n and a.m == b.m
    assert list(a.graph.edges()) == list(b.graph.edges())
    for u in range(a.n):
        assert a.keywords_of(u) == b.keywords_of(u)
        assert a.label_of(u) == b.label_of(u)
        assert a.provenance_of(u) == b.provenance_of(u)


def _same_index(a: CommunityIndex, b: CommunityIndex) -> None:
    assert a.radius == b.radius
    # Snapshot round trips preserve every keyword of both maps
    # (including empty posting lists); the legacy format unions the
    # two keyword sets, so presence can only grow, never shrink.
    for kw in a.node_index.keywords():
        assert a.node_index.nodes(kw) == b.node_index.nodes(kw)
    for kw in a.edge_index.keywords():
        assert a.edge_index.edges(kw) == b.edge_index.edges(kw)


@settings(max_examples=30, deadline=None)
@given(case=artifacts())
def test_snapshot_round_trip(case, tmp_path_factory):
    dbg, index, _ = case
    path = tmp_path_factory.mktemp("snap") / "s"
    write_snapshot(path, dbg, index)
    loaded = load_snapshot(path)
    _same_graph(loaded.dbg, dbg)
    if index is None:
        assert loaded.index is None
    else:
        _same_index(index, loaded.index)
        assert loaded.index.node_index.keywords() \
            == index.node_index.keywords()
        assert loaded.index.edge_index.keywords() \
            == index.edge_index.keywords()


@settings(max_examples=30, deadline=None)
@given(case=artifacts())
def test_legacy_files_round_trip(case, tmp_path_factory):
    dbg, index, gzip_legacy = case
    tmp = tmp_path_factory.mktemp("legacy")
    suffix = ".json.gz" if gzip_legacy else ".json"
    save_database_graph(dbg, tmp / f"g{suffix}")
    loaded_dbg = load_database_graph(tmp / f"g{suffix}")
    _same_graph(loaded_dbg, dbg)
    if index is not None:
        save_index(index, tmp / f"i{suffix}")
        loaded_index = load_index(tmp / f"i{suffix}", loaded_dbg)
        _same_index(index, loaded_index)


@settings(max_examples=20, deadline=None)
@given(case=artifacts())
def test_snapshot_id_stable_across_reserialization(case,
                                                   tmp_path_factory):
    dbg, index, _ = case
    tmp = tmp_path_factory.mktemp("stable")
    first = write_snapshot(tmp / "a", dbg, index)
    loaded = load_snapshot(tmp / "a")
    second = write_snapshot(tmp / "b", loaded.dbg, loaded.index)
    assert second.id == first.id
