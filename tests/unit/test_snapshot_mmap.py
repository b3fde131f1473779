"""Unit tests for the zero-copy snapshot load path.

``load_snapshot`` serves a snapshot out of read-only array views over
memory-mapped section files, so N workers share one physical copy of
the index. These tests pin down the mapped content and classes, the
refusal of legacy gzip-compressed sections, view immutability, the
lazy metadata decode, answers identical to the in-memory engine the
snapshot was written from, the engine's adoption and reload of mapped
snapshots, the inspect CLI, and the codec's
single-pass posting validation (NaN / negative weights, out-of-range
nodes).
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import QueryEngine
from repro.engine.spec import QuerySpec
from repro.exceptions import QueryError, SnapshotFormatError
from repro.graph.database_graph import LazyDatabaseGraph
from repro.snapshot import MANIFEST_NAME, load_snapshot, write_snapshot
from repro.snapshot.codec import index_from_payload, index_payload
from repro.text.inverted_index import (
    ArrayEdgeInvertedIndex,
    ArrayNodeInvertedIndex,
    CommunityIndex,
)


@pytest.fixture()
def fig4_index(fig4):
    return CommunityIndex.build(fig4, FIG4_RMAX)


@pytest.fixture()
def snap_dir(fig4, fig4_index, tmp_path):
    """A fig4 snapshot directory."""
    write_snapshot(tmp_path / "s", fig4, fig4_index)
    return tmp_path / "s"


@pytest.fixture()
def gzip_snap_dir(fig4, fig4_index, tmp_path):
    """A fig4 snapshot whose manifest flags its sections as gzip —
    the shape of an artifact written by older builds."""
    write_snapshot(tmp_path / "z", fig4, fig4_index)
    manifest_path = tmp_path / "z" / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["sections"].values():
        entry["gzip"] = True
    manifest_path.write_text(json.dumps(manifest))
    return tmp_path / "z"


class TestModes:
    def test_mmap_on_gzip_is_a_typed_format_error(self,
                                                  gzip_snap_dir):
        with pytest.raises(SnapshotFormatError, match="gzip"):
            load_snapshot(gzip_snap_dir)

    def test_mmap_round_trips_content(self, fig4, fig4_index,
                                      snap_dir):
        loaded = load_snapshot(snap_dir)
        assert loaded.dbg.n == fig4.n and loaded.dbg.m == fig4.m
        assert list(loaded.dbg.graph.edges()) \
            == list(fig4.graph.edges())
        for u in range(fig4.n):
            assert loaded.dbg.keywords_of(u) == fig4.keywords_of(u)
            assert loaded.dbg.label_of(u) == fig4.label_of(u)
            assert loaded.dbg.provenance_of(u) \
                == fig4.provenance_of(u)
        index = loaded.index
        assert index.radius == fig4_index.radius
        assert index.node_index.keywords() \
            == fig4_index.node_index.keywords()
        for kw in fig4_index.node_index.keywords():
            assert index.node_index.nodes(kw) \
                == fig4_index.node_index.nodes(kw)
        for kw in fig4_index.edge_index.keywords():
            assert index.edge_index.edges(kw) \
                == fig4_index.edge_index.edges(kw)

    def test_mmap_uses_array_backed_classes(self, snap_dir):
        loaded = load_snapshot(snap_dir)
        assert isinstance(loaded.dbg, LazyDatabaseGraph)
        assert isinstance(loaded.index.node_index,
                          ArrayNodeInvertedIndex)
        assert isinstance(loaded.index.edge_index,
                          ArrayEdgeInvertedIndex)


class TestReadOnlyViews:
    def test_graph_views_reject_mutation(self, snap_dir):
        graph = load_snapshot(snap_dir).dbg.graph
        for arr in (graph.forward.indptr, graph.forward.targets,
                    graph.forward.weights):
            arr = np.asarray(arr)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_postings_decode_to_plain_python(self, snap_dir):
        index = load_snapshot(snap_dir).index
        for kw in index.node_index.keywords():
            nodes = index.node_index.nodes(kw)
            assert all(type(u) is int for u in nodes)
        for kw in index.edge_index.keywords():
            for u, v, w in index.edge_index.edges(kw):
                assert type(u) is int and type(v) is int \
                    and type(w) is float
        # ... so answers built from them are JSON-serializable.
        json.dumps({"n": index.node_index.nodes(kw),
                    "e": index.edge_index.edges(kw)})

    def test_node_metadata_parse_is_deferred(self, snap_dir):
        dbg = load_snapshot(snap_dir).dbg
        assert dbg._payload is None        # spawn paid no JSON parse
        dbg.label_of(0)
        assert dbg._payload is not None    # first access paid it once


class TestQueryEquivalence:
    """The mapped engine against the engine on the in-memory
    (list-backed) graph and index the snapshot was written from — a
    reference that never touched disk."""

    def test_comm_all_identical_across_modes(self, fig4, fig4_index,
                                             snap_dir):
        spec = QuerySpec(tuple(FIG4_QUERY), FIG4_RMAX, mode="all")
        reference = QueryEngine(fig4, fig4_index)
        mapped = QueryEngine.from_snapshot(snap_dir)
        key = [(c.core, c.cost, c.nodes, c.edges, c.centers)
               for c in reference.run_all(spec)]
        assert key == [(c.core, c.cost, c.nodes, c.edges, c.centers)
                       for c in mapped.run_all(spec)]

    def test_pdk_stream_identical_across_modes(self, fig4, fig4_index,
                                               snap_dir):
        reference = QueryEngine(fig4, fig4_index)
        mapped = QueryEngine.from_snapshot(snap_dir)
        a = reference.top_k_stream(list(FIG4_QUERY),
                                   FIG4_RMAX).take(3)
        b = mapped.top_k_stream(list(FIG4_QUERY), FIG4_RMAX).take(3)
        assert [(c.core, c.cost, c.nodes) for c in a] \
            == [(c.core, c.cost, c.nodes) for c in b]


class TestEnginePlumbing:
    def test_engine_adopts_snapshot_object_mode(self, snap_dir):
        """An already-loaded snapshot is adopted as-is: the engine
        serves its mapped objects, it does not load again."""
        snapshot = load_snapshot(snap_dir)
        engine = QueryEngine.from_snapshot(snapshot)
        assert engine.dbg is snapshot.dbg
        assert engine.index is snapshot.index
        assert engine.generation == snapshot.id

    def test_reload_preserves_the_mode_request(self, fig4, snap_dir,
                                               tmp_path):
        """A reload maps the new snapshot too: the engine keeps
        serving array views, never a private decoded copy."""
        engine = QueryEngine.from_snapshot(snap_dir)
        write_snapshot(tmp_path / "next", fig4,
                       CommunityIndex.build(fig4, FIG4_RMAX + 1))
        engine.load_snapshot(tmp_path / "next")
        assert engine.index.radius == FIG4_RMAX + 1
        assert isinstance(engine.dbg, LazyDatabaseGraph)
        assert isinstance(engine.index.node_index,
                          ArrayNodeInvertedIndex)


class TestCodecValidation:
    """Satellite: single-pass posting validation in the codec."""

    def _payload(self, fig4_index):
        return json.loads(json.dumps(index_payload(fig4_index)))

    def test_round_trip_is_clean(self, fig4, fig4_index):
        index_from_payload(self._payload(fig4_index), fig4)

    def test_nan_edge_weight_rejected(self, fig4, fig4_index):
        payload = self._payload(fig4_index)
        kw = next(k for k, v in payload["edge_postings"].items()
                  if v)
        payload["edge_postings"][kw][0][2] = float("nan")
        with pytest.raises(QueryError, match="NaN"):
            index_from_payload(payload, fig4)

    def test_negative_edge_weight_rejected(self, fig4, fig4_index):
        payload = self._payload(fig4_index)
        kw = next(k for k, v in payload["edge_postings"].items()
                  if v)
        payload["edge_postings"][kw][0][2] = -1.0
        with pytest.raises(QueryError, match="negative"):
            index_from_payload(payload, fig4)

    def test_out_of_range_node_posting_rejected(self, fig4,
                                                fig4_index):
        payload = self._payload(fig4_index)
        kw = next(k for k, v in payload["node_postings"].items()
                  if v)
        payload["node_postings"][kw][0] = fig4.n
        with pytest.raises(QueryError, match="outside"):
            index_from_payload(payload, fig4)

    def test_negative_node_posting_rejected(self, fig4, fig4_index):
        payload = self._payload(fig4_index)
        kw = next(k for k, v in payload["node_postings"].items()
                  if v)
        payload["node_postings"][kw][0] = -1
        with pytest.raises(QueryError, match="outside"):
            index_from_payload(payload, fig4)


class TestInspectCli:
    def test_text_reports_bytes_and_mappability(self, snap_dir,
                                                capsys):
        assert main(["snapshot", "inspect", str(snap_dir)]) == 0
        out = capsys.readouterr().out
        total = sum(entry.stat().st_size for entry in snap_dir.iterdir()
                    if entry.name != MANIFEST_NAME)
        assert f"mapped     {total} bytes" in out
        assert "shareable across workers" in out
