"""Unit tests for the snapshot format, store, and engine lifecycle.

Covers the PR's acceptance properties at the unit level:

* a snapshot round-trips bit-identically — rewriting the same content
  reproduces the same per-section checksums and the same id;
* every flipped byte is rejected at load/verify time with the typed
  error taxonomy, and ``verify_snapshot`` decodes the sections the
  mapped loader parses lazily;
* a legacy manifest with gzip-compressed sections is refused with a
  typed error naming the fix at every entry point;
* the store publishes atomically, resolves ``latest``, lists and
  prunes; republishing identical content is idempotent;
* the engine adopts the snapshot id as its generation, swaps
  atomically, and treats a content-identical swap as a no-op (cache
  stays warm).
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import QueryEngine
from repro.exceptions import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    SnapshotVersionError,
)
from repro.snapshot import (
    MANIFEST_NAME,
    SnapshotStore,
    load_snapshot,
    locate_snapshot,
    read_manifest,
    verify_snapshot,
    write_snapshot,
)
from repro.text.inverted_index import (
    CommunityIndex,
    EdgeInvertedIndex,
    NodeInvertedIndex,
)


@pytest.fixture()
def fig4_index(fig4):
    return CommunityIndex.build(fig4, FIG4_RMAX)


def _assert_same_graph(a, b):
    assert a.n == b.n and a.m == b.m
    assert list(a.graph.edges()) == list(b.graph.edges())
    for u in range(a.n):
        assert a.keywords_of(u) == b.keywords_of(u)
        assert a.label_of(u) == b.label_of(u)
        assert a.provenance_of(u) == b.provenance_of(u)


def _assert_same_index(a, b):
    assert a.radius == b.radius
    assert a.node_index.keywords() == b.node_index.keywords()
    assert a.edge_index.keywords() == b.edge_index.keywords()
    for kw in a.node_index.keywords():
        assert a.node_index.nodes(kw) == b.node_index.nodes(kw)
    for kw in a.edge_index.keywords():
        assert a.edge_index.edges(kw) == b.edge_index.edges(kw)


def _replace_section(snap_dir, name, payload):
    """Overwrite section ``name`` and make its manifest entry (bytes,
    sha256) match, so only decoding can reject the new content."""
    manifest_path = snap_dir / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["sections"][name]
    (snap_dir / entry["file"]).write_bytes(payload)
    entry.update(bytes=len(payload),
                 sha256=hashlib.sha256(payload).hexdigest())
    manifest_path.write_text(json.dumps(manifest))


class TestFormat:
    def test_round_trip(self, fig4, fig4_index, tmp_path):
        snap = write_snapshot(tmp_path / "s", fig4, fig4_index,
                              provenance={"dataset": "fig4"})
        loaded = load_snapshot(tmp_path / "s")
        assert loaded.id == snap.id
        assert loaded.provenance == {"dataset": "fig4"}
        _assert_same_graph(loaded.dbg, fig4)
        _assert_same_index(loaded.index, fig4_index)
        # Postings reference the *loaded* graph, not the original.
        assert loaded.index.dbg is loaded.dbg

    def test_rewrite_is_bit_identical(self, fig4, fig4_index,
                                      tmp_path):
        """Same content -> same id and same section checksums."""
        a = write_snapshot(tmp_path / "a", fig4, fig4_index)
        b = write_snapshot(tmp_path / "b", fig4, fig4_index)
        assert a.id == b.id
        shas_a = {k: v["sha256"] for k, v in a.manifest["sections"].items()}
        shas_b = {k: v["sha256"] for k, v in b.manifest["sections"].items()}
        assert shas_a == shas_b
        for name in ("graph.bin", "nodes.json", "index.json",
                     "postings.bin"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_graph_only_snapshot(self, fig4, tmp_path):
        snap = write_snapshot(tmp_path / "g", fig4)
        loaded = load_snapshot(tmp_path / "g")
        assert loaded.index is None
        assert loaded.radius is None
        assert not snap.manifest["has_index"]
        _assert_same_graph(loaded.dbg, fig4)

    def test_refuses_to_overwrite(self, fig4, tmp_path):
        write_snapshot(tmp_path / "s", fig4)
        with pytest.raises(SnapshotFormatError):
            write_snapshot(tmp_path / "s", fig4)

    def test_id_ignores_created_at(self, fig4, fig4_index, tmp_path):
        snap = write_snapshot(tmp_path / "s", fig4, fig4_index)
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["created_at"] = "1999-01-01T00:00:00Z"
        manifest_path.write_text(json.dumps(manifest))
        assert load_snapshot(tmp_path / "s").id == snap.id


class TestCorruption:
    """The typed error taxonomy, one class per failure mode."""

    @pytest.fixture()
    def snap_dir(self, fig4, fig4_index, tmp_path):
        write_snapshot(tmp_path / "s", fig4, fig4_index)
        return tmp_path / "s"

    @pytest.mark.parametrize("section", ["graph.bin", "nodes.json",
                                         "index.json", "postings.bin"])
    def test_flipped_byte_rejected(self, snap_dir, section):
        target = snap_dir / section
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(SnapshotIntegrityError):
            verify_snapshot(snap_dir)

    def test_truncated_section(self, snap_dir):
        target = snap_dir / "postings.bin"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(snap_dir)

    def test_missing_section_file(self, snap_dir):
        (snap_dir / "graph.bin").unlink()
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(snap_dir)

    def test_wrong_version(self, snap_dir):
        manifest_path = snap_dir / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotVersionError):
            read_manifest(snap_dir)

    def test_foreign_manifest(self, snap_dir):
        (snap_dir / MANIFEST_NAME).write_text('{"format": "other"}')
        with pytest.raises(SnapshotFormatError):
            read_manifest(snap_dir)

    def test_unparseable_manifest(self, snap_dir):
        (snap_dir / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(SnapshotFormatError):
            read_manifest(snap_dir)

    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError):
            load_snapshot(tmp_path / "nope")

    def test_taxonomy_roots(self):
        """Every snapshot failure is catchable as SnapshotError."""
        for cls in (SnapshotFormatError, SnapshotVersionError,
                    SnapshotIntegrityError, SnapshotNotFoundError):
            assert issubclass(cls, SnapshotError)
        assert issubclass(SnapshotVersionError, SnapshotFormatError)

    def test_skip_verify_still_catches_truncation(self, snap_dir):
        """verify=False skips checksums but not structural checks."""
        target = snap_dir / "graph.bin"
        target.write_bytes(target.read_bytes()[:-16])
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(snap_dir, verify=False)

    def test_verify_decodes_a_well_formed_but_foreign_nodes_section(
            self, snap_dir):
        """A nodes section that is valid JSON with a matching
        checksum, but not a nodes section, passes the mapped load
        (which defers the parse) and must still fail verification."""
        _replace_section(snap_dir, "nodes", b"{}")
        load_snapshot(snap_dir)            # the parse is deferred ...
        with pytest.raises(SnapshotIntegrityError):
            verify_snapshot(snap_dir)      # ... and verify forces it

    def test_verify_decodes_every_provenance_entry(self, snap_dir):
        """A provenance entry that parses as JSON but does not decode
        to ``(table, pk)`` fails verification."""
        nodes = json.loads((snap_dir / "nodes.json").read_bytes())
        nodes["provenance"][-1] = 7
        _replace_section(snap_dir, "nodes", json.dumps(nodes).encode())
        with pytest.raises(SnapshotIntegrityError):
            verify_snapshot(snap_dir)

    def test_verify_checks_index_keyword_ids(self, snap_dir):
        """A negative keyword id in the index directory would resolve
        to the wrong word through Python's negative indexing."""
        directory = json.loads((snap_dir / "index.json").read_bytes())
        directory["node_keywords"][0] = -1
        _replace_section(snap_dir, "index",
                         json.dumps(directory).encode())
        with pytest.raises(SnapshotIntegrityError, match="keyword id"):
            verify_snapshot(snap_dir)


class TestLegacyGzipSections:
    """Older builds could gzip section payloads. Such a manifest is
    refused with a typed error naming the fix at every entry point,
    never crashed on or decoded as garbage."""

    @pytest.fixture()
    def gzip_dir(self, fig4, fig4_index, tmp_path):
        write_snapshot(tmp_path / "s", fig4, fig4_index)
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["sections"]["postings"]["gzip"] = True
        manifest_path.write_text(json.dumps(manifest))
        return tmp_path / "s"

    def test_new_manifests_carry_no_gzip_key(self, fig4, fig4_index,
                                            tmp_path):
        snap = write_snapshot(tmp_path / "s", fig4, fig4_index)
        assert all("gzip" not in entry
                   for entry in snap.manifest["sections"].values())

    def test_load_refuses(self, gzip_dir):
        with pytest.raises(SnapshotFormatError,
                           match="gzip.*rebuild the snapshot"):
            load_snapshot(gzip_dir)

    def test_verify_cli_refuses(self, gzip_dir, capsys):
        with pytest.raises(SnapshotFormatError, match="rebuild"):
            verify_snapshot(gzip_dir)
        assert main(["snapshot", "verify", str(gzip_dir)]) == 2
        assert "rebuild the snapshot" in capsys.readouterr().err

    def test_ingest_refuses_before_any_bytes_move(self, gzip_dir,
                                                  tmp_path):
        store = SnapshotStore(tmp_path / "remote")
        manifest = read_manifest(gzip_dir)
        with pytest.raises(SnapshotFormatError, match="rebuild"):
            store.ingest(manifest)
        assert list((tmp_path / "remote").iterdir()) == []


class TestEdgeOnlyKeywords:
    """Regression: edge-index keywords absent from the node index
    used to be silently dropped by ``save_index`` (which iterated
    only ``node_index.keywords()``)."""

    def test_snapshot_round_trip_keeps_edge_only_keyword(
            self, fig4, tmp_path):
        node_postings = {"a": [0, 1]}
        edge_postings = {"a": [(0, 1, 2.0)],
                         "edgeonly": [(1, 2, 3.0), (2, 3, 1.5)]}
        index = CommunityIndex(
            fig4, NodeInvertedIndex(node_postings),
            EdgeInvertedIndex(edge_postings, 5.0), 5.0, 0.0)
        write_snapshot(tmp_path / "s", fig4, index)
        loaded = load_snapshot(tmp_path / "s").index
        assert "edgeonly" in loaded.edge_index
        assert loaded.edge_index.edges("edgeonly") \
            == [(1, 2, 3.0), (2, 3, 1.5)]

    def test_legacy_save_keeps_edge_only_keyword(self, fig4,
                                                 tmp_path):
        from repro.text.persistence import load_index, save_index

        index = CommunityIndex(
            fig4, NodeInvertedIndex({"a": [0]}),
            EdgeInvertedIndex({"a": [], "ghost": [(0, 1, 1.0)]}, 4.0),
            4.0, 0.0)
        save_index(index, tmp_path / "idx.json")
        loaded = load_index(tmp_path / "idx.json", fig4)
        assert loaded.edge_index.edges("ghost") == [(0, 1, 1.0)]

    def test_explicit_vocabulary_survives(self, fig4, tmp_path):
        """An index built over an explicit vocabulary keeps keywords
        that occur in the vocabulary but not on any node."""
        index = CommunityIndex.build(fig4, FIG4_RMAX,
                                     keywords=["a", "b", "notthere"])
        write_snapshot(tmp_path / "s", fig4, index)
        loaded = load_snapshot(tmp_path / "s").index
        assert "notthere" in loaded.edge_index
        assert loaded.edge_index.edges("notthere") == []


class TestStore:
    def test_publish_resolve_load(self, fig4, fig4_index, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        snap = store.publish(fig4, fig4_index,
                             provenance={"dataset": "fig4"})
        assert store.latest_id() == snap.id
        assert store.resolve() == tmp_path / "store" / snap.id
        loaded = store.load()
        assert loaded.id == snap.id
        _assert_same_graph(loaded.dbg, fig4)

    def test_republish_identical_content_is_idempotent(
            self, fig4, fig4_index, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        first = store.publish(fig4, fig4_index)
        second = store.publish(fig4, fig4_index)
        assert first.id == second.id
        assert len(store.list()) == 1
        # No staging debris left behind.
        leftovers = [p.name for p in (tmp_path / "store").iterdir()
                     if p.name.startswith(".")]
        assert leftovers == []

    def test_latest_moves_to_newer_content(self, fig4, fig4_index,
                                           tmp_path):
        store = SnapshotStore(tmp_path / "store")
        old = store.publish(fig4, None)          # graph-only
        new = store.publish(fig4, fig4_index)    # with index
        assert old.id != new.id
        assert store.latest_id() == new.id
        assert len(store.list()) == 2
        flagged = {m["id"]: m["latest"] for m in store.list()}
        assert flagged == {old.id: False, new.id: True}

    def test_prune_keeps_latest(self, fig4, fig4_index, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        old = store.publish(fig4, None)
        new = store.publish(fig4, fig4_index)
        removed = store.prune(keep=1)
        assert removed == [old.id]
        assert store.latest_id() == new.id
        with pytest.raises(SnapshotNotFoundError):
            store.resolve(old.id)

    def test_empty_store_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(SnapshotNotFoundError):
            store.latest_id()
        with pytest.raises(SnapshotNotFoundError):
            store.load()

    def test_locate_accepts_dir_and_store(self, fig4, fig4_index,
                                          tmp_path):
        store = SnapshotStore(tmp_path / "store")
        snap = store.publish(fig4, fig4_index)
        direct = write_snapshot(tmp_path / "bare", fig4, fig4_index)
        assert locate_snapshot(tmp_path / "store") \
            == tmp_path / "store" / snap.id
        assert locate_snapshot(direct.path) == direct.path
        with pytest.raises(SnapshotNotFoundError):
            locate_snapshot(tmp_path)


class TestEngineLifecycle:
    def test_from_snapshot_adopts_id_as_generation(
            self, fig4, fig4_index, tmp_path):
        snap = write_snapshot(tmp_path / "s", fig4, fig4_index)
        engine = QueryEngine.from_snapshot(tmp_path / "s")
        assert engine.generation == snap.id
        assert engine.snapshot_id == snap.id
        assert engine.snapshot_loaded_at is not None
        results = engine.top_k_stream(list(FIG4_QUERY),
                                      FIG4_RMAX).take(2)
        assert len(results) == 2

    def test_swap_changes_generation_and_evicts(self, fig4,
                                                fig4_index, tmp_path):
        engine = QueryEngine(fig4)
        engine.build_index(radius=FIG4_RMAX)
        engine.project(list(FIG4_QUERY), FIG4_RMAX)
        assert len(engine.cache) == 1
        snap = write_snapshot(tmp_path / "s", fig4, fig4_index)
        changed = engine.swap_snapshot(load_snapshot(tmp_path / "s"))
        assert changed
        assert engine.generation == snap.id
        assert len(engine.cache) == 0

    def test_swap_to_identical_content_is_noop(self, fig4,
                                               fig4_index, tmp_path):
        write_snapshot(tmp_path / "s", fig4, fig4_index)
        engine = QueryEngine.from_snapshot(tmp_path / "s")
        engine.project(list(FIG4_QUERY), FIG4_RMAX)
        assert len(engine.cache) == 1
        changed = engine.swap_snapshot(load_snapshot(tmp_path / "s"))
        assert not changed
        assert len(engine.cache) == 1     # cache stayed warm

    def test_in_memory_change_diverges_from_snapshot(
            self, fig4, fig4_index, tmp_path):
        write_snapshot(tmp_path / "s", fig4, fig4_index)
        engine = QueryEngine.from_snapshot(tmp_path / "s")
        engine.build_index(radius=FIG4_RMAX)
        assert engine.snapshot_id is None
        assert engine.generation.startswith("g")

    def test_queries_answer_identically_from_snapshot(
            self, fig4, fig4_index, tmp_path):
        from repro.engine.spec import QuerySpec

        write_snapshot(tmp_path / "s", fig4, fig4_index)
        direct = QueryEngine(fig4, fig4_index)
        loaded = QueryEngine.from_snapshot(tmp_path / "s")
        spec = QuerySpec.comm_all(list(FIG4_QUERY), FIG4_RMAX)
        expected = direct.run_all(spec)
        got = loaded.run_all(spec)
        assert [(c.core, c.cost, c.nodes, c.edges) for c in got] \
            == [(c.core, c.cost, c.nodes, c.edges) for c in expected]
