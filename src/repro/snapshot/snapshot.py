"""The immutable snapshot artifact: one directory from build to serve.

A **snapshot** is the unit a deployment ships: the database graph
``G_D``, its :class:`~repro.text.inverted_index.CommunityIndex` (the
paper's two inverted indexes, built once — 355 s for DBLP in Section
VI) and the keyword vocabulary, bundled under a content manifest so a
worker's startup is a checksum-verified *load* instead of a rebuild.

On-disk layout (one directory per snapshot)::

    <dir>/
      manifest.json        format, version, id, created_at, counts,
                           build provenance, per-section SHA-256
      graph.bin            forward CSR: indptr | targets | weights
      nodes.json           labels, provenance, vocab, per-node
                           keyword ids
      index.json           radius, build seconds, posting directory
      postings.bin         node postings | edge (u | v | w) columns

Binary sections are little-endian ``int64``/``float64`` columns.
Loading maps every section read-only and wraps ``np.frombuffer``
views over the mapped bytes
(:meth:`~repro.graph.csr.CompiledGraph.from_csr_arrays`): the forward
CSR and both posting columns are never copied, so every process that
loads the same snapshot shares one page-cache copy, and only the
reverse CSR is derived (one vectorized pass). ``nodes.json`` is parsed
on first metadata access, not at load. Checksums cover the section
bytes and the snapshot id is derived from them, so the id is a pure
function of content.

The snapshot **id** (``sn-`` + 12 hex chars) digests every section,
which gives the engine a durable cache-invalidation generation: two
workers loading the same snapshot agree on the id, and republishing
identical content republishes the same snapshot.

Errors follow the taxonomy in :mod:`repro.exceptions`:
:class:`~repro.exceptions.SnapshotNotFoundError` (nothing there),
:class:`~repro.exceptions.SnapshotFormatError` /
:class:`~repro.exceptions.SnapshotVersionError` (not a readable
snapshot) and :class:`~repro.exceptions.SnapshotIntegrityError`
(damaged payload: bad checksum, truncation, undecodable section).
"""

from __future__ import annotations

import datetime
import hashlib
import json
import mmap as _mmap
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import faults
from repro.exceptions import (
    GraphError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    SnapshotVersionError,
)
from repro.graph.csr import CompiledGraph
from repro.graph.database_graph import DatabaseGraph, LazyDatabaseGraph
from repro.ioutil import refuse_compressed_sections
from repro.snapshot.codec import decode_provenance, encode_provenance
from repro.text.inverted_index import (
    ArrayEdgeInvertedIndex,
    ArrayNodeInvertedIndex,
    CommunityIndex,
    EdgeInvertedIndex,
    NodeInvertedIndex,
)

FORMAT_NAME = "repro.snapshot"
FORMAT_VERSION = 1

#: The manifest file name inside a snapshot directory.
MANIFEST_NAME = "manifest.json"

PathLike = Union[str, Path]

_INT = np.dtype("<i8")
_FLOAT = np.dtype("<f8")


def _utcnow() -> str:
    """The current UTC time as an ISO-8601 string.

    Microsecond precision: the store orders snapshots by
    ``created_at``, and two publishes can land within one second.
    """
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S.%fZ")


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


class Snapshot:
    """One loaded (or just-written) snapshot artifact.

    Bundles the manifest with the materialized
    :class:`~repro.graph.database_graph.DatabaseGraph` and (when the
    snapshot carries one) the
    :class:`~repro.text.inverted_index.CommunityIndex`, plus the path
    it lives at. A loaded snapshot serves read-only array views over
    the mapped section files; a just-written one wraps the in-memory
    objects it was built from.
    """

    def __init__(self, path: Path, manifest: Dict[str, Any],
                 dbg: DatabaseGraph,
                 index: Optional[CommunityIndex]) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self.dbg = dbg
        self.index = index

    @property
    def id(self) -> str:
        """Content-derived snapshot id (``sn-`` + 12 hex chars)."""
        return self.manifest["id"]

    @property
    def created_at(self) -> str:
        """ISO-8601 UTC build time (informational, not hashed)."""
        return self.manifest["created_at"]

    @property
    def provenance(self) -> Dict[str, Any]:
        """Free-form build provenance (dataset, radius, builder...)."""
        return self.manifest.get("provenance", {})

    @property
    def counts(self) -> Dict[str, int]:
        """Node/edge/vocabulary/posting counts from the manifest."""
        return self.manifest["counts"]

    @property
    def radius(self) -> Optional[float]:
        """The bundled index's radius ``R`` (``None`` if no index)."""
        if self.index is None:
            return None
        return self.index.radius

    def __repr__(self) -> str:
        return (f"Snapshot(id={self.id!r}, nodes="
                f"{self.counts['nodes']}, edges={self.counts['edges']}"
                f", index={self.index is not None})")


# ----------------------------------------------------------------------
# section encoders
# ----------------------------------------------------------------------
def _graph_section(dbg: DatabaseGraph) -> bytes:
    """Forward CSR as ``indptr | targets | weights`` columns."""
    forward = dbg.graph.forward
    return b"".join((
        np.asarray(forward.indptr, dtype=_INT).tobytes(),
        np.asarray(forward.targets, dtype=_INT).tobytes(),
        np.asarray(forward.weights, dtype=_FLOAT).tobytes(),
    ))


def _nodes_section(dbg: DatabaseGraph, vocab: List[str]) -> bytes:
    """Labels, provenance, vocabulary and per-node keyword ids."""
    vocab_ids = {kw: i for i, kw in enumerate(vocab)}
    return _json_bytes({
        "labels": [dbg.label_of(u) for u in range(dbg.n)],
        "provenance": [encode_provenance(dbg.provenance_of(u))
                       for u in range(dbg.n)],
        "vocab": vocab,
        "node_keywords": [
            sorted(vocab_ids[kw] for kw in dbg.keywords_of(u))
            for u in range(dbg.n)],
    })


def _index_sections(index: CommunityIndex,
                    vocab: List[str]) -> Dict[str, bytes]:
    """The index directory (JSON) plus the postings columns (binary).

    Keyword membership is stored separately per inverted index — a
    keyword may appear in only one of the two maps (e.g. an explicit
    build vocabulary containing a word absent from the graph), and an
    *empty* posting list is distinct from an absent keyword.
    """
    vocab_ids = {kw: i for i, kw in enumerate(vocab)}
    node_kws = index.node_index.keywords()
    edge_kws = index.edge_index.keywords()
    parts: List[bytes] = []
    node_counts: List[int] = []
    for kw in node_kws:
        nodes = index.node_index.nodes(kw)
        node_counts.append(len(nodes))
        parts.append(np.asarray(nodes, dtype=_INT).tobytes())
    edge_counts: List[int] = []
    edge_u: List[bytes] = []
    edge_v: List[bytes] = []
    edge_w: List[bytes] = []
    for kw in edge_kws:
        edges = index.edge_index.edges(kw)
        edge_counts.append(len(edges))
        us = np.fromiter((e[0] for e in edges), dtype=_INT,
                         count=len(edges))
        vs = np.fromiter((e[1] for e in edges), dtype=_INT,
                         count=len(edges))
        ws = np.fromiter((e[2] for e in edges), dtype=_FLOAT,
                         count=len(edges))
        edge_u.append(us.tobytes())
        edge_v.append(vs.tobytes())
        edge_w.append(ws.tobytes())
    directory = _json_bytes({
        "radius": index.radius,
        "build_seconds": index.build_seconds,
        "node_keywords": [vocab_ids[kw] for kw in node_kws],
        "node_counts": node_counts,
        "edge_keywords": [vocab_ids[kw] for kw in edge_kws],
        "edge_counts": edge_counts,
    })
    postings = b"".join(parts) + b"".join(edge_u) \
        + b"".join(edge_v) + b"".join(edge_w)
    return {"index": directory, "postings": postings}


def snapshot_vocab(dbg: DatabaseGraph,
                   index: Optional[CommunityIndex]) -> List[str]:
    """The snapshot's keyword vocabulary, sorted.

    The graph vocabulary unioned with both posting maps' keyword sets
    (an index built over an explicit word list may reference keywords
    no node carries).
    """
    vocab = set(dbg.vocabulary())
    if index is not None:
        vocab.update(index.node_index.keywords())
        vocab.update(index.edge_index.keywords())
    return sorted(vocab)


# ----------------------------------------------------------------------
# write
# ----------------------------------------------------------------------
def write_snapshot(path: PathLike, dbg: DatabaseGraph,
                   index: Optional[CommunityIndex] = None,
                   provenance: Optional[Dict[str, Any]] = None
                   ) -> Snapshot:
    """Write one snapshot directory at ``path`` and return it.

    ``path`` must not already contain a snapshot (publishing with
    overwrite/atomicity semantics is
    :meth:`repro.snapshot.store.SnapshotStore.publish`'s job).
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    if (path / MANIFEST_NAME).exists():
        raise SnapshotFormatError(
            f"{path} already holds a snapshot; write to a fresh "
            f"directory (or publish through a SnapshotStore)")

    vocab = snapshot_vocab(dbg, index)
    payloads: Dict[str, bytes] = {
        "graph": _graph_section(dbg),
        "nodes": _nodes_section(dbg, vocab),
    }
    if index is not None:
        payloads.update(_index_sections(index, vocab))

    sections: Dict[str, Dict[str, Any]] = {}
    digest = hashlib.sha256()
    digest.update(f"{FORMAT_NAME}:{FORMAT_VERSION}".encode())
    for name in sorted(payloads):
        data = payloads[name]
        sha = hashlib.sha256(data).hexdigest()
        digest.update(name.encode())
        digest.update(sha.encode())
        suffix = ".json" if name in ("nodes", "index") else ".bin"
        (path / f"{name}{suffix}").write_bytes(data)
        sections[name] = {"file": f"{name}{suffix}", "sha256": sha,
                          "bytes": len(data)}

    counts = {
        "nodes": dbg.n,
        "edges": dbg.m,
        "vocab": len(vocab),
        "node_postings": (index.node_index.entry_count()
                          if index is not None else 0),
        "edge_postings": (index.edge_index.entry_count()
                          if index is not None else 0),
    }
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "id": f"sn-{digest.hexdigest()[:12]}",
        "created_at": _utcnow(),
        "provenance": dict(provenance or {}),
        "has_index": index is not None,
        "counts": counts,
        "sections": sections,
    }
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return Snapshot(path, manifest, dbg, index)


# ----------------------------------------------------------------------
# read
# ----------------------------------------------------------------------
def read_manifest(path: PathLike) -> Dict[str, Any]:
    """The manifest of the snapshot at ``path``, header-checked."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SnapshotNotFoundError(f"no snapshot at {path} "
                                    f"(missing {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text(
            encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotFormatError(
            f"unreadable snapshot manifest {manifest_path}: "
            f"{exc}") from exc
    if not isinstance(manifest, dict) \
            or manifest.get("format") != FORMAT_NAME:
        raise SnapshotFormatError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest")
    if manifest.get("version") != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"unsupported snapshot version "
            f"{manifest.get('version')!r} (expected {FORMAT_VERSION})")
    return manifest


def _split(data: bytes, *specs) -> List[np.ndarray]:
    """Slice concatenated columns ``(dtype, count)`` out of ``data``."""
    arrays: List[np.ndarray] = []
    offset = 0
    for dtype, count in specs:
        size = dtype.itemsize * count
        if offset + size > len(data):
            raise SnapshotIntegrityError(
                "snapshot binary section is shorter than its "
                "manifest counts imply")
        arrays.append(np.frombuffer(data, dtype=dtype, count=count,
                                    offset=offset))
        offset += size
    if offset != len(data):
        raise SnapshotIntegrityError(
            "snapshot binary section has trailing bytes beyond its "
            "manifest counts")
    return arrays


def _map_section(path: Path, manifest: Dict[str, Any], name: str,
                 verify: bool):
    """One section as a read-only mapped buffer, checksum-checked.

    Returns an ``mmap.mmap`` (or ``b""`` for an empty section) whose
    pages every process mapping the same file shares through the page
    cache. With fault injection armed, the buffer content is copied
    through :func:`repro.faults.corrupt` (sites ``snapshot.section``
    and ``snapshot.section.<name>``) so chaos tests exercise the
    production detection path (checksum mismatch -> typed integrity
    error), at the cost of the copy — production runs never take that
    branch.
    """
    entry = manifest["sections"].get(name)
    if entry is None:
        raise SnapshotFormatError(
            f"snapshot {manifest.get('id')} has no {name!r} section")
    section_path = path / entry["file"]
    if not section_path.is_file():
        raise SnapshotIntegrityError(
            f"snapshot section {section_path} is missing")
    if section_path.stat().st_size == 0:
        data = b""
    else:
        with open(section_path, "rb") as handle:
            data = _mmap.mmap(handle.fileno(), 0,
                              access=_mmap.ACCESS_READ)
    if faults.is_armed():
        data = faults.corrupt(f"snapshot.section.{name}",
                              faults.corrupt("snapshot.section",
                                             bytes(data)))
    if len(data) != entry["bytes"]:
        raise SnapshotIntegrityError(
            f"snapshot section {section_path} is truncated: "
            f"{len(data)} bytes, manifest says {entry['bytes']}")
    if verify:
        sha = hashlib.sha256(data).hexdigest()
        if sha != entry["sha256"]:
            raise SnapshotIntegrityError(
                f"snapshot section {section_path} failed its "
                f"checksum (sha256 {sha[:12]}..., manifest "
                f"{entry['sha256'][:12]}...)")
    return data


def _map_snapshot(path: Path, manifest: Dict[str, Any], verify: bool
                  ) -> Tuple[DatabaseGraph, Optional[CommunityIndex]]:
    """Open the snapshot as read-only views over mapped sections.

    The graph's forward CSR and both posting columns become
    ``np.frombuffer`` views of the mapped files — zero copies, shared
    page-cache pages across workers. ``nodes.json`` is *not* parsed
    here: its decode (plus per-node keyword/provenance
    materialization) happens lazily on first metadata access, which is
    what makes worker spawn O(ms). Checksums are still verified
    eagerly over the mapped bytes.
    """
    graph_buf = _map_section(path, manifest, "graph", verify)
    nodes_buf = _map_section(path, manifest, "nodes", verify)
    n = manifest["counts"]["nodes"]
    m = manifest["counts"]["edges"]
    indptr, targets, weights = _split(
        graph_buf, (_INT, n + 1), (_INT, m), (_FLOAT, m))
    try:
        graph = CompiledGraph.from_csr_arrays(n, indptr, targets,
                                              weights)
    except GraphError as exc:
        raise SnapshotIntegrityError(
            f"snapshot graph section is inconsistent: {exc}") from exc

    payload_box: List[tuple] = []
    #: The index directory's keyword ids, range-checked with the node
    #: keyword ids once ``nodes.json`` is parsed.
    index_kw_ids: List[int] = []

    def nodes_payload() -> tuple:
        """Parse ``nodes.json`` once, shared by graph and indexes."""
        if not payload_box:
            try:
                nodes = json.loads(bytes(nodes_buf).decode("utf-8"))
                vocab = nodes["vocab"]
                node_kws = nodes["node_keywords"]
                labels = nodes["labels"]
                provenance = nodes["provenance"]
                lengths = (len(labels), len(node_kws), len(provenance))
                vocab_size = len(vocab)
                out_of_vocab = any(
                    i < 0 or i >= vocab_size
                    for ids in (*node_kws, index_kw_ids) for i in ids)
            except (ValueError, KeyError, TypeError) as exc:
                raise SnapshotIntegrityError(
                    f"snapshot nodes section is undecodable: "
                    f"{exc}") from exc
            if lengths != (n, n, n):
                raise SnapshotIntegrityError(
                    f"snapshot node sections disagree with the "
                    f"graph: {lengths[0]} labels / {lengths[1]} "
                    f"keyword lists / {lengths[2]} provenance "
                    f"entries for {n} nodes")
            if out_of_vocab:
                raise SnapshotIntegrityError(
                    "snapshot node or index section references a "
                    "keyword id outside the vocabulary")
            payload_box.append((vocab, node_kws, labels, provenance))
        return payload_box[0]

    dbg: DatabaseGraph = LazyDatabaseGraph(graph, nodes_payload,
                                           decode_provenance)
    index: Optional[CommunityIndex] = None
    if manifest.get("has_index"):
        index_buf = _map_section(path, manifest, "index", verify)
        postings_buf = _map_section(path, manifest, "postings",
                                    verify)
        try:
            directory = json.loads(bytes(index_buf).decode("utf-8"))
            node_kw_ids = [int(i) for i in directory["node_keywords"]]
            edge_kw_ids = [int(i) for i in directory["edge_keywords"]]
            node_counts = [int(c) for c in directory["node_counts"]]
            edge_counts = [int(c) for c in directory["edge_counts"]]
            radius = float(directory["radius"])
            build_seconds = float(directory.get("build_seconds", 0.0))
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotIntegrityError(
                f"snapshot index section is undecodable: "
                f"{exc}") from exc
        if len(node_counts) != len(node_kw_ids) \
                or len(edge_counts) != len(edge_kw_ids):
            raise SnapshotIntegrityError(
                "snapshot index directory counts do not align with "
                "its keyword lists")
        index_kw_ids.extend(node_kw_ids + edge_kw_ids)
        total_nodes = sum(node_counts)
        total_edges = sum(edge_counts)
        node_flat, edge_u, edge_v, edge_w = _split(
            postings_buf, (_INT, total_nodes), (_INT, total_edges),
            (_INT, total_edges), (_FLOAT, total_edges))
        if total_nodes and (node_flat.min() < 0
                            or node_flat.max() >= n):
            raise SnapshotIntegrityError(
                f"snapshot posting references node outside the "
                f"bundled graph (n={n})")

        def resolve_vocab() -> List[str]:
            return nodes_payload()[0]

        index = CommunityIndex(
            dbg,
            ArrayNodeInvertedIndex(node_kw_ids, node_counts,
                                   node_flat, resolve_vocab),
            ArrayEdgeInvertedIndex(edge_kw_ids, edge_counts, edge_u,
                                   edge_v, edge_w, radius,
                                   resolve_vocab),
            radius, build_seconds)
    return dbg, index


def load_snapshot(path: PathLike, verify: bool = True) -> Snapshot:
    """Load the snapshot directory at ``path`` by mapping it.

    Every section is mapped read-only and served as array views (see
    :func:`_map_snapshot`). With ``verify`` (the default, and what
    every production path uses) each section's SHA-256 is recomputed
    against the manifest over the mapped bytes; a flipped byte
    anywhere raises :class:`~repro.exceptions.SnapshotIntegrityError`.
    A legacy artifact with compressed sections raises
    :class:`~repro.exceptions.SnapshotFormatError` (see
    :func:`~repro.ioutil.refuse_compressed_sections`).
    """
    path = Path(path)
    faults.hit("snapshot.load")
    manifest = read_manifest(path)
    refuse_compressed_sections(manifest)
    dbg, index = _map_snapshot(path, manifest, verify)
    return Snapshot(path, manifest, dbg, index)


def verify_snapshot(path: PathLike) -> Dict[str, Any]:
    """Check every section checksum and decode every section.

    :func:`load_snapshot` defers the ``nodes.json`` parse and the
    per-node decode to first use; verification forces both (and the
    index's keyword names), so content that matches its checksum but
    does not decode fails here, not on a later query. Returns the
    manifest; raises the matching
    :class:`~repro.exceptions.SnapshotError` subclass otherwise.
    """
    snapshot = load_snapshot(path, verify=True)
    dbg, index = snapshot.dbg, snapshot.index
    try:
        for u in range(dbg.n):
            dbg.keywords_of(u)
            dbg.label_of(u)
            dbg.provenance_of(u)
        if index is not None:
            index.node_index.keywords()
            index.edge_index.keywords()
    except (GraphError, ValueError, KeyError, IndexError,
            TypeError) as exc:
        raise SnapshotIntegrityError(
            f"snapshot {snapshot.id} does not decode: {exc}") from exc
    return snapshot.manifest
