"""Immutable compiled graph in compressed-sparse-row (CSR) form.

The paper's algorithms are dominated by bounded Dijkstra scans in both
edge directions (``Neighbor()`` walks edges backwards, ``GetCommunity()``
walks both ways), so the compiled form keeps two CSR adjacencies — one
for out-edges and one for in-edges — built once from the same edge set.

The adjacency arrays are plain Python lists in an in-memory build
(:meth:`CompiledGraph.from_edges`): the hot loop (heap-based Dijkstra) indexes single elements,
where list indexing is several times faster than numpy scalar
extraction. numpy is used only transiently for the ``O(m log m)`` sort
during construction.

A loaded snapshot is the exception: :meth:`CompiledGraph.from_csr_arrays`
wraps *read-only numpy views* over a memory-mapped section directly —
no ``tolist()``, no re-packing — so every worker process shares one
physical copy of the adjacency through the page cache. The two
representations are interchangeable behind the same indexing protocol;
code that hands values out of the arrays converts them to Python
scalars at the boundary (``int()``/``float()``), so downstream results
are byte-identical whichever backing store produced them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import EdgeError, NodeNotFoundError

Edge = Tuple[int, int, float]


class CSRAdjacency:
    """One direction of adjacency: ``indptr``, ``targets``, ``weights``.

    For node ``u``, its neighbors are
    ``targets[indptr[u]:indptr[u + 1]]`` with matching ``weights``.
    The three columns are either plain Python lists (an in-memory
    build) or read-only int64/float64 numpy views (a loaded
    snapshot); both support the same single-element indexing the
    Dijkstra kernels rely on.
    """

    __slots__ = ("indptr", "targets", "weights")

    def __init__(self, indptr: Sequence[int], targets: Sequence[int],
                 weights: Sequence[float]) -> None:
        self.indptr = indptr
        self.targets = targets
        self.weights = weights

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(neighbor, weight)`` pairs of node ``u``."""
        start, stop = self.indptr[u], self.indptr[u + 1]
        targets, weights = self.targets, self.weights
        for idx in range(start, stop):
            yield int(targets[idx]), float(weights[idx])

    def degree(self, u: int) -> int:
        """Number of edges leaving ``u`` in this direction."""
        return int(self.indptr[u + 1] - self.indptr[u])


def _sorted_csr_columns(n: int, src: np.ndarray, dst: np.ndarray,
                        wgt: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort edges by (source, target) and derive the indptr column."""
    order = np.lexsort((dst, src))
    dst, wgt = dst[order], wgt[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst, wgt


def _build_adjacency(n: int, src: np.ndarray, dst: np.ndarray,
                     wgt: np.ndarray) -> CSRAdjacency:
    """Sort edges by source and pack them into CSR lists."""
    indptr, dst, wgt = _sorted_csr_columns(n, src, dst, wgt)
    return CSRAdjacency(indptr.tolist(), dst.tolist(), wgt.tolist())


def _build_adjacency_arrays(n: int, src: np.ndarray, dst: np.ndarray,
                            wgt: np.ndarray) -> CSRAdjacency:
    """Like :func:`_build_adjacency`, but keep (read-only) arrays."""
    indptr, dst, wgt = _sorted_csr_columns(n, src, dst, wgt)
    for arr in (indptr, dst, wgt):
        arr.setflags(write=False)
    return CSRAdjacency(indptr, dst, wgt)


class CompiledGraph:
    """Frozen weighted digraph with forward and reverse CSR adjacency.

    Build one with :meth:`from_edges` or via
    :meth:`repro.graph.digraph.DiGraph.compile`. Parallel ``(u, v)``
    edges are collapsed to the minimum weight.
    """

    __slots__ = ("n", "m", "forward", "reverse", "_in_degree")

    def __init__(self, n: int, m: int, forward: CSRAdjacency,
                 reverse: CSRAdjacency) -> None:
        self.n = n
        self.m = m
        self.forward = forward
        self.reverse = reverse
        # Derived lazily on first in_degree() call: snapshot loads (the
        # worker-spawn path) never need it, and BANKS node scoring —
        # the one consumer — touches every node anyway.
        self._in_degree: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Sequence[Edge]) -> "CompiledGraph":
        """Compile ``(u, v, w)`` triples into a :class:`CompiledGraph`."""
        if n < 0:
            raise EdgeError(f"node count must be non-negative, got {n}")
        if not edges:
            empty = CSRAdjacency([0] * (n + 1), [], [])
            return cls(n, 0, empty, empty)

        src = np.fromiter((e[0] for e in edges), dtype=np.int64,
                          count=len(edges))
        dst = np.fromiter((e[1] for e in edges), dtype=np.int64,
                          count=len(edges))
        wgt = np.fromiter((e[2] for e in edges), dtype=np.float64,
                          count=len(edges))
        if len(src) and (src.min() < 0 or src.max() >= n):
            bad = int(src.min() if src.min() < 0 else src.max())
            raise NodeNotFoundError(bad, n)
        if len(dst) and (dst.min() < 0 or dst.max() >= n):
            bad = int(dst.min() if dst.min() < 0 else dst.max())
            raise NodeNotFoundError(bad, n)
        if len(wgt) and wgt.min() < 0:
            raise EdgeError("negative edge weight in edge list")

        # Collapse parallel edges, keeping the lightest one.
        order = np.lexsort((wgt, dst, src))
        src, dst, wgt = src[order], dst[order], wgt[order]
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst, wgt = src[keep], dst[keep], wgt[keep]

        forward = _build_adjacency(n, src, dst, wgt)
        reverse = _build_adjacency(n, dst, src, wgt)
        return cls(n, len(src), forward, reverse)

    @classmethod
    def from_csr_arrays(cls, n: int, indptr: np.ndarray,
                        targets: np.ndarray,
                        weights: np.ndarray) -> "CompiledGraph":
        """Wrap forward-CSR *array views* without copying them.

        The snapshot load path: ``indptr``/``targets``/``weights``
        are read-only little-endian views over the mapped ``graph.bin``
        section and become the forward adjacency as-is, so the hot
        arrays stay backed by the shared page cache. Only the reverse
        adjacency is derived (one vectorized pass into private,
        read-only arrays — it has a different sort order, so it cannot
        be a view of the section).
        """
        indptr_arr = np.asarray(indptr, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        wgt = np.asarray(weights, dtype=np.float64)
        if n < 0:
            raise EdgeError(f"node count must be non-negative, got {n}")
        if len(indptr_arr) != n + 1 or indptr_arr[0] != 0:
            raise EdgeError(
                f"indptr must have {n + 1} entries starting at 0")
        if np.any(np.diff(indptr_arr) < 0):
            raise EdgeError("indptr must be non-decreasing")
        m = int(indptr_arr[-1])
        if len(dst) != m or len(wgt) != m:
            raise EdgeError(
                f"targets/weights must hold {m} entries "
                f"(got {len(dst)}/{len(wgt)})")
        if m and (dst.min() < 0 or dst.max() >= n):
            bad = int(dst.min() if dst.min() < 0 else dst.max())
            raise NodeNotFoundError(bad, n)
        if m and not wgt.min() >= 0:  # catches negatives *and* NaN
            raise EdgeError("negative or NaN edge weight in CSR arrays")
        forward = CSRAdjacency(indptr_arr, dst, wgt)
        src = np.repeat(np.arange(n, dtype=np.int64),
                        np.diff(indptr_arr))
        reverse = _build_adjacency_arrays(n, dst, src, wgt)
        return cls(n, m, forward, reverse)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def out_degree(self, u: int) -> int:
        """Out-degree of ``u``."""
        self._check_node(u)
        return self.forward.degree(u)

    def in_degree(self, u: int) -> int:
        """In-degree of ``u`` (``N_in`` in the BANKS weight formula)."""
        self._check_node(u)
        degrees = self._in_degree
        if degrees is None:
            indptr = np.asarray(self.reverse.indptr, dtype=np.int64)
            degrees = self._in_degree = np.diff(indptr).tolist()
        return degrees[u]

    def out_edges(self, u: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(v, w)`` for each edge ``u -> v``."""
        self._check_node(u)
        return self.forward.neighbors(u)

    def in_edges(self, u: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(v, w)`` for each edge ``v -> u``."""
        self._check_node(u)
        return self.reverse.neighbors(u)

    def edges(self) -> Iterator[Edge]:
        """Iterate all ``(u, v, w)`` triples in CSR order."""
        indptr = self.forward.indptr
        targets = self.forward.targets
        weights = self.forward.weights
        for u in range(self.n):
            for idx in range(indptr[u], indptr[u + 1]):
                yield u, int(targets[idx]), float(weights[idx])

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v``; raises :class:`EdgeError` if absent."""
        self._check_node(u)
        self._check_node(v)
        forward = self.forward
        targets = forward.targets
        for idx in range(forward.indptr[u], forward.indptr[u + 1]):
            if targets[idx] == v:
                return float(forward.weights[idx])
        raise EdgeError(f"no edge ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        """True if the directed edge ``u -> v`` exists."""
        self._check_node(u)
        self._check_node(v)
        forward = self.forward
        targets = forward.targets
        return any(targets[idx] == v
                   for idx in range(forward.indptr[u],
                                    forward.indptr[u + 1]))

    def induced_edges(self, nodes: Sequence[int]) -> List[Edge]:
        """Edges of the subgraph induced by ``nodes`` (paper Def. 2.1:
        a community keeps *every* ``G_D`` edge between its nodes)."""
        node_set = set(nodes)
        result: List[Edge] = []
        indptr = self.forward.indptr
        targets = self.forward.targets
        weights = self.forward.weights
        for u in node_set:
            self._check_node(u)
            for idx in range(indptr[u], indptr[u + 1]):
                v = int(targets[idx])
                if v in node_set:
                    result.append((u, v, float(weights[idx])))
        result.sort()
        return result

    def __repr__(self) -> str:
        return f"CompiledGraph(n={self.n}, m={self.m})"

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise NodeNotFoundError(node, self.n)


def subgraph_mapping(nodes: Sequence[int]) -> Dict[int, int]:
    """Dense relabeling ``old id -> new id`` for a projected subgraph."""
    return {node: new for new, node in enumerate(sorted(set(nodes)))}
