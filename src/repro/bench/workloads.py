"""Benchmark parameters (paper Tables II/IV) and dataset loading.

The sweeps mirror the paper exactly:

=========  ==============================  =======
parameter  range                           default
=========  ==============================  =======
KWF        .0003 .0006 .0009 .0012 .0015   .0009
l          2 3 4 5 6                       4
Rmax       DBLP 4–8, IMDB 9–13             6 / 11
k          50 100 150 200 250              150
=========  ==============================  =======

Datasets come in three scales: ``tiny`` (unit tests), ``bench``
(pytest-benchmark, a couple of minutes end to end) and ``paper``
(the CLI's fuller run). Loaded bundles are cached per process since
index construction dominates setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.search import CommunitySearch
from repro.engine.engine import QueryEngine
from repro.datasets.dblp import DBLPConfig, dblp_graph
from repro.datasets.imdb import IMDBConfig, imdb_graph
from repro.datasets.vocab import KWF_VALUES, query_keywords
from repro.exceptions import QueryError
from repro.graph.database_graph import DatabaseGraph
from repro.rdb.database import Database


@dataclass(frozen=True)
class BenchParams:
    """One dataset's sweep grid (paper Table II / IV)."""

    kwf_values: Tuple[float, ...]
    l_values: Tuple[int, ...]
    rmax_values: Tuple[float, ...]
    k_values: Tuple[int, ...]
    default_kwf: float
    default_l: int
    default_rmax: float
    default_k: int
    index_radius: float

    def query(self, kwf: Optional[float] = None,
              l: Optional[int] = None) -> List[str]:
        """The l-keyword query for a sweep point."""
        return query_keywords(
            self.default_kwf if kwf is None else kwf,
            self.default_l if l is None else l)


DBLP_PARAMS = BenchParams(
    kwf_values=KWF_VALUES,
    l_values=(2, 3, 4, 5, 6),
    rmax_values=(4.0, 5.0, 6.0, 7.0, 8.0),
    k_values=(50, 100, 150, 200, 250),
    default_kwf=0.0009,
    default_l=4,
    default_rmax=6.0,
    default_k=150,
    index_radius=8.0,
)

IMDB_PARAMS = BenchParams(
    kwf_values=KWF_VALUES,
    l_values=(2, 3, 4, 5, 6),
    rmax_values=(9.0, 10.0, 11.0, 12.0, 13.0),
    k_values=(50, 100, 150, 200, 250),
    default_kwf=0.0009,
    default_l=4,
    default_rmax=11.0,
    default_k=150,
    index_radius=13.0,
)

#: Dataset scales: generator configs per (dataset, scale).
_SCALES: Dict[Tuple[str, str], object] = {
    ("dblp", "tiny"): DBLPConfig.tiny(),
    ("dblp", "bench"): DBLPConfig(n_authors=2_500),
    ("dblp", "paper"): DBLPConfig(n_authors=6_000),
    ("imdb", "tiny"): IMDBConfig.tiny(),
    ("imdb", "bench"): IMDBConfig(n_users=300, n_movies=200,
                                  n_ratings=8_000),
    ("imdb", "paper"): IMDBConfig(n_users=600, n_movies=400,
                                  n_ratings=24_000),
}


@dataclass
class DatasetBundle:
    """A generated dataset with its built index and sweep grid."""

    name: str
    scale: str
    db: Database
    dbg: DatabaseGraph
    search: CommunitySearch
    params: BenchParams

    @property
    def label(self) -> str:
        """Display name: ``"dblp/bench"``."""
        return f"{self.name}/{self.scale}"

    @property
    def engine(self) -> QueryEngine:
        """The facade's query engine (registry + projection cache).

        Benchmarks that sweep one ``(keywords, rmax)`` point per
        algorithm hit the cache after the first projection; pass
        ``use_cache=False`` to :meth:`QueryEngine.project` to measure
        Algorithm 6 itself."""
        return self.search.engine


_CACHE: Dict[Tuple[str, str], DatasetBundle] = {}


def load_dataset(name: str, scale: str = "bench") -> DatasetBundle:
    """Generate (or fetch cached) a dataset with its index built."""
    key = (name, scale)
    if key in _CACHE:
        return _CACHE[key]
    if key not in _SCALES:
        raise QueryError(
            f"unknown dataset/scale {name}/{scale}; known: "
            f"{sorted(set(_SCALES))}")
    if name == "dblp":
        db, dbg = dblp_graph(_SCALES[key])
        params = DBLP_PARAMS
    else:
        db, dbg = imdb_graph(_SCALES[key])
        params = IMDB_PARAMS
    search = CommunitySearch(dbg)
    search.build_index(radius=params.index_radius)
    bundle = DatasetBundle(name, scale, db, dbg, search, params)
    _CACHE[key] = bundle
    return bundle


def publish_snapshot(store_root, bundle: DatasetBundle):
    """Publish a bundle's graph + index into a snapshot store.

    The one build-to-artifact path shared by the CLI
    (``python -m repro snapshot build``) and the benchmark harness
    (``benchmarks/bench_snapshot_load.py``): provenance records the
    dataset, scale and index radius so ``snapshot inspect`` can say
    where an artifact came from. Returns the published
    :class:`~repro.snapshot.Snapshot`.
    """
    from repro.snapshot.store import SnapshotStore

    store = SnapshotStore(store_root)
    return store.publish(
        bundle.dbg, bundle.search.index,
        provenance={
            "dataset": bundle.name,
            "scale": bundle.scale,
            "index_radius": bundle.params.index_radius,
            "builder": "repro.bench.workloads",
        })


def clear_cache() -> None:
    """Drop cached bundles (tests that tweak scales use this)."""
    _CACHE.clear()
