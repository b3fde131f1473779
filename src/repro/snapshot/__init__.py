"""Snapshot lifecycle: one immutable artifact from build to serve.

The package behind the repo's build-once/query-forever workflow
(paper Section VI builds the DBLP index once in 355 s; everything
after is queries). ``repro.snapshot`` turns that built state into a
content-addressed artifact that moves unchanged through the pipeline:

* :mod:`repro.snapshot.snapshot` — the on-disk format: write, load,
  verify, manifest;
* :mod:`repro.snapshot.store` — publishing: atomic rename into a
  store directory, ``latest`` pointer, pruning;
* :mod:`repro.snapshot.codec` — payload encodings shared with the
  legacy single-file formats.

The snapshot id doubles as the engine's cache-invalidation generation
(see :meth:`repro.engine.engine.QueryEngine.swap_snapshot`).
"""

from repro.snapshot.snapshot import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    Snapshot,
    load_snapshot,
    read_manifest,
    verify_snapshot,
    write_snapshot,
)
from repro.snapshot.store import SnapshotStore, locate_snapshot

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "Snapshot",
    "SnapshotStore",
    "load_snapshot",
    "locate_snapshot",
    "read_manifest",
    "verify_snapshot",
    "write_snapshot",
]
