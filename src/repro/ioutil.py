"""Internal IO helpers shared by every on-disk artifact format.

Historically :mod:`repro.graph.io` and :mod:`repro.text.persistence`
each carried their own copy of the gzip-aware ``open`` helper and the
``format``/``version`` header check. The snapshot subsystem
(:mod:`repro.snapshot`) is a third writer of versioned artifacts, so
the shared pattern lives here once:

* :func:`open_artifact` — text-mode open that is transparently
  gzip-compressed for ``.gz`` paths;
* :func:`dump_versioned_json` / :func:`load_versioned_json` — one JSON
  document per file, stamped with and checked against a
  ``{"format": ..., "version": ...}`` header, raising the *caller's*
  error type so each subsystem keeps its own taxonomy;
* :func:`refuse_compressed_sections` — the typed refusal of a
  snapshot manifest written by older builds that gzipped sections.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any, Dict, Type, Union

from repro.exceptions import ReproError, SnapshotFormatError

PathLike = Union[str, Path]


def open_artifact(path: PathLike, mode: str):
    """Open ``path`` in text mode; ``.gz`` suffixes gzip transparently.

    ``mode`` is ``"r"`` or ``"w"``; encoding is always UTF-8.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def dump_versioned_json(payload: Dict[str, Any], path: PathLike,
                        format_name: str, version: int) -> None:
    """Write ``payload`` as one JSON document with a format header.

    The ``format`` and ``version`` keys are stamped onto the payload
    (overwriting any present), so every artifact written through this
    helper is self-identifying for :func:`load_versioned_json`.
    """
    document = dict(payload)
    document["format"] = format_name
    document["version"] = version
    with open_artifact(path, "w") as handle:
        json.dump(document, handle)


def load_versioned_json(path: PathLike, format_name: str, version: int,
                        error: Type[ReproError]) -> Dict[str, Any]:
    """Read one JSON document and enforce its format header.

    Raises ``error`` (the caller's subsystem exception type) when the
    file is not JSON, does not carry the expected ``format`` name, or
    carries an unsupported ``version``.
    """
    path = Path(path)
    try:
        with open_artifact(path, "r") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict) \
            or payload.get("format") != format_name:
        raise error(f"{path} is not a {format_name} file")
    if payload.get("version") != version:
        raise error(
            f"unsupported {format_name} version "
            f"{payload.get('version')!r} (expected {version})")
    return payload


def refuse_compressed_sections(manifest: Dict[str, Any]) -> None:
    """Reject a snapshot manifest whose sections are gzip-compressed.

    Older snapshot builds could gzip section payloads (a truthy
    ``"gzip"`` flag on the section entry). Snapshots are loaded by
    mapping their section files, and compressed bytes cannot be
    mapped, so such an artifact raises
    :class:`~repro.exceptions.SnapshotFormatError` naming the fix
    instead of being decoded as garbage.
    """
    packed = sorted(name for name, entry
                    in (manifest.get("sections") or {}).items()
                    if entry.get("gzip"))
    if packed:
        raise SnapshotFormatError(
            f"snapshot {manifest.get('id')} has gzip-compressed "
            f"sections ({', '.join(packed)}), which cannot be "
            f"memory-mapped; rebuild the snapshot (python -m repro "
            f"snapshot build) to write uncompressed sections")
