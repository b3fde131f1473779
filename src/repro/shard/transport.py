"""Replica-aware transport for the router front end.

The routing layer (:mod:`repro.shard.routing`) decides *what* to ask
each shard; this module owns *how*: which sibling box answers, and on
how many threads the round fans out.

**Replica sets.** A shard may be served by several interchangeable
boxes (same shard snapshot, different machines). One
:class:`ReplicaSet` per shard holds a keep-alive
:class:`~repro.service.client.ServiceClient` per sibling and routes
every call to a sticky *active* replica; a transport-level failure or
a shedding response (429/503, after the client's own retries) fails
the call over to the next sibling before the router gives the shard
up as dead. Success on a sibling makes it the new active replica, so
a dead primary costs one failover per in-flight call, not one per
future call. Deterministic errors (400/404/410) propagate
immediately — a replica cannot fix a bad request.

**Fan-out pool.** :class:`ThreadedFanout` is the router's
concurrency primitive: run ``{shard_id: thunk}`` maps on a shared
pool, storing per-leg exceptions as values (a leg failure is data —
a partial result — not a router crash).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from repro.service.errors import RETRYABLE_STATUSES


def parse_shard_urls(specs: Sequence[str]) -> List[List[str]]:
    """Expand ``--shard-url`` values into per-shard replica lists.

    Each spec names one shard's siblings as a comma-separated URL
    list (``"http://a:8420,http://b:8420"``); a bare URL is a
    replica set of one. Empty specs raise
    :class:`~repro.exceptions.ServiceError`.
    """
    groups: List[List[str]] = []
    for position, spec in enumerate(specs):
        urls = [url.strip().rstrip("/")
                for url in str(spec).split(",") if url.strip()]
        if not urls:
            raise ServiceError(
                f"shard URL #{position} is empty: every shard needs "
                f"at least one replica URL")
        groups.append(urls)
    return groups


def _should_failover(error: ServiceError) -> bool:
    """Whether a sibling replica could plausibly answer instead.

    Transport failures and shedding (429/503 — the retryable
    statuses) are box-local conditions; deterministic 4xx rejections
    are not."""
    return getattr(error, "status", 500) in RETRYABLE_STATUSES


class ReplicaSet:
    """One shard's interchangeable backends behind a sticky cursor."""

    def __init__(self, shard_id: int, urls: Sequence[str],
                 client_factory: Optional[
                     Callable[[str], ServiceClient]] = None,
                 on_failover: Optional[
                     Callable[[int, str, str], None]] = None) -> None:
        if not urls:
            raise ServiceError(
                f"shard {shard_id} has no replica URLs")
        factory = client_factory or ServiceClient
        self.shard_id = shard_id
        self.urls = [url.rstrip("/") for url in urls]
        self.clients = [factory(url) for url in self.urls]
        self._on_failover = on_failover
        self._active = 0
        self._lock = threading.Lock()
        #: Lifetime count of calls this set moved to a sibling.
        self.failovers = 0

    @property
    def active_url(self) -> str:
        """The replica currently receiving this shard's calls."""
        with self._lock:
            return self.urls[self._active]

    @property
    def url(self) -> str:
        """Alias for :attr:`active_url` (single-replica ergonomics)."""
        return self.active_url

    def call(self, fn: Callable[[ServiceClient], Any]) -> Any:
        """Run ``fn`` against the active replica, failing over.

        Tries every sibling at most once, starting at the sticky
        active cursor; a sibling that answers becomes the new active
        replica. Re-raises the last failure when the whole set is
        down, and propagates non-failover errors (deterministic 4xx)
        immediately.
        """
        with self._lock:
            start = self._active
        last: Optional[ServiceError] = None
        for offset in range(len(self.clients)):
            index = (start + offset) % len(self.clients)
            try:
                result = fn(self.clients[index])
            except ServiceError as error:
                if not _should_failover(error):
                    raise
                last = error
                if offset + 1 < len(self.clients):
                    with self._lock:
                        self.failovers += 1
                    if self._on_failover is not None:
                        self._on_failover(
                            self.shard_id, self.urls[index],
                            self.urls[(index + 1)
                                      % len(self.clients)])
                continue
            if index != start:
                with self._lock:
                    self._active = index
            return result
        assert last is not None
        raise last

    def close(self) -> None:
        """Release every replica client's pooled connections."""
        for client in self.clients:
            client.close()

    def __repr__(self) -> str:
        return (f"ReplicaSet({self.shard_id}, "
                f"{'|'.join(self.urls)!r})")


class ThreadedFanout:
    """A shared thread pool that fans per-shard thunks out."""

    def __init__(self, width: int,
                 thread_name_prefix: str = "repro-router-fanout"
                 ) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, width),
            thread_name_prefix=thread_name_prefix)

    def fan(self, calls: Dict[Hashable, Callable[[], Any]]
            ) -> Dict[Hashable, Any]:
        """Run keyed thunks (one per shard leg, or per replica for a
        health probe) concurrently; exceptions propagate per entry as
        the stored value."""
        if not calls:
            return {}
        futures = {key: self._pool.submit(thunk)
                   for key, thunk in calls.items()}
        results: Dict[Hashable, Any] = {}
        for key, future in futures.items():
            try:
                results[key] = future.result()
            except Exception as error:  # noqa: BLE001 — leg failure
                # is data (partial result), not a router crash.
                results[key] = error
        return results

    def shutdown(self) -> None:
        """Release the pool without waiting on stragglers."""
        self._pool.shutdown(wait=False)
