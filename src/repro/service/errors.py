"""Service-level errors and their HTTP status mapping.

Every failure the service can signal to a client is a
:class:`~repro.exceptions.ServiceError` subclass carrying the HTTP
status it renders as. The server turns any escaping ``ServiceError``
into a JSON error body with that status; the client does the inverse,
re-raising the matching subclass from a non-2xx response via
:func:`for_status` — so ``except SessionGone:`` works identically on
both sides of the socket.

The admission controller's two shedding outcomes map to the two codes
the load-shedding literature distinguishes: a request rejected *at
admission* (queue full) is :class:`Overloaded` / ``429`` — the client
should back off and retry — while a request that was admitted but
whose deadline expired before or during execution is
:class:`DeadlineExceeded` / ``503``.
"""

from __future__ import annotations

from repro.exceptions import ServiceError

__all__ = [
    "BadRequest",
    "Conflict",
    "DeadlineExceeded",
    "NotFound",
    "Overloaded",
    "RETRYABLE_STATUSES",
    "ServiceError",
    "ServiceUnreachable",
    "SessionGone",
    "ShuttingDown",
    "for_status",
]


class BadRequest(ServiceError):
    """The request body is malformed or fails query validation."""

    status = 400


class NotFound(ServiceError):
    """No such route or session id."""

    status = 404


class Conflict(ServiceError):
    """The request is valid but clashes with what the service serves
    — a graph delta sent to a shard backend, whose halo copies on
    other shards it would leave stale (HTTP 409)."""

    status = 409


class SessionGone(ServiceError):
    """A session lease exists no more (TTL expiry or generation bump).

    ``410 Gone`` rather than ``404``: the id *was* valid, but the
    stream behind it can no longer produce correct answers — after
    ``apply_delta`` the projection it enumerates may miss new nodes
    entirely. Clients must open a fresh session.
    """

    status = 410


class Overloaded(ServiceError):
    """Shed at admission: the bounded work queue is full (HTTP 429)."""

    status = 429


class DeadlineExceeded(ServiceError):
    """The per-request deadline expired before an answer (HTTP 503)."""

    status = 503


class ShuttingDown(ServiceError):
    """The service is draining for shutdown; retry another replica.

    Raised for requests arriving *after* SIGTERM started the drain,
    and for admitted jobs still unfinished when the drain deadline
    passes. ``503`` with ``Retry-After``, like the other transient
    rejections, so standard client retry policies do the right
    thing."""

    status = 503


class ServiceUnreachable(ServiceError):
    """The client could not reach the server at all (client-side).

    Connection refused, DNS failure, socket timeout — no HTTP
    exchange happened, so there is no server status; ``503`` is the
    closest honest rendering and marks it retryable for
    :class:`~repro.service.client.ServiceClient`'s backoff loop."""

    status = 503


#: HTTP statuses a client may safely retry with backoff: shed at
#: admission (429) and transient unavailability (503 — deadline,
#: drain, hung-worker kill). Everything else is not retryable.
RETRYABLE_STATUSES = frozenset({429, 503})


#: Status-code -> error class, for client-side re-raising.
_BY_STATUS = {
    cls.status: cls
    for cls in (BadRequest, NotFound, Conflict, SessionGone,
                Overloaded, DeadlineExceeded)
}


def for_status(status: int, message: str) -> ServiceError:
    """The matching error for an HTTP status (generic 500 otherwise)."""
    cls = _BY_STATUS.get(status, ServiceError)
    error = cls(message)
    if cls is ServiceError:
        error.status = status
    return error
