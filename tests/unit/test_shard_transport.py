"""Replica-set failover semantics, no sockets.

Fake clients stand in for :class:`ServiceClient`, so every branch of
the sticky-cursor contract is driven deterministically: retryable
failures (429/503) move to the next sibling and promote it on
success, deterministic 4xx propagate immediately, and an exhausted
set re-raises the last failure.
"""

import pytest

from repro.exceptions import ServiceError
from repro.service.errors import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    ServiceUnreachable,
)
from repro.shard.transport import ReplicaSet, parse_shard_urls


class FakeClient:
    """Scripted replica: answers or raises per configured plan."""

    def __init__(self, url):
        self.url = url
        self.calls = 0
        self.plan = []           # list of results / exceptions
        self.closed = False

    def script(self, *outcomes):
        self.plan = list(outcomes)
        return self

    def step(self):
        self.calls += 1
        outcome = self.plan.pop(0) if self.plan else {"ok": self.url}
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def close(self):
        self.closed = True

    async def aclose(self):
        self.closed = True


def _set(urls, **kwargs):
    return ReplicaSet(0, urls, client_factory=FakeClient, **kwargs)


class TestParseShardUrls:
    def test_single_urls(self):
        assert parse_shard_urls(["http://a:1", "http://b:2/"]) \
            == [["http://a:1"], ["http://b:2"]]

    def test_comma_separated_replicas(self):
        assert parse_shard_urls(["http://a:1, http://b:2"]) \
            == [["http://a:1", "http://b:2"]]

    def test_empty_spec_rejected(self):
        with pytest.raises(ServiceError, match="shard URL #1"):
            parse_shard_urls(["http://a:1", " ,, "])


class TestReplicaSetFailover:
    def test_single_replica_passthrough(self):
        replicas = _set(["http://a:1"])
        assert replicas.call(lambda c: c.step()) == {"ok": "http://a:1"}
        assert replicas.failovers == 0

    def test_retryable_failure_fails_over_and_promotes(self):
        replicas = _set(["http://a:1", "http://b:2"])
        replicas.clients[0].script(ServiceUnreachable("down"))
        assert replicas.call(lambda c: c.step()) == {"ok": "http://b:2"}
        assert replicas.failovers == 1
        assert replicas.active_url == "http://b:2"
        # Sticky: the next call starts at the promoted sibling.
        assert replicas.call(lambda c: c.step()) == {"ok": "http://b:2"}
        assert replicas.failovers == 1

    @pytest.mark.parametrize("error", [Overloaded("shed"),
                                       DeadlineExceeded("slow")])
    def test_shedding_statuses_fail_over(self, error):
        replicas = _set(["http://a:1", "http://b:2"])
        replicas.clients[0].script(error)
        assert replicas.call(lambda c: c.step())["ok"] == "http://b:2"
        assert replicas.failovers == 1

    def test_deterministic_4xx_propagates_immediately(self):
        replicas = _set(["http://a:1", "http://b:2"])
        replicas.clients[0].script(BadRequest("no such keyword"))
        with pytest.raises(BadRequest):
            replicas.call(lambda c: c.step())
        assert replicas.failovers == 0
        assert replicas.clients[1].calls == 0

    def test_exhausted_set_reraises_last_failure(self):
        replicas = _set(["http://a:1", "http://b:2"])
        replicas.clients[0].script(ServiceUnreachable("a down"))
        replicas.clients[1].script(ServiceUnreachable("b down"))
        with pytest.raises(ServiceUnreachable, match="b down"):
            replicas.call(lambda c: c.step())
        # The dead-end traversal counts one failover (a -> b); the
        # final failure on the last sibling is not a failover.
        assert replicas.failovers == 1
        assert replicas.clients[0].calls == 1
        assert replicas.clients[1].calls == 1

    def test_on_failover_callback_reports_urls(self):
        seen = []
        replicas = ReplicaSet(
            3, ["http://a:1", "http://b:2"],
            client_factory=FakeClient,
            on_failover=lambda s, frm, to: seen.append((s, frm, to)))
        replicas.clients[0].script(ServiceUnreachable("down"))
        replicas.call(lambda c: c.step())
        assert seen == [(3, "http://a:1", "http://b:2")]

    def test_close_releases_every_client(self):
        replicas = _set(["http://a:1", "http://b:2"])
        replicas.close()
        assert all(c.closed for c in replicas.clients)

    def test_empty_url_list_rejected(self):
        with pytest.raises(ServiceError, match="no replica URLs"):
            ReplicaSet(0, [], client_factory=FakeClient)
