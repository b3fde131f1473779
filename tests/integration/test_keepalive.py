"""Connection reuse: one socket per peer, reconnect-once when stale.

:class:`ServiceClient` keeps sockets alive across requests: a burst
of calls opens exactly one physical connection
(:attr:`connections_opened` is the telemetry the tests read). When a
pooled socket goes stale because the server restarted, the next
request replays once on a fresh connection instead of surfacing the
torn socket to the caller.

On the server side, both front ends (:class:`CommunityService` and
:class:`RouterService`) answer a reused connection without the ~40 ms
stall that Nagle's algorithm plus the client's delayed ACK add to a
response sent in two writes, and answer a request they cannot frame
(a malformed ``Content-Length``) with a typed 400 instead of a dead
socket.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro.datasets.paper_example import (
    FIG4_QUERY,
    FIG4_RMAX,
    figure4_graph,
)
from repro.engine import QueryEngine
from repro.service import CommunityService, ServiceClient
from repro.shard import RouterService, partition_snapshot
from repro.snapshot import SnapshotStore
from repro.text.inverted_index import CommunityIndex


def _service(port=0):
    engine = QueryEngine(figure4_graph())
    engine.build_index(radius=FIG4_RMAX)
    return CommunityService(engine, port=port).start()


BODY = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 1}


class RudeServer:
    """An HTTP server that advertises keep-alive but hangs up anyway.

    Answers every request 200 with ``Connection: keep-alive``, then
    closes the socket — so a client that pooled the connection finds
    it stale on the next request and must replay on a fresh one. Each
    accepted connection serves exactly one exchange.
    """

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % \
            self._listener.getsockname()[1]
        self.served = 0
        self._thread = threading.Thread(target=self._serve,
                                        daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return               # listener closed: shut down
            with conn:
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                if b"\r\n\r\n" not in data:
                    continue
                head, _, rest = data.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value.strip())
                while len(rest) < length:
                    rest += conn.recv(65536)
                body = json.dumps({"count": 1}).encode()
                # Count before answering: once the reply is out the
                # client may read ``served`` before this thread runs.
                self.served += 1
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Connection: keep-alive\r\n"
                    b"Content-Length: %d\r\n\r\n%s"
                    % (len(body), body))
            # ``with conn`` closed the socket: the hang-up.

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5.0)


class TestServiceClientKeepAlive:
    def test_burst_reuses_one_connection(self):
        with _service() as service:
            with ServiceClient(service.url, timeout=30.0) as client:
                for _ in range(12):
                    reply = client.request("POST", "/query", BODY)
                    assert reply["count"] == 1
                assert client.connections_opened == 1

    def test_stale_socket_replays_once(self):
        server = RudeServer()
        client = ServiceClient(server.url, timeout=10.0)
        try:
            assert client.request("POST", "/query", BODY,
                                  idempotent=True)["count"] == 1
            assert client.connections_opened == 1
            # The server hung up after answering; the pooled socket
            # is stale. The next request must succeed by replaying
            # once on a fresh connection — invisible to the caller.
            reply = client.request("POST", "/query", BODY,
                                   idempotent=True)
            assert reply["count"] == 1
            assert client.connections_opened == 2
            assert server.served == 2
        finally:
            client.close()
            server.close()


#: Keep-alive p50 bound: half the >= 40 ms one stalled exchange
#: costs. Unstalled over loopback, a plain service answers in under
#: 1 ms and a routed fig4 ``/query`` (two merge rounds, four shard
#: legs) in about 5 ms.
STALL_FREE_P50_SECONDS = 0.020

FRONT_ENDS = ("service", "router")


@pytest.fixture(scope="module")
def front_ends(tmp_path_factory):
    """Every HTTP front end, started over fig4: the plain service and
    the router over a two-shard fleet."""
    tmp = tmp_path_factory.mktemp("keepalive")
    dbg = figure4_graph()
    SnapshotStore(tmp / "store").publish(
        dbg, CommunityIndex.build(dbg, FIG4_RMAX),
        provenance={"index_radius": FIG4_RMAX})
    manifest, _ = partition_snapshot(tmp / "store", tmp / "parts", 2)
    shards = [CommunityService(QueryEngine.from_snapshot(
        tmp / "parts" / entry.store / entry.snapshot_id)).start()
        for entry in manifest.shards]
    urls = [shard.url for shard in shards]
    fronts = {
        "service": _service(),
        "router": RouterService(manifest, urls,
                                root=tmp / "parts").start(),
    }
    yield fronts
    for server in (*fronts.values(), *shards):
        server.shutdown()


@pytest.mark.parametrize("name", FRONT_ENDS)
def test_reused_connection_answers_without_stall(front_ends, name):
    with ServiceClient(front_ends[name].url, timeout=30.0) as client:
        client.request("POST", "/query", BODY)    # fill the cache
        for method, path, payload in (("GET", "/healthz", None),
                                      ("POST", "/query", BODY)):
            latencies = []
            for _ in range(30):
                start = time.perf_counter()
                client.request(method, path, payload)
                latencies.append(time.perf_counter() - start)
            assert statistics.median(latencies) \
                < STALL_FREE_P50_SECONDS, (path, latencies)
        assert client.connections_opened == 1


@pytest.mark.parametrize("value", ["abc", "-5"])
@pytest.mark.parametrize("name", FRONT_ENDS)
def test_malformed_content_length_is_typed_400(front_ends, name,
                                               value):
    server = front_ends[name]
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=10.0)
    try:
        conn.putrequest("POST", "/query")
        conn.putheader("Content-Length", value)
        conn.endheaders(b"{}")
        reply = conn.getresponse()
        assert reply.status == 400
        assert reply.getheader("Connection") == "close"
        assert json.loads(reply.read()) == {
            "error": f"malformed Content-Length {value!r}",
            "status": 400}
    finally:
        conn.close()
