"""The asyncio front end over real loopback sockets, cross-checked.

:class:`~repro.web.aiohttpd.AsyncHiddenDatabaseHTTPServer` must be
indistinguishable from the threaded server on the wire.  The contract:

* both remote clients (threaded ``RemoteBackend``, event-loop
  ``AsyncRemoteBackend``) get byte-identical answers from both front ends —
  the full 2×2 of serving tier × client transport;
* the typed fault taxonomy (429/503/403/400), the ``X-Repro-Deadline-Ms``
  shedding contract and the health endpoint's degraded form all survive the
  transport swap;
* hundreds of concurrent in-flight submissions multiplex over a small
  connection pool without changing a single answer;
* a stalled client is reclaimed by ``request_timeout`` on **both** servers
  without disturbing well-behaved connections.
"""

import asyncio
import json
import random
import socket
import urllib.error
import urllib.request

import pytest

from repro.backends import (
    AsyncRemoteBackend,
    BackendStack,
    CircuitBreakerLayer,
    CircuitBreakerPolicy,
    RemoteBackend,
    UnreliableLayer,
    engine_stack,
)
from repro.backends.resilience import DEADLINE_HEADER
from repro.database.interface import CountMode
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.exceptions import (
    ConfigurationError,
    QueryBudgetExceededError,
    RateLimitedError,
    TransientBackendError,
)
from repro.database.limits import QueryBudget
from repro.web.aiohttpd import AsyncHiddenDatabaseHTTPServer
from repro.web.httpd import HiddenDatabaseHTTPServer


@pytest.fixture()
def served(tiny_table):
    return engine_stack(
        tiny_table, k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    )


@pytest.fixture()
def async_server(served):
    with AsyncHiddenDatabaseHTTPServer(served) as endpoint:
        yield endpoint


def _get(url, headers=None, timeout=5):
    request = urllib.request.Request(url, headers=headers or {})
    return urllib.request.urlopen(request, timeout=timeout)


def _sample_queries(schema, count=15, seed=0):
    rng = random.Random(seed)
    queries = [ConjunctiveQuery.empty(schema)]
    for _ in range(count):
        assignment = {}
        for attribute in schema:
            if rng.random() < 0.5:
                assignment[attribute.name] = rng.choice(attribute.domain.values)
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


class TestAsyncServerRoundTrip:
    def test_schema_and_k_learned_from_the_async_endpoint(self, async_server, served):
        with AsyncRemoteBackend(async_server.url) as remote:
            assert remote.schema == served.schema
            assert remote.k == served.k

    def test_both_clients_identical_on_both_front_ends(self, served, tiny_schema):
        queries = _sample_queries(tiny_schema)
        expected = [served.submit(q) for q in queries]
        with HiddenDatabaseHTTPServer(served) as threaded, AsyncHiddenDatabaseHTTPServer(
            served
        ) as asynced:
            for url in (threaded.url, asynced.url):
                sync_client = RemoteBackend(url)
                try:
                    assert [sync_client.submit(q) for q in queries] == expected
                finally:
                    sync_client.close()
                with AsyncRemoteBackend(url) as async_client:
                    assert [async_client.submit(q) for q in queries] == expected

    def test_html_dialect_served_over_the_same_socket(self, async_server):
        page = urllib.request.urlopen(async_server.url + "/search", timeout=5).read().decode()
        assert "<form" in page

    def test_pages_can_be_disabled(self, served):
        with AsyncHiddenDatabaseHTTPServer(served, serve_pages=False) as endpoint:
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(endpoint.url + "/search", timeout=5)
            assert info.value.code == 404

    def test_unknown_path_is_404(self, async_server):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(async_server.url + "/nope", timeout=5)
        assert info.value.code == 404

    def test_malformed_query_string_is_400(self, async_server):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(async_server.url + "/api/submit?bogus=1", timeout=5)
        assert info.value.code == 400

    def test_keep_alive_serves_many_requests_on_one_connection(self, async_server):
        with socket.create_connection(
            ("127.0.0.1", int(async_server.url.rsplit(":", 1)[1])), timeout=5
        ) as sock:
            reader = sock.makefile("rb")
            for _ in range(3):
                sock.sendall(b"GET /api/schema HTTP/1.1\r\nHost: x\r\n\r\n")
                status = reader.readline()
                assert b"200" in status
                length = None
                while True:
                    line = reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                json.loads(reader.read(length))

    def test_malformed_request_line_is_400_and_close(self, async_server):
        with socket.create_connection(
            ("127.0.0.1", int(async_server.url.rsplit(":", 1)[1])), timeout=5
        ) as sock:
            sock.sendall(b"utter nonsense\r\n\r\n")
            response = sock.makefile("rb").read()
        assert response.startswith(b"HTTP/1.1 400")

    def test_oversized_batch_body_is_refused(self, async_server):
        # urllib refuses to lie about Content-Length, so speak raw HTTP: a
        # declared 1 GiB body is refused before any of it is read.
        with socket.create_connection(
            ("127.0.0.1", int(async_server.url.rsplit(":", 1)[1])), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /api/submit_batch HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 1073741824\r\n\r\n"
            )
            status = sock.makefile("rb").readline()
        assert b"400" in status

    def test_unexpected_server_error_is_500_with_the_real_message(
        self, tiny_table, tiny_schema
    ):
        class Exploding:
            schema = tiny_table.schema
            k = 2

            def submit(self, query):
                raise RuntimeError("wired up wrong")

        with AsyncHiddenDatabaseHTTPServer(Exploding()) as endpoint:
            with AsyncRemoteBackend(endpoint.url) as remote:
                with pytest.raises(TransientBackendError, match="wired up wrong"):
                    remote.submit(ConjunctiveQuery.empty(tiny_schema))
            assert endpoint.fault_responses == 1

    def test_url_before_start_is_a_configuration_error(self, served):
        endpoint = AsyncHiddenDatabaseHTTPServer(served)
        with pytest.raises(ConfigurationError):
            endpoint.url

    def test_backend_workers_validated(self, served):
        with pytest.raises(ConfigurationError):
            AsyncHiddenDatabaseHTTPServer(served, backend_workers=0)


class TestAsyncServerConcurrency:
    def test_hundreds_in_flight_multiplex_over_a_small_pool(
        self, async_server, served, tiny_schema
    ):
        queries = _sample_queries(tiny_schema, count=25, seed=2) * 8  # 208 submissions
        expected = [served.submit(q) for q in queries]

        async def drive():
            with AsyncRemoteBackend(async_server.url, pool_size=8) as backend:
                responses = await asyncio.gather(*(backend.asubmit(q) for q in queries))
                return responses, backend.pool_statistics

        responses, pool = asyncio.run(drive())
        assert responses == expected
        # One schema-fetch connection on the facade loop, at most pool_size
        # on the driving loop: the 208 submissions multiplexed, not stampeded.
        assert pool["opened"] <= 8 + 1
        assert pool["reused"] >= len(queries) - 8


class TestAsyncServerFaultTaxonomy:
    def _chaotic_server(self, tiny_table, **chaos):
        served = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False
        )
        chaotic = BackendStack(
            served.top, [lambda inner: UnreliableLayer(inner, max_retries=0, **chaos)]
        )
        return AsyncHiddenDatabaseHTTPServer(chaotic)

    def test_429_maps_to_ratelimitederror_with_hint(self, tiny_table, tiny_schema):
        query = ConjunctiveQuery.empty(tiny_schema)
        with self._chaotic_server(tiny_table, rate_limit_every=2) as endpoint:
            with AsyncRemoteBackend(endpoint.url) as remote:
                remote.submit(query)
                with pytest.raises(RateLimitedError) as info:
                    remote.submit(query)
                assert info.value.every == 2
            assert endpoint.fault_responses == 1

    def test_budget_exhaustion_is_403(self, tiny_table, tiny_schema):
        served = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            budget=QueryBudget(limit=1), statistics=False,
        )
        query = ConjunctiveQuery.empty(tiny_schema)
        with AsyncHiddenDatabaseHTTPServer(served) as endpoint:
            with AsyncRemoteBackend(endpoint.url) as remote:
                remote.submit(query)
                with pytest.raises(QueryBudgetExceededError):
                    remote.submit(query)

    def test_expired_wire_deadline_is_shed_with_503(self, async_server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(async_server.url + "/api/submit?make=Honda", headers={DEADLINE_HEADER: "0"})
        assert info.value.code == 503
        payload = json.loads(info.value.read().decode())
        assert payload["error"] == "deadline"
        assert async_server.deadline_shed == 1

    def test_generous_deadline_header_is_honoured_not_shed(self, async_server):
        with _get(
            async_server.url + "/api/submit?make=Honda", headers={DEADLINE_HEADER: "30000"}
        ) as response:
            assert response.status == 200
        assert async_server.deadline_shed == 0

    def test_malformed_deadline_header_is_a_400(self, async_server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(async_server.url + "/api/submit?make=Honda", headers={DEADLINE_HEADER: "soon"})
        assert info.value.code == 400

    def test_healthy_endpoint_answers_ok_with_counters(self, async_server):
        with _get(async_server.url + "/api/health") as response:
            payload = json.loads(response.read().decode())
        assert response.status == 200
        assert payload["status"] == "ok"
        assert {"requests_served", "fault_responses", "deadline_shed"} <= set(payload)
        with AsyncRemoteBackend(async_server.url) as remote:
            assert remote.health()["status"] == "ok"

    def test_open_circuit_in_the_served_chain_degrades_health(
        self, tiny_table, tiny_schema
    ):
        guarded = BackendStack(
            engine_stack(
                tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False
            ).top,
            [
                lambda inner: UnreliableLayer(inner, max_retries=0, schedule=["transient"]),
                lambda inner: CircuitBreakerLayer(
                    inner,
                    policy=CircuitBreakerPolicy(
                        window=4, failure_threshold=1, reset_timeout=60.0
                    ),
                ),
            ],
        )
        query = ConjunctiveQuery.empty(tiny_schema)
        with AsyncHiddenDatabaseHTTPServer(guarded) as endpoint:
            with AsyncRemoteBackend(endpoint.url) as remote:
                with pytest.raises(TransientBackendError):
                    remote.submit(query)  # trips the served chain's breaker
                with pytest.raises(urllib.error.HTTPError) as info:
                    _get(endpoint.url + "/api/health")
                assert info.value.code == 503
                assert float(info.value.headers["Retry-After"]) > 0
                with pytest.raises(TransientBackendError) as probe:
                    remote.health()
                assert probe.value.retry_after is not None


class TestSlowClientReclaim:
    @pytest.mark.parametrize("server_class", [HiddenDatabaseHTTPServer, AsyncHiddenDatabaseHTTPServer])
    def test_stalled_connection_is_closed_and_service_continues(
        self, served, server_class
    ):
        # A client that opens a connection and sends half a request line must
        # not pin a handler (thread or task) forever: the per-connection
        # timeout reclaims it, and well-behaved clients are still served.
        with server_class(served, request_timeout=0.3) as endpoint:
            port = int(endpoint.url.rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=5) as stalled:
                stalled.sendall(b"GET /api/sch")  # ...and never finishes
                stalled.settimeout(5)
                assert stalled.recv(4096) == b""  # server closed on us
            with _get(endpoint.url + "/api/schema") as response:
                assert response.status == 200


class TestShutdownWhileClosing:
    def test_cancel_during_wait_closed_returns_cleanly(self, served):
        """Shutdown may cancel a handler that is already closing its
        connection; the cancellation must end the handler, not escape it."""

        class ClosingWriter:
            closed = False

            def get_extra_info(self, name):
                return None

            def close(self):
                self.closed = True

            async def wait_closed(self):
                raise asyncio.CancelledError()

        async def handle():
            reader = asyncio.StreamReader()
            reader.feed_eof()  # a clean EOF: the handler goes straight to close
            writer = ClosingWriter()
            server = AsyncHiddenDatabaseHTTPServer(served)
            await server._handle_connection(reader, writer)
            return writer.closed

        assert asyncio.run(handle()) is True
