"""The HTTP endpoint's wire contract, pinned as tables over real sockets.

Every row is one live exchange with a loopback
:class:`~repro.web.httpd.HiddenDatabaseHTTPServer`:

* ``REQUESTS`` — raw request bytes → status code and the connection's fate
  (kept alive for the next request, or closed).  API answers are JSON
  objects, and every refusal carries an ``error`` tag;
* ``FAULTS`` — a fault raised by the served backend → the exact exception
  :class:`~repro.backends.remote.RemoteBackend` re-raises, with its hints,
  for a single GET over a pooled or a per-request connection and for one
  item of a batch POST.  A fault answer never costs the pooled connection,
  and a faulted batch item never costs its siblings their answers;
* ``test_transport_combination`` — server response compression × client
  pooling × client request compression × route: every combination answers
  exactly what the served backend answers, with the connection and
  compression counters both ends keep agreeing on what crossed the wire.

The servers are module-scoped (a server's shutdown waits out its poll
interval), so counter checks compare before/after deltas.
"""

import json
import socket

import pytest

from repro.backends import RemoteBackend, engine_stack
from repro.database.interface import CountMode
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.exceptions import (
    BackendAuthError,
    CircuitOpenError,
    ConfigurationError,
    ConnectionDroppedError,
    DeadlineExceededError,
    FormParseError,
    QueryBudgetExceededError,
    QueryError,
    RateLimitedError,
    TransientBackendError,
)
from repro.web.httpd import DEADLINE_HEADER, HiddenDatabaseHTTPServer
from repro.web.jsoncodec import BATCH_WIRE_VERSION, batch_request_to_dict

SCHEMA = Schema(
    [
        Attribute("make", Domain.categorical(("Toyota", "Honda", "Ford"))),
        Attribute("color", Domain.categorical(("red", "blue"))),
    ],
    name="wire",
)
ROWS = [
    {"make": "Toyota", "color": "red", "score": 6.0},
    {"make": "Toyota", "color": "blue", "score": 5.0},
    {"make": "Toyota", "color": "red", "score": 4.0},
    {"make": "Honda", "color": "blue", "score": 3.0},
    {"make": "Honda", "color": "red", "score": 2.0},
    {"make": "Ford", "color": "blue", "score": 1.0},
]


def _served():
    """A counter-free backend for serving: clients own the accounting."""
    return engine_stack(
        Table(SCHEMA, ROWS, name="wire"), k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    )


def _query(**assignment):
    return ConjunctiveQuery.from_assignment(SCHEMA, assignment)


def _queries():
    """Every query over the schema: each attribute free or pinned."""
    return [
        _query(**{name: value for name, value in (("make", make), ("color", color)) if value})
        for make in (None, "Toyota", "Honda", "Ford")
        for color in (None, "red", "blue")
    ]


# -- raw requests -----------------------------------------------------------------


def _get(target, *headers):
    lines = [f"GET {target} HTTP/1.1", "Host: x", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _post(target, body=b"", *headers, length=None):
    length = len(body) if length is None else length
    lines = [f"POST {target} HTTP/1.1", "Host: x", f"Content-Length: {length}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _json(payload):
    return json.dumps(payload).encode("utf-8")


HONDA = "/api/submit?make=Honda"
BATCH = _json(batch_request_to_dict([_query(make="Honda"), _query(color="red")]))
EMPTY_BATCH = _json({"version": BATCH_WIRE_VERSION, "queries": []})
UNKNOWN_VERSION_BATCH = _json({"version": 999, "queries": []})

REQUESTS = [
    ("schema", _get("/api/schema"), 200, True),
    ("health", _get("/api/health"), 200, True),
    ("submit", _get(HONDA), 200, True),
    ("submit-empty-query", _get("/api/submit"), 200, True),
    ("search-page", _get("/search"), 200, True),
    ("results-page", _get("/results?make=Honda"), 200, True),
    ("unknown-path", _get("/nope"), 404, True),
    ("unknown-api-path", _get("/api/nope"), 404, True),
    ("unknown-attribute", _get("/api/submit?bogus=1"), 400, True),
    ("unselectable-value", _get("/api/submit?make=Tesla"), 400, True),
    ("duplicate-predicate", _get("/api/submit?make=Honda&make=Ford"), 400, True),
    ("results-page-unknown-attribute", _get("/results?bogus=1"), 400, True),
    ("deadline-generous", _get(HONDA, f"{DEADLINE_HEADER}: 30000"), 200, True),
    ("deadline-expired", _get(HONDA, f"{DEADLINE_HEADER}: 0"), 503, True),
    ("deadline-negative", _get(HONDA, f"{DEADLINE_HEADER}: -5"), 503, True),
    ("deadline-unreadable", _get(HONDA, f"{DEADLINE_HEADER}: soon"), 400, True),
    ("http-1.0", b"GET /api/schema HTTP/1.0\r\n\r\n", 200, False),
    ("connection-close", _get("/api/schema", "Connection: close"), 200, False),
    ("unsupported-method", b"PUT /api/schema HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
     501, False),
    ("batch", _post("/api/submit_batch", BATCH), 200, True),
    ("batch-empty", _post("/api/submit_batch", EMPTY_BATCH), 200, True),
    ("batch-not-json", _post("/api/submit_batch", b"not json"), 400, True),
    ("batch-not-an-object", _post("/api/submit_batch", b"[]"), 400, True),
    ("batch-unknown-version", _post("/api/submit_batch", UNKNOWN_VERSION_BATCH), 400, True),
    ("batch-unsupported-coding", _post("/api/submit_batch", b"{}", "Content-Encoding: br"),
     400, True),
    ("batch-corrupt-gzip", _post("/api/submit_batch", b"nope", "Content-Encoding: gzip"),
     400, True),
    # Refused before the body is read: the connection closes, so leftover
    # body bytes can never be parsed as the next request.
    ("post-to-non-batch-path", _post("/api/submit"), 404, False),
    ("batch-without-body", _post("/api/submit_batch"), 400, False),
    ("batch-unreadable-length", b"POST /api/submit_batch HTTP/1.1\r\nHost: x\r\n"
     b"Content-Length: abc\r\n\r\n", 400, False),
    ("batch-oversized-length", _post("/api/submit_batch", length=1 << 30), 400, False),
]


@pytest.fixture(scope="module")
def endpoint():
    with HiddenDatabaseHTTPServer(_served()) as server:
        yield server


def _read_response(reader):
    """``(status, headers, body)`` of one response read off a raw socket."""
    status_line = reader.readline()
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", "0")))
    return int(status_line.split()[1]), headers, body


@pytest.mark.parametrize(
    "request_bytes, status, keeps_alive",
    [pytest.param(*row[1:], id=row[0]) for row in REQUESTS],
)
def test_request(endpoint, request_bytes, status, keeps_alive):
    port = int(endpoint.url.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        reader = sock.makefile("rb")
        sock.sendall(request_bytes)
        answered, headers, body = _read_response(reader)
        assert answered == status
        if headers.get("content-type") == "application/json":
            payload = json.loads(body.decode("utf-8"))
            assert isinstance(payload, dict)
            assert ("error" in payload) == (status >= 400)
        if keeps_alive:
            sock.sendall(_get("/api/schema"))
            assert _read_response(reader)[0] == 200
        else:
            assert reader.read() == b""  # the server closed the connection


@pytest.mark.parametrize(
    "options",
    [
        {"batch_workers": 0},
        {"batch_workers": -1},
        {"request_timeout": 0.0},
        {"request_timeout": -1.0},
        {"compress_threshold": -1},
    ],
    ids=["batch-workers-0", "batch-workers-negative", "request-timeout-0",
         "request-timeout-negative", "compress-threshold-negative"],
)
def test_server_rejects_bad_parameters(options):
    with pytest.raises(ConfigurationError):
        HiddenDatabaseHTTPServer(_served(), **options)


# -- faults -----------------------------------------------------------------------


class FaultingBackend:
    """Serves ``inner``, but any query pinning ``make=Ford`` raises ``error``."""

    def __init__(self, inner):
        self.inner = inner
        self.error = None

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        if query.value_of("make") == "Ford":
            raise self.error
        return self.inner.submit(query)


FAULTS = [
    ("rate-limited", lambda: RateLimitedError(3, retry_after=2.5), RateLimitedError,
     {"every": 3, "retry_after": 2.5}, None),
    ("rate-limited-without-hint", lambda: RateLimitedError(4), RateLimitedError,
     {"every": 4}, None),
    ("budget-exhausted", lambda: QueryBudgetExceededError(7, 7), QueryBudgetExceededError,
     {"issued": 7, "budget": 7}, None),
    ("auth-401", lambda: BackendAuthError(401, "no key"), BackendAuthError,
     {"status": 401}, "no key"),
    ("auth-403", lambda: BackendAuthError(403, "revoked"), BackendAuthError,
     {"status": 403}, "revoked"),
    ("circuit-open", lambda: CircuitOpenError(retry_after=7.0), CircuitOpenError,
     {"retry_after": 7.0}, None),
    ("connection-dropped", lambda: ConnectionDroppedError("upstream gone"),
     ConnectionDroppedError, {}, "upstream gone"),
    ("deadline", lambda: DeadlineExceededError("upstream", remaining_ms=0),
     DeadlineExceededError, {"remaining_ms": 0}, None),
    ("transient", lambda: TransientBackendError("shard down"), TransientBackendError,
     {}, "shard down"),
    ("bad-request", lambda: FormParseError("bogus form"), FormParseError, {}, "bogus form"),
    ("query-error", lambda: QueryError("dup predicate"), FormParseError, {}, "dup predicate"),
    # A server-side bug: the real message crosses as a 500, which the client
    # treats as transient.
    ("internal", lambda: RuntimeError("wired up wrong"), TransientBackendError,
     {}, "wired up wrong"),
]

ROUTES = ["single-pooled", "single-per-request", "batch-item"]


@pytest.fixture(scope="module")
def faulting():
    backend = FaultingBackend(_served())
    with HiddenDatabaseHTTPServer(backend) as server:
        yield backend, server


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "make_error, expected, attributes, message",
    [pytest.param(*row[1:], id=row[0]) for row in FAULTS],
)
def test_fault(faulting, route, make_error, expected, attributes, message):
    backend, server = faulting
    backend.error = make_error()
    oracle = _served()
    before = server.wire_statistics()
    pool_size = 0 if route == "single-per-request" else 8
    with RemoteBackend(server.url, pool_size=pool_size) as client:
        if route == "batch-item":
            queries = [_query(make="Honda"), _query(make="Ford"), _query(color="red")]
            outcomes = client.submit_outcomes(queries)
            raised = outcomes[1]
            assert outcomes[0] == oracle.submit(queries[0])
            assert outcomes[2] == oracle.submit(queries[2])
        else:
            with pytest.raises(expected) as caught:
                client.submit(_query(make="Ford"))
            raised = caught.value
            # The fault answer leaves the connection fit for the next query.
            assert client.submit(_query(make="Honda")) == oracle.submit(_query(make="Honda"))
        pool = client.pool_statistics
    assert type(raised) is expected
    for name, value in attributes.items():
        assert getattr(raised, name) == value, name
    if message is not None:
        assert message in str(raised)
    after = server.wire_statistics()
    # A faulted batch item is a 200 envelope, not an HTTP fault.
    assert after["fault_responses"] - before["fault_responses"] == (
        0 if route == "batch-item" else 1
    )
    requests = 2 if route == "batch-item" else 3  # schema fetch, then the exchanges
    assert pool["opened"] == (1 if pool_size else requests)


# -- transport combinations -------------------------------------------------------


@pytest.fixture(scope="module")
def compressing_endpoints():
    """One server per response-compression setting: off, and every body."""
    with HiddenDatabaseHTTPServer(_served(), compress_threshold=None) as plain, \
            HiddenDatabaseHTTPServer(_served(), compress_threshold=1) as gzipping:
        yield {"server-plain": plain, "server-gzip": gzipping}


@pytest.mark.parametrize("route", ["single", "batch"])
@pytest.mark.parametrize("client_compress", [None, 1], ids=["client-plain", "client-gzip"])
@pytest.mark.parametrize("pool_size", [0, 8], ids=["per-request", "pooled"])
@pytest.mark.parametrize("server", ["server-plain", "server-gzip"])
def test_transport_combination(compressing_endpoints, server, pool_size, client_compress, route):
    endpoint = compressing_endpoints[server]
    queries = _queries()
    oracle = _served()
    before = endpoint.wire_statistics()
    with RemoteBackend(
        endpoint.url, pool_size=pool_size, compress_threshold=client_compress
    ) as client:
        if route == "single":
            answers = [client.submit(query) for query in queries]
        else:
            answers = client.submit_outcomes(queries)
        pool = client.pool_statistics
        counters = client.compression_statistics
    assert answers == [oracle.submit(query) for query in queries]
    after = endpoint.wire_statistics()
    requests = 1 + (len(queries) if route == "single" else 1)
    assert after["requests_served"] - before["requests_served"] == requests
    assert pool["opened"] == (1 if pool_size else requests)
    assert pool["reused"] == (requests - 1 if pool_size else 0)
    compressed_requests = 1 if client_compress is not None and route == "batch" else 0
    assert counters["requests_compressed"] == compressed_requests
    assert after["compressed_requests"] - before["compressed_requests"] == compressed_requests
    decompressed = counters["responses_decompressed"]
    assert after["compressed_responses"] - before["compressed_responses"] == decompressed
    assert (decompressed > 0) == (server == "server-gzip")
