"""A real HTTP endpoint serving a hidden database over a socket.

:class:`HiddenWebSite` keeps experiments hermetic by returning HTML strings
in-process.  This module is the next step towards the paper's actual
deployment platform (Apache + PHP + MySQL, Section 3.5): a stdlib
``http.server`` endpoint that serves **any backend** — an adapter, a layered
stack, a shard router — over a real TCP socket, speaking two dialects:

* the JSON API consumed by :class:`repro.backends.remote.RemoteBackend` —
  ``GET /api/schema`` describes the searchable schema and top-``k``;
  ``GET /api/submit?<query string>`` answers one conjunctive query
  (:mod:`repro.web.jsoncodec` defines the payloads, the query string is the
  ordinary :mod:`repro.web.urlcodec` form encoding); and
  ``POST /api/submit_batch`` answers many queries in one round-trip with a
  **per-item** status envelope, so one rate-limited or budget-exhausted item
  never fails its siblings;
* the HTML pages of the in-process site (``/search``, ``/results``), so a
  browser — or a :class:`~repro.web.client.WebFormClient` pointed at a
  socket-backed fetcher — sees the same catalogue a scraper would.

Fault mapping is part of the contract and lives in one place
(:func:`repro.web.jsoncodec.error_to_payload` /
:func:`~repro.web.jsoncodec.error_from_payload`, shared with the client): a
:class:`~repro.exceptions.RateLimitedError` from the backend becomes HTTP
**429** (with a ``Retry-After`` hint), any other
:class:`~repro.exceptions.TransientBackendError` becomes **503**, an
exhausted :class:`~repro.database.limits.QueryBudget` becomes **403** (not
retryable), a malformed query string becomes **400**.  The remote adapter
maps these back onto the same exceptions, so an
:class:`~repro.backends.layers.UnreliableLayer` above it retries *real*
network faults exactly as it retries injected ones.

The server is threaded (``ThreadingHTTPServer``) and handlers speak
HTTP/1.1 keep-alive, so a pooled :class:`~repro.backends.remote.RemoteBackend`
reuses one TCP connection across many requests.  Batch items are answered
concurrently over a bounded worker pool: every layer in the served chain —
including the lock-striped :class:`~repro.backends.history.HistoryLayer` —
is thread-safe, so nothing needs the serialising submit-lock earlier
revisions carried (see ``docs/architecture.md``).  Each connection carries a
socket read/write timeout (``request_timeout``), so a stalled client — half a
request line, then silence — costs one handler thread for a bounded interval
instead of forever.

This is the one HTTP server in the package: the payload logic behind the
four API routes, the request counters, the batch worker pool, deadline
shedding and the gzip wire compression policy (:mod:`repro.web.compress`,
shared with the client) all live on :class:`HiddenDatabaseHTTPServer`.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

if TYPE_CHECKING:  # runtime import would cycle: repro.backends imports this module
    from repro.backends.resilience import Deadline

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    FormParseError,
    PageNotFoundError,
    ReproError,
)
from repro.web.compress import DEFAULT_COMPRESS_THRESHOLD, GZIP_ENCODING, accepts_gzip
from repro.web.compress import decompress as decompress_body
from repro.web.compress import maybe_compress
from repro.web.jsoncodec import (
    batch_request_from_dict,
    batch_response_to_dict,
    error_to_payload,
    response_to_dict,
    schema_to_dict,
)
from repro.web.server import HiddenWebSite
from repro.web.urlcodec import decode_query

#: JSON API paths served next to the HTML pages.
API_SCHEMA_PATH = "/api/schema"
API_SUBMIT_PATH = "/api/submit"
API_SUBMIT_BATCH_PATH = "/api/submit_batch"
API_HEALTH_PATH = "/api/health"

#: Request header carrying the client's remaining deadline budget in integer
#: milliseconds (the server-side name for
#: :data:`repro.backends.resilience.DEADLINE_HEADER`; duplicated here because
#: ``repro.web`` must stay importable without dragging in ``repro.backends``
#: — a unit test asserts the two strings agree).
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: Largest accepted ``POST /api/submit_batch`` body, bytes.  Far above any
#: real batch (queries are a few hundred bytes each) while keeping a
#: misbehaving client from ballooning the handler's memory.  A compressed
#: body must also *inflate* to at most this many bytes — gzip cannot be used
#: to smuggle an oversized envelope past the cap.
MAX_BATCH_BODY_BYTES = 8 * 1024 * 1024

#: Default per-connection socket timeout, seconds.  A client that opens a
#: connection and stalls — half a request line, an unfinished body, a dead
#: peer that never FINs — would otherwise pin one handler thread *forever*
#: (the accept loop keeps spawning fresh threads, so the leak is silent until
#: the process drowns in them).  Thirty seconds is far beyond any legitimate
#: request gap on the persistent connections this repo's clients hold, while
#: bounding the damage a slowloris-shaped client can do.
DEFAULT_REQUEST_TIMEOUT = 30.0


class _Handler(BaseHTTPRequestHandler):
    """One request: route, answer, map library errors onto status codes."""

    # The endpoint object is attached to the (Threading)HTTPServer instance.
    server: "_Server"

    protocol_version = "HTTP/1.1"
    # The handler's write side is unbuffered, so status line, headers and
    # body leave as separate small segments; with Nagle on, each keep-alive
    # response stalls ~40 ms behind the peer's delayed ACK — turning it off
    # is what makes persistent connections actually fast.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # The per-connection socket timeout: ``StreamRequestHandler.setup``
        # applies ``self.timeout`` via ``settimeout``, and
        # ``handle_one_request`` treats the resulting ``TimeoutError`` as
        # "discard this connection" — so a stalled or half-sent request
        # releases its handler thread after a bounded wait instead of
        # pinning it for the life of the process.
        self.timeout = self.server.endpoint.request_timeout
        super().setup()

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        # Routing and payload computation are fully resolved to (status,
        # body) BEFORE any byte hits the socket: exceptions here become
        # error responses, while a write failure on the already-started
        # response (client gone) is terminal for the connection and must
        # never trigger a second response on the same stream.
        try:
            response = self._route()
        except Exception as error:  # reprolint: disable=R3 — the one last-resort 500: a dead handler thread closes the socket with no status line, which clients misread as "unreachable"
            response = self._error_response(error)
        self._respond(*response)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        # An error answered before the request body was consumed (oversized
        # Content-Length, POST to a non-batch path) would leave those body
        # bytes in the stream, and the next keep-alive request would be
        # parsed out of the leftovers.  Closing the connection — and saying
        # so — keeps the stream honest; the client's pool just reconnects.
        self._body_consumed = False
        try:
            status, body, content_type, headers = self._route_post()
        except Exception as error:  # reprolint: disable=R3 — same last-resort 500 as do_GET
            status, body, content_type, headers = self._error_response(error)
        if status >= 400 and not self._body_consumed:
            headers["Connection"] = "close"
            self.close_connection = True
        self._respond(status, body, content_type, headers)

    def _error_response(self, error: Exception) -> tuple[int, bytes, str, dict]:
        """Map any fault onto its status-code home (throttling keeps Retry-After)."""
        status, payload = error_to_payload(error)
        headers = self._fault_headers(status, payload)
        return status, json.dumps(payload).encode("utf-8"), "application/json", headers

    @staticmethod
    def _fault_headers(status: int, payload: dict) -> dict:
        """The extra headers a fault payload earns.

        A payload carrying its own ``retry_after`` hint (a 429's throttle
        window, an open circuit's next-probe time) ships it as the standard
        ``Retry-After`` header too, so clients that never parse our JSON —
        proxies, off-the-shelf HTTP libraries — still see the hint; a plain
        429 keeps the legacy fixed hint of one second.
        """
        hint = payload.get("retry_after")
        if isinstance(hint, (int, float)) and not isinstance(hint, bool) and hint >= 0:
            return {"Retry-After": f"{hint:g}"}
        if status == 429:
            return {"Retry-After": "1"}
        return {}

    def _respond(self, status: int, body: bytes, content_type: str, headers: dict) -> None:
        endpoint = self.server.endpoint
        # Response-side compression is negotiated per request: only JSON
        # payloads (the HTML dialect predates the codec and stays plain),
        # only when the client advertised Accept-Encoding: gzip, and only
        # above the shared size threshold.
        encoding = None
        if content_type == "application/json" and accepts_gzip(
            self.headers.get("Accept-Encoding")
        ):
            body, encoding = maybe_compress(body, endpoint.compress_threshold)
            if encoding is not None:
                headers["Content-Encoding"] = encoding
        endpoint.count_response(status, compressed=encoding is not None)
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            # The client disconnected mid-write; there is nobody to answer.
            self.close_connection = True

    def _route(self) -> tuple[int, bytes, str, dict]:
        """Resolve a GET to ``(status, body, content_type, headers)``."""
        endpoint = self.server.endpoint
        split = urlsplit(self.path)
        headers: dict = {}
        try:
            if split.path == API_SCHEMA_PATH:
                payload: dict = endpoint.schema_payload()
                status = 200
            elif split.path == API_HEALTH_PATH:
                status, payload = endpoint.health_payload()
                headers.update(self._fault_headers(status, payload))
            elif split.path == API_SUBMIT_PATH:
                payload = endpoint.submit_payload(split.query, self._request_deadline())
                status = 200
            else:
                page = endpoint.page(self.path)
                return 200, page.encode("utf-8"), "text/html; charset=utf-8", headers
        except ReproError as error:
            # Every library fault has a status-code home; anything *untyped*
            # escaping here is a bug and surfaces through the last-resort
            # 500 handler in do_GET, where it stays visible.
            status, payload = error_to_payload(error)
            headers.update(self._fault_headers(status, payload))
        return status, json.dumps(payload).encode("utf-8"), "application/json", headers

    def _route_post(self) -> tuple[int, bytes, str, dict]:
        """Resolve a POST to ``(status, body, content_type, headers)``."""
        endpoint = self.server.endpoint
        split = urlsplit(self.path)
        headers: dict = {}
        try:
            if split.path != API_SUBMIT_BATCH_PATH:
                raise PageNotFoundError(split.path)
            deadline = self._request_deadline()
            payload = endpoint.submit_batch_payload(self._read_json_body(), deadline)
            status = 200
        except ReproError as error:
            # Untyped faults escape to do_POST's last-resort 500 handler.
            status, payload = error_to_payload(error)
            headers.update(self._fault_headers(status, payload))
        return status, json.dumps(payload).encode("utf-8"), "application/json", headers

    def _request_deadline(self) -> "Deadline | None":
        """The request's remaining time budget, parsed off the wire header.

        Returns a :class:`repro.backends.resilience.Deadline` (re-anchored on
        this host's monotonic clock) when the client sent one, ``None``
        otherwise.  A malformed value is the client's bug and answers 400.
        """
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            remaining_ms = int(raw.strip())
        except ValueError:
            raise FormParseError(f"unreadable {DEADLINE_HEADER} header: {raw!r}") from None
        # Imported lazily: repro.web must import without repro.backends
        # (which itself imports this module for the API paths).
        from repro.backends.resilience import Deadline

        return Deadline.from_remaining_ms(remaining_ms)

    def _read_json_body(self) -> dict:
        """The request body as parsed JSON; malformed input is a 400."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise FormParseError("unreadable Content-Length header") from None
        if length <= 0:
            raise FormParseError("batch request carries no body")
        if length > MAX_BATCH_BODY_BYTES:
            raise FormParseError(
                f"batch request body of {length} bytes exceeds the "
                f"{MAX_BATCH_BODY_BYTES}-byte limit"
            )
        body = self.rfile.read(length)
        self._body_consumed = True
        return self.server.endpoint.decode_json_body(
            body, self.headers.get("Content-Encoding")
        )

    def log_message(self, *args: object) -> None:  # pragma: no cover - silence
        pass


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its owning endpoint."""

    daemon_threads = True
    endpoint: "HiddenDatabaseHTTPServer"


class HiddenDatabaseHTTPServer:
    """Serve one hidden-database backend over a real TCP socket.

    ``backend`` is any object satisfying the raw backend protocol (adapter,
    layered :class:`~repro.backends.stack.BackendStack`, shard router, a
    classic facade).  ``port=0`` (the default) lets the OS pick a free port —
    the right choice for tests and benchmarks; read :attr:`url` after
    construction.  ``batch_workers`` bounds the pool that answers the items
    of one ``/api/submit_batch`` request concurrently (1 answers them
    serially).  ``request_timeout`` bounds how long one connection may stall
    between (or inside) requests before its handler thread is reclaimed.
    The server binds at construction time but only answers once
    :meth:`start` spawns the serving thread (or :meth:`serve_forever` takes
    over the calling thread).

    Used as a context manager it starts on enter and stops on exit::

        with HiddenDatabaseHTTPServer(stack) as server:
            backend = RemoteBackend(server.url)
            ...
    """

    #: Machine-checked by reprolint R1 (guarded-state): the request counters
    #: update under ``_lock`` (handler/executor threads report concurrently),
    #: and the lazily-created batch pool swaps only under its own lock.
    _guarded_by = {
        "requests_served": "_lock",
        "fault_responses": "_lock",
        "batch_items_served": "_lock",
        "deadline_shed": "_lock",
        "compressed_requests": "_lock",
        "compressed_responses": "_lock",
        "_batch_pool": "_batch_pool_lock",
    }

    def __init__(
        self,
        backend: object,
        host: str = "127.0.0.1",
        port: int = 0,
        serve_pages: bool = True,
        batch_workers: int = 8,
        compress_threshold: int | None = DEFAULT_COMPRESS_THRESHOLD,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if batch_workers < 1:
            raise ConfigurationError("batch_workers must be at least 1")
        if request_timeout is not None and request_timeout <= 0:
            raise ConfigurationError("request_timeout must be positive when given")
        if compress_threshold is not None and compress_threshold < 0:
            raise ConfigurationError("compress_threshold must be non-negative when given")
        self.backend = backend
        #: The HTML dialect is served through an ordinary in-process site
        #: over the same backend, so both dialects answer identically.
        self.site = HiddenWebSite(backend) if serve_pages else None
        self.batch_workers = batch_workers
        #: Bodies at or above this many bytes gzip when the peer negotiated
        #: it; ``None`` disables response compression entirely.
        self.compress_threshold = compress_threshold
        #: Per-connection socket timeout, seconds (``None`` disables — the
        #: pre-timeout behaviour, kept reachable for debugging only).
        self.request_timeout = request_timeout
        self._batch_pool: ThreadPoolExecutor | None = None
        self._batch_pool_lock = threading.Lock()
        self._lock = threading.Lock()
        self.requests_served = 0
        self.fault_responses = 0
        self.batch_items_served = 0
        self.deadline_shed = 0
        self.compressed_requests = 0
        self.compressed_responses = 0
        self._server = _Server((host, port), _Handler)
        self._server.endpoint = self
        self._thread: threading.Thread | None = None

    # -- request handling (called from handler/executor threads) ----------------

    def schema_payload(self) -> dict:
        """The ``/api/schema`` response body."""
        return schema_to_dict(self.backend.schema, self.backend.k)

    def health_payload(self) -> tuple[int, dict]:
        """The ``/api/health`` response: ``(200, ok)`` or ``(503, degraded)``.

        Degraded means a resilience node in the *served* chain (a circuit
        breaker, a failover router with every target open) would refuse a
        submission right now; the payload carries the shortest wait until one
        would be admitted, which :meth:`_Handler._fault_headers` also ships
        as ``Retry-After``.  A chain with no resilience nodes is always ok —
        the probe then simply proves the HTTP endpoint itself answers, which
        is what :class:`~repro.backends.resilience.FailoverRouter` needs from
        a replica.
        """
        from repro.backends.resilience import chain_retry_after, chain_would_allow

        healthy = chain_would_allow(self.backend)
        with self._lock:
            payload: dict = {
                "status": "ok" if healthy else "degraded",
                "requests_served": self.requests_served,
                "fault_responses": self.fault_responses,
                "deadline_shed": self.deadline_shed,
            }
        if not healthy:
            payload["retry_after"] = chain_retry_after(self.backend)
        return (200 if healthy else 503), payload

    def submit_payload(self, query_string: str, deadline: "Deadline | None" = None) -> dict:
        """The ``/api/submit`` response body for one encoded query.

        A request whose wire deadline already expired is shed with
        :class:`~repro.exceptions.DeadlineExceededError` (503) *before* the
        backend — or even the query decoder — is touched: the client stopped
        waiting, so any work done now is pure waste.  A live deadline is
        installed as the ambient scope so retry layers in the served chain
        respect what remains of it.
        """
        from repro.backends.resilience import deadline_scope

        if deadline is not None and deadline.expired:
            with self._lock:
                self.deadline_shed += 1
            raise DeadlineExceededError("server-side submission", remaining_ms=0)
        query = decode_query(self.backend.schema, query_string)
        with deadline_scope(deadline):
            return response_to_dict(self.backend.submit(query))

    def submit_batch_payload(self, payload: dict, deadline: "Deadline | None" = None) -> dict:
        """The ``/api/submit_batch`` response body: one status per item.

        A fault while answering one item becomes that item's ``error`` entry
        — its siblings still come back answered.  Items are answered
        concurrently over the bounded batch pool (every layer beneath is
        thread-safe; the striped history layer deduplicates and the budget
        layer charges exactly as it would for concurrent clients).
        """
        from repro.backends.resilience import deadline_scope

        if deadline is not None and deadline.expired:
            with self._lock:
                self.deadline_shed += 1
            raise DeadlineExceededError("server-side batch submission", remaining_ms=0)
        queries = batch_request_from_dict(self.backend.schema, payload)

        def answer(query) -> object:
            try:
                # Re-installed per item: the pool threads never inherited the
                # handler thread's ambient deadline scope.
                with deadline_scope(deadline):
                    return self.backend.submit(query)
            except Exception as error:  # noqa: BLE001 - per-item status
                return error

        if len(queries) <= 1 or self.batch_workers == 1:
            outcomes = [answer(query) for query in queries]
        else:
            outcomes = list(self._pool().map(answer, queries))
        with self._lock:
            self.batch_items_served += len(queries)
        return batch_response_to_dict(outcomes)

    def page(self, path: str) -> str:
        """The HTML dialect, when enabled (result pages submit to the backend)."""
        if self.site is None:
            raise PageNotFoundError(path)
        return self.site.get(path)

    def count_response(self, status: int, compressed: bool) -> None:
        """Response accounting (handler threads report here)."""
        with self._lock:
            self.requests_served += 1
            if status >= 400:
                self.fault_responses += 1
            if compressed:
                self.compressed_responses += 1

    def decode_json_body(self, body: bytes, content_encoding: str | None) -> dict:
        """A request body — possibly gzip-compressed — as parsed JSON.

        The compression negotiation is symmetric with the response side
        (:mod:`repro.web.compress`): a body carrying ``Content-Encoding:
        gzip`` is inflated (capped at :data:`MAX_BATCH_BODY_BYTES` so the
        cap cannot be smuggled past in compressed form) before parsing.
        Malformed input of either kind is the client's fault and answers 400.
        """
        if (content_encoding or "").strip().lower() == GZIP_ENCODING:
            with self._lock:
                self.compressed_requests += 1
        body = decompress_body(body, content_encoding, MAX_BATCH_BODY_BYTES)
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise FormParseError(f"batch request body is not valid JSON: {error}") from None
        if not isinstance(parsed, dict):
            raise FormParseError("batch request body must be a JSON object")
        return parsed

    def wire_statistics(self) -> dict[str, int]:
        """Plain-dict wire counters for benchmarks and tests."""
        with self._lock:
            return {
                "requests_served": self.requests_served,
                "fault_responses": self.fault_responses,
                "batch_items_served": self.batch_items_served,
                "deadline_shed": self.deadline_shed,
                "compressed_requests": self.compressed_requests,
                "compressed_responses": self.compressed_responses,
            }

    def _pool(self) -> ThreadPoolExecutor:
        with self._batch_pool_lock:
            if self._batch_pool is None:
                self._batch_pool = ThreadPoolExecutor(
                    max_workers=self.batch_workers,
                    thread_name_prefix="httpd-batch",
                )
            return self._batch_pool

    # -- lifecycle --------------------------------------------------------------

    @property
    def url(self) -> str:
        """Base URL of the endpoint, e.g. ``http://127.0.0.1:49152``."""
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "HiddenDatabaseHTTPServer":
        """Serve in a background daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=f"hidden-db-httpd:{self._server.server_address[1]}",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:  # pragma: no cover - interactive use
        """Serve on the calling thread until interrupted (CLI deployments)."""
        self._server.serve_forever()

    def stop(self) -> None:
        """Stop serving and release the socket (and the batch worker pool)."""
        self._server.shutdown()
        self._server.server_close()
        with self._batch_pool_lock:
            pool, self._batch_pool = self._batch_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "HiddenDatabaseHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HiddenDatabaseHTTPServer(url={self.url!r})"
