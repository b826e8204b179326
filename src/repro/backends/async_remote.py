"""The event-loop remote access path: the raw backend contract over asyncio.

:class:`AsyncRemoteBackend` is the :mod:`asyncio`-native sibling of
:class:`repro.backends.remote.RemoteBackend`: same wire protocol (the
:mod:`repro.web.jsoncodec` versioned envelopes over ``GET /api/submit`` and
``POST /api/submit_batch``), same gzip negotiation
(:mod:`repro.web.compress`), same typed fault translation
(:func:`repro.web.jsoncodec.error_from_payload`), same deadline header — but
its requests are coroutines multiplexed over a small pool of persistent
connections **per event loop**, so one client object can have hundreds of
submissions in flight without a thread per request.  That is the client half
of the async serving tier; :class:`repro.web.aiohttpd` is the server half.

Two usage shapes share one instance:

* **Async-native** — ``await backend.asubmit(query)`` (and
  ``asubmit_outcomes`` / ``ahealth``) from any event loop.  Connections
  are pooled per loop, because asyncio streams are bound to the loop that
  created them.
* **Sync facade** — the ordinary raw-backend contract (``submit``,
  ``submit_outcomes``, ``health``), satisfied by driving a
  **private** event loop on a background daemon thread.  This is what lets
  ``remote_stack(url, transport=AsyncRemoteBackend)`` put the whole existing
  layer stack — breakers, retries, budgets, history, dispatch — above an
  async transport with zero changes to any layer, and what
  :class:`~repro.service.sampling.SamplingService` runs on unmodified.

The ambient :class:`~repro.backends.resilience.Deadline` is honoured across
the thread hop: each sync facade method captures ``current_deadline()`` on
the *calling* thread and passes it explicitly into the coroutine (contextvars
do not reliably cross ``run_coroutine_threadsafe``), where it clips the
request timeout and travels as ``X-Repro-Deadline-Ms`` exactly as in the
threaded client.

Stale keep-alive handling mirrors the sync client's policy precisely: only a
failure on a *reused* connection that proves the server produced no response
(clean EOF before the status line, a reset/aborted/broken pipe) earns one
transparent reconnect; a timeout or mid-response failure may mean the server
already executed the request, so it surfaces as
:class:`~repro.exceptions.ConnectionDroppedError` for the retry layer to
judge.  Only the standard library is used.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Coroutine, Sequence, TypeVar
from urllib.parse import urlsplit

from repro._rng import resolve_rng, stable_hash
from repro.backends.resilience import (
    DEADLINE_HEADER,
    Deadline,
    backoff_delay,
    current_deadline,
)
from repro.database.interface import InterfaceResponse
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema
from repro.exceptions import (
    ConfigurationError,
    ConnectionDroppedError,
    DeadlineExceededError,
    FormParseError,
    TransientBackendError,
)
from repro.backends.remote import DEFAULT_POOL_SIZE, MAX_CONNECT_BACKOFF, MAX_RESPONSE_BYTES
from repro.web.compress import (
    DEFAULT_COMPRESS_THRESHOLD,
    GZIP_ENCODING,
    CompressionCounters,
    decompress,
    maybe_compress,
)
from repro.web.httpd import (
    API_HEALTH_PATH,
    API_SCHEMA_PATH,
    API_SUBMIT_BATCH_PATH,
    API_SUBMIT_PATH,
)
from repro.web.jsoncodec import (
    batch_request_to_dict,
    batch_response_from_dict,
    error_from_payload,
    response_from_dict,
    schema_from_dict,
)
from repro.web.urlcodec import encode_query

_T = TypeVar("_T")


class _ServerDisconnected(Exception):
    """The server closed the connection before producing a status line.

    Internal to this module — the asyncio analogue of
    ``http.client.RemoteDisconnected`` / ``BadStatusLine``, i.e. exactly the
    failure shape that, on a reused keep-alive connection, is safe to retry
    transparently.  It never crosses the module boundary: unretried instances
    are translated to :class:`~repro.exceptions.ConnectionDroppedError`.
    """


#: Failure shapes that, on a *reused* keep-alive connection, prove the server
#: closed the idle socket before producing any response — the only failures
#: safe to re-send transparently (the asyncio mirror of
#: ``RemoteBackend._STALE_ERRORS``).
_STALE_ERRORS = (
    _ServerDisconnected,
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


class _AsyncConnection:
    """One pooled connection: its streams, owning loop, and the reuse flag."""

    __slots__ = ("reader", "writer", "loop", "was_idle")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        loop: asyncio.AbstractEventLoop,
        was_idle: bool,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.loop = loop
        #: True when this connection already served a request and sat idle in
        #: the pool — the only case where a pre-response failure may mean
        #: "server dropped the idle keep-alive" rather than "server is down",
        #: and therefore the only case earning a transparent reconnect.
        self.was_idle = was_idle


class _AsyncConnectionPool:
    """Persistent connections, pooled **per event loop**.

    Asyncio streams are bound to the loop that created them, so one shared
    idle list would hand a sync-facade coroutine a connection it cannot
    await.  Idle connections are therefore keyed by loop, and ``size``
    bounds the **in-flight requests per loop** with a per-loop semaphore:
    a burst of a thousand concurrent coroutines multiplexes over at most
    ``size`` persistent sockets (waiters park on the semaphore — the
    event-loop analogue of a bounded worker pool) instead of stampeding the
    server with a thousand connects.  ``size=0`` disables both the bound and
    keep-alive: every request opens and closes its own connection (the
    per-connect baseline the benchmarks measure against).  The structure is
    mutated from multiple threads (each loop runs on its own), so a plain
    :class:`threading.Lock` guards it — only ever held for dict/list
    surgery, never across an await.
    """

    #: Machine-checked by reprolint R1 (guarded-state): the per-loop idle
    #: table, the per-loop semaphores and the reuse counters are only
    #: mutated while ``_lock`` is held.
    _guarded_by = {
        "_idle": "_lock",
        "_limits": "_lock",
        "opened": "_lock",
        "reused": "_lock",
        "stale_reconnects": "_lock",
    }

    def __init__(self, scheme: str, host: str, port: int, size: int) -> None:
        if size < 0:
            raise ConfigurationError("pool_size must be non-negative")
        self._scheme = scheme
        self._host = host
        self._port = port
        self.size = size
        self._idle: dict[asyncio.AbstractEventLoop, list[_AsyncConnection]] = {}
        self._limits: dict[asyncio.AbstractEventLoop, asyncio.Semaphore] = {}
        self._lock = threading.Lock()
        self.opened = 0
        self.reused = 0
        self.stale_reconnects = 0

    async def acquire(self) -> _AsyncConnection:
        """An idle connection of the running loop when one exists, else fresh.

        Blocks (asynchronously) while ``size`` requests are already in
        flight on this loop; :meth:`release` and :meth:`discard` both free
        the slot, so every acquired connection must reach exactly one of
        them.
        """
        loop = asyncio.get_running_loop()
        if self.size > 0:
            with self._lock:
                limit = self._limits.get(loop)
                if limit is None:
                    # Semaphores are loop-bound like the streams; created
                    # here, on the loop that will await them.
                    limit = asyncio.Semaphore(self.size)
                    self._limits[loop] = limit
            await limit.acquire()
        with self._lock:
            idle = self._idle.get(loop)
            if idle:
                connection = idle.pop()
                self.reused += 1
                connection.was_idle = True
                return connection
            self.opened += 1
        try:
            reader, writer = await asyncio.open_connection(
                self._host, self._port, ssl=(self._scheme == "https") or None
            )
        except OSError as error:
            self._release_slot(loop)
            raise TransientBackendError(f"remote backend unreachable: {error}") from error
        sock = writer.get_extra_info("socket")
        if sock is not None:
            import socket as _socket

            # Requests leave as one buffered write, but without TCP_NODELAY a
            # large batch POST split across segments can still stall behind
            # the server's delayed ACK — same setting as the sync pool.
            sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        return _AsyncConnection(reader, writer, loop, was_idle=False)

    def release(self, connection: _AsyncConnection, reusable: bool) -> None:
        """Pool a healthy connection, or close it when it cannot serve again;
        either way the in-flight slot is freed."""
        try:
            if reusable and self.size > 0:
                with self._lock:
                    idle = self._idle.setdefault(connection.loop, [])
                    if len(idle) < self.size:
                        idle.append(connection)
                        return
            connection.writer.close()
        finally:
            self._release_slot(connection.loop)

    def discard(self, connection: _AsyncConnection, stale: bool) -> None:
        """Close a connection that failed mid-request and free its slot."""
        if stale:
            with self._lock:
                self.stale_reconnects += 1
        connection.writer.close()
        self._release_slot(connection.loop)

    def _release_slot(self, loop: asyncio.AbstractEventLoop) -> None:
        with self._lock:
            limit = self._limits.get(loop)
        if limit is not None:
            limit.release()

    def close_all(self) -> None:
        """Close every idle connection, across every loop (thread-safe).

        Writers must be closed from their owning loop, so closes on other
        loops are scheduled with ``call_soon_threadsafe``; a loop that
        already shut down simply has no sockets left to close.
        """
        with self._lock:
            by_loop, self._idle = self._idle, {}
        for loop, idle in by_loop.items():
            for connection in idle:
                try:
                    loop.call_soon_threadsafe(connection.writer.close)
                except RuntimeError:  # loop already closed
                    pass

    def statistics(self) -> dict[str, int]:
        """Plain-dict reuse counters for benchmarks and tests."""
        with self._lock:
            return {
                "opened": self.opened,
                "reused": self.reused,
                "stale_reconnects": self.stale_reconnects,
                "idle": sum(len(idle) for idle in self._idle.values()),
            }


class AsyncRemoteBackend:
    """Answer conjunctive queries over asyncio; sync facade included.

    Constructor arguments match :class:`~repro.backends.remote.RemoteBackend`
    — ``base_url``, per-request ``timeout``, per-loop ``pool_size``,
    construction-time ``connect_retries``/``connect_backoff``, and the gzip
    ``compress_threshold``.  Construction spawns the private facade loop and
    performs the schema fetch through it, so a dead endpoint fails fast with
    the same typed error and retry policy as the sync client.

    Call :meth:`close` when done (or use the context manager): it closes
    every pooled connection and stops the facade loop thread.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        pool_size: int = DEFAULT_POOL_SIZE,
        connect_retries: int = 0,
        connect_backoff: float = 0.05,
        compress_threshold: int | None = DEFAULT_COMPRESS_THRESHOLD,
    ) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ConfigurationError(f"base_url must be an http(s) URL, got {base_url!r}")
        if timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if connect_retries < 0:
            raise ConfigurationError("connect_retries must be non-negative")
        if connect_backoff < 0:
            raise ConfigurationError("connect_backoff must be non-negative")
        if compress_threshold is not None and compress_threshold < 0:
            raise ConfigurationError("compress_threshold must be non-negative when given")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.compress_threshold = compress_threshold
        self._compression = CompressionCounters()
        split = urlsplit(self.base_url)
        self._path_prefix = split.path.rstrip("/")
        default_port = 443 if split.scheme == "https" else 80
        host = split.hostname or ""
        port = split.port or default_port
        self._host_header = f"{host}:{port}"
        self._pool = _AsyncConnectionPool(split.scheme, host, port, pool_size)
        # Same deterministic-but-desynchronised jitter policy as the sync
        # client (R4): seeded per endpoint so a restarting server is not
        # re-hit by a lockstep fleet.
        self._backoff_rng = resolve_rng(stable_hash(self.base_url) & 0x7FFFFFFF)
        # The private facade loop: what turns "await a coroutine" into the
        # blocking raw-backend contract for sync callers (including this
        # constructor's schema fetch).
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="async-remote-facade", daemon=True
        )
        self._loop_thread.start()
        self._closed = False
        try:
            self._schema, self._k = schema_from_dict(
                self._fetch_schema(connect_retries, connect_backoff)
            )
        except BaseException:  # reprolint: disable=R3 — pure cleanup: the facade loop thread must not leak when construction fails
            self.close()
            raise

    # -- RawBackend contract (sync facade) -------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema advertised by the remote endpoint."""
        return self._schema

    @property
    def k(self) -> int:
        """Top-``k`` display limit advertised by the remote endpoint."""
        return self._k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Answer ``query`` with one round-trip on the facade loop."""
        return self._call(self._submit_async(query, current_deadline()))

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Per-item outcomes of one batched round-trip."""
        return self._call(self._submit_outcomes_async(list(queries), current_deadline()))

    def health(self) -> dict:
        """One ``GET /api/health`` probe through the facade loop."""
        return self._call(self._request_json("GET", API_HEALTH_PATH, None, current_deadline()))

    # -- asyncio-native API ----------------------------------------------------

    async def asubmit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Answer ``query`` from the running event loop."""
        return await self._submit_async(query, current_deadline())

    async def asubmit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Per-item outcomes of one batched round-trip, from the running loop."""
        return await self._submit_outcomes_async(list(queries), current_deadline())

    async def ahealth(self) -> dict:
        """One ``GET /api/health`` probe from the running event loop."""
        return await self._request_json("GET", API_HEALTH_PATH, None, current_deadline())

    async def aclose(self) -> None:
        """Close pooled connections (all loops); the facade loop keeps
        running until :meth:`close` — which must not be called *from* a
        coroutine, as it joins a thread."""
        self._pool.close_all()

    # -- lifecycle --------------------------------------------------------------

    @property
    def pool_statistics(self) -> dict[str, int]:
        """Connection-reuse counters (opened / reused / stale_reconnects / idle)."""
        return self._pool.statistics()

    @property
    def compression_statistics(self) -> dict[str, int]:
        """Wire-compression counters (requests_compressed / responses_decompressed)."""
        return self._compression.statistics()

    def close(self) -> None:
        """Close every pooled connection and stop the facade loop thread."""
        if self._closed:
            return
        self._closed = True
        self._pool.close_all()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=10)
        if not self._loop.is_running():
            self._loop.close()

    def __enter__(self) -> "AsyncRemoteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def _call(self, coroutine: Coroutine[object, object, _T]) -> _T:
        """Run one coroutine on the facade loop, blocking the calling thread.

        The coroutine carries its own timeouts (the per-request socket
        timeout, clipped by any deadline), so the blocking wait here is
        bounded by the same budget the sync client's socket reads are.
        """
        if self._closed:
            coroutine.close()  # never scheduled; silence the un-awaited warning
            raise ConfigurationError("AsyncRemoteBackend is closed")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result()

    async def _submit_async(
        self, query: ConjunctiveQuery, deadline: Deadline | None
    ) -> InterfaceResponse:
        encoded = encode_query(query)
        path = f"{API_SUBMIT_PATH}?{encoded}" if encoded else API_SUBMIT_PATH
        return response_from_dict(
            self._schema, await self._request_json("GET", path, None, deadline)
        )

    async def _submit_outcomes_async(
        self, queries: list[ConjunctiveQuery], deadline: Deadline | None
    ) -> list[InterfaceResponse | Exception]:
        if not queries:
            return []
        body = json.dumps(batch_request_to_dict(queries)).encode("utf-8")
        payload = await self._request_json("POST", API_SUBMIT_BATCH_PATH, body, deadline)
        outcomes = batch_response_from_dict(self._schema, payload)
        if len(outcomes) != len(queries):
            raise FormParseError(
                f"remote backend answered {len(outcomes)} items for a batch of "
                f"{len(queries)} queries"
            )
        return outcomes

    def _fetch_schema(self, connect_retries: int, connect_backoff: float) -> dict:
        """The construction-time schema fetch, optionally retried.

        Same policy as the sync client: only
        :class:`~repro.exceptions.TransientBackendError` earns a re-attempt;
        backoff sleeps happen on the constructing thread, not the loop.
        """
        for attempt in range(connect_retries + 1):
            try:
                return self._call(self._request_json("GET", API_SCHEMA_PATH, None, None))
            except TransientBackendError:
                if attempt == connect_retries:
                    raise
                delay = backoff_delay(
                    connect_backoff,
                    attempt,
                    max_backoff=MAX_CONNECT_BACKOFF,
                    rng=self._backoff_rng,
                )
                if delay > 0.0:
                    time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    async def _request_json(
        self, method: str, path: str, body: bytes | None, deadline: Deadline | None
    ) -> dict:
        """One pooled round-trip, JSON-decoded; faults raise typed errors.

        Byte-for-byte the sync client's translation: fault statuses map by
        status even when the body is foreign (a proxy's HTML 502 stays
        transient), success bodies must decode to a JSON object.
        """
        status, raw_body, retry_after = await self._request(method, path, body, deadline)
        if status >= 400:
            try:
                payload = json.loads(raw_body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = {}
            raise error_from_payload(
                status, payload if isinstance(payload, dict) else {}, retry_after
            )
        try:
            payload = json.loads(raw_body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise FormParseError(
                f"remote backend returned a malformed payload: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise FormParseError(
                f"remote backend answered with a JSON {type(payload).__name__}, "
                "expected an object"
            )
        return payload

    async def _request(
        self, method: str, path: str, body: bytes | None, deadline: Deadline | None
    ) -> tuple[int, bytes, float | None]:
        """Send one request over a pooled connection of the running loop.

        Returns ``(status, body, retry_after)``.  The stale-reconnect,
        deadline-clipping and compression behaviour all mirror
        :meth:`RemoteBackend._request` — the wire tests drive both clients
        against both servers to hold the mirror in place.
        """
        headers = {"Accept": "application/json", "Accept-Encoding": GZIP_ENCODING}
        if body is not None:
            headers["Content-Type"] = "application/json"
            body, encoding = maybe_compress(body, self.compress_threshold)
            if encoding is not None:
                headers["Content-Encoding"] = encoding
                self._compression.count_request()
        timeout = self.timeout
        if deadline is not None:
            if deadline.expired:
                raise DeadlineExceededError("remote request", remaining_ms=0)
            headers[DEADLINE_HEADER] = str(deadline.remaining_ms())
            # Never wait past the budget: the tighter of the configured
            # timeout and the remaining deadline bounds the round-trip.
            timeout = deadline.clip(self.timeout)
        target = self._path_prefix + path
        while True:
            connection = await self._pool.acquire()
            try:
                status, raw_body, will_close, retry_after = await asyncio.wait_for(
                    self._round_trip(connection, method, target, headers, body),
                    timeout=timeout,
                )
            except (asyncio.TimeoutError, TimeoutError) as error:
                # A timed-out request may already be executing server-side;
                # never transparently re-sent (matches the sync client).
                self._pool.discard(connection, stale=False)
                raise ConnectionDroppedError(
                    f"remote backend timed out after {timeout:g}s"
                ) from error
            except (OSError, EOFError, _ServerDisconnected) as error:
                stale = connection.was_idle and isinstance(error, _STALE_ERRORS)
                self._pool.discard(connection, stale=stale)
                if stale:
                    # The idle keep-alive went away under us; one transparent
                    # retry on a fresh connection tells a stale socket apart
                    # from a dead server.
                    continue
                raise ConnectionDroppedError(
                    f"remote backend dropped the connection: {type(error).__name__}: {error}"
                ) from error
            self._pool.release(connection, reusable=not will_close)
            return status, raw_body, retry_after

    async def _round_trip(
        self,
        connection: _AsyncConnection,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes | None,
    ) -> tuple[int, bytes, bool, float | None]:
        """Write one request and read one response off ``connection``.

        Returns ``(status, plain_body, will_close, retry_after)`` — the body
        already decompressed (and counted) per the negotiation this client's
        ``Accept-Encoding`` initiated.
        """
        lines = [f"{method} {target} HTTP/1.1", f"Host: {self._host_header}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        connection.writer.write(head + (body or b""))
        await connection.writer.drain()

        status_line = (await connection.reader.readline()).rstrip(b"\r\n")
        if not status_line:
            raise _ServerDisconnected("server closed the connection before responding")
        try:
            version, status_text, _ = (status_line.decode("latin-1") + " ").split(" ", 2)
            status = int(status_text)
        except ValueError:
            # The BadStatusLine analogue: nothing resembling a response came
            # back, which on a reused connection means a stale socket.
            raise _ServerDisconnected(f"malformed status line {status_line[:80]!r}") from None

        response_headers: dict[str, str] = {}
        while True:
            line = await connection.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                response_headers[name.strip().lower()] = value.strip()

        length_header = response_headers.get("content-length")
        connection_header = response_headers.get("connection", "").lower()
        will_close = "close" in connection_header or not version.startswith("HTTP/1.1")
        if length_header is not None:
            try:
                length = int(length_header)
            except ValueError:
                raise _ServerDisconnected(
                    f"unreadable Content-Length {length_header!r}"
                ) from None
            raw_body = await connection.reader.readexactly(length) if length else b""
        else:
            # No framing: the body runs to EOF and the connection is spent.
            raw_body = await connection.reader.read(-1)
            will_close = True

        response_encoding = response_headers.get("content-encoding")
        if response_encoding is not None:
            # Negotiated by our Accept-Encoding; a decode failure is a
            # malformed payload (FormParseError), same as bad JSON.
            raw_body = decompress(raw_body, response_encoding, MAX_RESPONSE_BYTES)
            if response_encoding.strip().lower() == GZIP_ENCODING:
                self._compression.count_response()
        return status, raw_body, will_close, _parse_retry_after(response_headers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AsyncRemoteBackend(base_url={self.base_url!r}, k={self._k})"


def _parse_retry_after(response_headers: dict[str, str]) -> float | None:
    """The ``Retry-After`` header as seconds, or ``None`` (delay form only)."""
    raw = response_headers.get("retry-after")
    if raw is None:
        return None
    try:
        seconds = float(raw.strip())
    except ValueError:
        return None
    return seconds if seconds >= 0 else None
