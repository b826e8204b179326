"""Wire compression: negotiated gzip between client and server, byte-identical.

The acceptance contract of :mod:`repro.web.compress`, unit-level and then
over real loopback sockets:

* the negotiation helpers honour ``Accept-Encoding`` quality values and the
  size threshold, and reject corrupt/bomb/truncated gzip with the typed
  :class:`~repro.exceptions.FormParseError`;
* batch envelopes large enough to clear the threshold travel compressed in
  both directions — and decode to exactly the bytes an uncompressed exchange
  carries — while small bodies skip compression entirely (asserted via the
  behavioural counters on both client and server, not by guessing sizes);
* a malformed gzip request body is the sender's fault: HTTP 400.
"""

import gzip
import json
import urllib.error
import urllib.request

import pytest

from repro.backends import RemoteBackend, engine_stack
from repro.database.interface import CountMode
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.exceptions import FormParseError
from repro.web.compress import accepts_gzip, decompress, maybe_compress
from repro.web.httpd import HiddenDatabaseHTTPServer


class TestNegotiationHelpers:
    @pytest.mark.parametrize(
        "header, admitted",
        [
            (None, False),
            ("", False),
            ("identity", False),
            ("gzip", True),
            ("GZIP", True),
            ("br, gzip", True),
            ("*", True),
            ("gzip;q=0", False),
            ("gzip;q=0.5", True),
            ("gzip; q=1.0", True),
            ("gzip;q=nonsense", False),
            ("br;q=1.0", False),
        ],
    )
    def test_accept_encoding_parsing(self, header, admitted):
        assert accepts_gzip(header) is admitted

    def test_bodies_below_the_threshold_travel_as_is(self):
        body = b"x" * 100
        assert maybe_compress(body, 1024) == (body, None)
        assert maybe_compress(body, None) == (body, None)

    def test_bodies_at_the_threshold_compress_and_round_trip(self):
        body = json.dumps({"attribute": "value"} | {str(i): "v" for i in range(200)}).encode()
        wire, encoding = maybe_compress(body, len(body))
        assert encoding == "gzip"
        assert len(wire) < len(body)
        assert decompress(wire, encoding, max_bytes=1 << 20) == body

    def test_compressed_wire_bytes_are_deterministic(self):
        # mtime=0 in the gzip container: identical payloads → identical bytes,
        # run after run, so wire-level goldens and caches stay stable.
        body = b"deterministic " * 200
        assert maybe_compress(body, 1)[0] == maybe_compress(body, 1)[0]

    def test_incompressible_bodies_fall_back_to_identity(self):
        import random

        noise = random.Random(0).randbytes(2048)
        assert maybe_compress(noise, 1024) == (noise, None)

    def test_identity_and_absent_encodings_pass_through(self):
        assert decompress(b"plain", None, max_bytes=10) == b"plain"
        assert decompress(b"plain", "identity", max_bytes=10) == b"plain"

    def test_unknown_coding_is_a_typed_error(self):
        with pytest.raises(FormParseError, match="unsupported Content-Encoding"):
            decompress(b"...", "br", max_bytes=10)

    def test_corrupt_gzip_is_a_typed_error(self):
        with pytest.raises(FormParseError, match="failed to decode"):
            decompress(b"not gzip at all", "gzip", max_bytes=1 << 20)

    def test_truncated_gzip_is_a_typed_error(self):
        whole = gzip.compress(b"payload " * 100, mtime=0)
        with pytest.raises(FormParseError, match="truncated"):
            decompress(whole[:-5], "gzip", max_bytes=1 << 20)

    def test_trailing_garbage_is_a_typed_error(self):
        whole = gzip.compress(b"payload", mtime=0)
        with pytest.raises(FormParseError, match="trailing garbage"):
            decompress(whole + b"extra", "gzip", max_bytes=1 << 20)

    def test_gzip_bomb_is_rejected_at_the_cap(self):
        bomb = gzip.compress(b"\x00" * (1 << 20), mtime=0)  # ~1 MiB from ~1 KiB
        with pytest.raises(FormParseError, match="inflates past"):
            decompress(bomb, "gzip", max_bytes=4096)


def _batch_queries(schema, count=40):
    """Enough repetitive batch items to clear the default 1024-byte threshold."""
    values = schema.attribute("make").domain.values
    return [
        ConjunctiveQuery.from_assignment(schema, {"make": values[i % len(values)]})
        for i in range(count)
    ]


@pytest.fixture()
def compressing_server(tiny_table):
    """A server configured to compress every response (threshold 1)."""
    served = engine_stack(
        tiny_table, k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    )
    with HiddenDatabaseHTTPServer(served, compress_threshold=1) as endpoint:
        yield endpoint


class TestWireCompression:
    def test_batch_round_trips_compressed_both_directions(
        self, compressing_server, tiny_table, tiny_schema
    ):
        oracle = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            count_mode=CountMode.EXACT, statistics=False,
        )
        queries = _batch_queries(tiny_schema)
        client = RemoteBackend(compressing_server.url, compress_threshold=1)
        try:
            assert client.submit_outcomes(queries) == [oracle.submit(q) for q in queries]
        finally:
            client.close()
        counters = client.compression_statistics
        assert counters["requests_compressed"] == 1  # the batch POST body
        assert counters["responses_decompressed"] >= 2  # schema fetch + batch
        wire = compressing_server.wire_statistics()
        assert wire["compressed_requests"] == 1
        assert wire["compressed_responses"] == counters["responses_decompressed"]

    def test_small_bodies_skip_compression(self, tiny_table, tiny_schema):
        # Default thresholds: one single-query exchange stays well below 1024
        # bytes in both directions, so neither side engages gzip.
        served = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            count_mode=CountMode.EXACT, statistics=False,
        )
        with HiddenDatabaseHTTPServer(served) as endpoint:
            client = RemoteBackend(endpoint.url)
            client.submit(ConjunctiveQuery.empty(tiny_schema))
            counters = client.compression_statistics
            client.close()
            assert counters == {
                "requests_compressed": 0,
                "responses_decompressed": 0,
            }
            wire = endpoint.wire_statistics()
            assert wire["compressed_requests"] == 0
            assert wire["compressed_responses"] == 0

    def test_compressed_and_plain_exchanges_carry_identical_payloads(
        self, compressing_server, tiny_schema
    ):
        # Compression is a pure transport concern: a client that refuses gzip
        # (no Accept-Encoding, compression disabled) gets byte-identical
        # answers from the same compressing server.
        queries = _batch_queries(tiny_schema)
        with RemoteBackend(compressing_server.url, compress_threshold=1) as gzipped:
            compressed_answers = gzipped.submit_outcomes(queries)
        plain = RemoteBackend(compressing_server.url, compress_threshold=None)
        try:
            assert plain.submit_outcomes(queries) == compressed_answers
        finally:
            plain.close()

    def test_plain_http_client_without_accept_encoding_gets_plain_json(
        self, compressing_server
    ):
        # Off-the-shelf urllib sends no Accept-Encoding: even a server that
        # compresses everything must answer it in plain JSON.
        with urllib.request.urlopen(
            compressing_server.url + "/api/schema", timeout=5
        ) as response:
            assert response.headers.get("Content-Encoding") is None
            json.loads(response.read().decode())

    def test_malformed_gzip_request_body_is_400(self, compressing_server):
        request = urllib.request.Request(
            compressing_server.url + "/api/submit_batch",
            data=b"this is not a gzip stream",
            headers={"Content-Type": "application/json", "Content-Encoding": "gzip"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=5)
        assert info.value.code == 400

    def test_unsupported_request_coding_is_400(self, compressing_server):
        request = urllib.request.Request(
            compressing_server.url + "/api/submit_batch",
            data=b"{}",
            headers={"Content-Type": "application/json", "Content-Encoding": "br"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=5)
        assert info.value.code == 400
