"""Wire compression for the remote access paths: gzip, negotiated, thresholded.

The batch envelope (:mod:`repro.web.jsoncodec`) is highly repetitive JSON —
the same attribute names and value vocabulary repeated per item — so it
compresses extremely well (routinely 10–20×).  Above a size threshold that
trade is a clear win: a few tens of microseconds of CPU buys back most of the
bytes a large batch puts on the socket.  Below the threshold the gzip header
and CPU cost outweigh the savings, so small payloads travel as-is.

This module is the **single definition** of that policy, shared by both
wire ends — the :mod:`repro.web.httpd` server and the pooled
:class:`~repro.backends.remote.RemoteBackend` client — so both directions
negotiate identically:

* **requests** carry ``Content-Encoding: gzip`` when the client compressed
  the body (the server always understands it);
* **responses** are compressed only when the request advertised
  ``Accept-Encoding: gzip`` (the client always does) *and* the body clears
  the threshold — an off-the-shelf client that never sends the header gets
  plain JSON.

Compression is a pure transport concern: the decompressed bytes are
byte-identical to what an uncompressed exchange carries, which the wire tests
assert literally.
"""

from __future__ import annotations

import gzip
import zlib

from repro.exceptions import FormParseError

#: Bodies at or above this many bytes are gzip-compressed; smaller ones
#: travel as-is (the gzip container plus the CPU spent would cost more than
#: the bytes saved).  One conjunctive query encodes to a few hundred bytes,
#: so single submits stay uncompressed while real batch envelopes compress.
DEFAULT_COMPRESS_THRESHOLD = 1024

#: The one content-coding this repo speaks.  ``identity`` (and an absent
#: header) means "plain bytes"; anything else is a typed decode error.
GZIP_ENCODING = "gzip"

#: Compression level: 6 is zlib's default trade-off; levels above it cost
#: measurably more CPU for single-digit-percent extra savings on JSON.
_GZIP_LEVEL = 6


def accepts_gzip(accept_encoding: str | None) -> bool:
    """True when an ``Accept-Encoding`` header value admits gzip.

    Understands the comma-separated form with optional quality values
    (``gzip;q=0`` is a refusal per RFC 9110); no header means no compression
    — the safe default for clients that never heard of this module.
    """
    if accept_encoding is None:
        return False
    for token in accept_encoding.split(","):
        coding, _, params = token.strip().partition(";")
        if coding.strip().lower() not in (GZIP_ENCODING, "*"):
            continue
        q = params.strip()
        if q.lower().startswith("q="):
            try:
                return float(q[2:]) > 0.0
            except ValueError:
                return False
        return True
    return False


def maybe_compress(body: bytes, threshold: int | None) -> tuple[bytes, str | None]:
    """Compress ``body`` when it clears ``threshold``; report the encoding used.

    Returns ``(wire_bytes, content_encoding)`` where ``content_encoding`` is
    ``"gzip"`` when compression engaged and ``None`` when the body travels
    as-is — below the threshold, when ``threshold`` is ``None`` (compression
    disabled), or in the degenerate case where gzip failed to shrink the
    payload at all.  ``mtime=0`` keeps the gzip container deterministic, so
    identical payloads produce identical wire bytes run after run.
    """
    if threshold is None or len(body) < threshold:
        return body, None
    compressed = gzip.compress(body, compresslevel=_GZIP_LEVEL, mtime=0)
    if len(compressed) >= len(body):
        return body, None
    return compressed, GZIP_ENCODING


def decompress(body: bytes, content_encoding: str | None, max_bytes: int) -> bytes:
    """The plain payload bytes of a possibly-compressed wire body.

    ``content_encoding`` is the raw ``Content-Encoding`` header value (or
    ``None``).  A coding this repo does not speak, a corrupt gzip stream, and
    a payload inflating past ``max_bytes`` (a compressed body must not
    sidestep the server's body-size cap) are all the *sender's* fault and
    raise the typed :class:`~repro.exceptions.FormParseError` the server
    answers as HTTP 400.
    """
    coding = (content_encoding or "").strip().lower()
    if coding in ("", "identity"):
        return body
    if coding != GZIP_ENCODING:
        raise FormParseError(f"unsupported Content-Encoding {content_encoding!r} (only gzip)")
    decompressor = zlib.decompressobj(wbits=zlib.MAX_WBITS | 16)  # gzip container
    try:
        # max_length bounds the inflation, so a gzip bomb costs at most one
        # cap's worth of memory before it is rejected.
        plain = decompressor.decompress(body, max_bytes + 1)
    except zlib.error as error:
        raise FormParseError(f"gzip body failed to decode: {error}") from error
    if len(plain) > max_bytes:
        raise FormParseError(f"compressed body inflates past the {max_bytes}-byte limit")
    if not decompressor.eof:
        raise FormParseError("gzip body is truncated")
    if decompressor.unused_data:
        raise FormParseError("gzip body carries trailing garbage")
    return plain
