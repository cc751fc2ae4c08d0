"""HTTP/1.1 as both ends of matpub speak it (RFC 9112): the limits, the
header-field reader, the request-line and status-line grammars, the `Date`
field's value and a response's body framing."""
from __future__ import annotations

import re
import time
from typing import BinaryIO, Dict, Tuple

from .catalog import parse_integer

# A booking or reset body is well under 1 KiB.
MAX_BODY_BYTES = 64 * 1024
# A request line of more bytes is a 414; a header line of more bytes, or a
# header block of more lines counting the blank one that ends it, is a 431.
MAX_LINE_BYTES = 64 * 1024
MAX_HEADER_LINES = 100

# A field line (RFC 9112 §5.1): a token, a colon, then the value, which holds
# no CR and no NUL (RFC 9110 §5.5), and CRLF or a bare LF (RFC 9112 §2.2).
# The spaces and tabs around the value are stripped after the match.
_FIELD_LINE = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([^\r\n\0]*)\r?\n")
# A request line's version: each part up to ten ASCII digits.
VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
# A status line (RFC 9112 §4); its reason phrase may be empty or missing.
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([0-9]{3})(?: [^\r\n]*)?\r?\n")
# A chunk's size line (RFC 9112 §7.1): hex digits, then any extensions.
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")


class BadHeaderBlock(ValueError):
    """A header block refused with `status`: 431 past a limit, 400 for a
    line that is not a field line or for conflicting `Content-Length`s."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class BadResponse(Exception):
    """A request that got no well-formed answer: its URL names no server
    to connect to, the answer breaks HTTP/1.1's framing, or the connection
    ended before the answer did. Retried as a connection failure is."""


class HeaderFields:
    """A message's header fields read in one pass: a request's for the
    server, a response's for `consumer.Session`. Every line up to the blank
    one is a field line; names are matched without regard to case, and the
    first field of a name wins."""

    __slots__ = ("_values",)

    def __init__(self, rfile: BinaryIO):
        """Read the block up to the blank line that ends it, or to the end
        of the stream. Raises BadHeaderBlock past the limits, for a line
        that is not a field line (a folded one, or one with whitespace
        before its colon or without a name), and for `Content-Length`
        fields of different values, which would frame the body two ways
        (RFC 9112 §6.3)."""
        values: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            line = rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise BadHeaderBlock(431, "Line too long")
            if line in (b"\r\n", b"\n", b""):
                self._values = values
                return
            text = line.decode("iso-8859-1")
            match = _FIELD_LINE.fullmatch(text)
            if match is None:
                raise BadHeaderBlock(400, f"Malformed header line ({text[:64]!r})")
            name, value = match[1].lower(), match[2].strip(" \t")
            if values.setdefault(name, value) != value and name == "content-length":
                raise BadHeaderBlock(400, "Conflicting Content-Length fields")
        raise BadHeaderBlock(431, "Too many headers")

    def get(self, name: str, default=None):
        return self._values.get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._values


def read_response(rfile: BinaryIO, method: str) -> Tuple[int, bytes, bool]:
    """(status, body, whether the connection ends) of the final answer to a
    request of `method`, framed by RFC 9112 §6.3. Interim 1xx answers are
    skipped. Raises BadResponse for an answer that breaks the framing."""
    status = 100
    while 100 <= status < 200:
        line = rfile.readline(MAX_LINE_BYTES + 1)
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise BadResponse(f"malformed status line {line[:64]!r}" if line else
                              "connection closed before an answer")
        try:
            fields = HeaderFields(rfile)
        except BadHeaderBlock as exc:
            raise BadResponse(f"malformed head: {exc}") from exc
        status = int(match[2])
    connection = fields.get("Connection", "").lower()
    closes = ("close" in connection if match[1] != b"0"
              else "keep-alive" not in connection)
    if method == "HEAD" or status in (204, 304):
        return status, b"", closes
    coding = fields.get("Transfer-Encoding")
    if coding is not None:
        if coding.rsplit(",", 1)[-1].strip(" \t").lower() == "chunked":
            return status, _read_chunked(rfile), closes
        return status, rfile.read(), True  # any other coding runs to the close
    length = fields.get("Content-Length")
    if length is None:
        return status, rfile.read(), True
    try:
        size = parse_integer(length)
    except ValueError:
        size = -1
    if size < 0:
        raise BadResponse(f"malformed Content-Length {length[:64]!r}")
    content = rfile.read(size)
    if len(content) < size:
        raise BadResponse(f"answer ended {size - len(content)} bytes short "
                          f"of its Content-Length {size}")
    return status, content, closes


def _read_chunked(rfile: BinaryIO) -> bytes:
    """A chunked body (RFC 9112 §7.1) up to the end of its trailer section,
    which is read and dropped."""
    chunks = []
    while True:
        match = _CHUNK_SIZE.fullmatch(rfile.readline(MAX_LINE_BYTES + 1))
        if match is None:
            raise BadResponse("malformed chunk size line")
        size = int(match[1], 16)
        if size == 0:
            break
        chunk = rfile.read(size)
        if len(chunk) < size or rfile.readline(3) not in (b"\r\n", b"\n"):
            raise BadResponse("chunk shorter than its size")
        chunks.append(chunk)
    try:
        HeaderFields(rfile)
    except BadHeaderBlock as exc:
        raise BadResponse(f"malformed trailer section: {exc}") from exc
    return b"".join(chunks)


_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def format_http_date(seconds: int) -> str:
    """An IMF-fixdate (RFC 9110 §5.6.7) for `seconds` since the epoch."""
    t = time.gmtime(seconds)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


_date = (0, "")  # the second last formatted and its `Date` value


def http_date() -> str:
    """The `Date` field's value for now, formatted once per second."""
    global _date
    now = int(time.time())
    second, value = _date
    if second != now:
        value = format_http_date(now)
        _date = now, value
    return value
