import email.utils
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpub import wire


@settings(max_examples=500, deadline=None)
@given(seconds=st.one_of(st.integers(min_value=-2 ** 31, max_value=253_402_300_799),
                         st.sampled_from([0, 951_782_400, 1_709_164_800, 4_107_542_400])))
def test_date_is_the_email_formatters(seconds):
    """The `Date` value is formatted as `email.utils` formats it, from the
    year 1901 to the year 9999, leap days included."""
    assert wire.format_http_date(seconds) == email.utils.formatdate(seconds, usegmt=True)


def test_date_is_for_now():
    before = int(time.time())
    value = wire.http_date()
    after = int(time.time())
    assert value in {email.utils.formatdate(t, usegmt=True) for t in range(before, after + 1)}


@pytest.mark.parametrize("version, connection, kept", [
    ((1, 1), None, True),
    ((1, 1), "", True),
    ((1, 1), "keep-alive", True),
    ((1, 1), "TE", True),
    ((1, 1), "closed", True),
    ((1, 1), "close", False),
    ((1, 1), "CLOSE", False),
    ((1, 1), "TE, close", False),
    ((1, 1), "close, TE", False),
    ((1, 1), "keep-alive,close", False),
    ((1, 0), None, False),
    ((1, 0), "TE", False),
    ((1, 0), "keep-alived", False),
    ((1, 0), "keep-alive", True),
    ((1, 0), "Keep-Alive, TE", True),
    ((1, 0), "TE,\tkeep-alive", True),
    ((1, 0), "keep-alive, close", False),
])
def test_keeps_alive(version, connection, kept):
    """`Connection` is read as a list of options without regard to case; a
    `close` ends any connection, and HTTP/1.0 persists only on `keep-alive`
    (RFC 9112 §9.3)."""
    block = b"" if connection is None else b"Connection: %s\r\n" % connection.encode()
    fields = wire.HeaderFields(io.BytesIO(block + b"\r\n"))
    assert wire.keeps_alive(version, fields) is kept
