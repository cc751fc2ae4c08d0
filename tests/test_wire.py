import email.utils
import time

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
