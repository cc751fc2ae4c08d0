import contextlib
import errno
import gc
import hashlib
import http.client
import io
import json
import os
import random
import socket
import statistics
import struct
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlencode

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import matpub.catalog
import reference_annotate as reference
from matpub import heuristics, resolver, wire
from matpub.annotate import PageNotFound
from matpub.catalog import Inventory, count_variations, enumerate_variations
from matpub.consumer import extract_annotations
from matpub.heuristics import HEURISTIC_NAMES, HeuristicPolicies
from matpub.resolver import EPOCH_HEADER, MAX_BODY_BYTES, MAX_PER_PAGE, ResolverService

from conftest import eval_hotel_n, live_server, make_catalog, oracle_search


@pytest.fixture(scope="module")
def hotel10():
    return eval_hotel_n(10)


@pytest.fixture(scope="module")
def server(hotel10):
    with live_server(hotel10) as service:
        yield service


def get(service, path, **params):
    return requests.get(service.endpoint_base + path, params=params or None, timeout=30)


def post(service, path, body):
    return requests.post(service.endpoint_base + path, json=body, timeout=30)


class TestPages:
    def test_selective_page_has_eight_annotations(self, server):
        response = get(server, "/page/selective")
        assert response.status_code == 200
        assert response.text.count('application/ld+json') == 8
        assert "X-Inventory-Epoch" in response.headers

    def test_abstraction_page_has_one(self, server):
        response = get(server, "/page/abstraction")
        assert response.text.count('application/ld+json') == 1

    def test_unknown_heuristic_404(self, server):
        assert get(server, "/page/bogus").status_code == 404

    def test_full_over_cap_is_unprocessable(self, hotel10):
        policies = HeuristicPolicies(hard_cap=100)
        with live_server(hotel10, policies) as service:
            response = get(service, "/page/full")
            assert response.status_code == 422
            body = response.json()
            assert body["count"] == count_variations(hotel10)
            assert body["cap"] == 100

    def test_paginated_page(self, server):
        response = get(server, "/page/full", page=1, per_page=10)
        assert response.status_code == 200
        assert response.text.count('application/ld+json') == 10
        assert get(server, "/page/full", page=10 ** 6, per_page=10).status_code == 404

    @pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
    def test_page_above_maxsize_is_404(self, server, heuristic, capfd):
        response = get(server, f"/page/{heuristic}", page=10 ** 20, per_page=1)
        assert response.status_code == 404
        assert "out of range" in response.json()["error"]
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("page", [2, 10 ** 20])
    @pytest.mark.parametrize("heuristic", ["full", "specialization"])
    def test_unpublishable_is_422_at_any_page(self, heuristic, page, capfd):
        """A capped full and a sold-out specialization answer 422 before any
        page can be past the end."""
        catalog = eval_hotel_n(3)
        catalog.base_availability_rate = 0.0
        with live_server(catalog, HeuristicPolicies(hard_cap=100)) as service:
            response = get(service, f"/page/{heuristic}", page=page, per_page=1)
        assert response.status_code == 422
        assert "error" in response.json()
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("path", ["/page/full", "/api/search"])
    @pytest.mark.parametrize("params, offender", [
        ({"page": 1, "per_page": 0}, "per_page"),
        ({"page": 1, "per_page": -5}, "per_page"),
        ({"page": 1, "per_page": MAX_PER_PAGE + 1}, "per_page"),
        ({"page": 1, "per_page": "ten"}, "per_page"),
        ({"page": 0, "per_page": 10}, "page"),
        ({"page": "x", "per_page": 10}, "page"),
        ({"page": 1, "per_page": "1_0"}, "per_page"),
        ({"page": 1, "per_page": "+5"}, "per_page"),
        ({"page": 1, "per_page": " 7 "}, "per_page"),
        ({"page": "\u0663", "per_page": 10}, "page"),
    ], ids=["per_page-0", "per_page-negative", "per_page-over-max", "per_page-not-integer",
            "page-0", "page-not-integer", "per_page-underscore", "per_page-plus-sign",
            "per_page-spaces", "page-arabic-indic-digit"])
    def test_bad_paging_is_400_naming_offender(self, server, path, params, offender):
        response = get(server, path, **params)
        assert response.status_code == 400
        assert response.json()["offender"] == offender

    @pytest.mark.parametrize("path", ["/page/full", "/api/search"])
    @pytest.mark.parametrize("query, offender", [
        ("type=normal&type=comfort&per_page=1", "type"),
        ("page=1&page=2", "page"),
        ("per_page=5&per_page=5", "per_page"),
    ], ids=["dimension", "page", "per_page-same-value"])
    def test_repeated_parameter_is_400_naming_it(self, server, path, query, offender):
        response = requests.get(f"{server.endpoint_base}{path}?{query}", timeout=30)
        assert response.status_code == 400
        assert response.json()["offender"] == offender

    @pytest.mark.parametrize("params, offender", [
        ({"bogus": 1}, "bogus"),
        ({"page": 1, "per_page": 10, "type": "normal"}, "type"),
        ({"per_page": 0}, "per_page"),
        ({"page": "x"}, "page"),
    ], ids=["unknown", "unknown-beside-paging", "per_page-0-alone", "page-bad-alone"])
    def test_page_query_is_checked(self, server, params, offender):
        response = get(server, "/page/full", **params)
        assert response.status_code == 400
        assert response.json()["offender"] == offender

    def test_either_paging_parameter_selects_paging(self, server):
        by_per_page = get(server, "/page/full", per_page=7)
        assert by_per_page.status_code == 200
        assert by_per_page.content == get(server, "/page/full", page=1, per_page=7).content
        by_page = get(server, "/page/full", page=2)
        assert by_page.status_code == 200
        assert by_page.content == get(server, "/page/full", page=2, per_page=50).content
        assert by_page.text.count("application/ld+json") == 50


class TestHead:
    """A HEAD gets the GET's status and headers and no body."""

    @staticmethod
    def connect(service):
        host, port = service.endpoint_base.split("//")[1].split(":")
        return http.client.HTTPConnection(host, int(port), timeout=30)

    @staticmethod
    def exchange(conn, method, path):
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()

    @pytest.mark.parametrize("path", [f"/page/{h}" for h in HEURISTIC_NAMES] + [
        "/page/full?page=2&per_page=5", "/api/search?occupancy=single&per_page=3",
        "/api/search?type=normal&type=comfort", "/page/bogus", "/nowhere",
    ])
    def test_head_matches_get(self, server, path):
        head_conn, get_conn = self.connect(server), self.connect(server)
        try:
            head_status, head_headers, head_body = self.exchange(head_conn, "HEAD", path)
            get_status, get_headers, get_body = self.exchange(get_conn, "GET", path)
        finally:
            head_conn.close()
            get_conn.close()
        assert head_body == b""
        assert head_status == get_status
        assert head_headers.keys() == get_headers.keys()
        for name in ("Content-Type", "Content-Length", "X-Inventory-Epoch"):
            assert head_headers[name] == get_headers[name]
        assert int(head_headers["Content-Length"]) == len(get_body)

    def test_get_after_head_on_one_connection(self, server):
        conn = self.connect(server)
        try:
            head = self.exchange(conn, "HEAD", "/page/selective")
            status, headers, body = self.exchange(conn, "GET", "/page/selective")
        finally:
            conn.close()
        assert status == 200
        assert len(body) == int(head[1]["Content-Length"]) == int(headers["Content-Length"])
        assert body.count(b"application/ld+json") == 8


def address(service):
    host, port = service.endpoint_base.split("//")[1].split(":")
    return host, int(port)


def reference_page(service, heuristic):
    annotated = reference.annotations(service.catalog, heuristic, service.snapshot(),
                                      service.policies, service.endpoint_base)
    return reference.page(service.catalog, annotated)


def read_until_closed(sock):
    """What the server sends until it closes the connection, or resets it for
    request bytes it left unread."""
    data = b""
    with contextlib.suppress(ConnectionResetError):
        while chunk := sock.recv(64 * 1024):
            data += chunk
    return data


class TestOneSend:
    """Each response leaves in one send, so a kept-alive connection does not
    wait for the client's delayed ACK between the headers and the body."""

    def test_no_delayed_ack_wait_on_a_kept_alive_connection(self, hotel10):
        variations = list(enumerate_variations(hotel10))
        kinds = {
            "search": lambda i: ("GET", "/api/search?" + urlencode(
                {k: str(x) for k, x in variations[i].assignments.items()}), None),
            "book": lambda i: ("POST", "/api/book",
                               json.dumps({"canonical_id": variations[i].canonical_id})),
            "page": lambda i: ("GET", "/page/abstraction", None),
            "head": lambda i: ("HEAD", "/page/type-level", None),
        }
        took = {kind: [] for kind in kinds}
        with live_server(hotel10) as service:
            conn = http.client.HTTPConnection(*address(service), timeout=30)
            try:
                for i in range(30):
                    for kind, request in kinds.items():
                        method, path, body = request(i)
                        start = time.perf_counter()
                        conn.request(method, path, body=body,
                                     headers={"Content-Type": "application/json"} if body else {})
                        response = conn.getresponse()
                        response.read()
                        took[kind].append(time.perf_counter() - start)
                        assert response.status == 200, (kind, i)
            finally:
                conn.close()
        medians = {kind: statistics.median(times) * 1000 for kind, times in took.items()}
        assert all(ms < 15 for ms in medians.values()), medians

    @staticmethod
    def responses(data, methods):
        """Split a connection's bytes into (head, body) per request, each body
        exactly Content-Length bytes, none after a HEAD; nothing may be left."""
        out = []
        for method in methods:
            end = data.index(b"\r\n\r\n") + 4
            head, data = data[:end].decode("latin-1"), data[end:]
            fields = dict(line.split(": ", 1) for line in head.split("\r\n")[1:-2])
            size = 0 if method == "HEAD" else int(fields["Content-Length"])
            out.append((head.split("\r\n")[0], fields, data[:size]))
            data = data[size:]
        assert data == b""
        return out

    def test_framing_on_one_connection(self, hotel10):
        with live_server(hotel10) as service:
            booking = json.dumps({"canonical_id": "type=imaginary|stay=99"}).encode()
            sent = [
                ("GET", b"GET /page/selective HTTP/1.1\r\nHost: x\r\n\r\n"),
                ("HEAD", b"HEAD /page/type-level HTTP/1.1\r\nHost: x\r\n\r\n"),
                ("GET", b"GET /page/full?page=2&per_page=3 HTTP/1.1\r\nHost: x\r\n\r\n"),
                ("POST", b"POST /api/book HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
                         b"Content-Type: application/json\r\n\r\n%s" % (len(booking), booking)),
                ("GET", b"GET /nowhere HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
            ]
            with socket.create_connection(address(service), timeout=30) as sock:
                for _, request in sent:
                    sock.sendall(request)
                data = read_until_closed(sock)
            expected_selective = reference_page(service, "selective")
            expected_type_level = reference_page(service, "type-level")
        answers = self.responses(data, [method for method, _ in sent])
        assert [status for status, _, _ in answers] == [
            "HTTP/1.1 200 OK", "HTTP/1.1 200 OK", "HTTP/1.1 200 OK", "HTTP/1.1 200 OK",
            "HTTP/1.1 404 Not Found"]
        assert answers[0][2] == expected_selective
        assert answers[1][2] == b""
        assert int(answers[1][1]["Content-Length"]) == len(expected_type_level)
        assert answers[2][2].count(b"application/ld+json") == 3
        assert json.loads(answers[3][2])["status"] == "unknown_offer"
        assert "error" in json.loads(answers[4][2])

    def test_chunked_post_is_411_and_closes(self, hotel10):
        """A body sent without Content-Length is refused unread with one JSON
        answer, and the connection closes: no chunk is read as a request."""
        booking = json.dumps({"canonical_id": next(enumerate_variations(hotel10)).canonical_id})
        with live_server(hotel10) as service:
            with socket.create_connection(address(service), timeout=30) as sock:
                sock.sendall(b"POST /api/book HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
                             b"Content-Type: application/json\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
                             % (len(booking), booking.encode()))
                data = read_until_closed(sock)
            epoch = service.epoch
        [(status, fields, body)] = self.responses(data, ["POST"])
        assert status == "HTTP/1.1 411 Length Required"
        assert fields["Content-Type"].startswith("application/json")
        assert "Content-Length" in json.loads(body)["error"]
        assert epoch == 0

    def test_request_line_without_version_gets_a_status_line(self, hotel10):
        """No HTTP/0.9: a request line of two words is one 400 with a status
        line and a JSON error, and the connection closes."""
        with live_server(hotel10) as service:
            with socket.create_connection(address(service), timeout=30) as sock:
                sock.sendall(b"GET /page/abstraction\r\n\r\n")
                data = read_until_closed(sock)
        [(status, fields, body)] = self.responses(data, ["GET"])
        assert status == "HTTP/1.1 400 Bad Request"
        assert fields["Connection"] == "close"
        assert list(json.loads(body)) == ["error"]


BOOKING = json.dumps({"canonical_id": next(enumerate_variations(eval_hotel_n(10))).canonical_id})
# A point search that ends the connection: answered only on a connection kept alive.
FOLLOW_UP = (b"GET /api/search?type=normal&catering=breakfast&occupancy=single"
             b"&arrival=2026-01-01&stay=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")


def exchange(service, request, follow_up):
    """The answers to `request`, sent alone or followed by FOLLOW_UP on the
    same connection, read until the server closes it: (status, fields with
    lower-case names, body) each, a 100 Continue and the answer to a HEAD
    with no body."""
    with socket.create_connection(address(service), timeout=30) as sock:
        sock.sendall(request + (FOLLOW_UP if follow_up else b""))
        data = read_until_closed(sock)
    answers = []
    head = request.startswith(b"HEAD ")
    while data:
        end = data.index(b"\r\n\r\n") + 4
        lines = data[:end].decode("latin-1").split("\r\n")[:-2]
        fields = {name.lower(): value for name, value in
                  (line.split(": ", 1) for line in lines[1:])}
        status = int(lines[0].split()[1])
        size = 0 if status == 100 or head else int(fields["content-length"])
        head = head and status == 100
        answers.append((status, fields, data[end:end + size]))
        data = data[end + size:]
    return answers


def head_block(*lines):
    return b"".join(line + b"\r\n" for line in lines) + b"\r\n"


def book_request(*fields, body=BOOKING.encode()):
    return head_block(b"POST /api/book HTTP/1.1", b"Host: x",
                      b"Content-Type: application/json", *fields) + body


# A whole booking request, sent as the body of another: a server that lost
# the outer request's Content-Length would read it as a second request.
SMUGGLED = book_request(b"Content-Length: %d" % len(BOOKING))


class TestRequestLayer:
    """The request line and header block are read by RFC 9112's grammar.
    Every refusal is JSON with the epoch, and every answer after which the
    server closes the connection says so."""

    # (request, whether the server closes after it, the statuses it answers)
    CASES = {
        "lower-case-content-length": (
            book_request(b"content-length: %d" % len(BOOKING)), False, [200]),
        "lower-case-chunked": (
            book_request(b"transfer-encoding: chunked",
                         body=b"%x\r\n%s\r\n0\r\n\r\n" % (len(BOOKING), BOOKING.encode())),
            True, [411]),
        "120-fields": (head_block(b"GET /api/search HTTP/1.1", b"Host: x",
                                  *[b"X-Field-%d: %d" % (i, i) for i in range(120)]),
                       True, [431]),
        "70000-byte-field": (head_block(b"GET /api/search HTTP/1.1", b"Host: x",
                                        b"X-Long: " + b"a" * 70_000),
                             True, [431]),
        "70000-byte-request-line": (head_block(b"GET /api/search?" + b"a" * 70_000 + b" HTTP/1.1",
                                               b"Host: x"),
                                    True, [414]),
        "put": (head_block(b"PUT /api/book HTTP/1.1", b"Host: x"), True, [501]),
        "connection-close": (head_block(b"GET /page/abstraction HTTP/1.1", b"Host: x",
                                        b"Connection: close"),
                             True, [200]),
        "http-1.0": (head_block(b"GET /page/abstraction HTTP/1.0"), True, [200]),
        # `Connection` is a list of options (RFC 9112 §9.3, §9.6).
        "connection-te-close": (head_block(b"GET /api/search?per_page=1 HTTP/1.1", b"Host: x",
                                           b"Connection: TE, close"),
                                True, [200]),
        "http-1.0-keep-alive-te": (head_block(b"GET /api/search?per_page=1 HTTP/1.0",
                                              b"Connection: Keep-Alive, TE"),
                                   False, [200]),
        # HTTP/1.1 requires Host (RFC 9112 §3.2); the booking is not read.
        "no-host": (head_block(b"POST /api/book HTTP/1.1", b"Content-Type: application/json",
                               b"Content-Length: %d" % len(BOOKING)) + BOOKING.encode(),
                    True, [400]),
        "expect-100-continue": (book_request(b"Expect: 100-continue",
                                             b"Content-Length: %d" % len(BOOKING)),
                                False, [100, 200]),
        # A body that will not be read is not invited (RFC 9110 §10.1.1).
        "expect-100-continue-over-cap": (book_request(b"Expect: 100-continue",
                                                      b"Content-Length: 999999", body=b""),
                                         True, [413]),
        # Nested too deep for the JSON decoder: a 400 like any malformed body.
        "deeply-nested-json-body": (book_request(b"Content-Length: 65536", body=b"[" * 65536),
                                    False, [400]),
        "content-length-plus-sign": (book_request(b"Content-Length: +%d" % len(BOOKING)),
                                     True, [400]),
        # Content-Length fields of different values frame the body two ways
        # (RFC 9112 §6.3); repeats of one value do not.
        "conflicting-content-lengths": (
            book_request(b"Content-Length: %d" % len(BOOKING), b"Content-Length: 5"),
            True, [400]),
        "identical-content-lengths": (
            book_request(b"Content-Length: %d" % len(BOOKING),
                         b"Content-Length: %d" % len(BOOKING)),
            False, [200]),
        "bad-version": (head_block(b"GET /api/search HTTP/x", b"Host: x"), True, [400]),
        "three-part-version": (head_block(b"GET /api/search HTTP/1.1.1", b"Host: x"),
                               True, [400]),
        "non-ascii-digit-in-version": (head_block(b"GET /api/search HTTP/\xb2.1", b"Host: x"),
                                       True, [400]),
        "version-2.0": (head_block(b"GET /api/search HTTP/2.0", b"Host: x"), True, [505]),
        "version-12.3": (head_block(b"GET /api/search HTTP/12.3", b"Host: x"), True, [505]),
        "four-words": (head_block(b"GET /api/search extra HTTP/1.1", b"Host: x"), True, [400]),
        # A line that is not a field line is refused, and nothing after it
        # is read: neither the body nor a request smuggled in it.
        "space-before-colon": (
            book_request(b"Content-Length : %d" % len(SMUGGLED), body=SMUGGLED), True, [400]),
        "nameless-line": (
            book_request(b": x", b"Content-Length: %d" % len(SMUGGLED), body=SMUGGLED),
            True, [400]),
        "line-without-colon": (
            book_request(b"no colon", b"Content-Length: %d" % len(SMUGGLED), body=SMUGGLED),
            True, [400]),
        "folded-line": (book_request(b"X-Folded: a", b" b", b"Content-Length: %d" % len(BOOKING)),
                        True, [400]),
        "from-line": (book_request(b"From x", b"Content-Length: %d" % len(BOOKING)), True, [400]),
        "whitespace-before-first-field": (
            head_block(b"POST /api/book HTTP/1.1", b" Host: x", b"Content-Type: application/json",
                       b"Content-Length: %d" % len(BOOKING)) + BOOKING.encode(),
            True, [400]),
        "leading-crlf": (b"\r\n" + head_block(b"GET /api/search?per_page=1 HTTP/1.1", b"Host: x"),
                         False, [200]),
        "leading-crlf-then-70000-byte-request-line": (
            b"\r\n" + head_block(b"GET /api/search?" + b"a" * 70_000 + b" HTTP/1.1", b"Host: x"),
            True, [414]),
        # Every method's body is framed by Content-Length: a GET's or HEAD's
        # is read and dropped, never served as the next request.
        "get-body-holding-a-booking": (
            head_block(b"GET /api/search?per_page=1 HTTP/1.1", b"Host: x",
                       b"Content-Length: %d" % len(SMUGGLED)) + SMUGGLED,
            False, [200]),
        "head-body-holding-a-booking": (
            head_block(b"HEAD /api/search?per_page=1 HTTP/1.1", b"Host: x",
                       b"Content-Length: %d" % len(SMUGGLED)) + SMUGGLED,
            False, [200]),
        "chunked-get": (
            head_block(b"GET /api/search?per_page=1 HTTP/1.1", b"Host: x",
                       b"Transfer-Encoding: chunked")
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(SMUGGLED), SMUGGLED),
            True, [411]),
        "get-body-over-cap": (
            head_block(b"GET /api/search?per_page=1 HTTP/1.1", b"Host: x",
                       b"Content-Length: 999999"),
            True, [413]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_request_layer(self, hotel10, case):
        request, closes, statuses = self.CASES[case]
        with live_server(hotel10) as service:
            # A booking beforehand, so the epoch a refusal reports is not 0.
            other = list(enumerate_variations(hotel10))[-1].canonical_id
            assert other != json.loads(BOOKING)["canonical_id"]
            assert service.book(other).status == "confirmed"
            answers = exchange(service, request, follow_up=not closes)
            epoch = service.epoch
        assert [status for status, _, _ in answers] == statuses + ([] if closes else [200])
        # The booking was read whole, or not at all; one in another request's
        # body is never made.
        assert epoch == (2 if request.startswith(b"POST") and statuses[-1] == 200 else 1)
        status, fields, body = answers[-1]
        if status >= 400:
            assert fields["content-type"] == "application/json; charset=utf-8"
            assert fields[EPOCH_HEADER.lower()] == "1"
            assert list(json.loads(body)) == ["error"]
        # Only the last answer, the one before the server closes, says so;
        # one to an HTTP/1.0 request kept alive says that (RFC 9112 §9.3).
        connections = [None] * (len(answers) - 1) + ["close"]
        if case == "http-1.0-keep-alive-te":
            connections[0] = "keep-alive"
        assert [fields.get("connection") for _, fields, _ in answers] == connections

    @pytest.mark.parametrize("request_line", [b"GET", b"POST /api/book"], ids=["GET", "POST"])
    def test_request_line_without_version_is_400(self, hotel10, request_line):
        with live_server(hotel10) as service:
            [(status, fields, body)] = exchange(service, head_block(request_line, b"Host: x"),
                                                follow_up=False)
        assert (status, fields["connection"]) == (400, "close")
        assert list(json.loads(body)) == ["error"]

    def test_header_block_too_large_by_lines_counts_the_blank_line(self, hotel10):
        """As in `http.client`: 99 fields pass, 100 are one line too many."""
        with live_server(hotel10) as service:
            statuses = [exchange(service, head_block(b"GET /api/search?per_page=1 HTTP/1.1",
                                                     b"Host: x",
                                                     *[b"X-%d: 1" % i for i in range(n - 2)],
                                                     b"Connection: close"),
                                 follow_up=False)[-1][0]
                        for n in (99, 100)]
        assert statuses == [200, 431]


FIELD_NAMES = [b"Connection", b"connection", b"CONTENT-LENGTH", b"Content-Length",
               b"Expect", b"Transfer-Encoding", b"X-!#$%&'*+.^_`|~09"]
field_value = st.text(alphabet=" \t:a5\x01\x0c\x85\xe9", max_size=6).map(
    lambda text: text.encode("latin-1"))
field_line = st.builds(lambda name, colon, value: name + colon + value,
                       st.sampled_from(FIELD_NAMES), st.sampled_from([b":", b": ", b":\t"]),
                       field_value)
malformed_line = st.one_of(
    st.builds(bytes.__add__, st.sampled_from([b" ", b"\t"]), field_value),  # a folded line
    st.sampled_from([b"From x", b": no name", b"no colon", b"Bad Name: x", b"\x85X: x",
                     b"X-\xe9: x", b"Name : x", b"Name\t: x", b"X: a\rb", b"X: a\0b", b"X: a\r"]),
)
field_lines = st.lists(st.tuples(field_line, st.sampled_from([b"\r\n", b"\n"])), max_size=8)


def header_block(lines):
    return b"".join(line + end for line, end in lines) + b"\r\n"


@settings(max_examples=400, deadline=None)
@given(lines=field_lines)
def test_header_fields_read_as_the_email_parser_reads_them(lines):
    """`HeaderFields` against `http.client.parse_headers`, the reader it
    replaced, on blocks of field lines only. The oracle keeps the spaces and
    tabs after a value, which are not part of it (RFC 9112 §5.1). Unlike the
    oracle, `HeaderFields` refuses `Content-Length` fields of different
    values (§6.3)."""
    block = header_block(lines)
    message = http.client.parse_headers(io.BytesIO(block))
    lengths = {value.rstrip(" \t") for value in message.get_all("Content-Length", [])}
    if len(lengths) > 1:
        with pytest.raises(wire.BadHeaderBlock) as refusal:
            wire.HeaderFields(io.BytesIO(block))
        assert refusal.value.status == 400
        return
    fields = wire.HeaderFields(io.BytesIO(block))
    for name in {name.decode("latin-1") for name in FIELD_NAMES}:
        value = message.get(name)
        assert (fields.get(name), name in fields) == \
            (value and value.rstrip(" \t"), name in message)


@settings(max_examples=200, deadline=None)
@given(before=field_lines, line=malformed_line, after=field_lines)
def test_a_malformed_header_line_is_a_400(before, line, after):
    """Any line in the block that is not a field line refuses the block,
    wherever it stands."""
    with pytest.raises(wire.BadHeaderBlock) as refusal:
        wire.HeaderFields(io.BytesIO(header_block(before + [(line, b"\r\n")] + after)))
    assert refusal.value.status == 400


def test_bind_failure_raises_os_error(hotel10):
    """A failed bind closes the server's socket from within the constructor;
    the caller gets the bind's `OSError`."""
    with live_server(hotel10) as service:
        host, port = address(service)
        with pytest.raises(OSError):
            resolver.make_server(ResolverService(hotel10), host=host, port=port)


def test_request_log_lines(hotel10):
    """The lines a server passes to its `log_fn`: one per answer, and one
    more before a refusal made ahead of the route for the request's line,
    header block or method."""
    lines = []
    service = ResolverService(hotel10)
    server = resolver.make_server(service, log_fn=lines.append)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        for request in [
                head_block(b"GET /api/search?per_page=1 HTTP/1.1", b"Host: x",
                           b"Connection: close"),
                head_block(b"GET /nope HTTP/1.1", b"Host: x", b"Connection: close"),
                head_block(b"GET / HTTP/x", b"Host: x"),
                head_block(b"PUT / HTTP/1.1", b"Host: x"),
                head_block(b"POST /api/book HTTP/1.1", b"Host: x", b"Content-Length: 999999"),
                head_block(b"POST /api/book HTTP/1.1", b"Host: x", b"Transfer-Encoding: chunked"),
                head_block(b"POST /api/book HTTP/1.1", b"Host: x", b"Content-Length: +5"),
                head_block(b"GET /api/search HTTP/1.1", b"Host: x",
                           *[b"X-%d: 1" % i for i in range(120)]),
                head_block(b"GET /api/search?per_page=0 HTTP/1.1", b"Host: x",
                           b"Connection: close"),
                head_block(b"GET /page/full?page=9999 HTTP/1.1", b"Host: x",
                           b"Connection: close"),
                head_block(b"POST /api/book HTTP/1.1", b"Host: x", b"Content-Length: 3",
                           b"Connection: close") + b"[1]",
                head_block(b"HEAD /api/search HTTP/1.1")]:
            exchange(service, request, follow_up=False)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert lines == [
        '"GET /api/search?per_page=1 HTTP/1.1" 200 -',
        '"GET /nope HTTP/1.1" 404 -',
        "code 400, message Bad request version ('HTTP/x')",
        '"GET / HTTP/x" 400 -',
        "code 501, message Unsupported method ('PUT')",
        '"PUT / HTTP/1.1" 501 -',
        '"POST /api/book HTTP/1.1" 413 -',
        '"POST /api/book HTTP/1.1" 411 -',
        '"POST /api/book HTTP/1.1" 400 -',
        "code 431, message Too many headers",
        '"GET /api/search HTTP/1.1" 431 -',
        '"GET /api/search?per_page=0 HTTP/1.1" 400 -',
        '"GET /page/full?page=9999 HTTP/1.1" 404 -',
        '"POST /api/book HTTP/1.1" 400 -',
        "code 400, message An HTTP/1.1 request needs a Host field",
        '"HEAD /api/search HTTP/1.1" 400 -',
    ]


class TestHandlerThreads:
    """A handler thread that has finished its connection serves the next one,
    and a closed server ends every handler thread."""

    @staticmethod
    @contextlib.contextmanager
    def serving(catalog):
        """(service, the handler threads started while serving); the server
        is shut down and closed on exit."""
        with live_server(catalog) as service:
            before = set(threading.enumerate())
            handlers = set()
            try:
                yield service, handlers
            finally:
                handlers.update(set(threading.enumerate()) - before)

    @staticmethod
    def all_end(threads, timeout=5.0):
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in threads)

    def test_sequential_connections_reuse_threads(self, hotel10):
        with self.serving(hotel10) as (service, handlers):
            before = threading.active_count()
            for _ in range(50):
                [(status, _, _)] = exchange(service, FOLLOW_UP, follow_up=False)
                assert status == 200
            assert threading.active_count() - before <= 2
        assert self.all_end(handlers)

    def test_thread_busy_at_close_ends_with_its_connection(self, hotel10):
        with self.serving(hotel10) as (service, handlers):
            conn = http.client.HTTPConnection(*address(service), timeout=30)
            conn.request("GET", "/api/search?stay=1&per_page=1")
            response = conn.getresponse()
            assert response.status == 200 and response.read()
        conn.close()  # the connection outlives the server's close
        assert self.all_end(handlers)

    def test_concurrent_connections_are_all_served(self, hotel10):
        """More clients than cores open new and kept-alive connections at
        once: a connection handed to no thread would time its client out."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        keep_alive = FOLLOW_UP.replace(b"Connection: close\r\n", b"")
        try:
            with self.serving(hotel10) as (service, handlers):
                def client(i):
                    return [status for _ in range(15) for status, _, _ in
                            exchange(service, keep_alive if i % 2 else FOLLOW_UP,
                                     follow_up=bool(i % 2))]

                with ThreadPoolExecutor(max_workers=6) as pool:
                    answered = [pool.submit(client, i) for i in range(6)]
                    statuses = [status for future in answered
                                for status in future.result(timeout=60)]
        finally:
            sys.setswitchinterval(switch)
        assert statuses == [200] * (3 * 15 + 3 * 15 * 2)
        assert self.all_end(handlers)


class TestBulkPageCache:
    """A bulk page is built once per inventory change (in process)."""

    @pytest.fixture
    def service(self):
        return ResolverService(eval_hotel_n(3))  # 720 variations, all available

    @pytest.fixture
    def builds(self, monkeypatch):
        """The heuristic of every `publication_items` call, made through the
        module attribute that `annotation_stream` looks up when it runs."""
        calls = []
        publication_items = heuristics.publication_items

        def counting(catalog, heuristic, *args, **kwargs):
            calls.append(heuristic)
            return publication_items(catalog, heuristic, *args, **kwargs)

        monkeypatch.setattr(heuristics, "publication_items", counting)
        return calls

    @staticmethod
    def fresh_full_page(service):
        """The full page built by the reference renderer from the current
        inventory, independent of the service's own pages."""
        annotated = reference.annotations(service.catalog, "full", service.snapshot(),
                                          service.policies, service.endpoint_base)
        return reference.page(service.catalog, annotated)

    @staticmethod
    def book_all(service, variations):
        for v in variations:
            assert service.book(v.canonical_id).status == "confirmed"

    @staticmethod
    def out_of_stock(body):
        parsed, warnings = extract_annotations(body)
        assert warnings == []
        return [a.fixed for a in parsed if not a.available]

    @pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
    def test_unchanged_inventory_is_not_rebuilt(self, service, builds, heuristic):
        first = service.page_html(heuristic)
        assert service.page_html(heuristic) == first
        assert builds == [heuristic]

    def test_paginated_pages_are_built_per_request(self, service, builds):
        first = service.page_html("full", page=2, per_page=10)
        assert service.page_html("full", page=2, per_page=10) == first
        assert builds == ["full", "full"]

    def test_paginated_page_builds_only_its_items(self, service, monkeypatch):
        """The last page of `full` builds its own 10 items and checks their
        availability only, not the 710 before them."""
        built = {"availability_score": 0}

        def count_yields(name):
            original, built[name] = getattr(heuristics, name), 0

            def counting(*args, **kwargs):
                for value in original(*args, **kwargs):
                    built[name] += 1
                    yield value
            monkeypatch.setattr(heuristics, name, counting)

        score = matpub.catalog.availability_score

        def counting_score(*args):
            built["availability_score"] += 1
            return score(*args)

        count_yields("publication_items")
        monkeypatch.setattr(matpub.catalog, "availability_score", counting_score)
        body, _ = service.page_html("full", page=72, per_page=10)
        assert built == {"publication_items": 10, "availability_score": 10}
        annotated = reference.annotations(service.catalog, "full", service.snapshot(),
                                          service.policies, service.endpoint_base)
        assert body == reference.page(service.catalog, annotated, 72, 10)

    def test_booking_rebuilds_the_full_page(self, service):
        assert self.out_of_stock(service.page_html("full")[0]) == []
        booked = list(enumerate_variations(service.catalog))[100]
        self.book_all(service, [booked])
        body, epoch = service.page_html("full")
        assert epoch == 1
        assert self.out_of_stock(body) == [booked.assignments]
        assert body == self.fresh_full_page(service)

    def test_same_epoch_after_reset_is_another_inventory(self, service):
        variations = list(enumerate_variations(service.catalog))
        first, second = variations[:3], variations[-3:]
        self.book_all(service, first)
        body, epoch = service.page_html("full")
        assert (self.out_of_stock(body), epoch) == ([v.assignments for v in first], 3)
        service.reset()
        self.book_all(service, second)
        body, epoch = service.page_html("full")
        assert (self.out_of_stock(body), epoch) == ([v.assignments for v in second], 3)
        assert body == self.fresh_full_page(service)

    def test_booking_during_a_build_is_not_lost(self, service, monkeypatch):
        """A build that a booking overtakes is served to its own request but
        not kept: the next request builds again and shows the booking."""
        started, release = threading.Event(), threading.Event()
        builds = []
        publication_items = heuristics.publication_items

        def blocking(*args, **kwargs):
            items = publication_items(*args, **kwargs)
            builds.append(args[1])
            if len(builds) == 1:  # hold the first build after its first item
                yield next(items)
                started.set()
                assert release.wait(timeout=30)
            yield from items

        monkeypatch.setattr(heuristics, "publication_items", blocking)
        results = []
        builder = threading.Thread(target=lambda: results.append(service.page_html("full")))
        builder.start()
        try:
            assert started.wait(timeout=30)
            booked = list(enumerate_variations(service.catalog))[-1]
            self.book_all(service, [booked])
        finally:
            release.set()
            builder.join(timeout=30)
        assert not builder.is_alive()
        (stale, stale_epoch), = results
        assert (self.out_of_stock(stale), stale_epoch) == ([], 0)
        body, epoch = service.page_html("full")
        assert (self.out_of_stock(body), epoch) == ([booked.assignments], 1)
        assert body == self.fresh_full_page(service)
        assert builds == ["full", "full"]


class TestPagedFixedSets:
    """A paginated abstraction, type-level or selective page builds, and so
    checks the availability of, only the fixed sets on it (eval_hotel)."""

    @staticmethod
    def scans(monkeypatch):
        calls = []
        any_available = heuristics.any_available

        def counting(catalog, inventory, fixed):
            calls.append(fixed)
            return any_available(catalog, inventory, fixed)

        monkeypatch.setattr(heuristics, "any_available", counting)
        return calls

    @pytest.mark.parametrize("heuristic, page", [
        ("type-level", 1), ("type-level", 200), ("type-level", 401), ("selective", 1)])
    def test_one_item_page_scans_once(self, eval_hotel, monkeypatch, heuristic, page):
        service = ResolverService(eval_hotel)
        calls = self.scans(monkeypatch)
        body, _ = service.page_html(heuristic, page, 1)
        assert len(calls) == 1
        annotated = reference.annotations(eval_hotel, heuristic, service.snapshot(),
                                          service.policies, service.endpoint_base)
        assert body == reference.page(eval_hotel, annotated, page, 1)

    def test_page_past_the_end_scans_nothing(self, eval_hotel, monkeypatch):
        service = ResolverService(eval_hotel)
        calls = self.scans(monkeypatch)
        with pytest.raises(PageNotFound):
            service.page_html("abstraction", 2, 1)
        assert calls == []

    def test_sold_out_specialization_still_chooses_first(self):
        catalog = eval_hotel_n(365)
        catalog.base_availability_rate = 0.0
        with pytest.raises(heuristics.NoAvailableVariation):
            ResolverService(catalog).page_html("specialization", 2, 1)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def collected():
    """Collect the garbage of earlier tests, so that no file of theirs
    closes while this test counts its own. The servers' threads then close
    their ends of the client connections just collected."""
    gc.collect()
    count = -1
    while count != open_fds():
        count = open_fds()
        time.sleep(0.05)


def settles_at(expected, timeout=10.0):
    """Whether the process's open file count returns to `expected` in time;
    a server thread closes its connection just after the client sees EOF."""
    deadline = time.monotonic() + timeout
    while open_fds() != expected:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
class TestStoredPages:
    """A bulk page is written once to an unlinked file and sent from it: the
    server holds no page body, and the file lives exactly as long as the
    stored page or a request still sending it."""

    @pytest.fixture(scope="class")
    def hotel40(self):
        return eval_hotel_n(40)  # 9,600 variations: a full page of about 12 MB

    @staticmethod
    def reference_full_page(service):
        annotated = reference.annotations(service.catalog, "full", service.snapshot(),
                                          service.policies, service.endpoint_base)
        return reference.page(service.catalog, annotated)

    @staticmethod
    def connect(service, rcvbuf=None):
        host, port = service.endpoint_base.split("//")[1].split(":")
        sock = socket.socket()
        if rcvbuf:  # set before connecting, so the window stays small
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.connect((host, int(port)))
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        conn.sock = sock
        return conn

    @classmethod
    def fetch(cls, service, path):
        """(status, headers, body) on a connection of its own, closed after."""
        conn = cls.connect(service)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            conn.close()

    def test_cold_get_holds_no_page_in_memory(self, hotel40):
        with live_server(hotel40) as service:
            expected = self.reference_full_page(service)
            size, digest = len(expected), hashlib.sha256(expected).hexdigest()
            del expected
            conn = self.connect(service)
            tracemalloc.start()
            try:
                conn.request("GET", "/page/full")
                response = conn.getresponse()
                received, sha = 0, hashlib.sha256()
                while chunk := response.read(64 * 1024):
                    received += len(chunk)
                    sha.update(chunk)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                conn.close()
        assert response.status == 200
        assert (received, sha.hexdigest()) == (size, digest)
        assert size > 4 * 10 ** 6
        assert peak < size / 4, f"traced peak {peak} B for a {size} B page"

    def test_get_in_flight_across_a_booking(self, hotel40, collected):
        """The body is larger than both socket buffers, so the server is still
        sending it when the booking drops the stored page."""
        with live_server(hotel40) as service:
            before = self.reference_full_page(service)
            start = open_fds()
            conn = self.connect(service, rcvbuf=64 * 1024)
            try:
                conn.request("GET", "/page/full", headers={"Connection": "close"})
                response = conn.getresponse()
                first = response.read(64 * 1024)
                booked = list(enumerate_variations(service.catalog))[5]
                assert service.book(booked.canonical_id).status == "confirmed"
                body = first + response.read()
            finally:
                conn.close()
            assert len(before) > 8 * 10 ** 6
            assert response.getheader(EPOCH_HEADER) == "0"
            assert body == before
            assert settles_at(start)
            status, headers, after = self.fetch(service, "/page/full")
            assert (status, headers[EPOCH_HEADER]) == (200, "1")
            assert after == self.reference_full_page(service) != before
            assert settles_at(start + 1)  # the stored page of epoch 1
            service.reset()
            assert settles_at(start)

    def test_concurrent_gets_across_bookings(self, collected):
        """More clients than cores share the stored files while bookings
        replace them: every body is the reference page of its epoch, and no
        file outlives the run."""
        catalog = eval_hotel_n(3)
        booked = list(enumerate_variations(catalog))[:6]
        seen = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with live_server(catalog) as service:
                start = open_fds()

                def client():
                    for _ in range(4):
                        status, headers, body = self.fetch(service, "/page/full")
                        seen.append((status, int(headers[EPOCH_HEADER]),
                                     hashlib.sha256(body).hexdigest()))

                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [pool.submit(client) for _ in range(6)]
                    for variation in booked:
                        time.sleep(0.02)
                        assert service.book(variation.canonical_id).status == "confirmed"
                    for future in futures:
                        future.result(timeout=60)
                service.reset()
                assert settles_at(start)
        finally:
            sys.setswitchinterval(switch)
        inventory, expected = Inventory.initial(catalog), {}
        for epoch in range(len(booked) + 1):
            annotated = reference.annotations(catalog, "full", inventory, None, "")
            expected[epoch] = hashlib.sha256(reference.page(catalog, annotated)).hexdigest()
            if epoch < len(booked):
                inventory = inventory.book(booked[epoch].canonical_id)
        assert len(seen) == 24
        assert all(status == 200 and digest == expected[epoch]
                   for status, epoch, digest in seen)

    def test_dropped_server_closes_its_files_at_once(self, collected):
        """No reference cycle holds a server's service: once the server is
        shut down and dropped, its stored page closes without a collection."""
        gc.disable()
        try:
            start = open_fds()
            service = ResolverService(eval_hotel_n(3))
            server = resolver.make_server(service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            status, _, body = self.fetch(service, "/page/full")
            assert status == 200 and body == self.reference_full_page(service)
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            assert not thread.is_alive()
            del service, server, thread
            assert settles_at(start)
        finally:
            gc.enable()

    def test_client_hanging_up_mid_body_ends_only_its_request(self, hotel40, collected):
        """The client resets its connection while the server is still sending
        the page: the server reports no error and serves the next client."""
        service = ResolverService(hotel40)
        server = resolver.make_server(service)
        errors = []
        server.handle_error = lambda request, client_address: errors.append(sys.exc_info())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            start = open_fds()
            conn = self.connect(service, rcvbuf=64 * 1024)
            conn.request("GET", "/page/full")
            response = conn.getresponse()
            assert response.status == 200
            assert len(response.read(64 * 1024)) == 64 * 1024
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.sock.close()  # a reset, with most of the body unsent
            response.close()
            assert settles_at(start + 1)  # the stored page stays
            status, _, body = self.fetch(service, "/page/full")
            assert status == 200 and body == self.reference_full_page(service)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert errors == []

    def test_dropped_pages_close_their_files(self):
        """A booking drops the stored page and dropping the service drops the
        next one; each file is closed, not left to its deallocator's warning."""
        catalog = eval_hotel_n(3)
        booked = next(enumerate_variations(catalog)).canonical_id
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            service = ResolverService(catalog)
            first, _ = service.page_html("full")
            assert service.book(booked).status == "confirmed"
            assert service.page_html("full")[0] != first
            del service
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_unpublishable_build_leaves_no_file(self, collected):
        catalog = eval_hotel_n(3)
        catalog.base_availability_rate = 0.0
        with live_server(catalog, HeuristicPolicies(hard_cap=100)) as service:
            start = open_fds()
            for heuristic in ("full", "specialization"):
                assert self.fetch(service, f"/page/{heuristic}")[0] == 422
            assert settles_at(start)

    @pytest.mark.parametrize("fails_on", ["create", "write"])
    def test_failed_store_is_503_and_not_kept(self, monkeypatch, fails_on, collected):
        no_space = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real, opened = resolver.TemporaryFile, []

        class FullDisk:
            def __init__(self):
                self.file = real()
                opened.append(self.file)

            def write(self, data):
                raise no_space

            def close(self):
                self.file.close()

        def create():
            raise no_space

        with live_server(eval_hotel_n(3)) as service:
            start = open_fds()
            monkeypatch.setattr(resolver, "TemporaryFile",
                                create if fails_on == "create" else FullDisk)
            status, headers, body = self.fetch(service, "/page/full")
            assert (status, headers[EPOCH_HEADER]) == (503, "0")
            assert "error" in json.loads(body)
            assert all(file.closed for file in opened)
            assert settles_at(start)
            monkeypatch.undo()
            status, _, body = self.fetch(service, "/page/full")
            assert status == 200
            assert body == self.reference_full_page(service)


class TestSearch:
    def test_point_query_returns_one(self, server, hotel10):
        v = next(enumerate_variations(hotel10))
        response = get(server, "/api/search", **{k: str(x) for k, x in v.assignments.items()})
        doc = response.json()
        assert doc["total_count"] == 1
        assert doc["offers"][0]["canonical_id"] == v.canonical_id
        assert doc["offers"][0]["price"] == "100.00"

    def test_partial_constraints_count(self, server):
        doc = get(server, "/api/search", occupancy="double",
                  catering="half-board").json()
        assert doc["total_count"] == 2 * 10 * 30  # type * arrival * stay free

    def test_unknown_dimension_is_bad_request(self, server):
        response = get(server, "/api/search", nonsense="x")
        assert response.status_code == 400
        assert response.json()["offender"] == "nonsense"

    def test_unknown_value_is_bad_request(self, server):
        response = get(server, "/api/search", occupancy="triple")
        assert response.status_code == 400

    def test_page_beyond_range_is_empty_with_total(self, server):
        doc = get(server, "/api/search", occupancy="single", page=10 ** 6).json()
        assert doc["offers"] == []
        assert doc["total_count"] == 2 * 2 * 10 * 30

    def test_matches_brute_force_oracle(self):
        for seed in range(3):
            catalog = make_catalog(
                [("a", "categorical", ["x", "y", "z"]),
                 ("b", "ordinal", [1, 2, 3, 4]),
                 ("c", "categorical", ["p", "q"])],
                rate=0.6, seed=seed)
            with live_server(catalog) as service:
                snapshot = service.snapshot()
                for constraints in ({}, {"a": "y"}, {"b": "2", "c": "q"}):
                    expected = oracle_search(
                        catalog, snapshot,
                        {k: int(v) if k == "b" else v for k, v in constraints.items()})
                    doc = get(service, "/api/search", per_page=200, **constraints).json()
                    got = [o["canonical_id"] for o in doc["offers"]]
                    assert got == expected
                    assert doc["total_count"] == len(expected)

    def test_pagination_concatenation_equals_oracle(self):
        catalog = make_catalog([("a", "categorical", [f"v{i}" for i in range(7)]),
                                ("b", "ordinal", list(range(1, 8)))], rate=0.7)
        with live_server(catalog) as service:
            expected = oracle_search(catalog, service.snapshot(), {})
            got = []
            page = 1
            while True:
                doc = get(service, "/api/search", page=page, per_page=5).json()
                if not doc["offers"]:
                    break
                got.extend(o["canonical_id"] for o in doc["offers"])
                page += 1
            assert got == expected


class TestBooking:
    def test_book_then_rebook(self, hotel10):
        with live_server(hotel10) as service:
            cid = next(enumerate_variations(hotel10)).canonical_id
            first = post(service, "/api/book", {"canonical_id": cid}).json()
            assert first["status"] == "confirmed"
            assert first["epoch_after"] == 1
            second = post(service, "/api/book", {"canonical_id": cid}).json()
            assert second["status"] == "already_booked"
            assert second["epoch_after"] == 1

    def test_unknown_offer(self, server):
        doc = post(server, "/api/book",
                   {"canonical_id": "type=imaginary|stay=99"}).json()
        assert doc["status"] == "unknown_offer"

    def test_malformed_body_is_bad_request(self, server):
        response = requests.post(server.endpoint_base + "/api/book",
                                 data=b"{not json", timeout=30)
        assert response.status_code == 400

    # The server must answer without waiting for a body it will not read, and
    # then close the connection; on a hang, the socket timeout fails the test.
    @pytest.mark.parametrize("length, status", [
        ("-1", b"400"), ("abc", b"400"), (str(MAX_BODY_BYTES + 1), b"413"),
        ("999999999", b"413"),
    ], ids=["negative", "non-integer", "just-over-cap", "huge"])
    def test_bad_content_length_answered_and_closed(self, server, length, status):
        host, port = server.endpoint_base.split("//")[1].split(":")
        request = (f"POST /api/book HTTP/1.1\r\nHost: {host}\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {length}\r\n\r\n").encode("ascii")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(65536):  # b"" once the server closes
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 " + status)

    def test_read_your_writes(self, hotel10):
        with live_server(hotel10) as service:
            v = next(enumerate_variations(hotel10))
            post(service, "/api/book", {"canonical_id": v.canonical_id})
            doc = get(service, "/api/search",
                      **{k: str(x) for k, x in v.assignments.items()}).json()
            assert doc["total_count"] == 0
            assert doc["offers"] == []

    def test_one_identity_per_variation(self, hotel10):
        canonical = ("type=normal|catering=breakfast|occupancy=single"
                     "|arrival=2026-01-01|stay=7")
        spellings = [
            canonical,
            "stay=7|type=normal|catering=breakfast|occupancy=single|arrival=2026-01-01",
            canonical.replace("stay=7", "stay=07"),
        ]
        with live_server(hotel10) as service:
            results = [post(service, "/api/book", {"canonical_id": cid}).json()
                       for cid in spellings]
            assert [r["status"] for r in results] == \
                ["confirmed", "already_booked", "already_booked"]
            assert {r["canonical_id"] for r in results} == {canonical}
            assert [r["epoch_after"] for r in results] == [1, 1, 1]
            doc = get(service, "/api/search", type="normal", catering="breakfast",
                      occupancy="single", arrival="2026-01-01", stay="7").json()
            assert doc["total_count"] == 0
            assert doc["offers"] == []

    # Only `-?[0-9]+` spells an integer: other spellings that Python's int()
    # takes name no variation, in a booking or in a search.
    @pytest.mark.parametrize("stay", ["+7", "0_7", " 7 ", "\u0667"],
                             ids=["plus-sign", "underscore", "spaces", "arabic-indic-digit"])
    def test_other_integer_spellings_name_no_variation(self, hotel10, stay):
        canonical = ("type=normal|catering=breakfast|occupancy=single"
                     "|arrival=2026-01-01|stay=7")
        with live_server(hotel10) as service:
            result = post(service, "/api/book",
                          {"canonical_id": canonical.replace("stay=7", f"stay={stay}")}).json()
            assert (result["status"], result["epoch_after"]) == ("unknown_offer", 0)
            point = dict(type="normal", catering="breakfast", occupancy="single",
                         arrival="2026-01-01")
            response = get(service, "/api/search", **point, stay=stay)
            assert response.status_code == 400
            assert response.json()["offender"] == "stay"
            assert get(service, "/api/search", **point, stay="7").json()["total_count"] == 1

    def test_concurrent_bookings_confirm_exactly_once(self, hotel10):
        with live_server(hotel10) as service:
            cid = next(enumerate_variations(hotel10)).canonical_id
            with ThreadPoolExecutor(max_workers=32) as pool:
                results = list(pool.map(
                    lambda _: post(service, "/api/book", {"canonical_id": cid}).json(),
                    range(100)))
            statuses = [r["status"] for r in results]
            assert statuses.count("confirmed") == 1
            assert statuses.count("already_booked") == 99


class TestReset:
    def test_reset_restores_fresh_boot(self, hotel10):
        with live_server(hotel10) as service:
            cid = next(enumerate_variations(hotel10)).canonical_id
            post(service, "/api/book", {"canonical_id": cid})
            response = post(service, "/admin/reset", {})
            assert response.json()["epoch"] == 0
            doc = get(service, "/api/search", per_page=1).json()
            fresh_total = doc["total_count"]
            assert fresh_total == count_variations(hotel10)  # rate 1.0

    def test_reset_with_new_seed_keeps_rate(self):
        catalog = eval_hotel_n(10)
        catalog.base_availability_rate = 0.8
        with live_server(catalog) as service:
            post(service, "/admin/reset", {"seed": 777})
            doc = get(service, "/api/search", per_page=1).json()
            fraction = doc["total_count"] / count_variations(catalog)
            assert 0.75 <= fraction <= 0.85

    def test_reset_without_seed_restores_boot_seed(self):
        catalog = eval_hotel_n(3)
        catalog.base_availability_rate = 0.5
        with live_server(catalog) as service:
            def first_page():
                doc = get(service, "/api/search", per_page=MAX_PER_PAGE).json()
                return doc["total_count"], [o["canonical_id"] for o in doc["offers"]]

            boot = first_page()
            post(service, "/admin/reset", {"seed": 777})
            assert first_page() != boot
            assert post(service, "/admin/reset", {}).json() == {"epoch": 0}
            assert first_page() == boot

    # Each of these used to be accepted, and the first two then broke every
    # search and page build until the next reset.
    @pytest.mark.parametrize("seed", [-1, 2 ** 64, True], ids=["negative", "2**64", "bool"])
    def test_seed_outside_domain_is_400(self, hotel10, seed):
        with live_server(hotel10) as service:
            variations = list(enumerate_variations(hotel10, limit=2))
            post(service, "/api/book", {"canonical_id": variations[0].canonical_id})
            response = post(service, "/admin/reset", {"seed": seed})
            assert response.status_code == 400
            assert response.headers["X-Inventory-Epoch"] == "1"
            search = get(service, "/api/search",
                         **{k: str(x) for k, x in variations[1].assignments.items()})
            assert search.status_code == 200
            assert search.json()["total_count"] == 1
            assert search.headers["X-Inventory-Epoch"] == "1"

    def test_reset_races_with_bookings_without_torn_state(self, hotel10):
        with live_server(hotel10) as service:
            cids = [v.canonical_id for v in enumerate_variations(hotel10, limit=64)]

            def booker(cid):
                return post(service, "/api/book", {"canonical_id": cid}).json()

            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(booker, cid) for cid in cids]
                post(service, "/admin/reset", {})
                results = [f.result() for f in futures]
            # Every booking either landed before the reset or after it; either
            # way the epoch observed equals the number of bookings serialized
            # since the last reset, so it can never exceed the request count.
            for r in results:
                assert r["status"] in ("confirmed", "already_booked")
                assert 0 <= r["epoch_after"] <= len(cids)


class TestEpochs:
    def test_epoch_header_on_every_endpoint(self, server):
        for response in (get(server, "/page/abstraction"),
                         get(server, "/api/search", per_page=1),
                         post(server, "/admin/reset", {})):
            assert "X-Inventory-Epoch" in response.headers

    def test_epoch_monotone_under_mixed_workload(self, hotel10):
        with live_server(hotel10) as service:
            cids = [v.canonical_id for v in enumerate_variations(hotel10, limit=500)]
            per_thread_epochs = {}

            def worker(tid):
                rng = random.Random(tid)
                observed = []
                for i in range(125):
                    if i % 2:
                        r = post(service, "/api/book",
                                 {"canonical_id": rng.choice(cids)})
                    else:
                        r = get(service, "/api/search", occupancy="single", per_page=1)
                    observed.append(int(r.headers["X-Inventory-Epoch"]))
                per_thread_epochs[tid] = observed

            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for observed in per_thread_epochs.values():
                assert observed == sorted(observed)
            snapshot = service.snapshot()
            booked = sum(1 for _ in snapshot.overrides)
            assert snapshot.epoch == booked  # one epoch per confirmed booking


class TestSpecializationLiveness:
    def test_published_item_is_bookable(self):
        catalog = eval_hotel_n(10)
        catalog.base_availability_rate = 0.5
        with live_server(catalog) as service:
            page = get(service, "/page/specialization")
            assert page.status_code == 200
            from matpub.consumer import extract_annotations
            parsed, _ = extract_annotations(page.content)
            assert len(parsed) == 1
            assignments = parsed[0].fixed
            doc = get(service, "/api/search",
                      **{k: str(v) for k, v in assignments.items()}).json()
            assert doc["total_count"] == 1
            result = post(service, "/api/book",
                          {"canonical_id": doc["offers"][0]["canonical_id"]}).json()
            assert result["status"] == "confirmed"

    def test_specialization_sibling_resolvable_via_service(self, hotel10):
        # Published set is one item; a sibling variation is not published but
        # can be found through the search service.
        with live_server(hotel10) as service:
            page = get(service, "/page/specialization")
            from matpub.consumer import extract_annotations
            parsed, _ = extract_annotations(page.content)
            assert len(parsed) == 1
            published = parsed[0].fixed
            sibling = dict(published)
            sibling["arrival"] = "2026-01-08"  # the week after
            assert sibling != published
            doc = get(service, "/api/search",
                      **{k: str(v) for k, v in sibling.items()}).json()
            assert doc["total_count"] == 1
