"""HTTP service simulating the booking engine: serves annotated pages per
heuristic and resolves search/book requests against a mutating, epoch-versioned
in-memory inventory."""
from __future__ import annotations

import email.utils
import json
import os
import queue
import re
import socket
import threading
import time
import weakref
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from tempfile import TemporaryFile
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlparse

from .annotate import PageNotFound, annotation_stream, render_page, render_page_stream
from .catalog import (
    CatalogError,
    Inventory,
    ProductCatalog,
    ValidationError,
    Value,
    parse_canonical_id,
    parse_integer,
    parse_value,
    price,
)
from .heuristics import (
    HEURISTIC_NAMES,
    HeuristicPolicies,
    MaterializationCapExceeded,
    NoAvailableVariation,
    available_variations,
)

EPOCH_HEADER = "X-Inventory-Epoch"
JSON_TYPE = "application/json; charset=utf-8"
MAX_PER_PAGE = 200
DEFAULT_PER_PAGE = 50
# A booking or reset body is well under 1 KiB.
MAX_BODY_BYTES = 64 * 1024
# The limits `http.client.parse_headers` puts on a header block: a line of
# more bytes, or more lines counting the blank one that ends the block, is a
# 431. (`http.server` answers a longer request line with a 414.)
MAX_LINE_BYTES = 64 * 1024
MAX_HEADER_LINES = 100


class BadSearchRequest(ValueError):
    def __init__(self, message: str, offender: str):
        super().__init__(message)
        self.offender = offender


class StoredPage:
    """A bulk page in an unlinked file. The file is closed as soon as its last
    holder, the page cache or a request still sending it, lets go. The
    finalizer holds the file, so a page dropped inside a reference cycle still
    closes it before the collector could finalize it unclosed."""

    def __init__(self, file: BinaryIO):
        self.file = file
        self.size = os.fstat(file.fileno()).st_size
        weakref.finalize(self, file.close)

    def fileno(self) -> int:
        return self.file.fileno()


@dataclass
class BookingResult:
    status: str  # confirmed | already_booked | unknown_offer
    canonical_id: str
    epoch_after: int


class ResolverService:
    """Owns the inventory behind a single serialization point. The current
    `Inventory` is one immutable value; book and reset replace it under the
    lock, so they are totally ordered, and a reader keeps the value it took.

    Bulk pages (no paging parameter) are written per heuristic to a file from
    the current inventory and sent from it; a booking or a reset drops them. A
    stored page also depends on the catalog, the policies and the endpoint
    base, so none of them may change once pages are served (`make_server`
    sets the endpoint base before it serves)."""

    def __init__(self, catalog: ProductCatalog,
                 policies: Optional[HeuristicPolicies] = None,
                 endpoint_base: str = "http://localhost"):
        self.catalog = catalog
        self.policies = policies or HeuristicPolicies()
        self.endpoint_base = endpoint_base
        self._lock = threading.Lock()
        # Both are changed only under _lock. The cache holds at most one page
        # per heuristic, all built from `_inventory`.
        self._inventory = Inventory.initial(catalog)
        self._bulk_pages: Dict[str, Tuple[StoredPage, int]] = {}

    # -- inventory -----------------------------------------------------------

    def snapshot(self) -> Inventory:
        # Reading one reference is atomic; the value behind it never changes.
        return self._inventory

    @property
    def epoch(self) -> int:
        return self._inventory.epoch

    def book(self, canonical_id: str) -> BookingResult:
        """Book under the variation's canonical id, whatever spelling of it
        was sent (dimension order, zero padding, percent-encoding)."""
        try:
            assignments = parse_canonical_id(self.catalog, canonical_id)
        except ValidationError:
            return BookingResult("unknown_offer", canonical_id, self.epoch)
        canonical_id = self.catalog.variation(assignments).canonical_id
        with self._lock:
            booked = self._inventory.book(canonical_id)
            if booked is not None:
                self._inventory = booked
                self._bulk_pages.clear()
            epoch = self._inventory.epoch
        return BookingResult("already_booked" if booked is None else "confirmed",
                             canonical_id, epoch)

    def reset(self, seed: Optional[int] = None) -> int:
        """Go back to the fresh-boot inventory, under `seed` if one is given
        and under the catalog's seed otherwise. Raises CatalogError, leaving
        the inventory as it was, for a seed outside the seed domain."""
        inventory = Inventory.initial(self.catalog, seed)
        with self._lock:
            self._inventory = inventory
            self._bulk_pages.clear()
        return inventory.epoch

    # -- search --------------------------------------------------------------

    def _typed_constraints(self, raw: Dict[str, str]) -> Dict[str, Value]:
        constraints: Dict[str, Value] = {}
        for name, raw_value in raw.items():
            try:
                constraints[name] = parse_value(self.catalog, name, raw_value)
            except ValidationError as exc:
                raise BadSearchRequest(str(exc), name) from exc
        return constraints

    def search(self, raw_constraints: Dict[str, str], page: int = 1,
               per_page: int = DEFAULT_PER_PAGE) -> Tuple[List[dict], int, int]:
        """Available variations consistent with the constraints, in canonical
        enumeration order. Returns (offers, total_count, epoch). Constrained
        dimensions are pruned before enumeration, never scanned. `page` and
        `per_page` are as `_parse_paging` checks them."""
        constraints = self._typed_constraints(raw_constraints)
        snapshot = self.snapshot()
        lo = (page - 1) * per_page
        hi = page * per_page
        offers: List[dict] = []
        total = 0
        for v in available_variations(self.catalog, snapshot, constraints):
            if lo <= total < hi:
                offers.append({
                    "canonical_id": v.canonical_id,
                    "assignments": v.assignments,
                    "price": f"{price(self.catalog, v):.2f}",
                    "currency": self.catalog.pricing.currency,
                    "available": True,
                    "book_url": f"{self.endpoint_base.rstrip('/')}/api/book",
                })
            total += 1
        return offers, total, snapshot.epoch

    # -- pages ---------------------------------------------------------------

    def page_html(self, heuristic: str, page: Optional[int] = None,
                  per_page: Optional[int] = None) -> Tuple[bytes, int]:
        """The page and the epoch it was built at. A bulk page is read back
        from its stored file; a paginated page is built per request outside
        the lock, since `page` x `per_page` has no bound."""
        if page is None:
            stored, epoch = self.bulk_page(heuristic)
            return os.pread(stored.fileno(), stored.size, 0), epoch
        snapshot = self.snapshot()
        annotations = annotation_stream(self.catalog, heuristic, snapshot,
                                        self.policies, self.endpoint_base)
        return render_page(annotations, self.catalog, page, per_page), snapshot.epoch

    def bulk_page(self, heuristic: str) -> Tuple[StoredPage, int]:
        """The bulk page, streamed outside the lock into an unlinked file once
        per inventory, and its epoch. The file closes at once if the build
        raises."""
        with self._lock:
            cached = self._bulk_pages.get(heuristic)
            if cached is not None:
                return cached
            inventory = self._inventory
        annotations = annotation_stream(self.catalog, heuristic, inventory,
                                        self.policies, self.endpoint_base)
        file = TemporaryFile()
        try:
            render_page_stream(annotations, self.catalog, file.write)
            file.flush()
            built = StoredPage(file), inventory.epoch
        except BaseException:
            file.close()
            raise
        with self._lock:
            # A booking or reset during the build has made it stale.
            if self._inventory is inventory:
                self._bulk_pages[heuristic] = built
        return built


# ---------------------------------------------------------------------------
# HTTP layer

def _parse_query(raw: str) -> Dict[str, str]:
    """A request's query string as a dict; a parameter given more than once
    is a BadSearchRequest naming it."""
    query: Dict[str, str] = {}
    for name, value in parse_qsl(raw, keep_blank_values=True):
        if name in query:
            raise BadSearchRequest(f"parameter {name!r} given more than once", name)
        query[name] = value
    return query


def _parse_paging(query: Dict[str, str]) -> Tuple[int, int]:
    """Pop `page` and `per_page` off a request's query and check them; a
    BadSearchRequest names the parameter at fault."""
    def integer(name: str, default: int, high: float) -> int:
        try:
            value = parse_integer(query.pop(name, str(default)))
            if 1 <= value <= high:
                return value
        except ValueError:
            pass
        raise BadSearchRequest(f"{name} must be an integer in [1, {high}]", name)

    return (integer("page", 1, float("inf")),
            integer("per_page", DEFAULT_PER_PAGE, MAX_PER_PAGE))


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ": ")).encode("utf-8")


class HeaderBlockTooLarge(ValueError):
    pass


# A line that names a field, as `email.feedparser` tells one from the rest.
_FIELD_NAME = re.compile(r"[!-9;-~]*:")
# A request line's version as `http.server` accepts one: each part up to ten
# ASCII digits (it refuses a digit such as "²" only when `int` does).
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class HeaderFields:
    """A request's header fields read in one pass, by the rules of the
    `email` message that `http.server` builds: names are matched without
    regard to case, the first field of a name wins, a value starts after
    the colon and its spaces and tabs, a line that begins with a space or
    tab continues the field before it, and an envelope line (`From `) is
    skipped. Any other line ends the fields; the rest of the block is read
    but not kept."""

    __slots__ = ("_values",)

    def __init__(self, rfile: BinaryIO):
        """Read the block up to the blank line that ends it; raises
        HeaderBlockTooLarge past `http.client.parse_headers`'s limits."""
        values: Dict[str, str] = {}
        name: Optional[str] = None  # the kept field a continuation line extends
        parsing = True
        lines = 0
        while True:
            line = rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise HeaderBlockTooLarge("Line too long")
            lines += 1
            if lines > MAX_HEADER_LINES:
                raise HeaderBlockTooLarge("Too many headers")
            if line in (b"\r\n", b"\n", b""):
                break
            if not parsing:
                continue
            text = line.decode("iso-8859-1")
            if text[0] in " \t":
                if name is not None:
                    values[name] += text
                continue
            name = None
            match = _FIELD_NAME.match(text)
            if match is None:
                parsing = text.startswith("From ")  # an envelope line is skipped
            else:
                key = text[:match.end() - 1].lower()
                if key not in values:
                    name, values[key] = key, text[match.end():].lstrip(" \t")
        self._values = {key: value.rstrip("\r\n") for key, value in values.items()}

    def get(self, name: str, default=None):
        return self._values.get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._values


_date = (0, "")  # the second last formatted and its `Date` value


def _http_date() -> str:
    """The `Date` field's value for now, formatted once per second."""
    global _date
    now = int(time.time())
    second, value = _date
    if second != now:
        value = email.utils.formatdate(now, usegmt=True)
        _date = now, value
    return value


class ResolverHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    @property
    def service(self) -> ResolverService:
        return self.server.service

    def log_message(self, fmt, *args):
        if self.server.log_fn:
            self.server.log_fn(fmt % args)

    def parse_request(self) -> bool:
        """Read the request line and the header block as `http.server` does,
        with one difference: a request line whose version is malformed or
        2.0 and above is answered with a status line (400 or 505), where
        `http.server` answers it as HTTP/0.9. Returns whether the request
        goes on to its route; when it does not, any answer has been sent."""
        self.command = None
        self.request_version = "HTTP/0.9"  # a request line without a version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = self.request_version = words[-1]
            match = _VERSION.fullmatch(version)
            if match is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            number = int(match[1]), int(match[2])
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
            return False
        if path.startswith("//"):  # a client would read it as another host
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        try:
            self.headers = HeaderFields(self.rfile)
        except HeaderBlockTooLarge as exc:
            self.send_error(431, str(exc))
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (self.headers.get("Expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def send_error(self, code: int, message: Optional[str] = None, explain=None):
        """Answer a request refused before its route, whether for its request
        line, its header block or its method, as a route answers an error:
        JSON with the epoch. The connection then closes."""
        code = int(code)
        message = message or self.responses[code][0]
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._respond(code, _json_bytes({"error": message}), JSON_TYPE, self.service.epoch,
                      closing=True)

    def _respond(self, status: int, body: bytes | StoredPage, content_type: str, epoch: int,
                 closing: bool = False):
        """Put the whole response on the wire in one send. Sent in two, the
        body would wait on a kept-alive connection until the client's delayed
        ACK of the headers (Nagle's algorithm), about 40 ms. `closing` adds
        `Connection: close`, where `http.server`'s `send_error` put it."""
        size = len(body) if isinstance(body, bytes) else body.size
        self.log_request(status)
        head = b""  # an HTTP/0.9 answer is the body alone
        if self.request_version != "HTTP/0.9":
            connection = "Connection: close\r\n" if closing else ""
            head = (f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                    f"Server: {self.version_string()}\r\nDate: {_http_date()}\r\n{connection}"
                    f"Content-Type: {content_type}\r\nContent-Length: {size}\r\n"
                    f"{EPOCH_HEADER}: {epoch}\r\n\r\n").encode("latin-1")
        try:
            if self.command == "HEAD":  # a HEAD gets the GET's headers only
                self.connection.sendall(head)
            elif isinstance(body, bytes):
                self.connection.sendall(head + body)
            else:  # the kernel holds the headers for the file's first segment
                self.connection.sendall(head, socket.MSG_MORE)
                offset = 0  # explicit offsets: threads share the file, not its position
                while offset < size:
                    offset += os.sendfile(self.connection.fileno(), body.fileno(),
                                          offset, size - offset)
        except ConnectionError:  # the client hung up: end its connection only
            self.close_connection = True

    def _json(self, status: int, doc, epoch: int):
        self._respond(status, _json_bytes(doc), JSON_TYPE, epoch)

    def _error(self, status: int, message: str, epoch: int, **extra):
        self._json(status, {"error": message, **extra}, epoch)

    # -- routes --------------------------------------------------------------

    def do_GET(self):
        url = urlparse(self.path)
        if url.path.startswith("/page/"):
            self._get_page(url.path[len("/page/"):], url.query)
        elif url.path == "/api/search":
            self._get_search(url.query)
        else:
            self._error(404, f"no such path {url.path!r}", self.service.epoch)

    do_HEAD = do_GET

    def _get_page(self, heuristic: str, raw_query: str):
        epoch = self.service.epoch
        if heuristic not in HEURISTIC_NAMES:
            self._error(404, f"unknown heuristic {heuristic!r}", epoch)
            return
        try:
            query = _parse_query(raw_query)
            unknown = [name for name in query if name not in ("page", "per_page")]
            if unknown:
                raise BadSearchRequest(f"unknown parameter {unknown[0]!r}", unknown[0])
            # Either paging parameter on its own selects a paginated page.
            body, epoch = (self.service.page_html(heuristic, *_parse_paging(query)) if query
                           else self.service.bulk_page(heuristic))
        except BadSearchRequest as exc:
            self._error(400, str(exc), epoch, offender=exc.offender)
            return
        except MaterializationCapExceeded as exc:
            self._error(422, str(exc), epoch, count=exc.count, cap=exc.cap)
            return
        except NoAvailableVariation as exc:
            self._error(422, str(exc), epoch)
            return
        except PageNotFound as exc:
            self._error(404, str(exc), epoch)
            return
        except OSError as exc:
            self._error(503, f"page could not be stored: {exc}", epoch)
            return
        self._respond(200, body, "text/html; charset=utf-8", epoch)

    def _get_search(self, raw_query: str):
        try:
            query = _parse_query(raw_query)
            page, per_page = _parse_paging(query)
            offers, total, epoch = self.service.search(query, page, per_page)
        except BadSearchRequest as exc:
            self._error(400, str(exc), self.service.epoch, offender=exc.offender)
            return
        self._json(200, {"offers": offers, "total_count": total,
                         "page": page, "per_page": per_page}, epoch)

    def do_POST(self):
        url = urlparse(self.path)
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        refusal = ((411, "a request body needs Content-Length, not Transfer-Encoding")
                   if "Transfer-Encoding" in self.headers else
                   (400, "Content-Length must be a non-negative integer") if length < 0 else
                   (413, f"request body exceeds {MAX_BODY_BYTES} bytes")
                   if length > MAX_BODY_BYTES else None)
        if refusal is not None:
            self.close_connection = True  # the body stays unread
            self._error(*refusal, self.service.epoch)
            return
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, json.JSONDecodeError):
            self._error(400, "malformed JSON body", self.service.epoch)
            return
        if url.path == "/api/book":
            canonical_id = body.get("canonical_id")
            if not isinstance(canonical_id, str) or not canonical_id:
                self._error(400, "canonical_id (string) required", self.service.epoch)
                return
            result = self.service.book(canonical_id)
            self._json(200, {"status": result.status,
                             "canonical_id": result.canonical_id,
                             "epoch_after": result.epoch_after}, result.epoch_after)
        elif url.path == "/admin/reset":
            try:
                epoch = self.service.reset(body.get("seed"))
            except CatalogError as exc:
                self._error(400, str(exc), self.service.epoch)
                return
            self._json(200, {"epoch": epoch}, epoch)
        else:
            self._error(404, f"no such path {url.path!r}", self.service.epoch)


class ResolverServer(HTTPServer):
    """One service's server: `make_server` sets the `service` and `log_fn`
    handlers read. Each open connection has a thread of its own, as under
    `ThreadingHTTPServer`, but a thread that has finished its connection
    waits for the next one, and a new thread starts only when none waits.
    `server_close` ends the waiting threads, and a thread that finishes
    after it ends too: no thread keeps a closed server, its service and its
    stored pages alive."""
    request_queue_size = 128  # survive concurrent client bursts
    service: ResolverService
    log_fn: Optional[Callable[[str], None]] = None

    def __init__(self, *args, **kwargs):
        # Set before binding: a failed bind calls `server_close` from within
        # `TCPServer.__init__`, and the `OSError` must reach the caller.
        self._lock = threading.Lock()
        # Under _lock: how many threads wait on `_handoff`, and whether the
        # server is closed. A connection is put on `_handoff` only for a
        # thread counted in `_waiting`, which the put uncounts.
        self._waiting = 0
        self._closed = False
        self._handoff: queue.SimpleQueue = queue.SimpleQueue()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        with self._lock:
            handed = self._waiting > 0
            if handed:
                self._waiting -= 1
        if handed:
            self._handoff.put((request, client_address))
        else:
            threading.Thread(target=self._serve, args=(request, client_address),
                             daemon=True).start()

    def _serve(self, request, client_address):
        """Serve connections until the server closes; `None` ends the thread."""
        while request is not None:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._lock:
                if self._closed:
                    return
                self._waiting += 1
            request, client_address = self._handoff.get()

    def server_close(self):
        super().server_close()
        with self._lock:
            self._closed = True
            waiting, self._waiting = self._waiting, 0
        for _ in range(waiting):
            self._handoff.put((None, None))


def make_server(service: ResolverService, host: str = "127.0.0.1", port: int = 0,
                log_fn: Optional[Callable[[str], None]] = None) -> ResolverServer:
    """Bind a threading HTTP server for the service. With port=0 the OS picks a
    free port; the service's endpoint base is updated to the bound address."""
    server = ResolverServer((host, port), ResolverHandler)
    server.service, server.log_fn = service, log_fn
    service.endpoint_base = f"http://{server.server_address[0]}:{server.server_address[1]}"
    return server
