"""HTTP service simulating the booking engine: serves annotated pages per
heuristic and resolves search/book requests against a mutating, epoch-versioned
in-memory inventory."""
from __future__ import annotations

import contextlib
import json
import os
import queue
import socket
import sys
import threading
import weakref
from dataclasses import dataclass
from http import HTTPStatus
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
    canonical_id_for,
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
from .wire import (MAX_BODY_BYTES, MAX_LINE_BYTES, VERSION, BadHeaderBlock, HeaderFields,
                   http_date, keeps_alive)

EPOCH_HEADER = "X-Inventory-Epoch"
JSON_TYPE = "application/json; charset=utf-8"
MAX_PER_PAGE = 200
DEFAULT_PER_PAGE = 50


class Refusal(Exception):
    """A request refused with `status`, raised where it is found and answered
    by the connection loop with `{"error": message}` and the `extra` members.
    A refusal of the request's head (its request line, header block or
    method) is also logged."""

    def __init__(self, status: int, message: str, of_head: bool = False, **extra):
        super().__init__(message)
        self.status, self.of_head, self.extra = status, of_head, extra


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
        canonical_id = canonical_id_for(self.catalog.dimension_names, assignments)
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
                raise Refusal(400, str(exc), offender=name) from exc
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
    is refused with a 400 naming it."""
    query: Dict[str, str] = {}
    for name, value in parse_qsl(raw, keep_blank_values=True):
        if name in query:
            raise Refusal(400, f"parameter {name!r} given more than once", offender=name)
        query[name] = value
    return query


def _parse_paging(query: Dict[str, str]) -> Tuple[int, int]:
    """Pop `page` and `per_page` off a request's query and check them; a
    400 names the parameter at fault."""
    def integer(name: str, default: int, high: float) -> int:
        try:
            value = parse_integer(query.pop(name, str(default)))
            if 1 <= value <= high:
                return value
        except ValueError:
            pass
        raise Refusal(400, f"{name} must be an integer in [1, {high}]", offender=name)

    return (integer("page", 1, float("inf")),
            integer("per_page", DEFAULT_PER_PAGE, MAX_PER_PAGE))


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ": ")).encode("utf-8")


class ResolverHandler:
    """One connection's requests, read and answered in turn until it closes.
    A route, `do_<METHOD>`, answers from `command`, `path`, `headers` and
    `body`, and may set `close_connection`; a request it refuses, it raises
    as a `Refusal`."""

    def __init__(self, connection: socket.socket, server: ResolverServer):
        self.connection, self.server = connection, server
        self.rfile = connection.makefile("rb")

    # -- plumbing ------------------------------------------------------------

    @property
    def service(self) -> ResolverService:
        return self.server.service

    def _log(self, line: str):
        if self.server.log_fn:
            self.server.log_fn(line)

    def handle(self):
        """Read a request, route it, and again while the connection is kept
        alive. A refusal, wherever it was raised, is answered here."""
        with self.rfile:
            self.close_connection = False
            while not self.close_connection:
                self.close_connection = True
                try:
                    route = self._read_request()
                    if route is not None:
                        route()
                except Refusal as refusal:
                    if refusal.of_head:
                        self._log(f"code {refusal.status}, message {refusal}")
                    self._json(refusal.status, {"error": str(refusal), **refusal.extra},
                               self.service.epoch)

    def _read_request(self) -> Optional[Callable[[], None]]:
        """Read the request line, method, target and version (RFC 9112 §3),
        after one empty line if one comes first (§2.2), then the header
        block, which holds `Host` from HTTP/1.1 on, and then the body. The
        body is framed by `Content-Length` alone whatever the method (§6.3),
        so a GET's or HEAD's is read and dropped, never served as the next
        request. Returns the request's route, or None at the end of the
        stream. A refusal raised here closes the connection, and a refused
        body stays unread."""
        self.requestline, self.command = "", None
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if line in (b"\r\n", b"\n"):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise Refusal(414, HTTPStatus(414).phrase, of_head=True)
        self.requestline = str(line, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3:
            raise Refusal(400, f"Bad request syntax ({self.requestline!r})", of_head=True)
        command, path, version = words
        match = VERSION.fullmatch(version)
        if match is None:
            raise Refusal(400, f"Bad request version ({version!r})", of_head=True)
        self.version = number = int(match[1]), int(match[2])
        if number >= (2, 0):
            raise Refusal(505, f"Invalid HTTP version ({version[5:]})", of_head=True)
        if path.startswith("//"):  # a client would read it as another host
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        try:
            self.headers = HeaderFields(self.rfile)
        except BadHeaderBlock as exc:
            raise Refusal(exc.status, str(exc), of_head=True) from exc
        if number >= (1, 1) and "Host" not in self.headers:  # RFC 9112 §3.2
            raise Refusal(400, "An HTTP/1.1 request needs a Host field", of_head=True)
        if "Transfer-Encoding" in self.headers:
            raise Refusal(411, "a request body needs Content-Length, not Transfer-Encoding")
        try:
            length = parse_integer(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise Refusal(400, "Content-Length must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            raise Refusal(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        # Only a body that will be read is invited (RFC 9110 §10.1.1).
        if self.headers.get("Expect", "").lower() == "100-continue" and number >= (1, 1):
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.body = self.rfile.read(length)
        route = getattr(self, "do_" + command, None)
        if route is None:
            raise Refusal(501, f"Unsupported method ({command!r})", of_head=True)
        self.close_connection = not keeps_alive(number, self.headers)
        return route

    def _respond(self, status: int, body: bytes | StoredPage, content_type: str, epoch: int):
        """Put the whole response on the wire in one send. Sent in two, the
        body would wait on a kept-alive connection until the client's delayed
        ACK of the headers (Nagle's algorithm), about 40 ms. A response after
        which the connection closes says so (RFC 9112 §9.6), and so does one
        to an HTTP/1.0 request after which it persists (§9.3)."""
        size = len(body) if isinstance(body, bytes) else body.size
        self._log(f'"{self.requestline}" {status} -')
        if self.close_connection:
            connection = "Connection: close\r\n"
        else:
            connection = "Connection: keep-alive\r\n" if self.version < (1, 1) else ""
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Server: matpub\r\nDate: {http_date()}\r\n{connection}"
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

    # -- routes --------------------------------------------------------------

    def do_GET(self):
        url = urlparse(self.path)
        if url.path.startswith("/page/"):
            self._get_page(url.path[len("/page/"):], url.query)
        elif url.path == "/api/search":
            self._get_search(url.query)
        else:
            raise Refusal(404, f"no such path {url.path!r}")

    do_HEAD = do_GET

    def _get_page(self, heuristic: str, raw_query: str):
        if heuristic not in HEURISTIC_NAMES:
            raise Refusal(404, f"unknown heuristic {heuristic!r}")
        query = _parse_query(raw_query)
        unknown = [name for name in query if name not in ("page", "per_page")]
        if unknown:
            raise Refusal(400, f"unknown parameter {unknown[0]!r}", offender=unknown[0])
        try:
            # Either paging parameter on its own selects a paginated page.
            body, epoch = (self.service.page_html(heuristic, *_parse_paging(query)) if query
                           else self.service.bulk_page(heuristic))
        except MaterializationCapExceeded as exc:
            raise Refusal(422, str(exc), count=exc.count, cap=exc.cap) from exc
        except NoAvailableVariation as exc:
            raise Refusal(422, str(exc)) from exc
        except PageNotFound as exc:
            raise Refusal(404, str(exc)) from exc
        except OSError as exc:
            raise Refusal(503, f"page could not be stored: {exc}") from exc
        self._respond(200, body, "text/html; charset=utf-8", epoch)

    def _get_search(self, raw_query: str):
        query = _parse_query(raw_query)
        page, per_page = _parse_paging(query)
        offers, total, epoch = self.service.search(query, page, per_page)
        self._json(200, {"offers": offers, "total_count": total,
                         "page": page, "per_page": per_page}, epoch)

    def do_POST(self):
        url = urlparse(self.path)
        try:
            body = json.loads(self.body or b"{}")
        except (ValueError, RecursionError):  # nested too deep for the decoder
            body = None
        if not isinstance(body, dict):
            raise Refusal(400, "malformed JSON body")
        if url.path == "/api/book":
            canonical_id = body.get("canonical_id")
            if not isinstance(canonical_id, str) or not canonical_id:
                raise Refusal(400, "canonical_id (string) required")
            result = self.service.book(canonical_id)
            self._json(200, {"status": result.status,
                             "canonical_id": result.canonical_id,
                             "epoch_after": result.epoch_after}, result.epoch_after)
        elif url.path == "/admin/reset":
            try:
                epoch = self.service.reset(body.get("seed"))
            except CatalogError as exc:
                raise Refusal(400, str(exc)) from exc
            self._json(200, {"epoch": epoch}, epoch)
        else:
            raise Refusal(404, f"no such path {url.path!r}")


class ResolverServer:
    """One service's listening socket; `make_server` sets the `service` and
    `log_fn` handlers read. Each open connection has a thread of its own,
    but a thread that has finished its connection waits for the next one,
    and a new thread starts only when none waits. `server_close` ends the
    waiting threads, and a thread that finishes after it ends too: no thread
    keeps a closed server, its service and its stored pages alive."""
    service: ResolverService
    log_fn: Optional[Callable[[str], None]] = None

    def __init__(self, address: Tuple[str, int]):
        self._lock = threading.Lock()
        # Under _lock: how many threads wait on `_handoff`, and whether the
        # server is closed. A connection is put on `_handoff` only for a
        # thread counted in `_waiting`, which the put uncounts.
        self._waiting = 0
        self._closed = False
        self._handoff: queue.SimpleQueue = queue.SimpleQueue()
        self._stopping = False
        # SO_REUSEADDR, and a backlog to survive concurrent client bursts.
        self.socket = socket.create_server(address, backlog=128)
        self.server_address = self.socket.getsockname()

    def serve_forever(self):
        """Accept connections until `shutdown`."""
        while not self._stopping:
            try:
                request, client_address = self.socket.accept()
            except OSError:  # the client has gone, or `shutdown` woke the accept
                continue
            try:
                self.process_request(request, client_address)
            except RuntimeError:  # no thread could be started
                self.handle_error(request, client_address)
                request.close()

    def shutdown(self):
        """Make `serve_forever`, run by another thread, return."""
        self._stopping = True
        # A blocked accept fails at once on a socket shut for reading (Linux).
        self.socket.shutdown(socket.SHUT_RD)

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
                ResolverHandler(request, self).handle()
            except Exception:
                self.handle_error(request, client_address)
            finally:  # send what is left and a FIN, then close
                with contextlib.suppress(OSError):
                    request.shutdown(socket.SHUT_WR)
                request.close()
            with self._lock:
                if self._closed:
                    return
                self._waiting += 1
            request, client_address = self._handoff.get()

    def handle_error(self, request: socket.socket, client_address):
        """Report the exception that ended a connection; the server serves on."""
        import traceback
        print(f"Exception while serving {client_address}:", file=sys.stderr)
        traceback.print_exc()

    def server_close(self):
        self.socket.close()
        with self._lock:
            self._closed = True
            waiting, self._waiting = self._waiting, 0
        for _ in range(waiting):
            self._handoff.put((None, None))


def make_server(service: ResolverService, host: str = "127.0.0.1", port: int = 0,
                log_fn: Optional[Callable[[str], None]] = None) -> ResolverServer:
    """Bind a threading HTTP server for the service. With port=0 the OS picks a
    free port; the service's endpoint base is updated to the bound address."""
    server = ResolverServer((host, port))
    server.service, server.log_fn = service, log_fn
    service.endpoint_base = f"http://{server.server_address[0]}:{server.server_address[1]}"
    return server
