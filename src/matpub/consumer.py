"""B2B crawler client: extracts JSON-LD annotations from an annotated page,
follows embedded search actions, and resolves a desired variation to a concrete
bookable offer, recording every round trip."""
from __future__ import annotations

import json
import re
import socket
import ssl
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from random import Random
from typing import BinaryIO, Dict, List, Optional, Tuple, Union
from urllib.parse import SplitResult, urlencode, urlparse, urlsplit

from .annotate import PageScanner
from .catalog import ProductCatalog, Value, parse_integer
from .resolver import MAX_LINE_BYTES, BadHeaderBlock, HeaderFields

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 0.1
TIMEOUT_S = 30
_TEMPLATE_QUERY = re.compile(r"\{\?([^}]*)\}")


class TransportError(RuntimeError):
    """Server unreachable after bounded retries, an error status or a non-JSON answer."""


@dataclass
class ParsedAction:
    target_template: str
    input_names: List[str]


@dataclass
class ParsedAnnotation:
    anchor_id: str
    fixed: Dict[str, Value]
    ranges: Dict[str, dict]
    price: Optional[str]
    price_range: Optional[Tuple[str, str]]
    currency: Optional[str]
    available: bool
    action: Optional[ParsedAction]
    # The fixed values a query must match to follow the action: a dimension
    # named as an action input is searchable even if the annotation also
    # fixes it (sibling search on concrete items).
    required: Dict[str, Value]


@dataclass
class Step:
    request_url: str
    response_count: int
    elapsed: float


@dataclass
class ResolutionTrace:
    heuristic: str
    query: Dict[str, Value]
    steps: List[Step] = field(default_factory=list)
    outcome: str = "dead_end"  # booked | found_not_booked | dead_end
    offer: Optional[dict] = None

    @property
    def api_calls(self) -> int:
        return len(self.steps)

    def to_dict(self) -> dict:
        return {
            "heuristic": self.heuristic,
            "query": self.query,
            "outcome": self.outcome,
            "api_calls": self.api_calls,
            "steps": [{"request_url": s.request_url, "response_count": s.response_count,
                       "elapsed": s.elapsed} for s in self.steps],
            "offer": self.offer,
        }


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not an object")
    return value


def _parse_block(doc: dict) -> Optional[ParsedAnnotation]:
    """The annotation a JSON-LD block describes, or None if it is not a
    product. A product block of another shape than annotate writes is a
    ValueError naming the part at fault."""
    if doc.get("@type") != "Product":
        return None
    fixed: Dict[str, Value] = {}
    ranges: Dict[str, dict] = {}
    props = doc.get("additionalProperty", [])
    if not isinstance(props, list):
        raise ValueError("additionalProperty is not a list")
    for prop in props:
        prop = _object(prop, "an additionalProperty entry")
        name = prop.get("name")
        if name is None:
            continue
        if not isinstance(name, str):
            raise ValueError("a property name is not a string")
        if "minValue" in prop:
            if "maxValue" not in prop:
                raise ValueError(f"property {name!r} has minValue but no maxValue")
            ref = _object(prop.get("valueReference") or {}, "a valueReference")
            ranges[name] = {"min": prop["minValue"], "max": prop["maxValue"],
                            "count": ref.get("value")}
        elif isinstance(prop.get("value"), list):
            ranges[name] = {"values": prop["value"]}
        else:
            fixed[name] = prop.get("value")
    offer = _object(doc.get("offers", {}), "offers")
    price = offer.get("price")
    price_range = None
    spec = offer.get("priceSpecification")
    if spec:
        spec = _object(spec, "priceSpecification")
        price_range = (spec.get("minPrice"), spec.get("maxPrice"))
    currency = offer.get("priceCurrency") or (spec or {}).get("priceCurrency")
    available = str(offer.get("availability", "")).endswith("InStock")
    action = None
    action_doc = offer.get("potentialAction")
    if action_doc:
        action_doc = _object(action_doc, "potentialAction")
        template = _object(action_doc.get("target") or {}, "potentialAction target").get(
            "urlTemplate", "")
        if not isinstance(template, str):
            raise ValueError("urlTemplate is not a string")
        inputs = [key[:-len("-input")] for key in action_doc if key.endswith("-input")]
        match = _TEMPLATE_QUERY.search(template)
        ordered = match.group(1).split(",") if match and match.group(1) else inputs
        action = ParsedAction(template, ordered)
        required = {k: v for k, v in fixed.items() if k not in action.input_names}
    else:
        required = fixed
    return ParsedAnnotation(
        anchor_id=str(doc.get("@id", "")).lstrip("#"),
        fixed=fixed, ranges=ranges, price=price, price_range=price_range,
        currency=currency, available=available, action=action, required=required,
    )


def extract_annotations(page: bytes) -> Tuple[List[ParsedAnnotation], List[str]]:
    """Parse every JSON-LD product block on the page. A block that is not
    JSON, or a product block of the wrong shape, is skipped with a warning
    record; unrelated blocks are ignored."""
    parsed: List[ParsedAnnotation] = []
    warnings: List[str] = []
    blocks = 0

    def block(raw: str):
        nonlocal blocks
        blocks += 1
        try:
            doc = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            warnings.append(f"block {blocks - 1}: malformed JSON-LD ({exc})")
            return
        try:
            annotation = _parse_block(doc) if isinstance(doc, dict) else None
        except ValueError as exc:
            warnings.append(f"block {blocks - 1}: malformed Product block ({exc})")
            return
        if annotation is not None:
            parsed.append(annotation)

    scanner = PageScanner(block)
    scanner.feed(page.decode("utf-8"))
    scanner.close()
    return parsed, warnings


class AnnotationIndex:
    """A page's annotations indexed for `Client.resolve`, built once per
    page. Concrete annotations are keyed by their fixed assignment; action
    annotations are grouped by the names they require, most names first,
    and keyed within a group by the values required. A query is a catalog
    assignment, so its values are hashable: an annotation with an unhashable
    value where a key needs it matches no query and is left out of that key."""

    def __init__(self, annotations: List[ParsedAnnotation]):
        self._concrete: Dict[frozenset, ParsedAnnotation] = {}
        groups: Dict[Tuple[str, ...], Dict[tuple, Tuple[int, ParsedAnnotation]]] = {}
        for position, annotation in enumerate(annotations):
            # The first on the page wins a key.
            if not annotation.ranges:
                try:
                    self._concrete.setdefault(frozenset(annotation.fixed.items()), annotation)
                except TypeError:
                    pass
            if annotation.action is not None:
                names = tuple(sorted(annotation.required))
                values = tuple(annotation.required[name] for name in names)
                try:
                    groups.setdefault(names, {}).setdefault(values, (position, annotation))
                except TypeError:
                    pass
        self._groups = sorted(groups.items(), key=lambda group: -len(group[0]))

    def concrete(self, desired: Dict[str, Value]) -> Optional[ParsedAnnotation]:
        """The first annotation that publishes exactly `desired`, if any."""
        return self._concrete.get(frozenset(desired.items()))

    def action(self, desired: Dict[str, Value]) -> Optional[ParsedAnnotation]:
        """The action annotation whose required values `desired` has (a name
        it lacks reads as None) that requires the most names, the first on
        the page among equals."""
        best: Optional[Tuple[int, ParsedAnnotation]] = None
        best_names = 0
        for names, table in self._groups:
            if len(names) < best_names:
                break
            hit = table.get(tuple(desired.get(name) for name in names))
            if hit is not None and (best is None or hit[0] < best[0]):
                best, best_names = hit, len(names)
        return best[1] if best is not None else None


# ---------------------------------------------------------------------------
# HTTP with bounded retries (connection failures only; empty results are signal)

# A status line (RFC 9112 §4); its reason phrase may be empty or missing.
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([0-9]{3})(?: [^\r\n]*)?\r?\n")
# A chunk's size line (RFC 9112 §7.1): hex digits, then any extensions.
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")
# What a request line and a Host field may hold: printable ASCII, no space.
_URL_PART = re.compile(r"[!-~]+")


class BadResponse(Exception):
    """A request that got no well-formed answer: its URL names no server
    to connect to, the answer breaks HTTP/1.1's framing, or the connection
    ended before the answer did. Retried as a connection failure is."""


class Session:
    """One HTTP/1.1 connection, opened on first use and kept alive across
    requests to the same server. A response that ends the connection
    (`Connection: close`, or a body that runs to the close), a request to
    another server and a failed request each drop it, and the next request
    opens a new one. Not thread-safe: one session serves one thread at a
    time."""

    def __init__(self):
        self._socket: Optional[socket.socket] = None
        self._rfile: Optional[BinaryIO] = None
        self._origin: Optional[Tuple[str, str]] = None

    def request(self, method: str, url: str, body: Optional[bytes] = None,
                headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        """Send one request in one write, with `Host`, `Accept-Encoding:
        identity` and, for a body, `Content-Length`, and read the whole
        answer: (status, body)."""
        parts = urlsplit(url)
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        head = [f"{method} {target} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
                "Accept-Encoding: identity\r\n"]
        if body is not None:
            head.append(f"Content-Length: {len(body)}\r\n")
        head.extend(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
        head.append("\r\n")
        try:
            if not (_URL_PART.fullmatch(target) and _URL_PART.fullmatch(parts.netloc)):
                raise BadResponse(f"no request can be sent for {url!r}")
            origin = (parts.scheme, parts.netloc)
            if self._socket is None or origin != self._origin:
                self.close()
                self._connect(parts)
                self._origin = origin
            self._socket.sendall("".join(head).encode("ascii") + (body or b""))
            status, content, closes = self._read_response(method)
        except BaseException:
            self.close()
            raise
        if closes:
            self.close()
        return status, content

    def _connect(self, parts: SplitResult):
        try:
            port = parts.port or (443 if parts.scheme == "https" else 80)
        except ValueError as exc:
            raise BadResponse(f"bad port in {parts.netloc!r}") from exc
        host = parts.hostname or ""
        sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if parts.scheme == "https":
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
            self._rfile = sock.makefile("rb")
        except BaseException:
            sock.close()
            raise
        self._socket = sock

    def _read_response(self, method: str) -> Tuple[int, bytes, bool]:
        """(status, body, whether the connection ends) of the final answer,
        framed by RFC 9112 §6.3. Interim 1xx answers are skipped."""
        rfile = self._rfile
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

    def close(self):
        if self._socket is not None:
            self._rfile.close()
            self._socket.close()
            self._socket = self._rfile = None


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


def _request_with_retry(session: Session, method: str, url: str,
                        headers: Optional[Dict[str, str]] = None,
                        json: object = None) -> bytes:
    """The body of a 2xx answer. A connection failure is retried with
    backoff; an error status is a TransportError at once."""
    headers = dict(headers or {})
    body = None
    if json is not None:
        body = _json_bytes(json)
        headers["Content-Type"] = "application/json"
    delay = RETRY_BACKOFF_S
    for attempt in range(RETRY_ATTEMPTS):
        try:
            status, content = session.request(method, url, body=body, headers=headers)
        except (OSError, BadResponse) as exc:
            if attempt == RETRY_ATTEMPTS - 1:
                raise TransportError(f"{method} {url} failed after "
                                     f"{RETRY_ATTEMPTS} attempts: {exc!r}") from exc
            time.sleep(delay)
            delay *= 2
            continue
        if not 200 <= status < 300:
            raise TransportError(f"{method} {url} answered HTTP {status}")
        return content


def _json_bytes(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def _json_body(method: str, url: str, content: bytes) -> dict:
    try:
        return json.loads(content)
    except (ValueError, RecursionError) as exc:
        raise TransportError(f"{method} {url} answered a body that is not JSON") from exc


def _expand_template(template: str, values: Dict[str, Value]) -> str:
    """RFC 6570 level-3 query expansion for the `{?a,b}` form."""
    match = _TEMPLATE_QUERY.search(template)
    if not match:
        return template
    names = [n for n in match.group(1).split(",") if n]
    query = urlencode([(n, values[n]) for n in names if n in values])
    base = template[:match.start()] + template[match.end():]
    return f"{base}?{query}" if query else base


def _api_base(page_url: str) -> str:
    parts = urlparse(page_url)
    return f"{parts.scheme}://{parts.netloc}"


class Client:
    """Crawler bound to one server through one `Session`, its own unless one
    is passed in: one kept-alive connection, opened on first use and closed
    by `close()`. Use a client from one thread at a time."""

    def __init__(self, session: Optional[Session] = None):
        self.session = session or Session()

    def close(self):
        self.session.close()

    def fetch_page(self, page_url: str) -> bytes:
        return _request_with_retry(self.session, "GET", page_url)

    def _search_step(self, trace: ResolutionTrace, url: str) -> dict:
        start = time.perf_counter()
        doc = _json_body("GET", url, _request_with_retry(self.session, "GET", url))
        trace.steps.append(Step(url, doc.get("total_count", 0),
                                time.perf_counter() - start))
        return doc

    def _book_step(self, trace: ResolutionTrace, book_url: str, canonical_id: str) -> dict:
        start = time.perf_counter()
        doc = _json_body("POST", book_url,
                         _request_with_retry(self.session, "POST", book_url,
                                             json={"canonical_id": canonical_id}))
        trace.steps.append(Step(book_url, 1, time.perf_counter() - start))
        return doc

    def _find_offer(self, trace: ResolutionTrace, search_url_base: str,
                    desired: Dict[str, Value]) -> Optional[dict]:
        """Issue the search, paginating until the desired variation shows up or
        the result set is exhausted. Each page is one recorded round trip."""
        page = 1
        per_page = 200
        while True:
            joiner = "&" if "?" in search_url_base else "?"
            url = f"{search_url_base}{joiner}page={page}&per_page={per_page}"
            doc = self._search_step(trace, url)
            for offer in doc.get("offers", []):
                if offer.get("assignments") == desired:
                    return offer
            if page * per_page >= doc.get("total_count", 0):
                return None
            page += 1

    def resolve(self, page_url: str, desired: Dict[str, Value],
                book: bool = False,
                annotations: Union[AnnotationIndex, List[ParsedAnnotation], None] = None
                ) -> ResolutionTrace:
        """Resolve a fully specified desired assignment against a published
        page, fetched unless its annotations are given: prefer an exactly
        matching concrete annotation (verified with a point search),
        otherwise follow the most specific consistent annotation's search
        action. A point query with zero results is a dead end: the variation
        is not available."""
        heuristic = urlparse(page_url).path.rstrip("/").rsplit("/", 1)[-1]
        trace = ResolutionTrace(heuristic=heuristic, query=dict(desired))
        if annotations is None:
            annotations, _ = extract_annotations(self.fetch_page(page_url))
        index = (annotations if isinstance(annotations, AnnotationIndex)
                 else AnnotationIndex(annotations))

        if index.concrete(desired) is not None:
            # Verify the published claim with a point query.
            url = f"{_api_base(page_url)}/api/search?{urlencode(sorted(desired.items()))}"
            doc = self._search_step(trace, url)
            offer = next((o for o in doc.get("offers", [])
                          if o.get("assignments") == desired), None)
        else:
            chosen = index.action(desired)
            if chosen is None:
                return trace  # dead_end, zero api calls: pathological page
            base = _expand_template(chosen.action.target_template,
                                    {n: desired[n] for n in chosen.action.input_names
                                     if n in desired})
            offer = self._find_offer(trace, base, desired)

        if offer is None:
            trace.outcome = "dead_end"
            return trace
        trace.offer = offer
        if not book:
            trace.outcome = "found_not_booked"
            return trace
        result = self._book_step(trace, offer["book_url"], offer["canonical_id"])
        trace.outcome = "booked" if result.get("status") == "confirmed" else "dead_end"
        return trace


def resolve(page_url: str, desired: Dict[str, Value], book: bool = False) -> ResolutionTrace:
    client = Client()
    try:
        return client.resolve(page_url, desired, book=book)
    finally:
        client.close()


def hit_ratio_experiment(page_url: str, catalog: ProductCatalog, n_queries: int,
                         seed: int, book: bool = False,
                         concurrency: int = 8) -> dict:
    """Sample desired assignments uniformly (seeded) from the catalog's
    variation space and aggregate resolution traces."""
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    rng = Random(seed)
    queries = [
        {d.name: rng.choice(d.values) for d in catalog.dimensions}
        for _ in range(n_queries)
    ]
    page_client = Client()
    try:
        annotations, _ = extract_annotations(page_client.fetch_page(page_url))
    finally:
        page_client.close()
    index = AnnotationIndex(annotations)

    def one(desired):
        # Each query gets its own client, and so its own connection for its
        # search and booking, closed once it is resolved; a client is not
        # shared between threads.
        client = Client()
        try:
            return client.resolve(page_url, desired, book=book, annotations=index)
        finally:
            client.close()

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        traces = list(pool.map(one, queries))

    hits = sum(1 for t in traces if t.outcome in ("booked", "found_not_booked"))
    dead_ends = sum(1 for t in traces if t.outcome == "dead_end")
    return {
        "page_url": page_url,
        "n_queries": n_queries,
        "seed": seed,
        "hit_ratio": hits / n_queries,
        "dead_end_rate": dead_ends / n_queries,
        "mean_api_calls": sum(t.api_calls for t in traces) / n_queries,
        "booked": sum(1 for t in traces if t.outcome == "booked"),
    }
