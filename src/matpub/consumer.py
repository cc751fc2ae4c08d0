"""B2B crawler client: extracts JSON-LD annotations from an annotated page,
follows embedded search actions, and resolves a desired variation to a concrete
bookable offer, recording every round trip."""
from __future__ import annotations

import http.client
import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode, urlparse, urlsplit

from .annotate import PageScanner
from .catalog import ProductCatalog, Value

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


def _parse_block(doc: dict) -> Optional[ParsedAnnotation]:
    if doc.get("@type") != "Product":
        return None
    fixed: Dict[str, Value] = {}
    ranges: Dict[str, dict] = {}
    for prop in doc.get("additionalProperty", []):
        name = prop.get("name")
        if name is None:
            continue
        if "minValue" in prop:
            ref = prop.get("valueReference") or {}
            ranges[name] = {"min": prop["minValue"], "max": prop["maxValue"],
                            "count": ref.get("value")}
        elif isinstance(prop.get("value"), list):
            ranges[name] = {"values": prop["value"]}
        else:
            fixed[name] = prop.get("value")
    offer = doc.get("offers", {})
    price = offer.get("price")
    price_range = None
    spec = offer.get("priceSpecification")
    if spec:
        price_range = (spec.get("minPrice"), spec.get("maxPrice"))
    currency = offer.get("priceCurrency") or (spec or {}).get("priceCurrency")
    available = str(offer.get("availability", "")).endswith("InStock")
    action = None
    action_doc = offer.get("potentialAction")
    if action_doc:
        template = (action_doc.get("target") or {}).get("urlTemplate", "")
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
    """Parse every JSON-LD product block on the page. Malformed blocks are
    skipped with a warning record; unrelated blocks are ignored."""
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
        annotation = _parse_block(doc) if isinstance(doc, dict) else None
        if annotation is not None:
            parsed.append(annotation)

    scanner = PageScanner(block)
    scanner.feed(page.decode("utf-8"))
    scanner.close()
    return parsed, warnings


# ---------------------------------------------------------------------------
# HTTP with bounded retries (connection failures only; empty results are signal)

class Session:
    """One HTTP/1.1 connection, opened on first use and kept alive across
    requests to the same server. A response that ends the connection
    (`will_close`), a request to another server and a failed request each
    drop it, and the next request opens a new one. Not thread-safe: one
    session serves one thread at a time."""

    def __init__(self):
        self._connection: Optional[http.client.HTTPConnection] = None
        self._origin: Optional[Tuple[str, str]] = None

    def request(self, method: str, url: str, body: Optional[bytes] = None,
                headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        """Send one request and read the whole answer: (status, body)."""
        parts = urlsplit(url)
        origin = (parts.scheme, parts.netloc)
        if self._connection is None or origin != self._origin:
            self.close()
            factory = (http.client.HTTPSConnection if parts.scheme == "https"
                       else http.client.HTTPConnection)
            self._connection = factory(parts.netloc, timeout=TIMEOUT_S)
            self._origin = origin
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        try:
            self._connection.request(method, target, body=body, headers=headers or {})
            response = self._connection.getresponse()
            content = response.read()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, content

    def close(self):
        if self._connection is not None:
            self._connection.close()
            self._connection = None


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
        except (OSError, http.client.HTTPException) as exc:
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
                annotations: Optional[List[ParsedAnnotation]] = None) -> ResolutionTrace:
        """Resolve a fully specified desired assignment against a published
        page: prefer an exactly matching concrete annotation (verified with a
        point search), otherwise follow the most specific consistent
        annotation's search action. A point query with zero results is a dead
        end: the variation is not available."""
        heuristic = urlparse(page_url).path.rstrip("/").rsplit("/", 1)[-1]
        trace = ResolutionTrace(heuristic=heuristic, query=dict(desired))
        if annotations is None:
            annotations, _ = extract_annotations(self.fetch_page(page_url))

        concrete = next((a for a in annotations
                         if not a.ranges and a.fixed == desired), None)
        if concrete is not None:
            # Verify the published claim with a point query.
            url = f"{_api_base(page_url)}/api/search?{urlencode(sorted(desired.items()))}"
            doc = self._search_step(trace, url)
            offer = next((o for o in doc.get("offers", [])
                          if o.get("assignments") == desired), None)
        else:
            # Follow the action of the most specific consistent annotation,
            # the first on the page among equals.
            chosen = max((a for a in annotations if a.action is not None
                          and all(desired.get(k) == v for k, v in a.required.items())),
                         key=lambda a: len(a.required), default=None)
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

    def one(desired):
        # Each query gets its own client, and so its own connection for its
        # search and booking, closed once it is resolved; a client is not
        # shared between threads.
        client = Client()
        try:
            return client.resolve(page_url, desired, book=book, annotations=annotations)
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
