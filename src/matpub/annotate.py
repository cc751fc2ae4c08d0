"""JSON-LD serialization of publication items, the elevation step (attaching a
SearchAction service description), annotated HTML page rendering, the page
scanner that reads a page's blocks back, and the content-conformity checker."""
from __future__ import annotations

import hashlib
import html
import io
import json
import re
from dataclasses import dataclass, field
from decimal import Decimal
from functools import partial
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import heuristics
from .catalog import DimensionKind, Inventory, ProductCatalog, RangeSummary, Value
from .heuristics import ItemKind, PublicationItem

SCHEMA_CONTEXT = "https://schema.org"
IN_STOCK = "https://schema.org/InStock"
OUT_OF_STOCK = "https://schema.org/OutOfStock"


class AnnotateError(ValueError):
    pass


class ElevationError(AnnotateError):
    """Item does not require (or is missing) elevation."""


class PageNotFound(LookupError):
    """Requested page is out of range."""


@dataclass(frozen=True)
class InputParam:
    name: str
    required: bool = True


@dataclass(frozen=True)
class ServiceDescription:
    target_url_template: str
    inputs: Tuple[InputParam, ...]


def elevate(item: PublicationItem, endpoint_base: str,
            catalog: ProductCatalog) -> ServiceDescription:
    """Attach a search-service description. Inputs cover the non-fixed
    dimensions; concrete elevated items (the specialization case) instead get
    inputs over ALL dimensions so clients can discover sibling variations."""
    if not item.requires_elevation:
        raise ElevationError("item does not require elevation")
    if item.kind is ItemKind.CONCRETE:
        input_names = catalog.dimension_names
    else:
        input_names = [d.name for d in catalog.dimensions if d.name not in item.fixed]
    params = tuple(InputParam(name, required=True) for name in input_names)
    base = endpoint_base.rstrip("/")
    if params:
        template = f"{base}/api/search{{?{','.join(p.name for p in params)}}}"
    else:
        template = f"{base}/api/search"
    return ServiceDescription(template, params)


@dataclass(frozen=True)
class Annotation:
    item: PublicationItem
    jsonld: bytes
    byte_size: int
    dom_anchor_id: str


def dom_anchor_id(item: PublicationItem) -> str:
    """Stable element id: hash of the item's canonical fixed-set string."""
    digest = hashlib.blake2b(item.fixed_set_id().encode("utf-8"), digest_size=6)
    return f"p-{digest.hexdigest()}"


def _money(amount: Decimal) -> bytes:
    return f"{amount:.2f}".encode("ascii")


def _json(value) -> bytes:
    """A JSON scalar or list of scalars, written as it appears inside a
    canonical document: no whitespace, UTF-8."""
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _describe_range(summary: RangeSummary) -> str:
    if summary.kind is DimensionKind.CATEGORICAL:
        return "any of: " + ", ".join(str(v) for v in summary.values)
    return f"{summary.min_value} to {summary.max_value} ({summary.count} options)"


def _fixed_property(name: bytes, value: Value) -> bytes:
    return (b'{"@type":"PropertyValue","name":' + name
            + b',"value":' + _json(value) + b"}")


def _row(label: str, value) -> bytes:
    """A visible <dt>/<dd> pair; `label` is already escaped."""
    return f"<dt>{label}</dt><dd>{html.escape(str(value))}</dd>".encode("utf-8")


class _Memo(dict):
    """A dict that builds a missing entry with `build(key)` and keeps it."""

    def __init__(self, build: Callable):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


class FragmentTable:
    """The pre-serialized pieces of one catalog's annotations and visible
    blocks. A piece is built on first use and reused afterwards, so an item
    costs one lookup per dimension instead of a JSON encode and an HTML escape.

    JSON objects are written with their keys in sorted order, which is the
    order `json.dumps(sort_keys=True)` gives: the document is
    @context @id @type additionalProperty description image name offers, the
    offer @type areaServed availability [potentialAction] price priceCurrency
    (or priceSpecification)."""

    def __init__(self, catalog: ProductCatalog):
        currency = _json(catalog.pricing.currency)
        self.doc_open = b'{"@context":' + _json(SCHEMA_CONTEXT) + b',"@id":"#'
        self.doc_properties = b'","@type":"Product","additionalProperty":['
        self.doc_offer = (
            b'],"description":' + _json(catalog.description)
            + b',"image":' + _json(catalog.image_url)
            + b',"name":' + _json(catalog.product_name)
            + b',"offers":{"@type":"Offer","areaServed":' + _json(catalog.area_served)
            + b',"availability":')
        self.in_stock = _json(IN_STOCK) + b","
        self.out_of_stock = _json(OUT_OF_STOCK) + b","
        self.price_tail = b'","priceCurrency":' + currency + b"}}"
        self.price_range_tail = b'","priceCurrency":' + currency + b"}}}"
        # (dimension name, value -> fragment) in declared order; the range
        # fragments are keyed by (dimension name, RangeSummary).
        self.properties = [(d.name, _Memo(partial(_fixed_property, _json(d.name))))
                           for d in catalog.dimensions]
        self.range_properties = _Memo(lambda key: _range_property(*key))

        labels = {d.name: html.escape(d.display_label or d.name)
                  for d in catalog.dimensions}
        self.rows = [(d.name, _Memo(partial(_row, labels[d.name])))
                     for d in catalog.dimensions]
        self.range_rows = _Memo(lambda key: _row(labels[key[0]], _describe_range(key[1])))
        name = html.escape(catalog.product_name)
        self.titles = {kind: f"<h2>{name} ({kind.value})</h2>\n".encode("utf-8")
                       for kind in ItemKind}
        self.price_suffix = f" {catalog.pricing.currency}".encode("utf-8")
        # Prices and service descriptions repeat across items; build each
        # distinct one once.
        self.money = _Memo(_money)
        self.actions = _Memo(_action_fragment)


def _range_property(name: str, summary: RangeSummary) -> bytes:
    head = b'{"@type":"PropertyValue",'
    if summary.kind is DimensionKind.CATEGORICAL:
        return (head + b'"name":' + _json(name)
                + b',"value":' + _json(list(summary.values)) + b"}")
    return (head + b'"maxValue":' + _json(summary.max_value)
            + b',"minValue":' + _json(summary.min_value)
            + b',"name":' + _json(name)
            + b',"valueReference":{"@type":"QuantitativeValue","value":'
            + _json(summary.count) + b"}}")


def _action_fragment(service: ServiceDescription) -> bytes:
    """The offer's `"potentialAction":{...},` member. Its keys depend on the
    input names, so they are sorted here."""
    members = {
        "@type": b'"SearchAction"',
        "result": b'{"@type":"Offer"}',
        "target": (b'{"@type":"EntryPoint","urlTemplate":'
                   + _json(service.target_url_template) + b"}"),
    }
    for param in service.inputs:
        members[f"{param.name}-input"] = (
            b'{"@type":"PropertyValueSpecification","valueName":' + _json(param.name)
            + b',"valueRequired":' + _json(param.required) + b"}")
    body = b",".join(_json(key) + b":" + value for key, value in sorted(members.items()))
    return b'"potentialAction":{' + body + b"},"


def serialize(item: PublicationItem, service: Optional[ServiceDescription],
              catalog: ProductCatalog,
              fragments: Optional[FragmentTable] = None) -> Annotation:
    """Canonical JSON-LD bytes: sorted keys, no whitespace, UTF-8, joined from
    the catalog's fragment table. A stream passes one table for all its
    items; without one, a table is built for this call."""
    if item.requires_elevation and service is None:
        raise AnnotateError("elevated item serialized without a service description")
    if not item.requires_elevation and service is not None:
        raise AnnotateError("service description attached to a non-elevated item")
    f = fragments or FragmentTable(catalog)
    anchor = dom_anchor_id(item)
    fixed, ranges = item.fixed, item.ranges
    properties = [values[fixed[name]] if name in fixed
                  else f.range_properties[name, ranges[name]]
                  for name, values in f.properties if name in fixed or name in ranges]
    if item.exact_price is not None:
        price = b'"price":"' + f.money[item.exact_price] + f.price_tail
    else:
        lo, hi = item.price_range
        price = (b'"priceSpecification":{"@type":"PriceSpecification","maxPrice":"'
                 + f.money[hi] + b'","minPrice":"' + f.money[lo] + f.price_range_tail)
    payload = b"".join((
        f.doc_open, anchor.encode("ascii"), f.doc_properties, b",".join(properties),
        f.doc_offer, f.in_stock if item.available else f.out_of_stock,
        b"" if service is None else f.actions[service], price,
    ))
    return Annotation(item=item, jsonld=payload, byte_size=len(payload),
                      dom_anchor_id=anchor)


@dataclass(frozen=True)
class AnnotationStream:
    """The publication pipeline as a lazy view of the heuristic's items,
    elevated where needed and serialized, in page order. It streams, its
    `len()` is the closed-form count, and a slice builds only its own items.
    `publication_items` is looked up on its module per call, for tracing."""
    catalog: ProductCatalog
    heuristic: str
    snapshot: Optional[Inventory]
    policies: Optional[heuristics.HeuristicPolicies]
    endpoint_base: str

    def __len__(self) -> int:
        return heuristics.expected_count(self.catalog, self.heuristic, self.policies)

    def __getitem__(self, index: slice) -> List[Annotation]:
        # Not len(self), which refuses a count above sys.maxsize.
        count = heuristics.expected_count(self.catalog, self.heuristic, self.policies)
        start, stop, step = index.indices(count)
        if step != 1:
            raise ValueError("an annotation stream slices with step 1 only")
        return list(self.__iter__(start=start, stop=stop))

    def __iter__(self, **bounds) -> Iterator[Annotation]:
        fragments = FragmentTable(self.catalog)
        for item in heuristics.publication_items(self.catalog, self.heuristic,
                                                 self.snapshot, self.policies, **bounds):
            service = (elevate(item, self.endpoint_base, self.catalog)
                       if item.requires_elevation else None)
            yield serialize(item, service, self.catalog, fragments)


annotation_stream = AnnotationStream


# ---------------------------------------------------------------------------
# HTML rendering

_SCRIPT_OPEN = b'<script type="application/ld+json">'
_SCRIPT_CLOSE = b"</script>\n"


def _page_head(catalog: ProductCatalog, title_suffix: str = "") -> bytes:
    title = html.escape(catalog.product_name + title_suffix)
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{title}</title>\n"
        "<style>body{font-family:sans-serif;margin:2em}"
        ".product{border:1px solid #ccc;margin:1em 0;padding:1em}</style>\n"
        "</head>\n<body>\n"
        f"<h1>{html.escape(catalog.product_name)}</h1>\n"
        f"<p class=\"description\">{html.escape(catalog.description)}</p>\n"
    ).encode("utf-8")


_PAGE_TAIL = b"</body>\n</html>\n"


def _visible_block(annotation: Annotation, catalog: ProductCatalog,
                   fragments: Optional[FragmentTable] = None) -> bytes:
    f = fragments or FragmentTable(catalog)
    item = annotation.item
    fixed = item.fixed
    rows = [values[fixed[name]] if name in fixed
            else f.range_rows[name, item.ranges[name]]
            for name, values in f.rows]
    if item.exact_price is not None:
        price = f.money[item.exact_price]
    else:
        lo, hi = item.price_range
        price = f.money[lo] + b"&ndash;" + f.money[hi]
    return b"".join((
        b'<div class="product" id="', annotation.dom_anchor_id.encode("ascii"), b'">\n',
        f.titles[item.kind], b"<dl>", *rows, b'</dl>\n<p class="price">',
        price, f.price_suffix, b'</p>\n<p class="availability">',
        b"Available" if item.available else b"Currently unavailable",
        b"</p>\n</div>\n",
    ))


def block_overhead(annotation: Annotation, catalog: ProductCatalog) -> int:
    """Bytes a rendered block adds beyond the raw annotation bytes."""
    return (len(_SCRIPT_OPEN) + len(_SCRIPT_CLOSE)
            + len(_visible_block(annotation, catalog)))


def page_shell_size(catalog: ProductCatalog) -> int:
    return len(_page_head(catalog)) + len(_PAGE_TAIL)


def render_page_stream(annotations: Iterable[Annotation], catalog: ProductCatalog,
                       write: Callable[[bytes], object]) -> int:
    """Write a bulk page through `write`, one block per annotation, without
    holding it in memory. Returns the total byte count."""
    fragments = FragmentTable(catalog)
    head = _page_head(catalog)
    write(head)
    total = len(head) + len(_PAGE_TAIL)
    for annotation in annotations:
        block = b"".join((_SCRIPT_OPEN, annotation.jsonld, _SCRIPT_CLOSE,
                          _visible_block(annotation, catalog, fragments)))
        write(block)
        total += len(block)
    write(_PAGE_TAIL)
    return total


def _page_slice(annotations: Sequence[Annotation], page: int,
                per_page: int) -> Sequence[Annotation]:
    """The annotations of the 1-based `page`, as one slice. A heuristic that
    cannot publish raises from the slice, before any page is out of range."""
    chunk = annotations[max(0, page - 1) * per_page:max(0, page) * per_page]
    if page < 1 or (page > 1 and not chunk):
        last = max(1, -(-len(annotations) // per_page))
        raise PageNotFound(f"page {page} out of range 1..{last}")
    return chunk


def render_page(annotations: Sequence[Annotation], catalog: ProductCatalog,
                page: Optional[int] = None,
                per_page: Optional[int] = None) -> bytes:
    """Bulk mode embeds every annotation; paginated mode (page, per_page both
    given, 1-based) embeds only the current page's slice. `annotations` may
    be a stream; the page is written into one buffer as it is read."""
    if page is not None:
        if per_page is None or per_page < 1:
            raise AnnotateError("paginated mode needs per_page >= 1")
        annotations = _page_slice(annotations, page, per_page)
    buf = io.BytesIO()
    render_page_stream(annotations, catalog, buf.write)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Conformity checking

@dataclass
class ConformityReport:
    conforms: bool
    orphans: List[Tuple[str, str]] = field(default_factory=list)


# The patterns read the markup `render_page_stream` writes, as
# `html.parser.HTMLParser` tokenizes it, and stop only at the tokens that can
# open a script or style element or name a product element. The regex engine
# skips the rest: an end tag, or a declaration other than a comment or marked
# section, with no "<" before its ">"; a start tag with a plain name other
# than script or style whose attribute values are free of "<", ">" and "&" and
# never contain "product"; and a "<" of text. None of these holds a "<", so no
# token the scanner must see starts inside a skipped one.
_SKIPPED_TOKEN = (
    r"/[^<>]*>"
    r"|!(?!--|\[)[^<>]*>"
    r"|(?![sS][cC][rR][iI][pP][tT][\t\n\r\f >]|[sS][tT][yY][lL][eE][\t\n\r\f >])"
    r"[a-zA-Z][a-zA-Z0-9]*"
    r'(?:[\t\n\r\f ]+[a-zA-Z][-a-zA-Z]*="(?:[^"<>&p]|p(?!roduct))*")*[\t\n\r\f ]*>'
    r"|[^a-zA-Z/!?]"
)
# The next token to look at. A start tag whose attributes are all
# double-quoted is read in the same match (name and attributes in groups 1
# and 2): HTMLParser reads each such attribute as written, with its character
# references decoded.
_NEXT_TOKEN = re.compile(
    rf"<(?!{_SKIPPED_TOKEN})"
    r'(?:([a-zA-Z][a-zA-Z0-9]*)((?:[\t\n\r\f ]+[a-zA-Z][-a-zA-Z]*="[^"]*")*)[\t\n\r\f ]*>)?')
_PLAIN_ATTRIBUTE = re.compile(r'([a-zA-Z][-a-zA-Z]*)="([^"]*)"')
# Script and style text runs to the element's end tag, unparsed.
_RAW_TEXT_END = {tag: re.compile(rf"</\s*{tag}\s*>", re.I) for tag in ("script", "style")}


class PageScanner:
    """Finds a page's `application/ld+json` blocks and the ids of its visible
    product elements (an element whose class list holds `product`), in
    document order, as the running Python's `html.parser.HTMLParser` reads
    the whole page. Each block's text goes to `on_block` as its script
    element closes, undecoded, and each element id, decoded, to `on_element`;
    a script that never closes is no block.

    The page may be fed in pieces, and however it is cut the result is the
    whole page's. Compiled patterns read the markup `render_page_stream`
    writes (see `_SKIPPED_TOKEN`); a token cut by a piece waits for the next
    one. From the first token they do not read, the rest of the page is held
    and given whole to `HTMLParser` at `close()`, where a malformed marked
    section (`<![...`) reads as a comment up to the next ">"."""

    def __init__(self, on_block: Callable[[str], object],
                 on_element: Callable[[str], object] = lambda element_id: None):
        self._on_block = on_block
        self._on_element = on_element
        self._pending = ""  # the unscanned end of what was fed
        self._raw_text_end = None  # end-tag pattern of the open script or style
        self._in_block = False  # whether the open script is a JSON-LD block
        self._held: Optional[List[str]] = None  # the page from a token not read

    def feed(self, text: str):
        if self._held is not None:
            self._held.append(text)
        else:
            self._pending = self._scan(self._pending + text)

    def close(self):
        if self._held is None and self._pending and self._raw_text_end is None:
            self._held = [self._pending]  # an unfinished token ends the page
        if self._held is not None:
            _parse_with_html_parser("".join(self._held), self._start, self._on_block)

    def _scan(self, text: str) -> str:
        """Scan `text` as far as the patterns go; returns the unfinished rest."""
        i = 0
        while True:
            if self._raw_text_end is not None:
                match = self._raw_text_end.search(text, i)
                if match is None:
                    return text[i:]
                if self._in_block:
                    self._on_block(text[i:match.start()])
                self._raw_text_end, self._in_block = None, False
                i = match.end()
                continue
            match = _NEXT_TOKEN.search(text, i)
            if match is None:
                return ""
            tag = match.group(1)
            if tag is None:
                i = match.start()
                # A token with no ">" after it may still end as one the
                # patterns read, so it waits for the next piece.
                if text.find(">", i) < 0:
                    return text[i:]
                self._held = [text[i:]]
                return ""
            attrs = {}
            for name, value in _PLAIN_ATTRIBUTE.findall(match.group(2)):
                attrs[name.lower()] = html.unescape(value) if "&" in value else value
            tag = tag.lower()
            self._in_block = self._start(tag, attrs)
            self._raw_text_end = _RAW_TEXT_END.get(tag)
            i = match.end()

    def _start(self, tag: str, attrs: dict) -> bool:
        """Reports a product element; returns whether the tag opens a block."""
        if tag == "script" and attrs.get("type") == "application/ld+json":
            return True
        if "product" in (attrs.get("class") or "").split() and attrs.get("id"):
            self._on_element(attrs["id"])
        return False


def _parse_with_html_parser(text: str, start: Callable[[str, dict], bool],
                            on_block: Callable[[str], object]):
    """Read `text` whole with the running Python's `HTMLParser`, whose start
    tags go to `start` and whose blocks go to `on_block`."""
    from html.parser import HTMLParser

    class Parser(HTMLParser):
        block: Optional[List[str]] = None  # text of the open block

        def handle_starttag(self, tag, attrs):
            if start(tag, dict(attrs)):
                self.block = []

        def handle_data(self, data):
            if self.block is not None:
                self.block.append(data)

        def handle_endtag(self, tag):
            if tag == "script" and self.block is not None:
                block, self.block = "".join(self.block), None
                on_block(block)

        def parse_marked_section(self, i, report=1):
            # HTMLParser raises AssertionError on an unknown or nameless one.
            try:
                return super().parse_marked_section(i, report)
            except AssertionError:
                k = self.rawdata.find(">", i + 2)
                return k + 1 if k >= 0 else -1

    parser = Parser()
    parser.feed(text)
    parser.close()


class ConformityScanner:
    """Collects JSON-LD anchor ids and visible product element ids; can be fed
    incrementally for large pages. A malformed block's anchor is None."""

    def __init__(self):
        self.annotation_anchors: List[Optional[str]] = []
        self.element_ids: List[str] = []
        self.malformed: int = 0
        scanner = PageScanner(self._block, self.element_ids.append)
        self.feed, self.close = scanner.feed, scanner.close

    def _block(self, raw: str):
        try:
            doc = json.loads(raw)
        except (ValueError, RecursionError):
            doc = None
        # Not JSON, not a JSON object, or without an @id: malformed.
        anchor = str(doc.get("@id", "")).lstrip("#") if isinstance(doc, dict) else ""
        if not anchor:
            self.malformed += 1
        self.annotation_anchors.append(anchor or None)

    def report(self) -> ConformityReport:
        """Malformed blocks are orphans labelled `<malformed-N>`, in order."""
        anchors = set(self.annotation_anchors)
        ids = set(self.element_ids)
        orphans: List[Tuple[str, str]] = []
        labels = (f"<malformed-{k}>" for k in range(1, self.malformed + 1))
        for a in self.annotation_anchors:
            if a not in ids:
                orphans.append(("annotation", a or next(labels)))
        for eid in self.element_ids:
            if eid not in anchors:
                orphans.append(("element", eid))
        return ConformityReport(conforms=not orphans, orphans=orphans)


def conformity_check(page: bytes) -> ConformityReport:
    """True iff every embedded JSON-LD block resolves to a visible product
    element and vice versa. Malformed blocks count as orphans."""
    scanner = ConformityScanner()
    scanner.feed(page.decode("utf-8"))
    scanner.close()
    return scanner.report()
