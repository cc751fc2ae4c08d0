"""Reference for `matpub.annotate.PageScanner`: the same scan written on the
standard library's `HTMLParser`, which tokenizes the whole page. Kept free of
`matpub` on purpose, so the pattern-based scanner is checked against an
independent oracle."""
from html.parser import HTMLParser
from typing import Callable, List, Optional


class JsonLdScanner(HTMLParser):
    """Finds a page's `application/ld+json` blocks and the ids of its visible
    product elements, in document order. The page may be fed in pieces. Each
    block's text goes to `on_block` as its script element closes, and each
    element id to `on_element`; no block is kept after it is handed over."""

    def __init__(self, on_block: Callable[[str], object],
                 on_element: Callable[[str], object] = lambda element_id: None):
        super().__init__(convert_charrefs=True)
        self._on_block = on_block
        self._on_element = on_element
        self._block: Optional[List[str]] = None  # text of the open block

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if tag == "script" and attrs.get("type") == "application/ld+json":
            self._block = []
        elif "product" in (attrs.get("class") or "").split() and attrs.get("id"):
            self._on_element(attrs["id"])

    def handle_data(self, data):
        if self._block is not None:
            self._block.append(data)

    def handle_endtag(self, tag):
        if tag == "script" and self._block is not None:
            text, self._block = "".join(self._block), None
            self._on_block(text)
