"""Expected answers for the benchmark's checks, computed from the catalog and
config files alone. Nothing here imports matpub: a bug in matpub's own
enumeration, pricing or counting formulas cannot hide in the check."""
from __future__ import annotations

import json
import re
from datetime import date, timedelta
from decimal import Decimal
from math import prod
from typing import Dict, List, Optional
from urllib.parse import quote

SCRIPT_OPEN = b'<script type="application/ld+json">'
PRODUCT_DIV = b'<div class="product"'
IN_STOCK = b"schema.org/InStock"
OUT_OF_STOCK = b"schema.org/OutOfStock"
MARKERS = (SCRIPT_OPEN, PRODUCT_DIV, IN_STOCK, OUT_OF_STOCK)
_BLOCK = re.compile(rb'<script type="application/ld\+json">(.*?)</script>', re.S)
# Pages up to this size are also parsed block by block; bigger ones
# (the full page is about 108 MB) are checked by marker counts only.
PARSE_LIMIT = 2_000_000


def _expand(kind: str, spec) -> tuple:
    if isinstance(spec, list):
        return tuple(spec)
    count = int(spec["count"])
    if kind == "temporal":
        start = date.fromisoformat(spec["start"])
        return tuple((start + timedelta(days=i)).isoformat() for i in range(count))
    start, step = int(spec["start"]), int(spec.get("step", 1))
    return tuple(start + i * step for i in range(count))


def _enc(part) -> str:
    return quote(str(part), safe="")


class CatalogOracle:
    """The variation space of one catalog file, as the API documents it."""

    def __init__(self, catalog_doc: dict, length_threshold: int):
        dims = catalog_doc["dimensions"]
        self.names: List[str] = [d["name"] for d in dims]
        self.values: Dict[str, tuple] = {d["name"]: _expand(d["kind"], d["values"])
                                         for d in dims}
        pricing = catalog_doc["pricing"]
        self.base = Decimal(str(pricing["base"]))
        self.currency = pricing["currency"]
        self.modifiers = {(m["dimension"], m["value"]): Decimal(str(m["delta"]))
                          for m in pricing.get("modifiers", [])}
        self.rate = float(catalog_doc["inventory"]["availability_rate"])
        # Short dimensions: more than one value, at most `length_threshold`.
        self.short = [n for n in self.names
                      if 1 < len(self.values[n]) <= length_threshold]

    @classmethod
    def from_files(cls, catalog_path, config_path) -> "CatalogOracle":
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        with open(catalog_path, encoding="utf-8") as fh:
            catalog_doc = json.load(fh)
        threshold = config.get("policies", {}).get("classification", {}) \
            .get("length_threshold", 5)
        return cls(catalog_doc, int(threshold))

    def subspace_size(self, constraints: Dict[str, object]) -> int:
        return prod(1 if n in constraints else len(self.values[n]) for n in self.names)

    def expected_blocks(self, heuristic: str) -> int:
        lengths = [len(self.values[n]) for n in self.names]
        if heuristic == "full":
            return prod(lengths)
        if heuristic == "type-level":
            return sum(lengths)
        if heuristic == "selective":
            return prod(len(self.values[n]) for n in self.short)
        return 1  # abstraction, specialization

    def canonical_id(self, assignments: Dict[str, object]) -> str:
        return "|".join(f"{_enc(n)}={_enc(assignments[n])}" for n in self.names)

    def price(self, assignments: Dict[str, object]) -> str:
        total = self.base + sum((self.modifiers.get((n, assignments[n]), Decimal(0))
                                 for n in self.names), Decimal(0))
        return f"{total:.2f}"

    def sample(self, rng) -> Dict[str, object]:
        return {n: rng.choice(self.values[n]) for n in self.names}

    def check_offer(self, offer: dict, constraints: Dict[str, object]) -> Optional[str]:
        """None if the search offer is a real variation that satisfies the
        constraints and carries the right id and price, else the reason."""
        assignments = offer.get("assignments")
        if not isinstance(assignments, dict) or set(assignments) != set(self.names):
            return f"offer assignments {assignments!r} do not cover the dimensions"
        for name, value in assignments.items():
            if value not in self.values[name]:
                return f"offer value {name}={value!r} is not in the catalog"
        for name, value in constraints.items():
            if assignments[name] != value:
                return f"offer {name}={assignments[name]!r} violates constraint {value!r}"
        if offer.get("canonical_id") != self.canonical_id(assignments):
            return f"offer id {offer.get('canonical_id')!r} is not canonical"
        if offer.get("price") != self.price(assignments) \
                or offer.get("currency") != self.currency:
            return f"offer price {offer.get('price')!r} {offer.get('currency')!r} is wrong"
        if offer.get("available") is not True:
            return "search returned an unavailable offer"
        return None


class MarkerCounter:
    """Counts the page markers over a streamed body without keeping it."""

    def __init__(self):
        self.counts = dict.fromkeys(MARKERS, 0)
        self.size = 0
        self._tail = b""
        self._keep = max(len(m) for m in MARKERS) - 1
        self.kept: Optional[List[bytes]] = []

    def feed(self, chunk: bytes):
        self.size += len(chunk)
        data = self._tail + chunk
        for marker in MARKERS:
            # The markers cannot overlap themselves, so a match inside the
            # carried-over tail was already counted.
            self.counts[marker] += data.count(marker) - self._tail.count(marker)
        self._tail = data[-self._keep:]
        if self.kept is not None:
            self.kept.append(chunk)
            if self.size > PARSE_LIMIT:
                self.kept = None


def check_page(oracle: CatalogOracle, heuristic: str, page: MarkerCounter,
               endpoint: str) -> Optional[str]:
    """None if the page embeds the expected number of JSON-LD product blocks,
    each with a visible element and the availability the inventory implies."""
    expected = oracle.expected_blocks(heuristic)
    blocks = page.counts[SCRIPT_OPEN]
    if blocks != expected:
        return f"{heuristic}: {blocks} JSON-LD blocks, expected {expected}"
    if page.counts[PRODUCT_DIV] != expected:
        return f"{heuristic}: {page.counts[PRODUCT_DIV]} product elements, expected {expected}"
    # The benchmark resets the inventory and books nothing before a page, so
    # every block is in stock at rate 1 and out of stock at rate 0.
    stock = IN_STOCK if oracle.rate >= 1.0 else OUT_OF_STOCK
    if page.counts[stock] != expected:
        return f"{heuristic}: {page.counts[stock]} blocks marked {stock.decode()}, " \
               f"expected {expected}"
    if page.kept is None:
        return None
    for raw in _BLOCK.findall(b"".join(page.kept)):
        try:
            doc = json.loads(raw)
        except ValueError:
            return f"{heuristic}: malformed JSON-LD block"
        if doc.get("@type") != "Product":
            return f"{heuristic}: block of type {doc.get('@type')!r}"
        if heuristic != "full":
            action = doc.get("offers", {}).get("potentialAction") or {}
            template = action.get("target", {}).get("urlTemplate", "")
            if not template.startswith(endpoint + "/api/search"):
                return f"{heuristic}: block without a search action on {endpoint}"
    return None

