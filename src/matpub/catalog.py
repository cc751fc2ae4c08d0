"""Multi-dimensional product model: dimensions, variation enumeration, pricing,
and seeded pseudo-inventory."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from decimal import Decimal
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union
from urllib.parse import quote, unquote

Value = Union[str, int]

TWO_PLACES = Decimal("0.01")


class CatalogError(ValueError):
    """Invalid catalog definition."""


class ValidationError(CatalogError):
    """A value or variation does not belong to the catalog."""


class DimensionKind(str, Enum):
    CATEGORICAL = "categorical"
    TEMPORAL = "temporal"
    ORDINAL = "ordinal"


@dataclass(frozen=True)
class RangeSummary:
    """Summary of a non-fixed dimension: full value list for categorical,
    min/max/count for ordinal and temporal."""

    kind: DimensionKind
    values: Optional[Tuple[Value, ...]] = None
    min_value: Optional[Value] = None
    max_value: Optional[Value] = None
    count: int = 0
    abstracted: bool = True  # False for length-1 dimensions (nothing removed)


@dataclass(frozen=True)
class DimensionDef:
    """One axis of product variation. `values` is the ordered list of admissible
    literals: strings for categorical, ISO-8601 date strings for temporal,
    integers for ordinal."""

    name: str
    kind: DimensionKind
    values: Tuple[Value, ...]
    display_label: str = ""

    def __post_init__(self):
        if not self.name:
            raise CatalogError("dimension name must be non-empty")
        if not self.values:
            raise CatalogError(f"dimension {self.name!r}: values must be non-empty")
        if len(set(self.values)) != len(self.values):
            raise CatalogError(f"dimension {self.name!r}: duplicate values")
        for v in self.values:
            if self.kind is DimensionKind.ORDINAL:
                if not isinstance(v, int):
                    raise CatalogError(f"dimension {self.name!r}: ordinal values must be integers")
            else:
                if not isinstance(v, str):
                    raise CatalogError(f"dimension {self.name!r}: values must be strings")
            if self.kind is DimensionKind.TEMPORAL:
                try:
                    date.fromisoformat(v)
                except ValueError as exc:
                    raise CatalogError(f"dimension {self.name!r}: bad date {v!r}") from exc

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def abstractable(self) -> bool:
        # Abstracting a length-1 dimension removes no information.
        return len(self.values) > 1

    @cached_property
    def id_parts(self) -> Tuple[str, ...]:
        """The canonical-id part `name=value` of each value, in declared order."""
        return tuple(_id_part(self.name, v) for v in self.values)

    @cached_property
    def summary(self) -> RangeSummary:
        """The range this dimension is published as when it is not fixed."""
        if self.kind is DimensionKind.CATEGORICAL:
            return RangeSummary(self.kind, values=tuple(self.values), count=len(self.values),
                                abstracted=self.abstractable)
        return RangeSummary(self.kind, min_value=min(self.values),
                            max_value=max(self.values), count=len(self.values),
                            abstracted=self.abstractable)


@dataclass
class PricingModel:
    """Additive pricing: price(v) = base_price + sum of per-(dimension, value)
    deltas. Values without a modifier contribute zero."""

    base_price: Decimal
    currency: str
    modifiers: Dict[Tuple[str, Value], Decimal] = field(default_factory=dict)


@dataclass(frozen=True)
class Variation:
    """One fully specified combination of dimension values."""

    assignments: Dict[str, Value]
    canonical_id: str

    def __eq__(self, other):
        return isinstance(other, Variation) and self.canonical_id == other.canonical_id

    def __hash__(self):
        return hash(self.canonical_id)


def _id_part(name: str, value: Value) -> str:
    """`name=value`, both percent-encoded so the separators stay unambiguous."""
    return f"{quote(str(name), safe='')}={quote(str(value), safe='')}"


def canonical_id_for(dimension_names: List[str], assignments: Dict[str, Value]) -> str:
    """Join `name=value` pairs with `|` in the given dimension order."""
    return "|".join(_id_part(n, assignments[n]) for n in dimension_names)


@dataclass
class ProductCatalog:
    product_name: str
    description: str
    image_url: str
    area_served: str
    dimensions: List[DimensionDef]
    pricing: PricingModel
    inventory_seed: int
    base_availability_rate: float

    def __post_init__(self):
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise CatalogError("dimension names must be unique")
        # The HTTP API's paging parameters: such a dimension could never be
        # constrained in a search.
        reserved = sorted({"page", "per_page"} & set(names))
        if reserved:
            raise CatalogError(f"dimension name {reserved[0]!r} is reserved for paging")
        if not self.dimensions:
            raise CatalogError("catalog needs at least one dimension")
        if not 0.0 <= self.base_availability_rate <= 1.0:
            raise CatalogError("availability rate must be in [0, 1]")
        check_seed(self.inventory_seed)
        values = {d.name: d.values for d in self.dimensions}
        for name, value in self.pricing.modifiers:
            if name not in values:
                raise CatalogError(f"pricing modifier on unknown dimension {name!r}")
            if value not in values[name]:
                raise CatalogError(
                    f"pricing modifier on value {value!r} not in dimension {name!r}")
        lo, _ = price_bounds(self, {})
        if lo <= 0:
            raise CatalogError(f"pricing drives some variation to {lo} <= 0")

    @property
    def dimension_names(self) -> List[str]:
        return [d.name for d in self.dimensions]

    @cached_property
    def price_table(self) -> Tuple[Tuple[str, Dict[Value, Decimal], Decimal, Decimal], ...]:
        """One row per dimension, in declared order: its name, the price delta
        of each value (in declared order), and the smallest and largest delta.
        Derived from `dimensions` and `pricing` only, which do not change
        after construction."""
        table = []
        for d in self.dimensions:
            deltas = {v: self.pricing.modifiers.get((d.name, v), Decimal("0"))
                      for v in d.values}
            table.append((d.name, deltas, min(deltas.values()), max(deltas.values())))
        return tuple(table)

    def dimension(self, name: str) -> DimensionDef:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise ValidationError(f"unknown dimension {name!r}")

    def variation(self, assignments: Dict[str, Value]) -> Variation:
        """Build (and validate) a Variation from a full assignment."""
        if set(assignments) != set(self.dimension_names):
            raise ValidationError("assignments must cover every dimension exactly once")
        for d in self.dimensions:
            if assignments[d.name] not in d.values:
                raise ValidationError(
                    f"value {assignments[d.name]!r} not in dimension {d.name!r}")
        ordered = {d.name: assignments[d.name] for d in self.dimensions}
        return Variation(ordered, canonical_id_for(self.dimension_names, ordered))


def check_seed(seed) -> None:
    """Raise CatalogError unless `seed` keys the availability hash: an
    integer (not a bool) in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise CatalogError("inventory seed must be a 64-bit unsigned integer")


def count_variations(catalog: ProductCatalog) -> int:
    """Product of dimension lengths; O(#dimensions), no enumeration."""
    return math.prod(len(d.values) for d in catalog.dimensions)


def enumerate_variations(catalog: ProductCatalog,
                         fixed: Optional[Dict[str, Value]] = None,
                         limit: Optional[int] = None) -> Iterator[Variation]:
    """Yield the variations consistent with the partial assignment `fixed`
    (all of them without it), never touching the rest of the space, in
    lexicographic order of declared dimension and value order: at most
    `limit`. Streaming."""
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")
    fixed = fixed or {}
    names = catalog.dimension_names
    pools = [(fixed[d.name],) if d.name in fixed else d.values for d in catalog.dimensions]
    # Values and their pre-encoded id parts run through two products in
    # lockstep, so building an id only joins.
    parts = [(_id_part(d.name, fixed[d.name]),) if d.name in fixed else d.id_parts
             for d in catalog.dimensions]
    combos = itertools.islice(zip(itertools.product(*pools), itertools.product(*parts)), limit)
    return (Variation(dict(zip(names, combo)), "|".join(encoded))
            for combo, encoded in combos)


_INTEGER = re.compile(r"-?[0-9]+")


def parse_integer(raw: str) -> int:
    """An integer spelled `-?[0-9]+` in ASCII digits; leading zeros are
    allowed. Any other spelling that int() takes (`+5`, `1_0`, ` 7 `,
    non-ASCII digits) is a ValueError."""
    if not _INTEGER.fullmatch(raw):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def config_integer(value) -> int:
    """An integer in a config or catalog file: a JSON integer (not a bool),
    or a string of digits as `parse_integer` spells one. Anything else is a
    ValueError."""
    if isinstance(value, str):
        return parse_integer(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"not an integer: {value!r}")
    return value


def parse_value(catalog: ProductCatalog, name: str, raw: str) -> Value:
    """Type a raw string as a value of the named dimension (an integer for an
    ordinal one). Raises ValidationError for an unknown dimension, a
    non-integer ordinal or a value outside the dimension."""
    dim = catalog.dimension(name)
    value: Value = raw
    if dim.kind is DimensionKind.ORDINAL:
        try:
            value = parse_integer(raw)
        except ValueError as exc:
            raise ValidationError(
                f"dimension {name!r} expects an integer, got {raw!r}") from exc
    if value not in dim.values:
        raise ValidationError(f"value {raw!r} not in dimension {name!r}")
    return value


def parse_canonical_id(catalog: ProductCatalog, canonical_id: str) -> Dict[str, Value]:
    """Inverse of canonical id construction; validates against the catalog."""
    assignments: Dict[str, Value] = {}
    for piece in canonical_id.split("|"):
        if "=" not in piece:
            raise ValidationError(f"malformed canonical id segment {piece!r}")
        raw_name, raw_value = piece.split("=", 1)
        name = unquote(raw_name)
        if name in assignments:
            raise ValidationError(f"dimension {name!r} repeated in canonical id")
        assignments[name] = parse_value(catalog, name, unquote(raw_value))
    return catalog.variation(assignments).assignments


def price(catalog: ProductCatalog, v: Variation) -> Decimal:
    total = catalog.pricing.base_price
    for name, deltas, _, _ in catalog.price_table:
        if name not in v.assignments:
            raise ValidationError(f"variation missing dimension {name!r}")
        value = v.assignments[name]
        if value not in deltas:
            raise ValidationError(f"value {value!r} not in dimension {name!r}")
        total += deltas[value]
    return total.quantize(TWO_PLACES)


def price_bounds(catalog: ProductCatalog,
                 fixed: Dict[str, Value]) -> Tuple[Decimal, Decimal]:
    """Exact min/max of price over all variations consistent with `fixed`.
    Closed form: pricing is additive, so bounds decompose per dimension."""
    lo = hi = catalog.pricing.base_price
    for name, deltas, low, high in catalog.price_table:
        if name in fixed:
            low = high = deltas[fixed[name]]
        lo += low
        hi += high
    return lo.quantize(TWO_PLACES), hi.quantize(TWO_PLACES)


@lru_cache(maxsize=8)
def _keyed_hasher(seed: int):
    """A blake2b keyed with the seed and fed nothing yet. Keying costs a
    compression of the key block, so it is done once per seed and the
    hasher is copied per id; the shared one is never updated."""
    return hashlib.blake2b(key=seed.to_bytes(8, "big"), digest_size=8)


def availability_score(seed: int, canonical_id: str) -> float:
    """Keyed hash of the canonical id mapped to [0, 1)."""
    hasher = _keyed_hasher(seed).copy()
    hasher.update(canonical_id.encode("utf-8"))
    return int.from_bytes(hasher.digest(), "big") / 2 ** 64


@dataclass(frozen=True)
class Inventory:
    """The inventory at one moment. Initial availability is a pure function
    of (seed, canonical_id, rate); `overrides` holds the canonical ids booked
    since the last reset. A booking makes the next Inventory, so a reader
    holding this one never sees it change."""

    seed: int
    rate: float
    overrides: FrozenSet[str] = frozenset()

    @classmethod
    def initial(cls, catalog: ProductCatalog, seed: Optional[int] = None) -> Inventory:
        """The fresh inventory of the catalog, under the catalog's seed or
        under `seed`. Raises CatalogError for a seed outside the catalog's
        seed domain."""
        if seed is None:
            seed = catalog.inventory_seed
        check_seed(seed)
        return cls(seed, catalog.base_availability_rate)

    @property
    def epoch(self) -> int:
        """Confirmed bookings since the last reset: each adds one id."""
        return len(self.overrides)

    def is_available(self, canonical_id: str) -> bool:
        return (canonical_id not in self.overrides
                and availability_score(self.seed, canonical_id) < self.rate)

    def book(self, canonical_id: str) -> Optional[Inventory]:
        """The inventory after booking the variation, or None if it is not
        available."""
        if not self.is_available(canonical_id):
            return None
        return Inventory(self.seed, self.rate, self.overrides | {canonical_id})


def _expand_values(kind: DimensionKind, spec) -> Tuple[Value, ...]:
    """Catalog files may give values as an explicit list or, for temporal and
    ordinal dimensions, as {"start": ..., "count": n} which is pre-expanded
    here so every later stage sees plain value lists."""
    if isinstance(spec, list):
        return tuple(spec)
    if isinstance(spec, dict):
        count = config_integer(spec["count"])
        if kind is DimensionKind.TEMPORAL:
            start = date.fromisoformat(spec["start"])
            return tuple((start + timedelta(days=i)).isoformat() for i in range(count))
        if kind is DimensionKind.ORDINAL:
            start = config_integer(spec["start"])
            step = config_integer(spec.get("step", 1))
            return tuple(start + i * step for i in range(count))
    raise CatalogError(f"cannot expand values spec {spec!r} for kind {kind.value}")


def catalog_from_dict(doc: dict) -> ProductCatalog:
    try:
        product = doc["product"]
        dims = [
            DimensionDef(
                name=d["name"],
                kind=DimensionKind(d["kind"]),
                values=_expand_values(DimensionKind(d["kind"]), d["values"]),
                display_label=d.get("label", d["name"]),
            )
            for d in doc["dimensions"]
        ]
        pricing_doc = doc["pricing"]
        modifiers = {
            (m["dimension"], m["value"]): Decimal(str(m["delta"]))
            for m in pricing_doc.get("modifiers", [])
        }
        pricing = PricingModel(
            base_price=Decimal(str(pricing_doc["base"])),
            currency=pricing_doc["currency"],
            modifiers=modifiers,
        )
        inventory = doc["inventory"]
        rate = inventory["availability_rate"]
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise ValueError(f"availability rate is not a number: {rate!r}")
        return ProductCatalog(
            product_name=product["name"],
            description=product.get("description", ""),
            image_url=product.get("image", ""),
            area_served=product.get("area_served", ""),
            dimensions=dims,
            pricing=pricing,
            inventory_seed=config_integer(inventory["seed"]),
            base_availability_rate=float(rate),
        )
    except CatalogError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"malformed catalog document: {exc}") from exc


def load_catalog(path: Union[str, Path]) -> ProductCatalog:
    with open(path, "r", encoding="utf-8") as fh:
        return catalog_from_dict(json.load(fh))


def resize_dimension(catalog: ProductCatalog, name: str, length: int) -> ProductCatalog:
    """Return a copy of the catalog with the named dimension regrown to
    `length` values from its first value (the catalog file's rule: daily
    dates, or integers at the first step; first-n or synthesized labels for
    categorical). Modifiers on dropped values are dropped with them."""
    if length < 1:
        raise CatalogError("dimension length must be >= 1")
    dim = catalog.dimension(name)
    if dim.kind is DimensionKind.CATEGORICAL:
        values = tuple(dim.values[:length]) + tuple(
            f"{name}-{i}" for i in range(len(dim.values), length))
    else:
        spec = {"start": dim.values[0], "count": length}
        if dim.kind is DimensionKind.ORDINAL and len(dim.values) > 1:
            spec["step"] = dim.values[1] - dim.values[0]
        values = _expand_values(dim.kind, spec)
    new_dims = [replace(d, values=values) if d.name == name else d for d in catalog.dimensions]
    value_sets = {d.name: set(d.values) for d in new_dims}
    new_modifiers = {
        (dname, v): delta
        for (dname, v), delta in catalog.pricing.modifiers.items()
        if v in value_sets[dname]
    }
    return replace(catalog, dimensions=new_dims,
                   pricing=replace(catalog.pricing, modifiers=new_modifiers))
