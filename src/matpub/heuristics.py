"""The five publication strategies: full materialization baseline plus the four
heuristics (abstraction, specialization, type-level, selective instance-level).
All of them are pure transformations of (catalog, inventory snapshot, policy)."""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from .catalog import (
    TWO_PLACES,
    DimensionDef,
    Inventory,
    ProductCatalog,
    RangeSummary,
    Value,
    Variation,
    canonical_id_for,
    count_variations,
    enumerate_variations,
    price,
)

DEFAULT_HARD_CAP = 10 ** 6

HEURISTIC_NAMES = ("full", "abstraction", "specialization", "type-level", "selective")


class HeuristicError(ValueError):
    pass


class MaterializationCapExceeded(HeuristicError):
    def __init__(self, count: int, cap: int):
        super().__init__(
            f"full materialization refused: {count} variations exceed the hard cap of {cap}")
        self.count = count
        self.cap = cap


class NoAvailableVariation(HeuristicError):
    """Specialization found nothing to publish."""


class ItemKind(str, Enum):
    CONCRETE = "concrete"
    ABSTRACT = "abstract"
    PARTIAL = "partial"


@dataclass(frozen=True)
class PublicationItem:
    kind: ItemKind
    fixed: Dict[str, Value]
    ranges: Dict[str, RangeSummary]
    exact_price: Optional[Decimal]
    price_range: Optional[Tuple[Decimal, Decimal]]
    available: bool
    requires_elevation: bool
    # The fixed-set id, joined when the item is built; a concrete item's canonical id.
    canonical_id: Optional[str] = field(default=None, compare=False, repr=False)

    def fixed_set_id(self) -> str:
        """Canonical string over the fixed assignments (declared order is the
        insertion order of `fixed`)."""
        if self.canonical_id is not None:
            return self.canonical_id
        return canonical_id_for(list(self.fixed), self.fixed)


def _snapshot(catalog: ProductCatalog, inventory: Optional[Inventory]) -> Inventory:
    return Inventory.initial(catalog) if inventory is None else inventory


# The name availability scans and searches use; the same function object.
consistent_variations = enumerate_variations


def available_variations(catalog: ProductCatalog, inventory: Inventory,
                         fixed: Optional[Dict[str, Value]] = None) -> Iterator[Variation]:
    """The variations consistent with `fixed` that `inventory` has available,
    in enumeration order."""
    is_available = inventory.is_available
    return (v for v in consistent_variations(catalog, fixed)
            if is_available(v.canonical_id))


def any_available(catalog: ProductCatalog, inventory: Inventory,
                  fixed: Dict[str, Value]) -> bool:
    return next(available_variations(catalog, inventory, fixed), None) is not None


def _concrete_item(inventory: Inventory, fixed: Dict[str, Value], canonical_id: str,
                   exact_price: Decimal, requires_elevation: bool) -> PublicationItem:
    return PublicationItem(
        kind=ItemKind.CONCRETE,
        fixed=fixed,
        ranges={},
        exact_price=exact_price,
        price_range=None,
        available=inventory.is_available(canonical_id),
        requires_elevation=requires_elevation,
        canonical_id=canonical_id,
    )


def full_count(catalog: ProductCatalog, hard_cap: int = DEFAULT_HARD_CAP) -> int:
    """The number of variations, refused above `hard_cap`."""
    total = count_variations(catalog)
    if total > hard_cap:
        raise MaterializationCapExceeded(total, hard_cap)
    return total


def iter_full_materialization(catalog: ProductCatalog,
                              inventory: Optional[Inventory] = None,
                              hard_cap: int = DEFAULT_HARD_CAP, start: int = 0,
                              stop: Optional[int] = None) -> Iterator[PublicationItem]:
    """Streaming full materialization: one concrete item per variation from
    `start` up to `stop`."""
    return _fixed_set_items(catalog, inventory, _dimension_groups(catalog, "full", hard_cap=hard_cap),
                            start, stop, elevated=False)


def full_materialization(catalog: ProductCatalog,
                         inventory: Optional[Inventory] = None,
                         hard_cap: int = DEFAULT_HARD_CAP) -> List[PublicationItem]:
    return list(iter_full_materialization(catalog, inventory, hard_cap))


def _fixed_set_items(catalog: ProductCatalog, inventory: Optional[Inventory],
                     groups: List[Tuple[DimensionDef, ...]], start: int = 0,
                     stop: Optional[int] = None, elevated: bool = True
                     ) -> Iterator[PublicationItem]:
    """The items from `start` up to `stop` of the fixed sets that `groups`
    spans, group after group; a skipped fixed set is never built. A group of
    every dimension gives concrete items (elevated if `elevated`), any other
    elevated items with the open dimensions as ranges. Values, id parts and
    price deltas run through three products in lockstep, each skipping on
    its own: skipping their zip would allocate a tuple per fixed set."""
    inv = _snapshot(catalog, inventory)
    for group in groups:
        size = math.prod(len(d.values) for d in group)
        first, last = min(start, size), size if stop is None else min(stop, size)
        start, stop = start - first, None if stop is None else stop - last
        names = [d.name for d in group]
        lo = hi = catalog.pricing.base_price  # plus the open dimensions' extreme deltas
        for name, _, low, high in catalog.price_table:
            if name not in names:
                lo, hi = lo + low, hi + high
        pools = ([d.values for d in group], [d.id_parts for d in group],
                 [deltas.values() for name, deltas, _, _ in catalog.price_table if name in names])
        for combo, parts, deltas in zip(*(itertools.islice(itertools.product(*pool), first, last)
                                          for pool in pools)):
            fixed, fixed_id = dict(zip(names, combo)), "|".join(parts)
            if len(group) == len(catalog.dimensions):
                yield _concrete_item(inv, fixed, fixed_id, sum(deltas, lo).quantize(TWO_PLACES),
                                     elevated)
            else:
                yield PublicationItem(
                    kind=ItemKind.PARTIAL if fixed else ItemKind.ABSTRACT,
                    fixed=fixed,
                    ranges={d.name: d.summary for d in catalog.dimensions if d.name not in fixed},
                    exact_price=None,
                    price_range=(sum(deltas, lo).quantize(TWO_PLACES),
                                 sum(deltas, hi).quantize(TWO_PLACES)),
                    available=any_available(catalog, inv, fixed),
                    requires_elevation=True,
                    canonical_id=fixed_id,
                )


def _dimension_groups(catalog: ProductCatalog, heuristic: str,
                      classification: Optional[DimensionClassification] = None,
                      hard_cap: int = DEFAULT_HARD_CAP) -> List[Tuple[DimensionDef, ...]]:
    """A heuristic's dimension groups, in page order: its fixed sets are the
    value product of each group, whose dimensions keep their declared order.
    `full`'s one group is every dimension, refused above `hard_cap`;
    selective's is the short side of `classification`."""
    if heuristic == "full":
        full_count(catalog, hard_cap)
        return [tuple(catalog.dimensions)]
    if heuristic == "abstraction":
        return [()]
    if heuristic == "type-level":
        return [(d,) for d in catalog.dimensions]
    if heuristic == "selective":
        return [tuple(d for d in catalog.dimensions if d.name in classification.short)]
    raise HeuristicError(f"unknown heuristic {heuristic!r}")


def abstraction(catalog: ProductCatalog,
                inventory: Optional[Inventory] = None) -> List[PublicationItem]:
    """One maximally abstract item: every dimension summarized as a range."""
    return list(_fixed_set_items(catalog, inventory, _dimension_groups(catalog, "abstraction")))


class PickerPolicy(str, Enum):
    FIRST_LEXICOGRAPHIC = "first-lexicographic"
    SEEDED_RANDOM = "seeded-random"


def specialization(catalog: ProductCatalog,
                   inventory: Optional[Inventory] = None,
                   picker: PickerPolicy = PickerPolicy.FIRST_LEXICOGRAPHIC,
                   picker_seed: int = 0) -> List[PublicationItem]:
    """Publish exactly one concrete, currently AVAILABLE variation as a
    representative. Elevated so clients can search for sibling variations."""
    inv = _snapshot(catalog, inventory)
    if picker is PickerPolicy.FIRST_LEXICOGRAPHIC:
        chosen = next(available_variations(catalog, inv), None)
    elif picker is PickerPolicy.SEEDED_RANDOM:
        # Reservoir sampling keeps memory flat over big catalogs.
        rng = random.Random(picker_seed)
        chosen = None
        seen = 0
        for v in available_variations(catalog, inv):
            seen += 1
            if rng.randrange(seen) == 0:
                chosen = v
    else:
        raise HeuristicError(f"unknown picker policy {picker!r}")
    if chosen is None:
        raise NoAvailableVariation("no available variation in inventory")
    return [_concrete_item(inv, chosen.assignments, chosen.canonical_id, price(catalog, chosen),
                           requires_elevation=True)]


def type_level_materialization(catalog: ProductCatalog,
                               inventory: Optional[Inventory] = None
                               ) -> List[PublicationItem]:
    """One item per value per dimension: sum of dimension lengths items."""
    return list(_fixed_set_items(catalog, inventory, _dimension_groups(catalog, "type-level")))


class ClassificationMode(str, Enum):
    THRESHOLD = "threshold"
    BUDGET = "budget"


@dataclass(frozen=True)
class ClassificationPolicy:
    mode: ClassificationMode = ClassificationMode.THRESHOLD
    length_threshold: int = 5
    byte_budget: int = 50_000
    est_item_bytes: int = 600

    def __post_init__(self):
        if self.mode is ClassificationMode.THRESHOLD and self.length_threshold < 1:
            raise HeuristicError("length_threshold must be >= 1")
        if self.mode is ClassificationMode.BUDGET and self.byte_budget < self.est_item_bytes:
            raise HeuristicError("byte_budget must cover at least one item")


@dataclass(frozen=True)
class DimensionClassification:
    short: Tuple[str, ...]
    long: Tuple[str, ...]
    policy: ClassificationPolicy


def classify_dimensions(catalog: ProductCatalog,
                        policy: ClassificationPolicy) -> DimensionClassification:
    # Only abstractable dimensions (length > 1) are candidates for the short
    # side: a single-valued dimension carries no variation to materialize, and
    # keeping it on the range side keeps item shapes stable when a dimension
    # degenerates to one value.
    if policy.mode is ClassificationMode.THRESHOLD:
        short = [d.name for d in catalog.dimensions
                 if d.abstractable and len(d.values) <= policy.length_threshold]
    else:
        # Greedy by ascending length, declaration order breaking ties; stop
        # when the projected item count would blow the byte budget.
        order = sorted((i for i in range(len(catalog.dimensions))
                        if catalog.dimensions[i].abstractable),
                       key=lambda i: (len(catalog.dimensions[i].values), i))
        short_idx = []
        projected = 1
        for i in order:
            projected_next = projected * len(catalog.dimensions[i].values)
            if projected_next * policy.est_item_bytes > policy.byte_budget:
                break
            short_idx.append(i)
            projected = projected_next
        short = [catalog.dimensions[i].name for i in sorted(short_idx)]
    long = [d.name for d in catalog.dimensions if d.name not in short]
    return DimensionClassification(tuple(short), tuple(long), policy)


def selective_instance_materialization(catalog: ProductCatalog,
                                       classification: DimensionClassification,
                                       inventory: Optional[Inventory] = None
                                       ) -> List[PublicationItem]:
    """Full Cartesian product over the short dimensions only; long dimensions
    stay as ranges looked up through the attached service."""
    declared = set(catalog.dimension_names)
    if set(classification.short) | set(classification.long) != declared \
            or set(classification.short) & set(classification.long):
        raise HeuristicError("classification must partition the catalog's dimensions")
    return list(_fixed_set_items(catalog, inventory,
                                 _dimension_groups(catalog, "selective", classification)))


@dataclass
class HeuristicPolicies:
    """Everything a heuristic run needs beyond the catalog."""

    classification: ClassificationPolicy = field(default_factory=ClassificationPolicy)
    picker: PickerPolicy = PickerPolicy.FIRST_LEXICOGRAPHIC
    picker_seed: int = 0
    hard_cap: int = DEFAULT_HARD_CAP


def publication_items(catalog: ProductCatalog, heuristic: str,
                      inventory: Optional[Inventory] = None,
                      policies: Optional[HeuristicPolicies] = None,
                      start: int = 0, stop: Optional[int] = None) -> Iterator[PublicationItem]:
    """Dispatch by heuristic name: its items from `start` up to `stop`, building no other."""
    policies = policies or HeuristicPolicies()
    if heuristic == "specialization":
        items = specialization(catalog, inventory, policies.picker, policies.picker_seed)
        return iter(items[start:stop])
    groups = _dimension_groups(catalog, heuristic, classify_dimensions(
        catalog, policies.classification), policies.hard_cap)
    return _fixed_set_items(catalog, inventory, groups, start, stop, elevated=heuristic != "full")


def expected_count(catalog: ProductCatalog, heuristic: str,
                   policies: Optional[HeuristicPolicies] = None) -> int:
    """Closed-form item count per heuristic; no enumeration. A `full` over its
    cap is refused, as its items are, so `list()` of a stream raises that."""
    policies = policies or HeuristicPolicies()
    if heuristic == "specialization":
        return 1
    groups = _dimension_groups(catalog, heuristic, classify_dimensions(
        catalog, policies.classification), policies.hard_cap)
    return sum(math.prod(len(d.values) for d in group) for group in groups)
