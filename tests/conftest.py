import itertools
import threading
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import strategies as st

from matpub.catalog import (
    DimensionDef,
    DimensionKind,
    PricingModel,
    ProductCatalog,
    load_catalog,
    resize_dimension,
)
from matpub.heuristics import HeuristicPolicies
from matpub.resolver import ResolverService, make_server

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
EVAL_HOTEL_PATH = DATA_DIR / "eval_hotel.catalog.json"

# One verdict line per acceptance criterion, filled in by test_acceptance.py
# and replayed after the run so the lines survive output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def eval_hotel():
    """The evaluation hotel: dims 2, 2, 2, 365, 30."""
    return load_catalog(EVAL_HOTEL_PATH)


def eval_hotel_n(n):
    """Evaluation hotel with the in-advance (arrival) dimension resized to n."""
    return resize_dimension(load_catalog(EVAL_HOTEL_PATH), "arrival", n)


def make_catalog(dims, base="100.00", modifiers=None, seed=42, rate=1.0,
                 name="Test product"):
    """dims: list of (name, kind, values) tuples."""
    return ProductCatalog(
        product_name=name,
        description="A test product used by the suite.",
        image_url="https://example.org/img.jpg",
        area_served="Testville",
        dimensions=[DimensionDef(n, DimensionKind(k), tuple(v), n) for n, k, v in dims],
        pricing=PricingModel(Decimal(base), "EUR",
                             {k: Decimal(d) for k, d in (modifiers or {}).items()}),
        inventory_seed=seed,
        base_availability_rate=rate,
    )


@pytest.fixture(scope="session")
def tshirt():
    """Three dimensions of length three: full = 27, type-level = 9."""
    return make_catalog([
        ("color", "categorical", ["red", "green", "blue"]),
        ("size", "categorical", ["S", "M", "L"]),
        ("cut", "categorical", ["slim", "regular", "loose"]),
    ], modifiers={("size", "L"): "5.00"})


@pytest.fixture(scope="session")
def small_hotel():
    """The 10*2*25*2 = 1000 variation hotel."""
    return make_catalog([
        ("room", "categorical", [f"room-{i:02d}" for i in range(1, 11)]),
        ("occupancy", "categorical", ["single", "double"]),
        ("booking", "ordinal", list(range(1, 26))),
        ("catering", "categorical", ["breakfast", "half-board"]),
    ])


def catalog_strategy(max_dims=4, max_len=6):
    names = ["d0", "d1", "d2", "d3", "d4", "d5"]

    @st.composite
    def build(draw):
        n_dims = draw(st.integers(1, max_dims))
        dims = []
        for i in range(n_dims):
            kind = draw(st.sampled_from(["categorical", "ordinal"]))
            length = draw(st.integers(1, max_len))
            if kind == "categorical":
                values = [f"v{j}" for j in range(length)]
            else:
                values = list(range(1, length + 1))
            dims.append((names[i], kind, values))
        modifiers = {}
        for name, _, values in dims:
            if draw(st.booleans()):
                value = draw(st.sampled_from(values))
                delta = draw(st.integers(0, 50))
                modifiers[(name, value)] = f"{delta}.00"
        rate = draw(st.sampled_from([0.0, 0.5, 1.0]))
        seed = draw(st.integers(0, 2 ** 32))
        return make_catalog(dims, modifiers=modifiers, rate=rate, seed=seed)

    return build()


# ---------------------------------------------------------------------------
# Independent brute-force oracles (kept free of the code paths they check)

def oracle_variations(catalog):
    """Cross product straight off the dimension definitions."""
    names = [d.name for d in catalog.dimensions]
    pools = [list(d.values) for d in catalog.dimensions]
    return [dict(zip(names, combo)) for combo in itertools.product(*pools)]


def oracle_price(catalog, assignments):
    total = catalog.pricing.base_price
    for (dim, value), delta in catalog.pricing.modifiers.items():
        if assignments.get(dim) == value:
            total += delta
    return total.quantize(Decimal("0.01"))


def oracle_price_bounds(catalog, fixed):
    prices = [oracle_price(catalog, a) for a in oracle_variations(catalog)
              if all(a[k] == v for k, v in fixed.items())]
    return min(prices), max(prices)


def oracle_search(catalog, snapshot, constraints):
    """Brute-force filter of the full enumeration by constraints + availability,
    in the same lexicographic order the catalog declares."""
    from matpub.catalog import canonical_id_for
    names = [d.name for d in catalog.dimensions]
    out = []
    for a in oracle_variations(catalog):
        if not all(a[k] == v for k, v in constraints.items()):
            continue
        cid = canonical_id_for(names, a)
        if snapshot.is_available(cid):
            out.append(cid)
    return out


# ---------------------------------------------------------------------------
# Live server plumbing

@contextmanager
def live_server(catalog, policies=None):
    service = ResolverService(catalog, policies or HeuristicPolicies())
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
