import hashlib
import itertools
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpub.catalog import (
    CatalogError,
    DimensionDef,
    DimensionKind,
    Inventory,
    ValidationError,
    Variation,
    availability_score,
    canonical_id_for,
    catalog_from_dict,
    count_variations,
    enumerate_variations,
    load_catalog,
    parse_canonical_id,
    price,
    price_bounds,
    resize_dimension,
)

from conftest import (
    EVAL_HOTEL_PATH,
    catalog_strategy,
    eval_hotel_n,
    make_catalog,
    oracle_price,
    oracle_price_bounds,
    oracle_variations,
)


class TestCounting:
    def test_small_hotel_is_1000(self, small_hotel):
        assert count_variations(small_hotel) == 10 * 2 * 25 * 2 == 1000

    def test_eval_hotel_is_87600(self, eval_hotel):
        assert count_variations(eval_hotel) == 2 * 2 * 2 * 365 * 30 == 87600

    def test_tshirt_is_27(self, tshirt):
        assert count_variations(tshirt) == 27

    def test_single_length_one_dimension(self):
        c = make_catalog([("only", "categorical", ["a"])])
        assert count_variations(c) == 1

    def test_count_matches_enumeration(self, tshirt, small_hotel):
        for catalog in (tshirt, small_hotel):
            assert count_variations(catalog) == sum(1 for _ in enumerate_variations(catalog))


class TestEnumeration:
    def test_tshirt_matches_brute_force_cross_product(self, tshirt):
        got = {v.canonical_id for v in enumerate_variations(tshirt)}
        expected = set()
        for a in oracle_variations(tshirt):
            v = tshirt.variation(a)
            expected.add(v.canonical_id)
        assert got == expected
        assert len(got) == 27

    def test_limit_zero_is_empty(self, tshirt):
        assert list(enumerate_variations(tshirt, limit=0)) == []

    def test_limit_five_distinct(self, eval_hotel):
        got = list(enumerate_variations(eval_hotel, limit=5))
        assert len(got) == 5
        assert len({v.canonical_id for v in got}) == 5

    def test_order_is_stable(self, tshirt):
        first = [v.canonical_id for v in enumerate_variations(tshirt)]
        second = [v.canonical_id for v in enumerate_variations(tshirt)]
        assert first == second

    def test_lexicographic_in_declared_order(self):
        c = make_catalog([("a", "categorical", ["x", "y"]),
                          ("b", "ordinal", [1, 2])])
        ids = [v.canonical_id for v in enumerate_variations(c)]
        assert ids == ["a=x|b=1", "a=x|b=2", "a=y|b=1", "a=y|b=2"]


class TestCanonicalIds:
    def test_round_trip(self, eval_hotel):
        for v in enumerate_variations(eval_hotel, limit=50):
            assert parse_canonical_id(eval_hotel, v.canonical_id) == v.assignments

    def test_separators_are_escaped(self):
        c = make_catalog([("odd", "categorical", ["a|b", "a=b", "a%b"])])
        ids = [v.canonical_id for v in enumerate_variations(c)]
        assert len(set(ids)) == 3
        for v in enumerate_variations(c):
            assert parse_canonical_id(c, v.canonical_id) == v.assignments

    def test_unknown_value_rejected(self, tshirt):
        with pytest.raises(ValidationError):
            parse_canonical_id(tshirt, "color=purple|size=S|cut=slim")


class TestPricing:
    def test_no_modifiers_flat(self):
        c = make_catalog([("a", "categorical", ["x", "y"])], base="100.00")
        for v in enumerate_variations(c):
            assert price(c, v) == Decimal("100.00")

    def test_single_modifier(self):
        c = make_catalog([("catering", "categorical", ["breakfast", "half-board"])],
                         base="100.00",
                         modifiers={("catering", "half-board"): "20.00"})
        by_value = {v.assignments["catering"]: price(c, v)
                    for v in enumerate_variations(c)}
        assert by_value == {"breakfast": Decimal("100.00"),
                            "half-board": Decimal("120.00")}

    def test_nonpositive_price_rejected_at_construction(self):
        with pytest.raises(CatalogError):
            make_catalog([("a", "categorical", ["x", "y"])], base="10.00",
                         modifiers={("a", "y"): "-10.00"})

    # A modifier outside the catalog would price nothing: one on a misspelt
    # dimension, and one whose value is a string for an ordinal dimension.
    @pytest.mark.parametrize("modifier", [
        {"dimension": "catering ", "value": "half-board", "delta": 10},
        {"dimension": "stay", "value": "7", "delta": -5},
    ], ids=["unknown-dimension", "value-not-in-dimension"])
    def test_modifier_outside_catalog_rejected(self, modifier):
        doc = json.loads(EVAL_HOTEL_PATH.read_text(encoding="utf-8"))
        doc["pricing"]["modifiers"].append(modifier)
        with pytest.raises(CatalogError, match="modifier"):
            catalog_from_dict(doc)

    def test_price_matches_oracle(self, eval_hotel):
        for v in enumerate_variations(eval_hotel, limit=200):
            assert price(eval_hotel, v) == oracle_price(eval_hotel, v.assignments)

    def test_bounds_match_oracle_on_small_catalog(self, tshirt):
        assert price_bounds(tshirt, {}) == oracle_price_bounds(tshirt, {})
        assert price_bounds(tshirt, {"size": "L"}) == oracle_price_bounds(tshirt, {"size": "L"})

    @pytest.mark.parametrize("assignments", [
        {"color": "red", "size": "S"},
        {"color": "red", "size": "XL", "cut": "slim"},
    ], ids=["missing-dimension", "unknown-value"])
    def test_price_rejects_assignment_outside_catalog(self, tshirt, assignments):
        with pytest.raises(ValidationError):
            price(tshirt, Variation(assignments, "x"))


def initial_availability(catalog, v):
    return Inventory.initial(catalog).is_available(v.canonical_id)


class TestAvailability:
    def test_rate_one_all_available(self, tshirt):
        for v in enumerate_variations(tshirt):
            assert initial_availability(tshirt, v) is True

    def test_rate_zero_none_available(self):
        c = make_catalog([("a", "categorical", ["x", "y", "z"])], rate=0.0)
        for v in enumerate_variations(c):
            assert initial_availability(c, v) is False

    def test_fraction_converges_to_rate(self):
        c = eval_hotel_n(365)
        c.base_availability_rate = 0.8
        available = sum(1 for v in enumerate_variations(c) if initial_availability(c, v))
        assert 0.75 <= available / count_variations(c) <= 0.85

    def test_referential_transparency(self, eval_hotel):
        v = next(enumerate_variations(eval_hotel))
        assert all(initial_availability(eval_hotel, v) == initial_availability(eval_hotel, v)
                   for _ in range(5))

    def test_same_seed_same_inventory(self):
        c = eval_hotel_n(3)
        a = Inventory.initial(c)
        b = Inventory.initial(c)
        ids = [v.canonical_id for v in enumerate_variations(c, limit=100)]
        assert [a.is_available(i) for i in ids] == [b.is_available(i) for i in ids]

    # The hasher is keyed once per seed and copied per id; the scores must be
    # those of a hasher keyed afresh for every call.
    @settings(max_examples=200, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1)),
           canonical_id=st.text())
    def test_score_is_keyed_blake2b(self, seed, canonical_id):
        digest = hashlib.blake2b(canonical_id.encode("utf-8"), key=seed.to_bytes(8, "big"),
                                 digest_size=8).digest()
        assert availability_score(seed, canonical_id) == \
            int.from_bytes(digest, "big") / 2 ** 64


class TestInventory:
    def test_epoch_increments_per_mutation_only(self):
        c = eval_hotel_n(2)
        inv = Inventory.initial(c)
        cid = next(enumerate_variations(c)).canonical_id
        assert inv.epoch == 0
        booked = inv.book(cid)
        assert booked.epoch == 1
        assert booked.is_available(cid) is False
        assert booked.book(cid) is None  # no mutation, no epoch bump
        assert booked.epoch == 1
        assert (inv.epoch, inv.is_available(cid)) == (0, True)  # the old value holds

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, True, "7", 1.0])
    def test_seed_outside_domain_rejected(self, seed):
        with pytest.raises(CatalogError, match="seed"):
            Inventory.initial(eval_hotel_n(2), seed)
        with pytest.raises(CatalogError, match="seed"):
            make_catalog([("a", "categorical", ["x"])], seed=seed)


class TestDimensionDef:
    def test_rejects_empty_values(self):
        with pytest.raises(CatalogError):
            DimensionDef("x", DimensionKind.CATEGORICAL, ())

    def test_rejects_duplicates(self):
        with pytest.raises(CatalogError):
            DimensionDef("x", DimensionKind.CATEGORICAL, ("a", "a"))

    def test_length_one_flagged_non_abstractable(self):
        d = DimensionDef("x", DimensionKind.CATEGORICAL, ("a",))
        assert d.abstractable is False
        assert DimensionDef("x", DimensionKind.CATEGORICAL, ("a", "b")).abstractable

    def test_rejects_bad_dates(self):
        with pytest.raises(CatalogError):
            DimensionDef("when", DimensionKind.TEMPORAL, ("not-a-date",))

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(CatalogError):
            make_catalog([("a", "categorical", ["x"]), ("a", "categorical", ["y"])])

    # The HTTP API takes these as paging parameters, so a dimension of either
    # name could never be constrained in a search.
    @pytest.mark.parametrize("name", ["page", "per_page"])
    def test_paging_parameter_names_rejected(self, name):
        with pytest.raises(CatalogError, match=name):
            make_catalog([("a", "categorical", ["x"]), (name, "ordinal", [1, 2])])


class TestLoadingAndResizing:
    # A number in a catalog file follows the config rule: an integer is a
    # JSON integer or a string of digits, never a bool or a float, and the
    # availability rate is a JSON number that is not a bool. An unknown kind
    # and a start that is no date are refused the same way.
    @pytest.mark.parametrize("path, value", [
        (("inventory", "seed"), True),
        (("inventory", "seed"), 42.7),
        (("inventory", "availability_rate"), True),
        (("inventory", "availability_rate"), "1.0"),
        (("dimensions", 3, "values", "count"), 365.9),
        (("dimensions", 3, "values", "count"), True),
        (("dimensions", 4, "values", "start"), 1.5),
        (("dimensions", 4, "values", "step"), 1.0),
        (("dimensions", 4, "values", "step"), True),
        (("dimensions", 0, "kind"), "bogus"),
        (("dimensions", 3, "values", "start"), "2026-13-01"),
    ], ids=["seed-true", "seed-float", "rate-true", "rate-string", "count-float",
            "count-true", "ordinal-start-float", "step-float", "step-true", "unknown-kind",
            "temporal-start-not-a-date"])
    def test_malformed_field_rejected(self, path, value):
        doc = json.loads(EVAL_HOTEL_PATH.read_text(encoding="utf-8"))
        *parents, key = path
        target = doc
        for parent in parents:
            target = target[parent]
        target[key] = value
        with pytest.raises(CatalogError):
            catalog_from_dict(doc)

    def test_temporal_pre_expansion(self):
        c = load_catalog(EVAL_HOTEL_PATH)
        arrival = c.dimension("arrival")
        assert arrival.length == 365
        assert arrival.values[0] == "2026-01-01"
        assert arrival.values[-1] == "2026-12-31"

    def test_resize_temporal(self):
        c = eval_hotel_n(1825)
        assert c.dimension("arrival").length == 1825
        assert count_variations(c) == 438000

    def test_resize_ordinal_preserves_step(self, eval_hotel):
        c = resize_dimension(eval_hotel, "stay", 5)
        assert c.dimension("stay").values == (1, 2, 3, 4, 5)

    def test_resize_drops_stale_modifiers(self, eval_hotel):
        c = resize_dimension(eval_hotel, "stay", 5)
        assert ("stay", 30) not in c.pricing.modifiers


# ---------------------------------------------------------------------------
# Property tests over randomized catalogs

@settings(max_examples=40, deadline=None)
@given(catalog_strategy())
def test_count_equals_enumeration_length(catalog):
    assert count_variations(catalog) == sum(1 for _ in enumerate_variations(catalog))


@settings(max_examples=40, deadline=None)
@given(catalog_strategy())
def test_canonical_ids_injective_and_round_trip(catalog):
    seen = {}
    for v in enumerate_variations(catalog):
        assert v.canonical_id not in seen
        seen[v.canonical_id] = v.assignments
        assert parse_canonical_id(catalog, v.canonical_id) == v.assignments


@settings(max_examples=40, deadline=None)
@given(catalog_strategy())
def test_prices_match_oracle_and_are_positive(catalog):
    for v in itertools.islice(enumerate_variations(catalog), 50):
        p = price(catalog, v)
        assert p == oracle_price(catalog, v.assignments)
        assert p > 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fixed_enumeration_is_filtered_full_enumeration(data):
    catalog = data.draw(catalog_strategy())
    fixed = {d.name: data.draw(st.sampled_from(d.values))
             for d in catalog.dimensions if data.draw(st.booleans())}
    expected = [v.assignments for v in enumerate_variations(catalog)
                if all(v.assignments[k] == x for k, x in fixed.items())]
    got = list(enumerate_variations(catalog, fixed))
    assert [v.assignments for v in got] == expected
    assert [v.canonical_id for v in got] == [
        canonical_id_for(catalog.dimension_names, a) for a in expected]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_price_bounds_match_oracle(data):
    catalog = data.draw(catalog_strategy())
    fixed = {d.name: data.draw(st.sampled_from(d.values))
             for d in catalog.dimensions if data.draw(st.booleans())}
    assert price_bounds(catalog, fixed) == oracle_price_bounds(catalog, fixed)
