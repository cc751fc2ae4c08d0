import itertools
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpub.catalog import (
    Inventory,
    canonical_id_for,
    count_variations,
    enumerate_variations,
)
from matpub.heuristics import (
    ClassificationMode,
    ClassificationPolicy,
    DimensionClassification,
    HeuristicPolicies,
    ItemKind,
    MaterializationCapExceeded,
    NoAvailableVariation,
    PickerPolicy,
    abstraction,
    classify_dimensions,
    expected_count,
    full_materialization,
    publication_items,
    selective_instance_materialization,
    specialization,
    type_level_materialization,
)

from conftest import (
    catalog_strategy,
    eval_hotel_n,
    make_catalog,
    oracle_price,
    oracle_price_bounds,
    oracle_variations,
)


def snapshot_of(catalog):
    return Inventory.initial(catalog)


def consistent(item, assignments):
    return all(assignments[k] == v for k, v in item.fixed.items())


class TestFullMaterialization:
    def test_eval_hotel_count(self, eval_hotel):
        items = full_materialization(eval_hotel)
        assert len(items) == 87600

    def test_tshirt_count(self, tshirt):
        items = full_materialization(tshirt)
        assert len(items) == 27
        assert all(i.kind is ItemKind.CONCRETE for i in items)
        assert all(not i.requires_elevation for i in items)
        assert all(i.exact_price is not None for i in items)

    def test_length_one_catalog(self):
        c = make_catalog([("only", "categorical", ["a"])])
        assert len(full_materialization(c)) == 1

    def test_cap_refusal_names_count_and_cap(self, tshirt):
        with pytest.raises(MaterializationCapExceeded) as err:
            full_materialization(tshirt, hard_cap=10)
        assert "27" in str(err.value) and "10" in str(err.value)

    def test_streaming_iterator_is_lazy(self, eval_hotel):
        gen = publication_items(eval_hotel, "full")
        first = next(gen)
        assert first.kind is ItemKind.CONCRETE


class TestAbstraction:
    def test_exactly_one_abstract_item(self, eval_hotel):
        items = abstraction(eval_hotel)
        assert len(items) == 1
        item = items[0]
        assert item.kind is ItemKind.ABSTRACT
        assert item.fixed == {}
        assert set(item.ranges) == set(eval_hotel.dimension_names)
        assert item.requires_elevation

    def test_price_range_matches_brute_force_small(self):
        c = eval_hotel_n(3)
        item = abstraction(c)[0]
        assert item.price_range == oracle_price_bounds(c, {})

    def test_uniform_price_degenerate_range(self):
        c = make_catalog([("color", "categorical", ["red", "green", "blue"]),
                          ("size", "categorical", ["S", "M", "L"])])
        item = abstraction(c)[0]
        assert item.price_range == (Decimal("100.00"), Decimal("100.00"))

    def test_occupancy_range_one_to_three(self):
        # room types, occupancy 1-3, catering, 1-2 week stays, all-year booking
        c = make_catalog([
            ("room_type", "categorical", ["room", "suite"]),
            ("occupancy", "ordinal", [1, 2, 3]),
            ("catering", "categorical", ["breakfast", "half-board"]),
            ("stay_weeks", "ordinal", [1, 2]),
            ("booking", "temporal", [f"2026-{m:02d}-01" for m in range(1, 13)]),
        ])
        item = abstraction(c)[0]
        occ = item.ranges["occupancy"]
        assert (occ.min_value, occ.max_value) == (1, 3)

    def test_length_one_dimension_flagged_non_abstracted(self):
        c = make_catalog([("fixed_dim", "categorical", ["only"]),
                          ("var_dim", "categorical", ["a", "b"])])
        item = abstraction(c)[0]
        assert item.ranges["fixed_dim"].abstracted is False
        assert item.ranges["var_dim"].abstracted is True


class TestSpecialization:
    def test_first_lexicographic_all_available(self, eval_hotel):
        items = specialization(eval_hotel)
        assert len(items) == 1
        first = next(enumerate_variations(eval_hotel))
        assert items[0].fixed == first.assignments
        assert items[0].kind is ItemKind.CONCRETE
        assert items[0].requires_elevation

    def test_only_available_variation_is_picked(self):
        c = make_catalog([("a", "categorical", ["x", "y", "z"])], rate=1.0)
        inv = Inventory.initial(c)
        ids = [v.canonical_id for v in enumerate_variations(c)]
        target = ids[1]
        for cid in ids:
            if cid != target:
                inv = inv.book(cid)
        items = specialization(c, inv)
        assert canonical_id_for(["a"], items[0].fixed) == target

    def test_empty_inventory_refused(self):
        c = make_catalog([("a", "categorical", ["x", "y"])], rate=0.0)
        with pytest.raises(NoAvailableVariation):
            specialization(c)

    def test_seeded_random_is_reproducible(self, tshirt):
        a = specialization(tshirt, picker=PickerPolicy.SEEDED_RANDOM, picker_seed=9)
        b = specialization(tshirt, picker=PickerPolicy.SEEDED_RANDOM, picker_seed=9)
        assert a == b
        assert a[0].available


class TestTypeLevel:
    def test_tshirt_is_nine(self, tshirt):
        items = type_level_materialization(tshirt)
        assert len(items) == 9

    def test_eval_hotel_is_401(self, eval_hotel):
        assert len(type_level_materialization(eval_hotel)) == 2 + 2 + 2 + 365 + 30 == 401

    def test_single_dimension(self):
        c = make_catalog([("dim", "categorical", ["a", "b"])])
        items = type_level_materialization(c)
        # One dimension fixed means the items are fully concrete here.
        assert [i.fixed for i in items] == [{"dim": "a"}, {"dim": "b"}]

    def test_each_item_fixes_exactly_one_dimension(self, tshirt):
        for item in type_level_materialization(tshirt):
            assert len(item.fixed) == 1
            assert item.kind is ItemKind.PARTIAL
            assert item.requires_elevation

    def test_price_ranges_match_oracle(self, tshirt):
        for item in type_level_materialization(tshirt):
            assert item.price_range == oracle_price_bounds(tshirt, item.fixed)


class TestClassification:
    def test_threshold_five_on_eval_hotel(self, eval_hotel):
        got = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
        assert got.short == ("type", "catering", "occupancy")
        assert got.long == ("arrival", "stay")

    def test_high_threshold_all_short(self, eval_hotel):
        got = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=365))
        assert got.long == ()

    def test_budget_mode_hand_simulation(self, eval_hotel):
        policy = ClassificationPolicy(mode=ClassificationMode.BUDGET,
                                      byte_budget=5000, est_item_bytes=600)
        got = classify_dimensions(eval_hotel, policy)
        # 8 items * 600 B = 4800 <= 5000; adding stay would mean 240 items.
        assert got.short == ("type", "catering", "occupancy")

    def test_partition_invariant(self, eval_hotel):
        got = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=2))
        assert set(got.short) | set(got.long) == set(eval_hotel.dimension_names)
        assert not set(got.short) & set(got.long)


class TestSelective:
    def test_eval_hotel_is_eight(self, eval_hotel):
        cls = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
        items = selective_instance_materialization(eval_hotel, cls)
        assert len(items) == 2 * 2 * 2 == 8
        for item in items:
            assert set(item.fixed) == {"type", "catering", "occupancy"}
            assert item.kind is ItemKind.PARTIAL
            assert item.requires_elevation

    def test_all_short_degenerates_to_full(self, tshirt):
        cls = classify_dimensions(tshirt, ClassificationPolicy(length_threshold=99))
        items = selective_instance_materialization(tshirt, cls)
        full = full_materialization(tshirt)
        as_sets = lambda items: {tuple(sorted(i.fixed.items())) for i in items}
        assert as_sets(items) == as_sets(full)

    def test_all_long_degenerates_to_abstraction(self, tshirt):
        cls = DimensionClassification((), tuple(tshirt.dimension_names),
                                      ClassificationPolicy())
        items = selective_instance_materialization(tshirt, cls)
        assert items == abstraction(tshirt)

    def test_price_ranges_match_oracle(self):
        c = eval_hotel_n(4)
        cls = classify_dimensions(c, ClassificationPolicy(length_threshold=5))
        for item in selective_instance_materialization(c, cls):
            assert item.price_range == oracle_price_bounds(c, item.fixed)

    def test_bad_classification_rejected(self, tshirt):
        cls = DimensionClassification(("color",), ("size",), ClassificationPolicy())
        with pytest.raises(Exception):
            selective_instance_materialization(tshirt, cls)


class TestAvailabilityAggregation:
    def test_abstract_available_iff_any_variation_available(self):
        c = make_catalog([("a", "categorical", ["x", "y"])], rate=0.0)
        assert abstraction(c)[0].available is False
        c = make_catalog([("a", "categorical", ["x", "y"])], rate=1.0)
        inv = Inventory.initial(c).book("a=x")
        assert abstraction(c, inv)[0].available is True
        assert abstraction(c, inv.book("a=y"))[0].available is False


class TestPurity:
    def test_repeated_calls_identical(self, eval_hotel):
        snap = snapshot_of(eval_hotel)
        for heuristic in ("abstraction", "specialization", "type-level", "selective"):
            a = list(publication_items(eval_hotel, heuristic, snap))
            b = list(publication_items(eval_hotel, heuristic, snap))
            assert a == b


# ---------------------------------------------------------------------------
# Property tests: count identities, soundness, completeness, price ranges

@settings(max_examples=30, deadline=None)
@given(catalog_strategy(max_dims=4, max_len=6))
def test_count_identities(catalog):
    lengths = [len(d.values) for d in catalog.dimensions]
    product = 1
    for l in lengths:
        product *= l
    assert expected_count(catalog, "full") == product
    assert expected_count(catalog, "type-level") == sum(lengths)
    assert expected_count(catalog, "abstraction") == 1
    assert expected_count(catalog, "specialization") == 1
    policy = ClassificationPolicy(length_threshold=3)
    short_product = 1
    for d in catalog.dimensions:
        if len(d.values) <= 3:
            short_product *= len(d.values)
    from matpub.heuristics import HeuristicPolicies
    assert expected_count(catalog, "selective",
                          HeuristicPolicies(classification=policy)) == short_product
    # closed forms match the generated item lists
    assert len(full_materialization(catalog)) == product
    assert len(type_level_materialization(catalog)) == sum(lengths)
    cls = classify_dimensions(catalog, policy)
    assert len(selective_instance_materialization(catalog, cls)) == short_product


@settings(max_examples=25, deadline=None)
@given(catalog_strategy(max_dims=4, max_len=5))
def test_soundness_and_completeness_of_cover(catalog):
    all_assignments = oracle_variations(catalog)
    cls = classify_dimensions(catalog, ClassificationPolicy(length_threshold=3))
    for heuristic_items in (
        full_materialization(catalog),
        type_level_materialization(catalog),
        selective_instance_materialization(catalog, cls),
    ):
        # soundness: every item matches at least one real variation
        for item in heuristic_items:
            assert any(consistent(item, a) for a in all_assignments)
        # completeness: every variation is covered by at least one item
        for a in all_assignments:
            assert any(consistent(item, a) for item in heuristic_items)


@settings(max_examples=25, deadline=None)
@given(catalog_strategy(max_dims=4, max_len=5))
def test_price_ranges_equal_brute_force(catalog):
    cls = classify_dimensions(catalog, ClassificationPolicy(length_threshold=3))
    items = (abstraction(catalog)
             + type_level_materialization(catalog)
             + selective_instance_materialization(catalog, cls))
    for item in items:
        if item.price_range is not None:
            assert item.price_range == oracle_price_bounds(catalog, item.fixed)


@settings(max_examples=25, deadline=None)
@given(catalog_strategy(max_dims=4, max_len=5), st.data())
def test_items_equal_brute_force_after_bookings(catalog, data):
    """Every item of full, abstraction, type-level and selective after a few
    bookings: it is available exactly when a consistent variation is, a
    concrete item has the brute-force price, its id joins its fixed set, and
    any range of its heuristic is that slice of the whole list."""
    names = [d.name for d in catalog.dimensions]
    variations = oracle_variations(catalog)
    inventory = snapshot_of(catalog)
    for a in data.draw(st.lists(st.sampled_from(variations), max_size=3)):
        inventory = inventory.book(canonical_id_for(names, a)) or inventory
    offered = [(a, inventory.is_available(canonical_id_for(names, a))) for a in variations]
    policies = HeuristicPolicies(classification=ClassificationPolicy(length_threshold=3))
    for heuristic in ("full", "abstraction", "type-level", "selective"):
        items = list(publication_items(catalog, heuristic, inventory, policies))
        for item in items:
            assert item.available == any(ok for a, ok in offered if consistent(item, a))
            if item.kind is ItemKind.CONCRETE:
                assert item.exact_price == oracle_price(catalog, item.fixed)
            assert item.fixed_set_id() == canonical_id_for(list(item.fixed), item.fixed)
        start, stop = (data.draw(st.integers(0, len(items) + 1)) for _ in range(2))
        bounds = [(start, stop), (start, None)]
        if heuristic == "type-level":  # each range across a boundary between groups
            bounds += [(edge - 1, edge + 1) for edge in
                       itertools.accumulate(len(d.values) for d in catalog.dimensions)]
        for lo, hi in bounds:
            assert list(publication_items(catalog, heuristic, inventory, policies,
                                          start=lo, stop=hi)) == items[lo:hi]


@settings(max_examples=25, deadline=None)
@given(catalog_strategy(max_dims=4, max_len=5))
def test_kind_partition(catalog):
    cls = classify_dimensions(catalog, ClassificationPolicy(length_threshold=3))
    items = (full_materialization(catalog)
             + abstraction(catalog)
             + type_level_materialization(catalog)
             + selective_instance_materialization(catalog, cls))
    n_dims = len(catalog.dimensions)
    for item in items:
        if item.kind is ItemKind.CONCRETE:
            assert len(item.fixed) == n_dims
        elif item.kind is ItemKind.ABSTRACT:
            assert item.fixed == {}
        else:
            assert 0 < len(item.fixed) < n_dims
