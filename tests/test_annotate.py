import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_annotate as reference
from matpub.annotate import (
    AnnotateError,
    ElevationError,
    PageNotFound,
    annotation_stream,
    block_overhead,
    conformity_check,
    dom_anchor_id,
    elevate,
    page_shell_size,
    render_page,
    serialize,
)
from matpub.catalog import Inventory
from matpub.heuristics import (
    HEURISTIC_NAMES,
    ClassificationPolicy,
    HeuristicPolicies,
    MaterializationCapExceeded,
    NoAvailableVariation,
    abstraction,
    classify_dimensions,
    full_materialization,
    iter_full_materialization,
    selective_instance_materialization,
    specialization,
    type_level_materialization,
)

from conftest import catalog_strategy, eval_hotel_n, make_catalog

GOLDEN = Path(__file__).parent / "data" / "abstract_eval_hotel.jsonld"
BASE = "http://127.0.0.1:8321"


def annotate_all(items, catalog, base=BASE):
    return [
        serialize(item, elevate(item, base, catalog) if item.requires_elevation else None,
                  catalog)
        for item in items
    ]


class TestElevation:
    def test_abstraction_inputs_cover_all_dimensions(self, eval_hotel):
        item = abstraction(eval_hotel)[0]
        service = elevate(item, BASE, eval_hotel)
        assert [p.name for p in service.inputs] == \
            ["type", "catering", "occupancy", "arrival", "stay"]
        assert service.target_url_template == \
            BASE + "/api/search{?type,catering,occupancy,arrival,stay}"

    def test_selective_inputs_are_the_complement(self, eval_hotel):
        cls = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
        item = selective_instance_materialization(eval_hotel, cls)[0]
        service = elevate(item, BASE, eval_hotel)
        assert [p.name for p in service.inputs] == ["arrival", "stay"]

    def test_specialization_concrete_gets_all_inputs(self, eval_hotel):
        item = specialization(eval_hotel)[0]
        service = elevate(item, BASE, eval_hotel)
        assert [p.name for p in service.inputs] == \
            ["type", "catering", "occupancy", "arrival", "stay"]

    def test_non_elevated_item_rejected(self, tshirt):
        item = full_materialization(tshirt)[0]
        with pytest.raises(ElevationError):
            elevate(item, BASE, tshirt)

    def test_complement_law(self, eval_hotel):
        cls = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
        items = (abstraction(eval_hotel)
                 + type_level_materialization(eval_hotel)
                 + selective_instance_materialization(eval_hotel, cls))
        all_dims = set(eval_hotel.dimension_names)
        for item in items:
            service = elevate(item, BASE, eval_hotel)
            assert set(item.fixed) | {p.name for p in service.inputs} == all_dims


class TestSerialization:
    def test_golden_abstract_annotation(self, eval_hotel):
        item = abstraction(eval_hotel)[0]
        annotation = serialize(item, elevate(item, BASE, eval_hotel), eval_hotel)
        assert annotation.jsonld == GOLDEN.read_bytes().rstrip(b"\n")

    def test_deterministic_across_calls(self, eval_hotel):
        item = abstraction(eval_hotel)[0]
        a = serialize(item, elevate(item, BASE, eval_hotel), eval_hotel)
        b = serialize(item, elevate(item, BASE, eval_hotel), eval_hotel)
        assert a.jsonld == b.jsonld
        assert a.dom_anchor_id == b.dom_anchor_id

    def test_concrete_offer_shape(self, eval_hotel):
        annotation = annotate_all(full_materialization(eval_hotel, hard_cap=10 ** 6)[:1],
                                  eval_hotel)[0]
        doc = json.loads(annotation.jsonld)
        assert doc["@type"] == "Product"
        assert doc["@context"] == "https://schema.org"
        offer = doc["offers"]
        assert offer["price"] == "100.00"
        assert offer["priceCurrency"] == "EUR"
        assert offer["availability"].endswith("InStock")
        assert "potentialAction" not in offer

    def test_abstract_offer_has_range_and_action(self, eval_hotel):
        item = abstraction(eval_hotel)[0]
        doc = json.loads(serialize(item, elevate(item, BASE, eval_hotel), eval_hotel).jsonld)
        spec = doc["offers"]["priceSpecification"]
        assert (spec["minPrice"], spec["maxPrice"]) == ("100.00", "190.00")
        action = doc["offers"]["potentialAction"]
        inputs = [k for k in action if k.endswith("-input")]
        assert len(inputs) == 5

    def test_byte_size_is_definitional(self):
        catalog = eval_hotel_n(5)
        rng = random.Random(0)
        items = full_materialization(catalog)
        for item in rng.sample(items, 200):
            annotation = serialize(item, None, catalog)
            assert annotation.byte_size == len(annotation.jsonld)

    def test_round_trip_recovers_item(self, eval_hotel):
        from matpub.consumer import extract_annotations
        cls = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
        items = selective_instance_materialization(eval_hotel, cls)
        page = render_page(annotate_all(items, eval_hotel), eval_hotel)
        parsed, warnings = extract_annotations(page)
        assert not warnings
        assert [p.fixed for p in parsed] == [i.fixed for i in items]
        for p, item in zip(parsed, items):
            assert p.price_range == tuple(f"{x:.2f}" for x in item.price_range)
            assert p.ranges["stay"] == {"min": 1, "max": 30, "count": 30}

    def test_service_presence_contract(self, eval_hotel):
        abstract = abstraction(eval_hotel)[0]
        concrete = next(iter_full_materialization(eval_hotel))
        with pytest.raises(AnnotateError):
            serialize(abstract, None, eval_hotel)
        with pytest.raises(AnnotateError):
            serialize(concrete, elevate(abstract, BASE, eval_hotel), eval_hotel)

    def test_mean_size_within_paper_bracket(self):
        # The 500-byte-per-annotation estimate, bracketed as [300, 1000].
        catalog = eval_hotel_n(20)
        sizes = [serialize(i, None, catalog).byte_size
                 for i in iter_full_materialization(catalog)]
        assert 300 <= sum(sizes) / len(sizes) <= 1000


class TestRenderPage:
    def test_selective_page_has_eight_blocks_and_elements(self, eval_hotel):
        cls = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
        annotations = annotate_all(
            selective_instance_materialization(eval_hotel, cls), eval_hotel)
        page = render_page(annotations, eval_hotel).decode("utf-8")
        assert page.count('<script type="application/ld+json">') == 8
        assert page.count('class="product"') == 8
        for annotation in annotations:
            assert f'id="{annotation.dom_anchor_id}"' in page

    def test_empty_page_is_valid(self, eval_hotel):
        page = render_page([], eval_hotel)
        assert b"<html" in page and b"</html>" in page
        assert conformity_check(page).conforms

    def test_pagination(self, eval_hotel):
        annotations = annotate_all(type_level_materialization(eval_hotel), eval_hotel)
        page1 = render_page(annotations, eval_hotel, page=1, per_page=100)
        assert page1.count(b'application/ld+json') == 100
        last = render_page(annotations, eval_hotel, page=5, per_page=100)
        assert last.count(b'application/ld+json') == 1  # 401 = 4*100 + 1
        with pytest.raises(PageNotFound):
            render_page(annotations, eval_hotel, page=6, per_page=100)
        with pytest.raises(PageNotFound):
            render_page(annotations, eval_hotel, page=0, per_page=100)

    def test_stream_is_sized_and_sliced(self, eval_hotel):
        stream = annotation_stream(eval_hotel, "type-level", None, None, BASE)
        listed = list(stream)
        assert len(stream) == len(listed) == 401
        assert [a.jsonld for a in stream[395:10 ** 20]] == \
            [a.jsonld for a in listed[395:]]
        assert stream[10 ** 20:] == []
        with pytest.raises(ValueError):
            stream[::2]

    @pytest.mark.parametrize("dims", [13, 20], ids=["count-over-memory", "count-over-maxsize"])
    def test_list_of_a_capped_stream_is_refused_by_the_cap(self, dims):
        """`list()` asks for the length before it iterates: a `full` over its
        cap refuses there, as slicing does, rather than pre-sizing a list of
        10**13 items (MemoryError) or 10**20 (OverflowError)."""
        catalog = make_catalog([(f"d{i}", "categorical", [f"v{j}" for j in range(10)])
                                for i in range(dims)])
        stream = annotation_stream(catalog, "full", None, None, BASE)
        for build in (list, len, lambda s: s[5:7]):
            with pytest.raises(MaterializationCapExceeded) as caught:
                build(stream)
            assert caught.value.count == 10 ** dims

    def test_payload_additivity(self, eval_hotel):
        annotations = annotate_all(type_level_materialization(eval_hotel), eval_hotel)
        page = render_page(annotations, eval_hotel)
        predicted = (page_shell_size(eval_hotel)
                     + sum(a.byte_size for a in annotations)
                     + sum(block_overhead(a, eval_hotel) for a in annotations))
        assert len(page) == predicted

    def test_full_bulk_page_exceeds_40mb_at_n365(self, eval_hotel):
        total = page_shell_size(eval_hotel)
        for item in iter_full_materialization(eval_hotel):
            annotation = serialize(item, None, eval_hotel)
            total += annotation.byte_size + block_overhead(annotation, eval_hotel)
        assert total > 40 * 10 ** 6


class TestConformity:
    def make_page(self, eval_hotel):
        cls = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
        annotations = annotate_all(
            selective_instance_materialization(eval_hotel, cls), eval_hotel)
        return render_page(annotations, eval_hotel)

    def test_rendered_pages_conform(self, eval_hotel):
        report = conformity_check(self.make_page(eval_hotel))
        assert report.conforms
        assert report.orphans == []

    def test_removed_script_block_flags_orphan_element(self, eval_hotel):
        page = self.make_page(eval_hotel).decode("utf-8")
        start = page.index('<script type="application/ld+json">')
        end = page.index("</script>", start) + len("</script>\n")
        mutated = page[:start] + page[end:]
        report = conformity_check(mutated.encode("utf-8"))
        assert not report.conforms
        assert sum(1 for kind, _ in report.orphans if kind == "element") == 1

    def test_injected_block_flags_orphan_annotation(self, eval_hotel):
        page = self.make_page(eval_hotel).decode("utf-8")
        extra = ('<script type="application/ld+json">'
                 '{"@context":"https://schema.org","@id":"#p-bogus","@type":"Product"}'
                 "</script>\n")
        mutated = page.replace("</body>", extra + "</body>")
        report = conformity_check(mutated.encode("utf-8"))
        assert not report.conforms
        assert ("annotation", "p-bogus") in report.orphans

    # Valid JSON that is not an object is as malformed as text that is not JSON.
    @pytest.mark.parametrize("block", ["{not json]", "[1]", '"x"', "null", "[" * 100_000],
                             ids=["not-json", "array", "string", "null", "deep-nesting"])
    def test_malformed_block_is_orphan_not_crash(self, eval_hotel, block):
        page = self.make_page(eval_hotel).decode("utf-8")
        extra = f'<script type="application/ld+json">{block}</script>\n'
        mutated = page.replace("</body>", extra + "</body>")
        report = conformity_check(mutated.encode("utf-8"))
        assert not report.conforms
        assert any(kind == "annotation" for kind, _ in report.orphans)

    def test_anchor_spelled_like_a_malformed_label_is_an_anchor(self):
        """A malformed block is labelled `<malformed-N>` in the report only,
        so a block whose anchor reads so still finds its element."""
        page = ('<div class="product" id="&lt;malformed-1&gt;"></div>\n'
                '<script type="application/ld+json">{"@id":"#<malformed-1>"}</script>\n'
                '<script type="application/ld+json">[1]</script>\n')
        report = conformity_check(page.encode("utf-8"))
        assert report.orphans == [("annotation", "<malformed-1>")]
        report = conformity_check(page.rsplit("<script", 1)[0].encode("utf-8"))
        assert report.conforms and report.orphans == []


class TestAnchors:
    def test_anchor_stable_and_distinct(self, eval_hotel):
        cls = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
        items = selective_instance_materialization(eval_hotel, cls)
        anchors = [dom_anchor_id(i) for i in items]
        assert len(set(anchors)) == len(anchors)
        assert anchors == [dom_anchor_id(i) for i in items]


@settings(max_examples=100, deadline=None)
@given(catalog=catalog_strategy(), per_page=st.integers(1, 7))
def test_page_is_the_slice_of_the_reference_list(catalog, per_page):
    """Pages 1, last, last + 1 and one above sys.maxsize of every heuristic
    over a stream: the reference's slice, or PageNotFound exactly when the
    page starts past the end. A heuristic that cannot publish says so on
    every page number."""
    snapshot, policies = Inventory.initial(catalog), HeuristicPolicies()
    for heuristic in HEURISTIC_NAMES:
        def page(number):
            stream = annotation_stream(catalog, heuristic, snapshot, policies, BASE)
            return render_page(stream, catalog, page=number, per_page=per_page)

        try:
            expected = list(reference.annotations(catalog, heuristic, snapshot,
                                                  policies, BASE))
        except NoAvailableVariation:
            for number in (1, 2, 10 ** 20):
                with pytest.raises(NoAvailableVariation):
                    page(number)
            continue
        last = max(1, -(-len(expected) // per_page))
        for number in (1, last, last + 1, 10 ** 20):
            if number > 1 and (number - 1) * per_page >= len(expected):
                with pytest.raises(PageNotFound):
                    page(number)
            else:
                assert page(number) == reference.page(catalog, expected, number, per_page)
