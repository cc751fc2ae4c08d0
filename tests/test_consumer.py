import json
import re

import pytest
import requests

from matpub import consumer, resolver
from matpub.annotate import elevate, render_page, serialize
from matpub.catalog import enumerate_variations
from matpub.consumer import (
    Client,
    ResolutionTrace,
    Session,
    TransportError,
    _expand_template,
    extract_annotations,
    hit_ratio_experiment,
    resolve,
)
from matpub.heuristics import type_level_materialization

from conftest import eval_hotel_n, live_server, oracle_price

JSONLD_RE = re.compile(
    r'<script type="application/ld\+json">(.*?)</script>', re.S)


@pytest.fixture(scope="module")
def hotel10():
    return eval_hotel_n(10)


@pytest.fixture(scope="module")
def server(hotel10):
    with live_server(hotel10) as service:
        yield service


@pytest.fixture()
def client():
    client = Client()
    yield client
    client.close()


def page_url(service, heuristic):
    return f"{service.endpoint_base}/page/{heuristic}"


def first_variation(catalog):
    return next(enumerate_variations(catalog))


class TestExtraction:
    def test_type_level_tshirt_yields_nine(self, tshirt):
        items = type_level_materialization(tshirt)
        base = "http://127.0.0.1:8321"
        annotations = [
            serialize(i, elevate(i, base, tshirt) if i.requires_elevation else None,
                      tshirt)
            for i in items
        ]
        parsed, warnings = extract_annotations(render_page(annotations, tshirt))
        assert len(parsed) == 9
        assert warnings == []

    def test_plain_page_yields_nothing(self):
        parsed, warnings = extract_annotations(
            b"<html><body><p>Nothing structured here.</p></body></html>")
        assert parsed == [] and warnings == []

    def test_malformed_block_is_skipped_with_warning(self, server):
        page = requests.get(page_url(server, "selective"), timeout=30).text
        blocks = JSONLD_RE.findall(page)
        assert len(blocks) == 8
        mutated = page.replace(blocks[0], "{broken", 1)
        parsed, warnings = extract_annotations(mutated.encode("utf-8"))
        assert len(parsed) == 7
        assert len(warnings) == 1
        assert "malformed" in warnings[0]

    def test_deeply_nested_block_is_skipped_with_warning(self):
        page = (b'<html><body><script type="application/ld+json">'
                + b"[" * 100_000 + b"</script></body></html>")
        parsed, warnings = extract_annotations(page)
        assert parsed == []
        assert len(warnings) == 1
        assert "malformed" in warnings[0]

    @pytest.mark.parametrize("shape", [
        {"additionalProperty": [1]},
        {"additionalProperty": 5},
        {"offers": []},
        {"offers": {"potentialAction": {"target": "x"}}},
        {"additionalProperty": [{"name": ["stay"], "value": 1}]},
        {"additionalProperty": [{"name": "stay", "minValue": 1}]},
        {"offers": {"priceSpecification": 5}},
        {"offers": {"potentialAction": {"target": {"urlTemplate": 5}}}},
    ], ids=["property-not-object", "properties-not-list", "offers-not-object",
            "target-not-object", "name-not-string", "min-without-max",
            "price-specification-not-object", "url-template-not-string"])
    def test_product_block_of_wrong_shape_is_skipped_with_warning(self, shape):
        blocks = [json.dumps({"@type": "Product", **shape}),
                  json.dumps({"@type": "Product", "@id": "#kept"})]
        page = "".join(f'<script type="application/ld+json">{block}</script>'
                       for block in blocks).encode()
        parsed, warnings = extract_annotations(page)
        assert [annotation.anchor_id for annotation in parsed] == ["kept"]
        assert len(warnings) == 1
        assert warnings[0].startswith("block 0: malformed")

    def test_unrelated_jsonld_ignored(self):
        page = (b'<html><body><script type="application/ld+json">'
                b'{"@type":"Organization","name":"x"}</script></body></html>')
        parsed, warnings = extract_annotations(page)
        assert parsed == [] and warnings == []


class TestTemplateExpansion:
    def test_expands_present_values_only(self):
        url = _expand_template("http://h/api/search{?a,b,c}", {"a": "x", "c": 3})
        assert url == "http://h/api/search?a=x&c=3"

    def test_no_values_drops_query(self):
        assert _expand_template("http://h/api/search{?a}", {}) == "http://h/api/search"

    def test_plain_url_passthrough(self):
        assert _expand_template("http://h/api/search", {"a": 1}) == "http://h/api/search"


class TestResolve:
    def test_full_page_point_verification_single_call(self, server, hotel10, client):
        desired = first_variation(hotel10).assignments
        trace = client.resolve(page_url(server, "full"), desired)
        assert trace.outcome == "found_not_booked"
        assert trace.api_calls == 1  # one point search beyond the page fetch

    def test_abstraction_one_call_without_booking(self, server, hotel10):
        desired = first_variation(hotel10).assignments
        trace = resolve(page_url(server, "abstraction"), desired)
        assert trace.outcome == "found_not_booked"
        assert trace.api_calls == 1

    def test_abstraction_two_calls_with_booking(self, hotel10):
        with live_server(hotel10) as service:
            desired = first_variation(hotel10).assignments
            trace = resolve(page_url(service, "abstraction"), desired, book=True)
            assert trace.outcome == "booked"
            assert trace.api_calls == 2  # search + book
            again = resolve(page_url(service, "abstraction"), desired, book=True)
            assert again.outcome == "dead_end"
            assert again.api_calls == 1  # the point search already comes back empty

    def test_selective_resolves_via_action(self, server, hotel10):
        desired = first_variation(hotel10).assignments
        trace = resolve(page_url(server, "selective"), desired)
        assert trace.outcome == "found_not_booked"
        assert trace.api_calls == 1
        assert trace.offer["assignments"] == desired

    def test_specialization_unavailable_sibling_is_one_call_dead_end(self, hotel10, client):
        with live_server(hotel10) as service:
            published, _ = extract_annotations(
                client.fetch_page(page_url(service, "specialization")))
            desired = dict(published[0].fixed)
            desired["arrival"] = "2026-01-05"
            assert desired != published[0].fixed
            # Remove the sibling from inventory first, then try to resolve it.
            cid = next(v.canonical_id for v in enumerate_variations(hotel10)
                       if v.assignments == desired)
            requests.post(service.endpoint_base + "/api/book",
                          json={"canonical_id": cid}, timeout=30)
            trace = resolve(page_url(service, "specialization"), desired)
            assert trace.outcome == "dead_end"
            assert trace.api_calls == 1

    def test_resolved_price_matches_catalog(self, server, hotel10):
        desired = {"type": "comfort", "catering": "half-board",
                   "occupancy": "double", "arrival": "2026-01-03", "stay": 7}
        trace = resolve(page_url(server, "type-level"), desired)
        assert trace.outcome == "found_not_booked"
        assert trace.offer["price"] == f"{oracle_price(hotel10, desired):.2f}"

    def test_trace_to_dict_round_trips_outcome(self, server, hotel10):
        desired = first_variation(hotel10).assignments
        doc = resolve(page_url(server, "full"), desired).to_dict()
        assert doc["outcome"] == "found_not_booked"
        assert doc["api_calls"] == len(doc["steps"]) == 1
        assert doc["heuristic"] == "full"

    def test_transport_error_after_bounded_retries(self, client):
        with pytest.raises(TransportError):
            client.fetch_page("http://127.0.0.1:1/page/full")


class TestHttpErrors:
    """An error status or a body that is not JSON is a TransportError, not an
    empty result; an error status is not retried."""

    def test_bad_paging_search_is_transport_error(self, server, client):
        trace = ResolutionTrace("abstraction", {})
        url = f"{server.endpoint_base}/api/search?per_page=0"
        with pytest.raises(TransportError, match="400"):
            client._search_step(trace, url)
        assert trace.steps == []

    def test_missing_page_is_transport_error_without_retry(self, server):
        calls = []
        session = Session()
        send = session.request

        def counting_request(*args, **kwargs):
            calls.append(args)
            return send(*args, **kwargs)

        session.request = counting_request
        try:
            with pytest.raises(TransportError, match="404"):
                Client(session).fetch_page(page_url(server, "no-such-heuristic"))
        finally:
            session.close()
        assert len(calls) == 1

    def test_search_answer_that_is_not_json_is_transport_error(self, server, client):
        trace = ResolutionTrace("abstraction", {})
        with pytest.raises(TransportError, match="not JSON"):
            client._search_step(trace, page_url(server, "abstraction"))


class TestHitRatioExperiment:
    def test_rate_one_hits_everything(self, hotel10):
        with live_server(hotel10) as service:
            result = hit_ratio_experiment(page_url(service, "abstraction"),
                                          hotel10, n_queries=40, seed=11)
            assert result["hit_ratio"] == 1.0
            assert result["dead_end_rate"] == 0.0
            assert result["booked"] == 0

    def test_rate_zero_is_all_dead_ends(self):
        catalog = eval_hotel_n(10)
        catalog.base_availability_rate = 0.0
        with live_server(catalog) as service:
            result = hit_ratio_experiment(page_url(service, "abstraction"),
                                          catalog, n_queries=20, seed=11)
            assert result["hit_ratio"] == 0.0
            assert result["dead_end_rate"] == 1.0

    def test_deterministic_under_fixed_seed(self, hotel10):
        with live_server(hotel10) as service:
            url = page_url(service, "selective")
            a = hit_ratio_experiment(url, hotel10, n_queries=25, seed=3)
            b = hit_ratio_experiment(url, hotel10, n_queries=25, seed=3)
            assert (a["hit_ratio"], a["dead_end_rate"], a["mean_api_calls"]) == \
                (b["hit_ratio"], b["dead_end_rate"], b["mean_api_calls"])

    def test_booking_consumes_inventory(self, hotel10):
        with live_server(hotel10) as service:
            url = page_url(service, "abstraction")
            first = hit_ratio_experiment(url, hotel10, n_queries=15, seed=9,
                                         book=True, concurrency=1)
            assert first["booked"] >= 1
            second = hit_ratio_experiment(url, hotel10, n_queries=15, seed=9,
                                          book=True, concurrency=1)
            assert second["booked"] < first["booked"]

    def test_mean_api_calls_never_below_full(self, hotel10):
        with live_server(hotel10) as service:
            means = {}
            for heuristic in ("full", "selective", "type-level", "abstraction"):
                result = hit_ratio_experiment(page_url(service, heuristic),
                                              hotel10, n_queries=20, seed=5)
                assert result["hit_ratio"] == 1.0
                means[heuristic] = result["mean_api_calls"]
            assert means["full"] <= means["selective"]
            assert means["full"] <= means["type-level"]
            assert means["full"] <= means["abstraction"]

    def test_every_session_closed(self, monkeypatch):
        sessions = []

        class CountingSession(Session):
            closed = False

            def __init__(self):
                super().__init__()
                sessions.append(self)

            def close(self):
                self.closed = True
                super().close()

        catalog = eval_hotel_n(10)
        catalog.base_availability_rate = 0.6
        monkeypatch.setattr(consumer, "Session", CountingSession)
        with live_server(catalog) as service:
            for heuristic in ("selective", "full"):
                sessions.clear()
                result = hit_ratio_experiment(page_url(service, heuristic), catalog,
                                              n_queries=30, seed=4, book=True,
                                              concurrency=3)
                service.reset()
                # One session fetches the page, then one per query.
                assert len(sessions) == 30 + 1
                assert all(s.closed for s in sessions)
                assert (result["hit_ratio"], result["booked"],
                        result["mean_api_calls"]) == (20 / 30, 20, 50 / 30)
            sessions.clear()
            desired = first_variation(catalog).assignments
            assert resolve(page_url(service, "full"), desired).outcome == "found_not_booked"
            assert len(sessions) == 1 and sessions[0].closed

    def test_connection_dropped_before_booking_is_retried(self, hotel10, monkeypatch):
        """The server closes a kept-alive connection after each search
        without saying so; the booking fails on it once and then goes
        through on a new connection."""
        do_get = resolver.ResolverHandler.do_GET

        def search_then_hang_up(handler):
            do_get(handler)
            if handler.path.startswith("/api/search"):
                handler.close_connection = True

        monkeypatch.setattr(resolver.ResolverHandler, "do_GET", search_then_hang_up)
        attempts = []
        request = Session.request

        def counting_request(session, method, url, *args, **kwargs):
            attempts.append(method)
            return request(session, method, url, *args, **kwargs)

        monkeypatch.setattr(Session, "request", counting_request)
        with live_server(hotel10) as service:
            result = hit_ratio_experiment(page_url(service, "abstraction"), hotel10,
                                          n_queries=4, seed=2, book=True,
                                          concurrency=1)
        assert (result["hit_ratio"], result["booked"], result["mean_api_calls"]) == \
            (1.0, 4, 2.0)
        # The page, then per query a search, a failed booking and its retry.
        assert attempts == ["GET"] + ["GET", "POST", "POST"] * 4

    def test_rejects_zero_queries(self, server, hotel10):
        with pytest.raises(ValueError):
            hit_ratio_experiment(page_url(server, "full"), hotel10,
                                 n_queries=0, seed=1)
