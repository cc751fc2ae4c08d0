"""A stateful model test of the resolver, in process. Hypothesis drives random
interleavings of bookings (under any spelling of a variation's id), resets
with and without a seed, searches and page requests. The model is the seed,
the set of booked canonical ids and the number of confirmed bookings since
the last reset; availability is computed from them by an independent keyed
blake2b, and pages are compared with `reference_annotate.py` builds."""
import hashlib
from urllib.parse import quote

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import reference_annotate as reference
from matpub.annotate import PageNotFound
from matpub.catalog import canonical_id_for
from matpub.heuristics import HEURISTIC_NAMES, NoAvailableVariation
from matpub.resolver import ResolverService

from conftest import catalog_strategy, oracle_search, oracle_variations


class Model:
    """What the inventory should be. `is_available` is all that searches and
    page builds read of an inventory, so the model stands in for one."""

    def __init__(self, seed, rate):
        self.seed, self.rate = seed, rate
        self.booked = set()
        self.confirmed = 0

    def is_available(self, canonical_id):
        digest = hashlib.blake2b(canonical_id.encode("utf-8"),
                                 key=self.seed.to_bytes(8, "big"), digest_size=8).digest()
        return (canonical_id not in self.booked
                and int.from_bytes(digest, "big") / 2 ** 64 < self.rate)


@st.composite
def spelled_value(draw, value):
    """An ordinal value with up to two leading zeros; other values as they are."""
    if isinstance(value, int):
        return "0" * draw(st.integers(0, 2)) + str(value)
    return value


@st.composite
def percent_encoded(draw, text):
    """`text` with a random subset of its characters percent-encoded."""
    return "".join(quote(c, safe="") if draw(st.booleans()) else c for c in text)


@st.composite
def spelled_id(draw, assignments):
    """Any spelling of the variation's id that names it: dimensions in any
    order, zero-padded ordinals and percent-encoded characters."""
    names = draw(st.permutations(list(assignments)))
    return "|".join(
        f"{draw(percent_encoded(name))}="
        f"{draw(percent_encoded(draw(spelled_value(assignments[name]))))}"
        for name in names)


class ResolverModel(RuleBasedStateMachine):
    @initialize(catalog=catalog_strategy(max_dims=3, max_len=4))
    def start(self, catalog):
        self.catalog = catalog
        self.service = ResolverService(catalog)
        self.model = Model(catalog.inventory_seed, catalog.base_availability_rate)
        self.variations = oracle_variations(catalog)

    @rule(data=st.data())
    def book(self, data):
        assignments = data.draw(st.sampled_from(self.variations))
        canonical = canonical_id_for(self.catalog.dimension_names, assignments)
        result = self.service.book(data.draw(spelled_id(assignments)))
        if self.model.is_available(canonical):
            self.model.booked.add(canonical)
            self.model.confirmed += 1
            status = "confirmed"
        else:
            status = "already_booked"
        assert (result.status, result.canonical_id, result.epoch_after) == \
            (status, canonical, self.model.confirmed)

    @rule(seed=st.none() | st.integers(0, 2 ** 64 - 1))
    def reset(self, seed):
        assert self.service.reset(seed) == 0
        self.model = Model(self.catalog.inventory_seed if seed is None else seed,
                           self.catalog.base_availability_rate)

    @rule(data=st.data(), page=st.integers(1, 4), per_page=st.integers(1, 5))
    def search(self, data, page, per_page):
        constraints = {d.name: data.draw(st.sampled_from(d.values))
                       for d in self.catalog.dimensions if data.draw(st.booleans())}
        raw = {name: data.draw(spelled_value(value)) for name, value in constraints.items()}
        offers, total, epoch = self.service.search(raw, page, per_page)
        expected = oracle_search(self.catalog, self.model, constraints)
        assert total == len(expected)
        assert [o["canonical_id"] for o in offers] == \
            expected[(page - 1) * per_page: page * per_page]
        assert epoch == self.model.confirmed

    @rule(heuristic=st.sampled_from(HEURISTIC_NAMES),
          paging=st.none() | st.tuples(st.integers(1, 4), st.integers(1, 5)))
    def get_page(self, heuristic, paging):
        page, per_page = paging or (None, None)
        try:
            expected = list(reference.annotations(
                self.catalog, heuristic, self.model, self.service.policies,
                self.service.endpoint_base))
        except NoAvailableVariation:
            with pytest.raises(NoAvailableVariation):
                self.service.page_html(heuristic, page, per_page)
            return
        if page is not None and page > 1 and (page - 1) * per_page >= len(expected):
            with pytest.raises(PageNotFound):
                self.service.page_html(heuristic, page, per_page)
            return
        body, epoch = self.service.page_html(heuristic, page, per_page)
        assert body == reference.page(self.catalog, expected, page, per_page)
        assert epoch == self.model.confirmed

    @invariant()
    def epoch_counts_confirmed_bookings(self):
        assert self.service.epoch == self.model.confirmed


ResolverModel.TestCase.settings = settings(max_examples=100, stateful_step_count=30,
                                           deadline=None)
TestResolverModel = ResolverModel.TestCase
