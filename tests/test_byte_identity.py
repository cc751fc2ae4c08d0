"""The annotation bytes do not depend on how they are produced: pinned digests
of the eval_hotel pages and of `matpub generate`'s output, and a property
over random catalogs with hostile strings, checked against the dict +
`json.dumps` reference in `reference_annotate.py`."""
import contextlib
import hashlib
import io
import json
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_annotate as reference
from matpub import cli
from matpub.annotate import annotation_stream, render_page
from matpub.catalog import (
    DimensionDef,
    DimensionKind,
    Inventory,
    PricingModel,
    ProductCatalog,
    enumerate_variations,
)
from matpub.heuristics import (
    HEURISTIC_NAMES,
    ClassificationPolicy,
    HeuristicPolicies,
    NoAvailableVariation,
    PickerPolicy,
)
from matpub.resolver import ResolverService

from conftest import DATA_DIR

DIGESTS = json.loads((Path(__file__).parent / "data" / "eval_hotel_digests.json")
                     .read_text(encoding="utf-8"))
PINNED_BASE = "http://127.0.0.1:8321"


def digest(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


@pytest.fixture(scope="module")
def eval_service(eval_hotel):
    return ResolverService(eval_hotel, HeuristicPolicies(), endpoint_base=PINNED_BASE)


@pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
def test_bulk_page_matches_pinned_digest(eval_service, heuristic):
    body, _ = eval_service.page_html(heuristic)
    assert digest(body) == DIGESTS["pages"][heuristic]


def test_paginated_full_page_matches_pinned_digest(eval_service):
    pinned = DIGESTS["paginated"]["full"]
    body, _ = eval_service.page_html("full", page=pinned["page"],
                                     per_page=pinned["per_page"])
    assert digest(body) == {"bytes": pinned["bytes"], "sha256": pinned["sha256"]}


@pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
def test_generate_output_matches_pinned_digests(heuristic, tmp_path, monkeypatch):
    monkeypatch.delenv("MATPUB_HOST", raising=False)
    monkeypatch.delenv("MATPUB_PORT", raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["generate", "--config", str(DATA_DIR / "default.config.json"),
                         "--heuristic", heuristic, "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    written = {name: digest((tmp_path / name).read_bytes())
               for name in ("annotations.jsonl", "page.html")}
    for name in written:
        (tmp_path / name).unlink()  # the full outputs take 180 MB
    assert written["annotations.jsonl"] == DIGESTS["annotations_jsonl"][heuristic]
    assert written["page.html"] == DIGESTS["pages"][heuristic]


# ---------------------------------------------------------------------------
# Random catalogs with strings that need escaping

HOSTILE = st.text(
    alphabet=st.one_of(
        st.sampled_from(list('"\\<>&|=\'% /-#') + ["\n", "\t", "\x01", "é", "ß",
                                                   "日", "本", "😀", "\u2028"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=8,
)


@st.composite
def hostile_catalogs(draw):
    n_dims = draw(st.integers(1, 3))
    names = draw(st.lists(HOSTILE.filter(bool), min_size=n_dims, max_size=n_dims,
                          unique=True))
    dims = []
    for name in names:
        kind = draw(st.sampled_from(list(DimensionKind)))
        size = draw(st.integers(1, 4))
        if kind is DimensionKind.CATEGORICAL:
            values = draw(st.lists(HOSTILE, min_size=size, max_size=size, unique=True))
        elif kind is DimensionKind.ORDINAL:
            values = draw(st.lists(st.integers(-40, 400), min_size=size, max_size=size,
                                   unique=True))
        else:
            start = date(2026, 1, 1) + timedelta(days=draw(st.integers(0, 700)))
            values = [(start + timedelta(days=i)).isoformat() for i in range(size)]
        dims.append(DimensionDef(name, kind, tuple(values), draw(HOSTILE)))
    modifiers = {}
    for d in dims:
        for v in d.values:
            if draw(st.booleans()):
                cents = draw(st.integers(-5000, 5000))
                modifiers[(d.name, v)] = Decimal(cents) / draw(st.sampled_from([100, 1000]))
    return ProductCatalog(
        product_name=draw(HOSTILE), description=draw(HOSTILE),
        image_url=draw(HOSTILE), area_served=draw(HOSTILE), dimensions=dims,
        pricing=PricingModel(Decimal("500.00"), draw(HOSTILE), modifiers),
        inventory_seed=draw(st.integers(0, 2 ** 64 - 1)),
        base_availability_rate=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
    )


@settings(max_examples=120, deadline=None)
@given(catalog=hostile_catalogs(), data=st.data())
def test_annotations_and_pages_match_reference(catalog, data):
    snapshot = Inventory.initial(catalog)
    for v in enumerate_variations(catalog):
        if data.draw(st.booleans(), label="book"):
            snapshot = snapshot.book(v.canonical_id) or snapshot
    policies = HeuristicPolicies(
        classification=ClassificationPolicy(length_threshold=data.draw(st.integers(1, 4))),
        picker=data.draw(st.sampled_from(list(PickerPolicy))),
        picker_seed=data.draw(st.integers(0, 99)))
    base = data.draw(st.sampled_from([PINNED_BASE, 'http://h\u00e9"<&>:1/']))
    for heuristic in HEURISTIC_NAMES:
        try:
            expected = list(reference.annotations(catalog, heuristic, snapshot,
                                                  policies, base))
        except NoAvailableVariation:
            with pytest.raises(NoAvailableVariation):
                list(annotation_stream(catalog, heuristic, snapshot, policies, base))
            continue
        got = list(annotation_stream(catalog, heuristic, snapshot, policies, base))
        assert [a.jsonld for a in got] == [payload for _, payload in expected]
        assert [a.dom_anchor_id for a in got] == [reference.anchor(i) for i, _ in expected]
        assert render_page(annotation_stream(catalog, heuristic, snapshot, policies, base),
                           catalog) == reference.page(catalog, expected)
        if len(expected) > 2:
            assert render_page(annotation_stream(catalog, heuristic, snapshot, policies,
                                                 base), catalog, page=2, per_page=2) \
                == reference.page(catalog, expected, 2, 2)
