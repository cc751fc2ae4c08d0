"""Brute-force reference for the annotation bytes: each annotation is built as
a dict and serialized with `json.dumps(sort_keys=True)`, each visible block
with `html.escape`, and full materialization prices every variation straight
off the modifier table. Kept free of `matpub.annotate` on purpose, so the
fragment-based serializer is checked against an independent oracle."""
import hashlib
import html
import io
import itertools
import json
from decimal import Decimal

from matpub.catalog import DimensionKind, canonical_id_for
from matpub.heuristics import ItemKind, PublicationItem, publication_items

SCRIPT_OPEN = b'<script type="application/ld+json">'
SCRIPT_CLOSE = b"</script>\n"
PAGE_TAIL = b"</body>\n</html>\n"


def anchor(item):
    fixed_set = canonical_id_for(list(item.fixed), item.fixed)
    return "p-" + hashlib.blake2b(fixed_set.encode("utf-8"), digest_size=6).hexdigest()


def money(amount):
    return f"{amount:.2f}"


def range_property(name, summary):
    prop = {"@type": "PropertyValue", "name": name}
    if summary.kind is DimensionKind.CATEGORICAL:
        prop["value"] = list(summary.values)
    else:
        prop["minValue"] = summary.min_value
        prop["maxValue"] = summary.max_value
        prop["valueReference"] = {"@type": "QuantitativeValue", "value": summary.count}
    return prop


def action_document(service):
    action = {
        "@type": "SearchAction",
        "target": {"@type": "EntryPoint", "urlTemplate": service.target_url_template},
        "result": {"@type": "Offer"},
    }
    for param in service.inputs:
        action[f"{param.name}-input"] = {
            "@type": "PropertyValueSpecification",
            "valueName": param.name,
            "valueRequired": param.required,
        }
    return action


def jsonld(item, service, catalog):
    properties = []
    for dim in catalog.dimensions:
        if dim.name in item.fixed:
            properties.append({"@type": "PropertyValue", "name": dim.name,
                               "value": item.fixed[dim.name]})
        elif dim.name in item.ranges:
            properties.append(range_property(dim.name, item.ranges[dim.name]))
    offer = {
        "@type": "Offer",
        "areaServed": catalog.area_served,
        "availability": ("https://schema.org/InStock" if item.available
                         else "https://schema.org/OutOfStock"),
    }
    if item.exact_price is not None:
        offer["price"] = money(item.exact_price)
        offer["priceCurrency"] = catalog.pricing.currency
    else:
        lo, hi = item.price_range
        offer["priceSpecification"] = {
            "@type": "PriceSpecification",
            "minPrice": money(lo),
            "maxPrice": money(hi),
            "priceCurrency": catalog.pricing.currency,
        }
    if service is not None:
        offer["potentialAction"] = action_document(service)
    doc = {
        "@context": "https://schema.org",
        "@id": f"#{anchor(item)}",
        "@type": "Product",
        "name": catalog.product_name,
        "description": catalog.description,
        "image": catalog.image_url,
        "additionalProperty": properties,
        "offers": offer,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def page_head(catalog):
    title = html.escape(catalog.product_name)
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{title}</title>\n"
        "<style>body{font-family:sans-serif;margin:2em}"
        ".product{border:1px solid #ccc;margin:1em 0;padding:1em}</style>\n"
        "</head>\n<body>\n"
        f"<h1>{html.escape(catalog.product_name)}</h1>\n"
        f"<p class=\"description\">{html.escape(catalog.description)}</p>\n"
    ).encode("utf-8")


def describe_range(summary):
    if summary.kind is DimensionKind.CATEGORICAL:
        return "any of: " + ", ".join(str(v) for v in summary.values)
    return f"{summary.min_value} to {summary.max_value} ({summary.count} options)"


def visible_block(item, catalog):
    rows = []
    for dim in catalog.dimensions:
        if dim.name in item.fixed:
            text = html.escape(str(item.fixed[dim.name]))
        else:
            text = html.escape(describe_range(item.ranges[dim.name]))
        rows.append(f"<dt>{html.escape(dim.display_label or dim.name)}</dt>"
                    f"<dd>{text}</dd>")
    if item.exact_price is not None:
        price_text = f"{money(item.exact_price)} {catalog.pricing.currency}"
    else:
        lo, hi = item.price_range
        price_text = f"{money(lo)}&ndash;{money(hi)} {catalog.pricing.currency}"
    availability = "Available" if item.available else "Currently unavailable"
    return (
        f"<div class=\"product\" id=\"{anchor(item)}\">\n"
        f"<h2>{html.escape(catalog.product_name)} ({item.kind.value})</h2>\n"
        f"<dl>{''.join(rows)}</dl>\n"
        f"<p class=\"price\">{price_text}</p>\n"
        f"<p class=\"availability\">{availability}</p>\n"
        "</div>\n"
    ).encode("utf-8")


def full_items(catalog, snapshot):
    """One concrete item per variation, priced from the modifier table."""
    names = [d.name for d in catalog.dimensions]
    for combo in itertools.product(*(d.values for d in catalog.dimensions)):
        fixed = dict(zip(names, combo))
        total = catalog.pricing.base_price
        for (dim, value), delta in catalog.pricing.modifiers.items():
            if fixed.get(dim) == value:
                total += delta
        yield PublicationItem(
            kind=ItemKind.CONCRETE, fixed=fixed, ranges={},
            exact_price=total.quantize(Decimal("0.01")), price_range=None,
            available=snapshot.is_available(canonical_id_for(names, fixed)),
            requires_elevation=False)


def annotations(catalog, heuristic, snapshot, policies, endpoint_base):
    """(item, JSON-LD bytes) for every published item, in page order."""
    from matpub.annotate import elevate  # builds the service description only
    if heuristic == "full":
        items = full_items(catalog, snapshot)
    else:
        items = publication_items(catalog, heuristic, snapshot, policies)
    for item in items:
        service = (elevate(item, endpoint_base, catalog)
                   if item.requires_elevation else None)
        yield item, jsonld(item, service, catalog)


def page(catalog, annotated, page_no=None, per_page=None):
    """The bulk page, or the 1-based `page_no` of `per_page` blocks."""
    annotated = list(annotated)
    if page_no is not None:
        annotated = annotated[(page_no - 1) * per_page: page_no * per_page]
    buf = io.BytesIO()
    buf.write(page_head(catalog))
    for item, payload in annotated:
        buf.write(SCRIPT_OPEN + payload + SCRIPT_CLOSE + visible_block(item, catalog))
    buf.write(PAGE_TAIL)
    return buf.getvalue()
