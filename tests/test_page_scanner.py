"""`annotate.PageScanner` against its `HTMLParser` oracle on generated pages,
fed in random pieces. The scanner follows the tokenizer of Python 3.11's
`html.parser`; later releases changed how it reads some malformed markup."""
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from matpub.annotate import ConformityScanner, PageScanner
from reference_scanner import JsonLdScanner

TAGS = ["div", "DIV", "Div", "p", "span", "section", "script", "SCRIPT", "Script",
        "style", "STYLE", "scripts", "h2", "br"]
ATTRIBUTE_NAMES = ["class", "CLASS", "Class", "id", "ID", "type", "TYPE", "title",
                   "data-x", "lang"]
ATTRIBUTE_VALUES = ["product", "product extra", "extra  product", "Product", "products",
                    "&#112;roduct", "pro&#100;uct", "p-1", "p&amp;2", "p&lt;3&gt;", "&quot;q",
                    "", "application/ld+json", "APPLICATION/LD+JSON",
                    "application&#47;ld+json", "text/javascript", "a>b", "a<b", "it's",
                    "x y", "price"]
SPACES = [" ", "  ", "\n", "\t"]
SCRIPT_TEXTS = [
    '{"@id":"#p-1","@type":"Product"}',
    '{"@id":"#p-&amp;","@type":"Product"}',
    ' {"@id": "#p-2"} ',
    '{"@type":"Organization","name":"x"}',
    '{"@id":""}',
    "{broken",
    "[1]",
    "null",
    '"x"',
    "",
    "[[[[",
    '{"@id":"#p-3"} <div class="product" id="inside">',
    "<!-- {} -->",
    "a < b && c > d",
    "</scrip>",
    "</style>",
]
SCRIPT_ENDS = ["</script>", "</SCRIPT>", "</script >", "</ script>", "</Script\n>"]
TEXTS = ["text", "a < b", "x<1", "&amp;", "&", "&#60;div&#62;", ">", "product",
         "\n", "'", '"', "=", "/", "<", "</", "</>", "< p", "<3", "été",
         # unfinished tokens, which take in what follows up to the next ">"
         "</p ", "<p ", "<a title=", "<!-->", "<!--->", "<!-- -- ", "<!", "<?",
         # a tag name cut short by a NUL: text, not a tag
         "<p\x00"]


def quoted(value, quote):
    if quote == "'" and "'" in value:
        quote = '"'
    if quote == '"' and '"' in value:
        quote = "'"
    return f"{quote}{value}{quote}"


@st.composite
def attribute(draw):
    name = draw(st.sampled_from(ATTRIBUTE_NAMES))
    if draw(st.integers(0, 9)) == 0:
        return name  # no value
    value = draw(st.sampled_from(ATTRIBUTE_VALUES))
    quote = draw(st.sampled_from(['"', '"', "'", ""]))
    if quote == "" and any(c in value for c in " \t\n'\"=<>`") or value == "":
        quote = '"'
    equals = draw(st.sampled_from(["=", "=", " = ", "=\n"]))
    return f"{name}{equals}{quoted(value, quote)}"


@st.composite
def start_tag(draw):
    tag = draw(st.sampled_from(TAGS))
    attrs = draw(st.lists(attribute(), max_size=4))
    parts = [f"{draw(st.sampled_from(SPACES))}{a}" for a in attrs]
    close = draw(st.sampled_from([">", ">", " >", "/>", " />"]))
    return f"<{tag}{''.join(parts)}{close}"


@st.composite
def product_element(draw):
    """A visible product element, its attributes in either order."""
    class_value = draw(st.sampled_from(["product", "product extra"]))
    id_value = draw(st.sampled_from(["p-1", "p-2", "p&amp;3", "P-4"]))
    attrs = ["class=" + quoted(class_value, draw(st.sampled_from(['"', "'"]))),
             "id=" + quoted(id_value, draw(st.sampled_from(['"', "'", ""])))]
    if draw(st.booleans()):
        attrs.reverse()
    tag = draw(st.sampled_from(["div", "DIV", "section"]))
    return f"<{tag} {' '.join(attrs)}>\n<h2>x</h2>\n</{tag}>\n"


@st.composite
def script(draw):
    """A JSON-LD script, closed or not, with either spelling of its type."""
    open_tag = draw(st.sampled_from([
        '<script type="application/ld+json">',
        "<script type='application/ld+json'>",
        "<SCRIPT TYPE=application/ld+json>",
        '<script id="x" type="application/ld+json" >',
        '<script type="application&#47;ld+json">',
        '<script type="text/javascript">',
        "<script>",
        '<script type="application/ld+json"/>',
    ]))
    text = draw(st.sampled_from(SCRIPT_TEXTS))
    end = draw(st.sampled_from(SCRIPT_ENDS + [""]))  # "": never closed here
    return f"{open_tag}{text}{end}"


@st.composite
def comment(draw):
    body = draw(st.lists(st.one_of(st.sampled_from(TEXTS), script(), product_element()),
                         max_size=3))
    end = draw(st.sampled_from(["-->", "-- >", "--\n>"]))
    return f"<!--{''.join(body)}{end}"


fragment = st.one_of(
    st.sampled_from(TEXTS),
    st.sampled_from(["<!DOCTYPE html>", "<!doctype html>", "<?xml version='1.0'?>",
                     "<![CDATA[ a > <div class='product' id='p-7'> ]]>",
                     "<![if x]><div class='product' id='p-8'>]]>",
                     "<!bogus>", "</div>", "</ div >", "</DIV class=x>", '<div\x00class="product" id="p-0">',
                     "<script\x00>{}<div class='product' id='p-5'></script>",
                     "<p\x00<div class='product' id='p-6'>", "<style>.product{}"
                     "</style>", "<STYLE><div class='product' id='hid'></style>"]),
    start_tag(),
    product_element(),
    script(),
    comment(),
)


def pieces(text, cuts):
    bounds = [0] + sorted(c % (len(text) + 1) for c in cuts) + [len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def oracle(page):
    blocks, ids = [], []
    scanner = JsonLdScanner(blocks.append, ids.append)
    scanner.feed(page)
    scanner.close()
    return blocks, ids


def malformed(blocks):
    count = 0
    for raw in blocks:
        try:
            doc = json.loads(raw)
        except (ValueError, RecursionError):
            doc = None
        if not (isinstance(doc, dict) and str(doc.get("@id", "")).lstrip("#")):
            count += 1
    return count


@settings(max_examples=600, deadline=None)
@given(fragments=st.lists(fragment, max_size=12),
       cuts=st.lists(st.integers(0, 10 ** 6), max_size=8))
@example(fragments=['<div class="product" id="p-1">', '<script type="application/ld+json">',
                    '{"@id":"#p-1"}', "</script>"], cuts=[3, 40])
def test_scanner_matches_html_parser(fragments, cuts):
    page = "".join(fragments)
    expected_blocks, expected_ids = oracle(page)

    blocks, ids = [], []
    scanner = PageScanner(blocks.append, ids.append)
    for piece in pieces(page, cuts):
        scanner.feed(piece)
    scanner.close()
    assert (blocks, ids) == (expected_blocks, expected_ids)

    conformity = ConformityScanner()
    for piece in pieces(page, cuts):
        conformity.feed(piece)
    conformity.close()
    assert conformity.element_ids == expected_ids
    assert conformity.malformed == malformed(expected_blocks)
    assert len(conformity.annotation_anchors) == len(expected_blocks)
