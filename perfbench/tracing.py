"""Spans and counters recorded around calls into matpub's public functions.

The wrappers live here, in the benchmark, and are bound onto matpub's modules
at start-up; matpub itself carries no tracing code. `resolver` imports
several functions by name, so each wrapper is bound on every module that
holds a reference to the wrapped function.

A span is (id, parent id, request id, name, start, end, value). Spans of one
HTTP request share the request id the client sends in `REQUEST_HEADER`.
Everything stays in memory until `Tracer.dump`."""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

REQUEST_HEADER = "X-Bench-Request"
HEURISTICS = ("full", "abstraction", "specialization", "type-level", "selective")
SEARCH_SHAPES = ("point", "date", "broad")


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # itertools.count advances atomically under the interpreter lock,
        # which keeps the per-hash counter cheap and free of lost updates.
        self._availability_checks = itertools.count()

    # -- recording -----------------------------------------------------------

    @property
    def request_id(self) -> Optional[str]:
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value: Optional[str]):
        self._local.request_id = value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, value_of=None, **kwargs):
        """Run fn inside a span. `value_of(result)` gives the span's value."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            value = value_of(result) if value_of is not None and result is not None else None
            self.spans.append((span_id, parent, self.request_id, name, start, end, value))

    def record(self, name: str, start: float, end: float, value=None, request_id=None):
        stack = self._stack()
        self.spans.append((next(self._ids), stack[-1] if stack else None,
                           request_id or self.request_id, name, start, end, value))

    def add(self, key: str, n: int = 1):
        with self._lock:
            self.counts[key] += n

    def snapshot_counts(self) -> Dict[str, int]:
        counts = dict(self.counts)
        # next() returns the number of increments made so far.
        counts["catalog.availability_checks"] = next(self._availability_checks)
        return counts

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": self.snapshot_counts()}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str):
    spans, counts = [], {}
    with open(path, encoding="utf-8") as fh:
        counts = json.loads(fh.readline())["counts"]
        for line in fh:
            spans.append(tuple(json.loads(line)))
    return spans, counts


# ---------------------------------------------------------------------------
# Wrappers

def _spanned(tracer: Tracer, name, fn, value_of=None):
    """`name` is a string or a function of the call's arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(*args, **kwargs)
        return tracer.call(label, fn, *args, value_of=value_of, **kwargs)
    return wrapper


def _counting(tracer: Tracer, key: str, fn):
    """Count the items a generator function yields, including when its
    consumer stops early (the generator's finally runs on close)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        def gen():
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                tracer.add(key, n)
        return gen()
    return wrapper


def _bind(modules, attr: str, wrapper):
    for module in modules:
        setattr(module, attr, wrapper)


def install_server(tracer: Tracer):
    """Wrap the catalog, heuristics, annotate and resolver layers."""
    from matpub import annotate, catalog, heuristics, resolver

    checks = tracer._availability_checks
    score = catalog.availability_score

    @functools.wraps(score)
    def availability_score(seed, canonical_id):
        next(checks)
        return score(seed, canonical_id)

    catalog.availability_score = availability_score

    enumerate_variations = _counting(tracer, "catalog.variations_scanned",
                                     catalog.enumerate_variations)
    _bind((catalog, heuristics), "enumerate_variations", enumerate_variations)
    consistent = _counting(tracer, "catalog.variations_scanned",
                           heuristics.consistent_variations)
    _bind((heuristics, resolver), "consistent_variations", consistent)

    heuristics.any_available = _spanned(tracer, "heuristics.any_available",
                                        heuristics.any_available)

    items = heuristics.publication_items

    @functools.wraps(items)
    def publication_items(catalog_, heuristic, *args, **kwargs):
        # Most heuristics build their list inside the call; `full` streams.
        # The span's value is the time spent in the call plus in next().
        name = f"heuristics.items.{heuristic}"
        start = time.perf_counter()
        try:
            inner = items(catalog_, heuristic, *args, **kwargs)
        except Exception:
            tracer.record(name, start, time.perf_counter(),
                          value=time.perf_counter() - start)
            raise
        busy = time.perf_counter() - start

        def drain():
            nonlocal busy
            while True:
                t = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    busy += time.perf_counter() - t
                    tracer.record(name, start, time.perf_counter(), value=busy)
                    return
                busy += time.perf_counter() - t
                yield item
        return drain()

    _bind((heuristics, resolver), "publication_items", publication_items)

    _bind((annotate, resolver), "elevate",
          _spanned(tracer, "annotate.elevate", annotate.elevate))
    _bind((annotate, resolver), "serialize",
          _spanned(tracer, "annotate.serialize", annotate.serialize))
    _bind((annotate, resolver), "render_page",
          _spanned(tracer, "annotate.render", annotate.render_page, value_of=len))

    service = resolver.ResolverService
    service.page_html = _spanned(tracer, "resolver.page_html", service.page_html)
    service.book = _spanned(tracer, "resolver.book", service.book)
    service.snapshot = _spanned(tracer, "resolver.snapshot", service.snapshot,
                                value_of=lambda snap: len(snap.overrides))
    def search_shape(self, raw_constraints, *args, **kwargs):
        keys = set(raw_constraints)
        if keys == set(self.catalog.dimension_names):
            return "resolver.search.point"
        if keys == {"arrival"}:
            return "resolver.search.date"
        if len(keys) == 1:
            return "resolver.search.broad"
        return "resolver.search.other"

    service.search = _spanned(tracer, search_shape, service.search)

    handler = resolver.ResolverHandler
    for method in ("do_GET", "do_POST"):
        original = getattr(handler, method)

        def traced(self, _original=original):
            tracer.request_id = self.headers.get(REQUEST_HEADER)
            try:
                tracer.call("resolver.handler", _original, self)
            finally:
                tracer.request_id = None

        setattr(handler, method, functools.wraps(original)(traced))


def install_client(tracer: Tracer):
    """Wrap the consumer layer in the benchmark's own process. Returns a
    function that puts the original functions back."""
    from matpub import consumer

    client = consumer.Client
    originals = [(client, name, client.__dict__[name]) for name in
                 ("__init__", "fetch_page", "resolve", "_search_step", "_book_step")]
    originals += [(consumer, name, getattr(consumer, name)) for name in
                  ("extract_annotations", "_request_with_retry")]
    original_init = client.__init__

    @functools.wraps(original_init)
    def init(self, session=None):
        if session is None:
            tracer.add("consumer.sessions_created")
        original_init(self, session)

    client.__init__ = init
    client.fetch_page = _spanned(tracer, "consumer.fetch_page", client.fetch_page)
    client.resolve = _spanned(tracer, "consumer.resolve", client.resolve)
    client._search_step = _spanned(tracer, "consumer.search_step", client._search_step)
    client._book_step = _spanned(tracer, "consumer.book_step", client._book_step)
    consumer.extract_annotations = _spanned(tracer, "consumer.extract",
                                            consumer.extract_annotations)

    request = consumer._request_with_retry
    ids = itertools.count(1)

    @functools.wraps(request)
    def request_with_retry(session, method, url, **kwargs):
        request_id = f"c{next(ids)}"
        kwargs["headers"] = {**kwargs.get("headers", {}), REQUEST_HEADER: request_id}
        start = time.perf_counter()
        try:
            return request(session, method, url, **kwargs)
        finally:
            tracer.record("client.http", start, time.perf_counter(),
                          request_id=request_id)

    consumer._request_with_retry = request_with_retry

    def uninstall():
        for owner, name, original in originals:
            setattr(owner, name, original)

    return uninstall


# ---------------------------------------------------------------------------
# Per-layer metrics

LAYER_UNITS = {
    "catalog.availability_checks": "count",
    "catalog.variations_scanned": "count",
    **{f"heuristics.items_ms.{h}": "ms" for h in HEURISTICS},
    "heuristics.any_available_ms": "ms",
    "annotate.elevate_ms": "ms",
    "annotate.serialize_ms": "ms",
    "annotate.render_ms": "ms",
    "annotate.page_bytes": "B",
    "resolver.page_html_ms": "ms",
    **{f"resolver.search_ms.{s}": "ms" for s in SEARCH_SHAPES},
    "resolver.book_ms": "ms",
    "resolver.snapshot_ms": "ms",
    "resolver.snapshot_overrides": "count",
    "resolver.handler_ms": "ms",
    "resolver.wire_ms": "ms",
    "consumer.fetch_page_ms": "ms",
    "consumer.extract_ms": "ms",
    "consumer.resolve_ms": "ms",
    "consumer.search_step_ms": "ms",
    "consumer.sessions_created": "count",
    "consumer.api_calls": "count",
    "trace.spans": "count",
    "trace.overhead_throughput_pct": "%",
    "trace.overhead_p50_pct": "%",
}

def _ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1000 if seconds else 0.0


def per_layer(server_spans, server_counts, client_spans, client_counts,
              ops: int) -> Dict[str, float]:
    """The per-layer metrics of one traced run. Counts are per completed
    workload operation; `_ms` figures are medians per call, except the
    annotate and any_available figures, which are totals per page built."""
    durations = defaultdict(list)
    values = defaultdict(list)
    handler = {}
    for _, _, request_id, name, start, end, value in server_spans:
        durations[name].append(end - start)
        if value is not None:
            values[name].append(value)
        if name == "resolver.handler" and request_id:
            handler[request_id] = end - start
    wire = []
    for _, _, request_id, name, start, end, value in client_spans:
        durations[name].append(end - start)
        if name == "client.http" and request_id in handler:
            wire.append(end - start - handler[request_id])
    counts = Counter(server_counts) + Counter(client_counts)
    ops = max(ops, 1)
    pages = len(durations["resolver.page_html"])

    def per_page(seconds):
        return sum(seconds) * 1000 / pages if pages else 0.0

    metrics = {
        "catalog.availability_checks": counts["catalog.availability_checks"] / ops,
        "catalog.variations_scanned": counts["catalog.variations_scanned"] / ops,
    }
    for h in HEURISTICS:
        metrics[f"heuristics.items_ms.{h}"] = _ms(values[f"heuristics.items.{h}"])
    metrics["heuristics.any_available_ms"] = per_page(durations["heuristics.any_available"])
    metrics["annotate.elevate_ms"] = per_page(durations["annotate.elevate"])
    metrics["annotate.serialize_ms"] = per_page(durations["annotate.serialize"])
    metrics["annotate.render_ms"] = per_page(durations["annotate.render"])
    metrics["annotate.page_bytes"] = sum(values["annotate.render"]) / pages if pages else 0.0
    metrics["resolver.page_html_ms"] = _ms(durations["resolver.page_html"])
    for shape in SEARCH_SHAPES:
        metrics[f"resolver.search_ms.{shape}"] = _ms(durations[f"resolver.search.{shape}"])
    metrics["resolver.book_ms"] = _ms(durations["resolver.book"])
    metrics["resolver.snapshot_ms"] = _ms(durations["resolver.snapshot"])
    overrides = values["resolver.snapshot"]
    metrics["resolver.snapshot_overrides"] = (sum(overrides) / len(overrides)
                                              if overrides else 0.0)
    metrics["resolver.handler_ms"] = _ms(durations["resolver.handler"])
    metrics["resolver.wire_ms"] = _ms(wire)
    metrics["consumer.fetch_page_ms"] = _ms(durations["consumer.fetch_page"])
    metrics["consumer.extract_ms"] = _ms(durations["consumer.extract"])
    metrics["consumer.resolve_ms"] = _ms(durations["consumer.resolve"])
    metrics["consumer.search_step_ms"] = _ms(durations["consumer.search_step"])
    metrics["consumer.sessions_created"] = counts["consumer.sessions_created"] / ops
    steps = len(durations["consumer.search_step"]) + len(durations["consumer.book_step"])
    metrics["consumer.api_calls"] = steps / ops
    metrics["trace.spans"] = float(len(server_spans) + len(client_spans))
    return metrics
