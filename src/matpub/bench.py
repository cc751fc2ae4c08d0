"""Quantitative evaluation: sweeps the flexible dimension length, measuring
annotation count, payload and page bytes, generation and serve time per
heuristic, plus the qualitative metrics (conformity, contingent disclosure).
Emits RFC-4180 CSV."""
from __future__ import annotations

import csv
import http.client
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from .annotate import ConformityScanner, annotation_stream, render_page_stream
from .catalog import Inventory, ProductCatalog, count_variations, resize_dimension
from .heuristics import (
    HEURISTIC_NAMES,
    HeuristicPolicies,
    ItemKind,
    MaterializationCapExceeded,
    PublicationItem,
    expected_count,
)
from .resolver import ResolverService, make_server

CSV_HEADER = ["heuristic", "n", "annotation_count", "payload_bytes", "page_bytes",
              "gen_time_ms", "serve_time_ms", "conformity", "disclosure_ratio"]

SERVE_ITEM_CAP = 100_000
DEFAULT_CONFORMITY_ITEM_CAP = 100_000


class BenchError(RuntimeError):
    pass


@dataclass
class BenchRecord:
    heuristic: str
    n: int
    annotation_count: int
    payload_bytes: Optional[int] = None
    page_bytes: Optional[int] = None
    gen_time_ms: Optional[float] = None
    serve_time_ms: Optional[float] = None
    conformity: Optional[bool] = None
    disclosure_ratio: Optional[float] = None
    gen_time_min_ms: Optional[float] = None
    gen_time_max_ms: Optional[float] = None
    serve_time_min_ms: Optional[float] = None
    serve_time_max_ms: Optional[float] = None
    capped: bool = False


def disclosure_ratio(items: Iterable[PublicationItem], catalog: ProductCatalog) -> float:
    """Fraction of the variation space whose exact availability the published
    set discloses: only concrete items disclose, one variation each."""
    disclosed = set()
    for item in items:
        if item.kind is ItemKind.CONCRETE:
            disclosed.add(item.fixed_set_id())
    return len(disclosed) / count_variations(catalog)


@dataclass
class _GenPass:
    count: int = 0
    payload_bytes: int = 0
    concrete: int = 0
    page_bytes: int = 0
    conformity: Optional[bool] = None


def _publish_pass(catalog: ProductCatalog, heuristic: str,
                  policies: HeuristicPolicies, endpoint_base: str,
                  check_conformity: bool) -> _GenPass:
    """One full generation+render pass, streamed so the page never lives in
    memory. Optionally runs the conformity scanner over the stream."""
    result = _GenPass()
    snapshot = Inventory.initial(catalog)
    scanner = ConformityScanner() if check_conformity else None

    def annotations():
        for annotation in annotation_stream(catalog, heuristic, snapshot, policies,
                                            endpoint_base):
            result.count += 1
            result.payload_bytes += annotation.byte_size
            if annotation.item.kind is ItemKind.CONCRETE:
                result.concrete += 1
            yield annotation

    def sink(chunk: bytes):
        if scanner is not None:
            scanner.feed(chunk.decode("utf-8"))

    result.page_bytes = render_page_stream(annotations(), catalog, sink)
    if scanner is not None:
        scanner.close()
        result.conformity = scanner.report().conforms
    return result


def _serve_once(url: str) -> float:
    """Seconds to GET `url` on a new connection and read its body through.
    A connection failure raises OSError or HTTPException; an error status
    raises HTTPException."""
    parts = urlsplit(url)
    start = time.perf_counter()
    connection = http.client.HTTPConnection(parts.netloc, timeout=300)
    try:
        connection.request("GET", parts.path)
        response = connection.getresponse()
        if not 200 <= response.status < 300:
            raise http.client.HTTPException(f"GET {url} answered HTTP {response.status}")
        while response.read(1 << 16):
            pass
    finally:
        connection.close()
    return time.perf_counter() - start


def _timed(fn, repetitions: int) -> Tuple[float, float, float]:
    """Warm-up round excluded; returns (mean, min, max) in milliseconds."""
    fn()
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.fmean(samples), min(samples), max(samples)


@dataclass
class SweepConfig:
    n_values: Sequence[int]
    heuristics: Sequence[str] = HEURISTIC_NAMES
    repetitions: int = 3
    flexible_dimension: str = "arrival"
    serve: bool = True
    conformity_item_cap: int = DEFAULT_CONFORMITY_ITEM_CAP
    host: str = "127.0.0.1"


def run_sweep(catalog: ProductCatalog, config: SweepConfig,
              policies: Optional[HeuristicPolicies] = None
              ) -> Tuple[List[BenchRecord], List[str]]:
    """One record per (heuristic, n). Counts and bytes are deterministic and
    measured once; timings are means over `repetitions` (warm-up excluded),
    reported only when repetitions >= 3. Returns (records, warnings); a
    heuristic failure is recorded as a warning, not a crash."""
    if not config.n_values:
        raise BenchError("n_values must be non-empty")
    policies = policies or HeuristicPolicies()
    records: List[BenchRecord] = []
    warnings: List[str] = []
    for n in config.n_values:
        catalog_n = resize_dimension(catalog, config.flexible_dimension, n)
        server = None
        server_thread = None
        base_url = "http://localhost"
        if config.serve:
            try:
                service = ResolverService(catalog_n, policies)
                server = make_server(service, host=config.host, port=0)
                base_url = service.endpoint_base
                server_thread = threading.Thread(target=server.serve_forever, daemon=True)
                server_thread.start()
            except OSError as exc:
                warnings.append(f"n={n}: embedded server failed to start ({exc}); "
                                "serve_time will be null")
                server = None
        try:
            for heuristic in config.heuristics:
                try:
                    records.append(_bench_one(catalog_n, n, heuristic, policies,
                                              base_url, server is not None, config,
                                              warnings))
                except MaterializationCapExceeded as exc:
                    warnings.append(f"{heuristic} n={n}: {exc}")
                    records.append(BenchRecord(heuristic=heuristic, n=n,
                                               annotation_count=exc.count,
                                               disclosure_ratio=1.0, capped=True))
                except Exception as exc:  # partial failure: keep sweeping
                    warnings.append(f"{heuristic} n={n}: failed ({exc})")
        finally:
            if server is not None:
                server.shutdown()
                server.server_close()
                server_thread.join(timeout=5)
    return records, warnings


def _bench_one(catalog_n: ProductCatalog, n: int, heuristic: str,
               policies: HeuristicPolicies, base_url: str, have_server: bool,
               config: SweepConfig, warnings: List[str]) -> BenchRecord:
    count = expected_count(catalog_n, heuristic, policies)
    check_conformity = count <= config.conformity_item_cap
    measured = _publish_pass(catalog_n, heuristic, policies, base_url,
                             check_conformity)
    if measured.count != count:
        raise BenchError(f"{heuristic} n={n}: generated {measured.count} items, "
                         f"closed form says {count}")
    record = BenchRecord(
        heuristic=heuristic, n=n, annotation_count=count,
        payload_bytes=measured.payload_bytes, page_bytes=measured.page_bytes,
        conformity=measured.conformity,
        disclosure_ratio=measured.concrete / count_variations(catalog_n),
    )
    if config.repetitions >= 3:
        mean, lo, hi = _timed(
            lambda: _publish_pass(catalog_n, heuristic, policies, base_url, False),
            config.repetitions)
        record.gen_time_ms, record.gen_time_min_ms, record.gen_time_max_ms = mean, lo, hi
        if config.serve and count <= SERVE_ITEM_CAP:
            if have_server:
                url = f"{base_url}/page/{heuristic}"
                try:
                    mean, lo, hi = _timed(lambda: _serve_once(url), config.repetitions)
                    record.serve_time_ms = mean
                    record.serve_time_min_ms = lo
                    record.serve_time_max_ms = hi
                except (OSError, http.client.HTTPException) as exc:
                    warnings.append(f"{heuristic} n={n}: serve failed ({exc}); "
                                    "serve_time null")
            else:
                warnings.append(f"{heuristic} n={n}: no server; serve_time null")
    return record


# ---------------------------------------------------------------------------
# CSV / plotting output

def _fmt_time(value: Optional[float], capped: bool) -> str:
    if capped:
        return "capped"
    return f"{value:.3f}" if value is not None else ""


def _fmt_int(value: Optional[int], capped: bool) -> str:
    if capped:
        return "capped"
    return str(value) if value is not None else ""


def _row(record: BenchRecord, extended: bool) -> List[str]:
    row = [
        record.heuristic,
        str(record.n),
        str(record.annotation_count),
        _fmt_int(record.payload_bytes, record.capped),
        _fmt_int(record.page_bytes, record.capped),
        _fmt_time(record.gen_time_ms, record.capped),
        _fmt_time(record.serve_time_ms, record.capped),
        "" if record.conformity is None else str(record.conformity).lower(),
        "" if record.disclosure_ratio is None else f"{record.disclosure_ratio:.10g}",
    ]
    if extended:
        row += [_fmt_time(v, record.capped) for v in
                (record.gen_time_min_ms, record.gen_time_max_ms,
                 record.serve_time_min_ms, record.serve_time_max_ms)]
    return row


def emit_csv(records: List[BenchRecord], path: str, extended: bool = False):
    """RFC-4180 CSV, rows sorted by (heuristic, n)."""
    if not records:
        raise BenchError("no records to emit")
    header = list(CSV_HEADER)
    if extended:
        header += ["gen_time_min_ms", "gen_time_max_ms",
                   "serve_time_min_ms", "serve_time_max_ms"]
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for record in sorted(records, key=lambda r: (r.heuristic, r.n)):
                writer.writerow(_row(record, extended))
    except OSError as exc:
        raise BenchError(f"cannot write CSV to {path!r}: {exc}") from exc


GNUPLOT_TEMPLATE = """\
set datafile separator ","
set key autotitle columnhead outside
set xlabel "flexible dimension length n"
set ylabel "annotation payload (bytes)"
set term pngcairo size 1200,500

set output "{stem}_linear.png"
plot for [h in "{heuristics}"] \\
    "< awk -F, -v h=".h." 'NR==1 || $1==h' {csv}" using 2:4 with linespoints title h

set logscale y
set output "{stem}_log.png"
plot for [h in "{heuristics}"] \\
    "< awk -F, -v h=".h." 'NR==1 || $1==h' {csv}" using 2:4 with linespoints title h
"""


def emit_gnuplot(csv_path: str, gp_path: str, heuristics: Sequence[str] = HEURISTIC_NAMES):
    """Companion gnuplot script: payload vs n on linear and log axes."""
    stem = csv_path.rsplit(".", 1)[0]
    with open(gp_path, "w", encoding="utf-8") as fh:
        fh.write(GNUPLOT_TEMPLATE.format(stem=stem, csv=csv_path,
                                         heuristics=" ".join(heuristics)))


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float]:
    """Least squares (slope, intercept, r_squared)."""
    slope, intercept = statistics.linear_regression(xs, ys)
    r = statistics.correlation(xs, ys)
    return slope, intercept, r * r
