"""Command-line entry point: generate annotation sets, serve the booking
resolver, crawl a served page, and run the benchmark sweep.

Exit codes are a stable contract: 0 success, 1 config error, 2 heuristic cannot
publish (materialization cap exceeded or no available variation), 3 transport
failure, 4 partial bench failure."""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .annotate import annotation_stream, render_page_stream
from .catalog import (
    CatalogError,
    Inventory,
    ProductCatalog,
    config_integer,
    load_catalog,
    parse_value,
)
from .heuristics import (
    HEURISTIC_NAMES,
    ClassificationMode,
    ClassificationPolicy,
    HeuristicPolicies,
    MaterializationCapExceeded,
    NoAvailableVariation,
    PickerPolicy,
)
from .resolver import ResolverService, make_server

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CAP = 2
EXIT_TRANSPORT = 3
EXIT_BENCH_PARTIAL = 4


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    catalog_path: Path
    host: str = "127.0.0.1"
    port: int = 8321
    policies: HeuristicPolicies = field(default_factory=HeuristicPolicies)
    bench_n_values: List[int] = field(default_factory=lambda: [1, 183, 365])
    bench_repetitions: int = 3
    bench_output_path: str = "bench.csv"
    bench_flexible_dimension: str = "arrival"
    bench_heuristics: List[str] = field(default_factory=lambda: list(HEURISTIC_NAMES))

    _catalog: Optional[ProductCatalog] = None

    @property
    def endpoint_base(self) -> str:
        return f"http://{self.host}:{self.port}"

    def catalog(self) -> ProductCatalog:
        if self._catalog is None:
            self._catalog = load_catalog(self.catalog_path)
        return self._catalog


def _string(value) -> str:
    """A config string: a JSON string. Anything else is a ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"not a string: {value!r}")
    return value


def _policies_from_dict(doc: dict) -> HeuristicPolicies:
    cls_doc = doc.get("policies", {}).get("classification", {})
    classification = ClassificationPolicy(
        mode=ClassificationMode(cls_doc.get("mode", "threshold")),
        length_threshold=config_integer(cls_doc.get("length_threshold", 5)),
        byte_budget=config_integer(cls_doc.get("byte_budget", 50_000)),
        est_item_bytes=config_integer(cls_doc.get("est_item_bytes", 600)),
    )
    picker_doc = doc.get("policies", {}).get("picker", {})
    return HeuristicPolicies(
        classification=classification,
        picker=PickerPolicy(picker_doc.get("mode", "first-lexicographic")),
        picker_seed=config_integer(picker_doc.get("seed", 0)),
        hard_cap=config_integer(doc.get("hard_cap", 10 ** 6)),
    )


def load_config(path: str) -> Config:
    """Single JSON config file; MATPUB_HOST / MATPUB_PORT env vars override the
    server address. Referenced files must exist at load."""
    config_path = Path(path)
    try:
        doc = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if "catalog_path" not in doc:
        raise ConfigError("config is missing catalog_path")
    catalog_path = (config_path.parent / doc["catalog_path"]).resolve()
    if not catalog_path.exists():
        raise ConfigError(f"catalog file not found: {catalog_path}")
    try:
        server = doc.get("server", {})
        bench = doc.get("bench", {})
        config = Config(
            catalog_path=catalog_path,
            host=_string(os.environ.get("MATPUB_HOST", server.get("host", "127.0.0.1"))),
            port=config_integer(os.environ.get("MATPUB_PORT", server.get("port", 8321))),
            policies=_policies_from_dict(doc),
            bench_n_values=[config_integer(n) for n in bench.get("n_values", [1, 183, 365])],
            bench_repetitions=config_integer(bench.get("repetitions", 3)),
            bench_output_path=_string(bench.get("output_path", "bench.csv")),
            bench_flexible_dimension=_string(bench.get("flexible_dimension", "arrival")),
            bench_heuristics=list(bench.get("heuristics", HEURISTIC_NAMES)),
        )
    except (ValueError, TypeError, AttributeError) as exc:  # HeuristicError too
        raise ConfigError(f"malformed config value: {exc}") from exc
    if not 0 <= config.port <= 65535:
        raise ConfigError(f"server port must be in 0..65535, got {config.port}")
    try:
        config.catalog()
    except CatalogError as exc:
        raise ConfigError(f"invalid catalog: {exc}") from exc
    for h in config.bench_heuristics:
        if h not in HEURISTIC_NAMES:
            raise ConfigError(f"unknown heuristic in bench config: {h!r}")
    if not config.bench_heuristics:
        raise ConfigError("bench heuristics must name at least one heuristic")
    if not config.bench_n_values or min(config.bench_n_values) < 1:
        raise ConfigError(f"bench n_values must be integers >= 1, at least one, "
                          f"got {config.bench_n_values}")
    if config.bench_flexible_dimension not in config.catalog().dimension_names:
        raise ConfigError("bench flexible_dimension names no catalog dimension: "
                          f"{config.bench_flexible_dimension!r}")
    return config


def _log(message: str):
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_generate(config: Config, heuristic: str, out_dir: str) -> int:
    catalog = config.catalog()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snapshot = Inventory.initial(catalog)
    count = 0
    total_bytes = 0
    try:
        jsonl_path = out / "annotations.jsonl"
        page_path = out / "page.html"
        with open(jsonl_path, "wb") as jsonl, open(page_path, "wb") as page:
            def annotations():
                nonlocal count, total_bytes
                for annotation in annotation_stream(catalog, heuristic, snapshot,
                                                    config.policies,
                                                    config.endpoint_base):
                    jsonl.write(annotation.jsonld + b"\n")
                    count += 1
                    total_bytes += annotation.byte_size
                    yield annotation

            render_page_stream(annotations(), catalog, page.write)
    except (MaterializationCapExceeded, NoAvailableVariation) as exc:
        _log(str(exc))
        return EXIT_CAP
    print(json.dumps({"heuristic": heuristic, "count": count,
                      "payload_bytes": total_bytes,
                      "out_dir": str(out)}, sort_keys=True))
    return EXIT_OK


def cmd_serve(config: Config) -> int:
    service = ResolverService(config.catalog(), config.policies,
                              endpoint_base=config.endpoint_base)

    def log_request(line: str):
        _log(f"[{time.strftime('%H:%M:%S')}] {line} epoch={service.epoch}")

    try:
        server = make_server(service, host=config.host, port=config.port,
                             log_fn=log_request)
    except OSError as exc:
        _log(f"cannot bind {config.host}:{config.port}: {exc}")
        return EXIT_CONFIG
    _log(f"serving on {service.endpoint_base} "
         f"(pages: {', '.join('/page/' + h for h in HEURISTIC_NAMES)})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _log("shutting down")
    finally:
        server.server_close()
    return EXIT_OK


def _parse_query(pairs: Sequence[str], catalog: ProductCatalog) -> dict:
    desired = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"query term {pair!r} must be name=value")
        name, value = pair.split("=", 1)
        desired[name] = parse_value(catalog, name, value)
    return desired


def cmd_crawl(config: Config, page_url: str, query: Sequence[str], book: bool,
              experiment: Optional[int], seed: int) -> int:
    # The HTTP client stack is imported here, not at module level, so that
    # `serve` and `generate` never load it.
    from .consumer import TransportError, hit_ratio_experiment, resolve

    if experiment is not None and experiment < 1:
        raise ConfigError(f"--experiment must be at least 1, got {experiment}")
    catalog = config.catalog()
    try:
        if experiment is not None:
            summary = hit_ratio_experiment(page_url, catalog, experiment, seed,
                                           book=book)
            print(json.dumps(summary, sort_keys=True))
        else:
            desired = _parse_query(query, catalog)
            missing = set(catalog.dimension_names) - set(desired)
            if missing:
                raise ConfigError(f"query must assign every dimension; missing {sorted(missing)}")
            trace = resolve(page_url, desired, book=book)
            print(json.dumps(trace.to_dict(), sort_keys=True))
    except TransportError as exc:
        _log(str(exc))
        return EXIT_TRANSPORT
    return EXIT_OK


def cmd_bench(config: Config, gnuplot: bool = False) -> int:
    from .bench import BenchError, SweepConfig, emit_csv, emit_gnuplot, run_sweep

    out = config.bench_output_path
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):  # refused before the sweep, not after it
        _log(f"config error: bench output_path directory not found: {directory!r}")
        return EXIT_CONFIG
    sweep = SweepConfig(
        n_values=config.bench_n_values,
        heuristics=config.bench_heuristics,
        repetitions=config.bench_repetitions,
        flexible_dimension=config.bench_flexible_dimension,
        host=config.host,
    )
    records, warnings = run_sweep(config.catalog(), sweep, config.policies)
    for warning in warnings:
        _log(f"warning: {warning}")
    stem = out.rsplit(".", 1)[0]
    try:
        emit_csv(records, out)
        emit_csv(records, stem + ".extended.csv", extended=True)
        if gnuplot:
            emit_gnuplot(out, stem + ".gp", config.bench_heuristics)
    except BenchError as exc:
        _log(str(exc))
        return EXIT_CONFIG
    print(f"{'heuristic':<15}{'n':>7}{'count':>10}{'payload_B':>12}{'gen_ms':>10}")
    for record in sorted(records, key=lambda r: (r.heuristic, r.n)):
        payload = "capped" if record.capped else str(record.payload_bytes)
        gen = "" if record.gen_time_ms is None else f"{record.gen_time_ms:.1f}"
        print(f"{record.heuristic:<15}{record.n:>7}{record.annotation_count:>10}"
              f"{payload:>12}{gen:>10}")
    expected = len(config.bench_n_values) * len(config.bench_heuristics)
    failed = any("failed" in w for w in warnings)
    if len(records) < expected or failed:
        return EXIT_BENCH_PARTIAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matpub",
        description="Structured-data publication heuristics for multi-dimensional "
                    "dynamic products: generation, serving, crawling, benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write annotations.jsonl and page.html")
    gen.add_argument("--config", required=True, help="path to JSON config file")
    gen.add_argument("--heuristic", required=True, choices=HEURISTIC_NAMES)
    gen.add_argument("--out-dir", required=True, help="output directory")

    srv = sub.add_parser("serve", help="run the booking resolver service")
    srv.add_argument("--config", required=True, help="path to JSON config file")

    crawl = sub.add_parser("crawl", help="resolve a desired variation against a page")
    crawl.add_argument("--config", required=True, help="path to JSON config file")
    crawl.add_argument("--page-url", required=True, help="annotated page URL")
    crawl.add_argument("--query", nargs="*", default=[],
                       help="desired assignment as name=value pairs")
    crawl.add_argument("--book", action="store_true", help="book the resolved offer")
    crawl.add_argument("--experiment", type=int, default=None, metavar="N",
                       help="run the hit-ratio experiment with N sampled queries")
    crawl.add_argument("--seed", type=int, default=0, help="experiment sampling seed")

    bench = sub.add_parser("bench", help="run the sweep and write the CSV")
    bench.add_argument("--config", required=True, help="path to JSON config file")
    bench.add_argument("--gnuplot", action="store_true",
                       help="also emit a gnuplot script for the payload figures")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG
    if args.command == "generate":
        return cmd_generate(config, args.heuristic, args.out_dir)
    if args.command == "serve":
        return cmd_serve(config)
    if args.command == "crawl":
        try:
            return cmd_crawl(config, args.page_url, args.query, args.book,
                             args.experiment, args.seed)
        except (ConfigError, CatalogError) as exc:
            _log(f"config error: {exc}")
            return EXIT_CONFIG
    if args.command == "bench":
        return cmd_bench(config, args.gnuplot)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
