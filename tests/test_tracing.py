"""The benchmark's per-layer tracing (`perfbench/tracing.py`) binds wrappers
onto matpub functions by name. If a refactor renames or stops calling one of
them, `--trace 1` would silently report zeros; this test fails instead."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, threading
import tracing
from matpub import consumer, resolver
from matpub.catalog import load_catalog, resize_dimension
from matpub.heuristics import HEURISTIC_NAMES

server_tracer, client_tracer = tracing.Tracer(), tracing.Tracer()
tracing.install_server(server_tracer)
tracing.install_client(client_tracer)

catalog = resize_dimension(load_catalog("data/eval_hotel.catalog.json"), "arrival", 3)
service = resolver.ResolverService(catalog)
for heuristic in HEURISTIC_NAMES:
    service.page_html(heuristic)
# A paginated page passes its range to `publication_items` as keywords.
page, _ = service.page_html("full", page=2, per_page=10)
assert page.count(b"application/ld+json") == 10
server = resolver.make_server(service)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
try:
    summary = consumer.hit_ratio_experiment(
        f"{service.endpoint_base}/page/full", catalog, 6, seed=1, book=True,
        concurrency=2)
finally:
    server.shutdown()
    server.server_close()
metrics = tracing.per_layer(server_tracer.spans, server_tracer.snapshot_counts(),
                            client_tracer.spans, client_tracer.snapshot_counts(), 1)
print(json.dumps({"metrics": metrics, "hit_ratio": summary["hit_ratio"]}))
"""


def test_per_layer_tracing_sees_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    run = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert result["hit_ratio"] == 1.0
    for heuristic in ("full", "abstraction", "specialization", "type-level", "selective"):
        assert metrics[f"heuristics.items_ms.{heuristic}"] > 0, heuristic
    for name in ("annotate.elevate_ms", "annotate.serialize_ms", "annotate.render_ms",
                 "annotate.page_bytes", "resolver.page_html_ms",
                 "catalog.variations_scanned", "catalog.availability_checks",
                 "resolver.search_ms.point", "resolver.snapshot_ms", "resolver.book_ms",
                 "consumer.resolve_ms",
                 "consumer.search_step_ms", "consumer.fetch_page_ms",
                 "consumer.extract_ms"):
        assert metrics[name] > 0, name
    # One session fetches the page, then one per query.
    assert metrics["consumer.sessions_created"] == 1 + 6
