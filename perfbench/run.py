"""End-to-end benchmark of the matpub booking engine.

    python3 perfbench/run.py --workload {publish,browse,crawl,soldout,all}
                             --seed N --seconds S --trace {0,1}

Starts `matpub serve` in its own process (through perfbench/serve.py), drives
one closed-loop workload against it from this process, checks every answer,
and prints the metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the run measures untraced and then traced,
each for half of --seconds, and reports the per-layer metrics and the tracing
overhead. Server logs, spans and a full result file go to perfbench/out/. See
perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional
from urllib.parse import urlencode

import oracle as oracle_mod
import tracing
import workloads
from tracing import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
CATALOG = os.path.join(ROOT, "data", "eval_hotel.catalog.json")
CONFIG = os.path.join(ROOT, "data", "default.config.json")
REQUIRED = (os.path.join(SRC, "matpub", "cli.py"), CATALOG, CONFIG)

# Set-up is timed over several server starts and reported as the median.
SETUP_SPAWNS = 5
READY_TIMEOUT_S = 30
STOP_TIMEOUT_S = 30

E2E_UNITS = {
    "setup_s": "s",
    "server_rss_mb": "MB",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}
# The per-workload figures named in the benchmark's documentation.
NAMED_UNITS = {
    "setup_s": "s", "server_rss_mb": "MB",
    "page_full_s": "s", "page_type_level_ms": "ms", "page_small_ms": "ms",
    "browse_ops_s": "1/s", "browse_p90_ms": "ms", "search_point_p50_ms": "ms",
    "search_date_p50_ms": "ms", "search_broad_p50_ms": "ms", "book_p50_ms": "ms",
    "crawl_resolutions_s": "1/s", "crawl_api_calls": "count",
    "soldout_pages_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


@dataclass
class Target:
    """The server a workload runs against."""

    port: int
    endpoint: str
    oracle: oracle_mod.CatalogOracle
    catalog_path: str


class Server:
    """`matpub serve` in a child process, on a port the OS picks, with its
    stderr (one line per request) in a log file."""

    def __init__(self, config_path: str, log_path: str, trace_out: Optional[str] = None):
        self.config_path = config_path
        self.log_path = log_path
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> str:
        """Spawn and wait for the `serving on` line. Returns the endpoint."""
        cmd = [sys.executable, os.path.join(HERE, "serve.py"), "--config", self.config_path]
        if self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        env = dict(os.environ, MATPUB_HOST="127.0.0.1", MATPUB_PORT="0")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=log)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as log:
                match = re.search(rb"serving on (http://127\.0\.0\.1:\d+)", log.read())
            if match:
                return match.group(1).decode()
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise BenchError(f"server did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("VmHWM missing from the server's /proc status")

    def stop(self):
        """SIGINT (the server's documented shutdown), then wait for the exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def prepare(workload: str, run_dir: str) -> tuple:
    """Write the config (and, for soldout, the sold-out catalog copy) the
    server runs with. Returns (config path, catalog path)."""
    catalog_path = CATALOG
    if workload == "soldout":
        with open(CATALOG, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["inventory"]["availability_rate"] = 0.0
        catalog_path = os.path.join(run_dir, "soldout.catalog.json")
        with open(catalog_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    with open(CONFIG, encoding="utf-8") as fh:
        config = json.load(fh)
    config["catalog_path"] = catalog_path
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return config_path, catalog_path


def start_server(config_path, catalog_path, oracle, log_path, trace_out=None):
    """Spawn, wait for the first 200 answer, reset the inventory.
    Returns (server, target, seconds of set-up)."""
    start = time.perf_counter()
    server = Server(config_path, log_path, trace_out)
    endpoint = server.start()
    try:
        port = int(endpoint.rsplit(":", 1)[1])
        conn = workloads.Connection(port)
        first = {n: oracle.values[n][0] for n in oracle.names}
        status, _, _ = conn.request("GET", "/api/search?" + urlencode(first))
        if status != 200:
            raise BenchError(f"first request answered {status}")
        error = workloads.reset(conn)
        conn.close()
        if error is not None:
            raise BenchError(error)
    except OSError as exc:
        server.stop()
        raise BenchError(f"server unreachable: {exc!r}") from exc
    except BaseException:
        server.stop()
        raise
    return server, Target(port, endpoint, oracle, catalog_path), time.perf_counter() - start


def p90(values: List[float]) -> float:
    """Interpolated between neighbouring samples, so that a run with few
    samples does not report its single slowest one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload: str, seed: int, seconds: float, run_dir: str, tracer=None) -> dict:
    """One server, one workload run. Returns the figures of the run."""
    config_path, catalog_path = prepare(workload, run_dir)
    oracle = oracle_mod.CatalogOracle.from_files(catalog_path, config_path)
    phase = "traced" if tracer is not None else "plain"
    spawns = 1 if tracer is not None else SETUP_SPAWNS
    trace_out = os.path.join(run_dir, "spans-server.jsonl") if tracer is not None else None
    setup = []
    for i in range(spawns):
        last = i == spawns - 1
        server, target, took = start_server(
            config_path, catalog_path, oracle,
            os.path.join(run_dir, f"server-{phase}-{i}.log"),
            trace_out if last else None)
        setup.append(took)
        if not last:
            server.stop()
    try:
        outcome = workloads.WORKLOADS[workload](target, seed, seconds, tracer)
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    latencies = outcome.latencies()
    if not latencies:
        raise BenchError(f"{workload}: no operation succeeded: {outcome.errors}")
    e2e = {
        "setup_s": statistics.median(setup),
        "server_rss_mb": rss,
        "throughput_ops_s": len(latencies) / outcome.elapsed,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": p90(latencies) * 1000,
    }
    return {"outcome": outcome, "e2e": e2e, "named": named_metrics(workload, e2e, outcome),
            "setup_samples": setup, "trace_out": trace_out}


def named_metrics(workload: str, e2e: dict, outcome) -> Dict[str, float]:
    s = outcome.samples

    def median(values):  # nan when every operation of the kind failed
        return statistics.median(values) if values else math.nan

    def ms(values):
        return median(values) * 1000

    named = {"setup_s": e2e["setup_s"], "server_rss_mb": e2e["server_rss_mb"]}
    if workload == "publish":
        named["page_full_s"] = median(s["full"])
        named["page_type_level_ms"] = ms(s["type-level"])
        named["page_small_ms"] = ms(s["abstraction"] + s["specialization"] + s["selective"])
    elif workload == "browse":
        named["browse_ops_s"] = e2e["throughput_ops_s"]
        named["browse_p90_ms"] = e2e["latency_p90_ms"]
        for kind in ("point", "date", "broad"):
            named[f"search_{kind}_p50_ms"] = ms(s[kind])
        named["book_p50_ms"] = ms(s["book"] + s["rebook"])
    elif workload == "crawl":
        named["crawl_resolutions_s"] = e2e["throughput_ops_s"]
        named["crawl_api_calls"] = (statistics.mean(outcome.api_calls)
                                    if outcome.api_calls else math.nan)
    elif workload == "soldout":
        named["soldout_pages_s"] = median(outcome.rounds)
    return named


def machine(seed: int) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": os.getloadavg(), "commit": commit, "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, info: dict) -> dict:
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # A traced run measures untraced and traced for half of the seconds each,
    # so that it takes as long as an untraced run.
    phase_seconds = seconds / 2 if trace else seconds
    plain = measure(workload, seed, phase_seconds, run_dir)
    phases = [plain]
    report = {"workload": workload, "seconds": seconds, "machine": info,
              "e2e": plain["e2e"], "named": plain["named"],
              "setup_samples": plain["setup_samples"]}
    metrics = {name: (plain["e2e"][name], unit) for name, unit in E2E_UNITS.items()}
    if trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install_client(tracer)
        try:
            traced = measure(workload, seed, phase_seconds, run_dir, tracer)
        finally:
            uninstall()
        phases.append(traced)
        server_spans, server_counts = tracing.load(traced["trace_out"])
        layers = tracing.per_layer(server_spans, server_counts, tracer.spans,
                                   tracer.snapshot_counts(), len(traced["outcome"].latencies()))
        overhead = {name: traced["e2e"][name] / plain["e2e"][name] - 1
                    for name in ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms")}
        layers["trace.overhead_throughput_pct"] = -overhead["throughput_ops_s"] * 100
        layers["trace.overhead_p50_pct"] = overhead["latency_p50_ms"] * 100
        report.update(e2e_traced=traced["e2e"], per_layer=layers,
                      tracing_overhead=overhead)
        metrics = {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}
    report["attempted"] = sum(p["outcome"].attempted for p in phases)
    report["failed"] = sum(p["outcome"].failed for p in phases)
    report["errors"] = [e for p in phases for e in p["outcome"].errors]
    report["operations"] = {kind: len(v) for kind, v in plain["outcome"].samples.items()}
    report["samples_s"] = dict(plain["outcome"].samples)
    report["metrics"] = metrics
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in report.items() if k != "metrics"}, fh, indent=2)
    return report


def print_report(report: dict):
    info = report["machine"]
    print(f"workload {report['workload']}: seed {info['seed']}, {report['seconds']} s, "
          f"nproc {info['nproc']}, python {info['python']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in info['loadavg'])}, commit {info['commit']}")
    print(f"  operations attempted {report['attempted']}, failed {report['failed']}: "
          + ", ".join(f"{k} {n}" for k, n in sorted(report["operations"].items())))
    for error in report["errors"]:
        print(f"  error: {error}")
    for name, value in report["named"].items():
        print(f"  {name:<22} {value:>12.4f} {NAMED_UNITS[name]}")
    if "per_layer" in report:
        for name, value in report["per_layer"].items():
            print(f"  {name:<34} {value:>14.4f} {LAYER_UNITS[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="matpub end-to-end benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["publish", "browse", "crawl", "soldout", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"benchmark: missing {', '.join(missing)}; run from a matpub checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, SRC)
    # SIGTERM unwinds through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    info = machine(args.seed)
    names = ["publish", "browse", "crawl", "soldout"] if args.workload == "all" \
        else [args.workload]
    try:
        reports = []
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), info)
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
