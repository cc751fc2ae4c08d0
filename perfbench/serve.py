"""Start `matpub serve` for the benchmark, optionally with tracing wrappers.

    python3 perfbench/serve.py --config CONFIG [--trace-out SPANS.jsonl]

The server runs until SIGINT; with --trace-out it then writes its spans and
counters. The address comes from MATPUB_HOST / MATPUB_PORT as usual."""
from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402  (after the path set-up above)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from matpub import cli

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install_server(tracer)
    try:
        return cli.main(["serve", "--config", args.config])
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
