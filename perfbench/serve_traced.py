"""``repro serve`` with the service entry points wrapped in spans.

The traced pass of the ``serve-*`` workloads starts this instead of
``python -m repro serve``; it keeps the same process layout::

    python3 perfbench/serve_traced.py TRACE_OUT --artifacts DIR --version v0001 --port P

On SIGINT the server shuts down as usual, then the spans are written to
``TRACE_OUT`` with the program's trace writer.
"""

from __future__ import annotations

import json
import sys

import common
import tracer


def main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    common.ensure_source_tree()
    spans = tracer.Tracer()
    spans.install()
    print(f"absent layers: {json.dumps(spans.absent)}", flush=True)
    from repro import cli

    try:
        return cli.main(["serve", *serve_args])
    finally:
        spans.uninstall()
        spans.write(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
