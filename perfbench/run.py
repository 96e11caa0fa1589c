"""The NVD cleaner's benchmark: four workloads, one command.

    python3 perfbench/run.py --workload clean --seed 1 --seconds 15 --trace 0

Workloads (all on the ``baseline`` scenario at scale 0.075, 8,040 CVEs,
inputs made from ``--seed``):

- ``clean``: ``repro.core.clean()`` on a generated feed — the batch
  user's number; CNN training dominates it.
- ``serve-keepalive``: ``repro serve`` under 2 closed-loop clients on
  persistent connections.
- ``serve-connect``: the same server and trace, a new connection per
  request.  Runnable, but not in ``BENCHMARK.json``: on a shared
  two-core machine its CPU-bound round trip (three busy threads on two
  cores) is the noisiest number, and every layer it reaches is also
  measured on ``serve-keepalive``.
- ``ingest``: ``ingest_delta`` of a 750-CVE delta into a fresh store copy.

Every workload reports the same gated end-to-end metrics (the names in
``BENCHMARK.json``), each meaning what a user of that workload feels:

- ``setup_s``: median of several set-ups — feed generation (``clean``),
  server spawn until the first ``/healthz`` 200 (``serve-*``), staging
  the store copy and the delta (``ingest``);
- ``latency_ms``: how long one operation takes — for ``clean`` the sum
  of each ``clean()`` phase's fastest time across the run's calls (see
  ``clean_workload.best_phases``), for ``ingest`` the fastest
  ``ingest_delta`` call, for ``serve-*`` the median request round trip
  of the run's least-disturbed 1-s slice;
- ``ops_per_s``: operations per second — ``1000 / latency_ms`` for
  ``clean`` and ``ingest``, the closed-loop request rate of the
  least-disturbed slice for ``serve-*``;
- ``peak_rss_mb``: peak RSS of the process doing the work (the server
  for ``serve-*``).

The gated times come from the least-disturbed part of a run because a
shared machine's speed drifts by a quarter over seconds, while the
program's does not; the whole-run medians and tails are printed too.

Workload-specific numbers (``clean_s``, ``ingest_s``, the tail
percentile with its sample count, ``predict_p50_ms``, ``rps``,
``error_rate``) are printed in the run record above the result line.
With ``--trace 1`` the run repeats its measurement with the program's
entry points wrapped (see ``tracer.py``), prints a per-layer self-time
table and reports the ``per_layer`` metrics instead; layers a workload
does not exercise read 0.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Output checks never stop a run; a mismatch
is a failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common

WORKLOADS = ("clean", "serve-keepalive", "serve-connect", "ingest")

END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "synth.generate_s": "s",
    "core.dates.estimate_all_s": "s",
    "core.dates.extract_ratio": "ratio",
    "core.vendors.analyze_s": "s",
    "core.products.analyze_s": "s",
    "core.severity.fit_s": "s",
    "core.severity.fit.cnn_s": "s",
    "core.severity.fit.dnn_s": "s",
    "core.severity.fit.svr_s": "s",
    "core.severity.fit.lr_s": "s",
    "ml.nn.conv1d.forward_s": "s",
    "ml.nn.conv1d.backward_s": "s",
    "ml.nn.dense.forward_s": "s",
    "ml.nn.dense.backward_s": "s",
    "ml.nn.adam.step_s": "s",
    "ml.nn.adam.steps": "count",
    "core.severity.select_s": "s",
    "core.severity.predict_s": "s",
    "core.cwefix.extract_s": "s",
    "clean.self_s": "s",
    "artifacts.load_s": "s",
    "artifacts.recover_s": "s",
    "artifacts.export_s": "s",
    "artifacts.bytes_written": "count",
    "nvd.merge_s": "s",
    "ingest.self_s": "s",
    "service.transport_us": "us",
    "service.handle_us": "us",
    "service.handle_self_us": "us",
    "service.cache.get_us": "us",
    "service.cache.put_us": "us",
    "service.cache_hit_ratio": "ratio",
    "service.state.cve_us": "us",
    "service.state.vendor_us": "us",
    "service.state.product_us": "us",
    "service.state.stats_us": "us",
    "service.state.predict_us": "us",
    "service.predict_wait_us": "us",
    "service.cpu_us_per_req": "us",
    "loadgen.cpu_us_per_req": "us",
    "trace.overhead_pct": "%",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float):
    if name == "clean":
        import clean_workload

        return clean_workload.run(seed, seconds, trace, scale)
    if name == "ingest":
        import ingest_workload

        return ingest_workload.run(seed, seconds, trace, scale)
    import serve_workload

    return serve_workload.run(seed, seconds, trace, scale, keepalive=name == "serve-keepalive")


def _workload_metrics(name: str, measured) -> list[tuple[str, object, str]]:
    """The end-to-end numbers under their workload-specific names."""
    e2e, record = measured.end_to_end, measured.record
    rows: list[tuple[str, object, str]] = [("setup_s", e2e["setup_s"], "s")]
    if name == "clean":
        rows.append((f"clean_s (median of {record['clean_s']['n']})", record["clean_s"]["median"], "s"))
        rows.append(("predict_p50_ms (severity.predict phase)", record["predict_p50_ms"], "ms"))
    elif name == "ingest":
        rows.append((f"ingest_s (median of {record['ingest_s']['n']})", record["ingest_s"]["median"], "s"))
    else:
        tail = record["tail"]
        rows += [
            (f"p50_ms (n={record['samples']})", record["p50_ms"], "ms"),
            ("p50_ms of the least-disturbed 1-s slice", record["best_slice"]["p50_ms"], "ms"),
            (
                f"p{tail['pct']:g}_ms (highest with >=10 samples beyond)" if tail else "tail_ms",
                tail["ms"] if tail else None,
                "ms",
            ),
            (f"predict_p50_ms (n={record['predict_samples']})", record["predict_p50_ms"], "ms"),
            ("rps (closed loop, 2 clients)", record["rps"], "1/s"),
            ("service.cache_hit_ratio", record["service.cache_hit_ratio"], "ratio"),
            ("service.cpu_us_per_req", record["service.cpu_us_per_req"], "us"),
            ("loadgen.cpu_us_per_req", record["loadgen.cpu_us_per_req"], "us"),
        ]
    outcome = measured.outcome
    rows.append(("error_rate", outcome.failed / outcome.attempted if outcome.attempted else 1.0, "ratio"))
    rows.append(("peak_rss_mb", e2e["peak_rss_mb"], "MiB"))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=common.SCALE,
        help="share of the paper's 107,200 CVEs (default 0.075; smaller "
        "only for smoke tests — committed expectations cover 0.075)",
    )
    args = parser.parse_args(argv)
    common.ensure_source_tree()

    started = time.perf_counter()
    measured = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    outcome = measured.outcome
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "environment": common.environment_record(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.notes,
        "run_wall_s": time.perf_counter() - started,
        **measured.record,
    }
    print("run record: " + json.dumps(record, sort_keys=True, default=str))
    common.log(f"{args.workload}, seed {args.seed}:")
    for label, value, unit in _workload_metrics(args.workload, measured):
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {label:<58}{shown:>14} {unit}")
    for line in measured.table:
        print(line)
    if args.trace:
        values = {name: measured.per_layer.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = measured.end_to_end
        units = END_TO_END
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
