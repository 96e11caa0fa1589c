"""The ``ingest`` workload: the write path beside the reads.

Each operation is one ``repro.artifacts.ingest_delta`` of a seeded
750-CVE delta (500 new, 250 revised, from
``tools/make_delta_feed.build_delta``) into a fresh copy of the store.
Store load and export dominate it and no other workload times them, so
a store or index change that speeds reads and slows writes shows here.
Set-up is staging the store copy and the delta.
"""

from __future__ import annotations

import gc
import itertools
import json
import pathlib
import shutil
import statistics
import time

import common
import fixture
import tracer as tracing

SETUP_REPEATS = 3
DELTA_NEW = 500
DELTA_REVISED = 250


def _stage(store, stage, seed: int) -> tuple[list, list]:
    from make_delta_feed import build_delta
    from repro.artifacts import read_current
    from repro.nvd import load_feed

    shutil.copytree(store, stage)
    base = load_feed(stage / read_current(stage) / "snapshot.json.gz")
    return base, build_delta(base, DELTA_NEW, DELTA_REVISED, seed)


def _check(result, target, expected: dict, first) -> list[str]:
    """Problems with one ingest: its counts, and — for the run's first
    ingest — the new version reloading through the hash-verifying
    loader; every later ingest of the same delta must equal the first."""
    from repro.artifacts import load_artifacts

    problems = [
        f"IngestResult.{field} = {getattr(result, field)!r}, expected {value!r}"
        for field, value in expected.items()
        if getattr(result, field) != value
    ]
    if first is not None:
        if result != first:
            problems.append(f"ingest differs from the run's first: {result} vs {first}")
        return problems
    loaded = load_artifacts(target)
    if loaded.version != result.version or len(loaded.snapshot) != result.n_total:
        problems.append(
            f"reloaded {loaded.version} with {len(loaded.snapshot)} CVEs, "
            f"ingest reported {result.version} with {result.n_total}"
        )
    return problems


def _bytes_written(target, version: str) -> int:
    manifest = json.loads((target / version / "manifest.json").read_text(encoding="utf-8"))
    return sum(meta["bytes"] for meta in manifest["files"].values())


def run(seed: int, seconds: float, trace: bool, scale: float) -> common.Measured:
    import repro.artifacts as artifacts

    outcome = common.Outcome()
    with common.workdir("ingest-") as work:
        store = work / "store"
        built = fixture.build(seed, scale, store)
        problems, checked = common.check_report(built["report"], seed, scale)
        if built["report"]["model_used"] != "cnn":
            problems.append(f"the store serves {built['report']['model_used']!r}, not the CNN")
        outcome.record(problems)

        setup_samples = []
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            base, delta = _stage(store, work / f"stage{repeat}", seed)
            setup_samples.append(time.perf_counter() - started)
        base_ids = {entry.cve_id for entry in base}
        n_updated = sum(1 for entry in delta if entry.cve_id in base_ids)
        expected = {
            "version": "v0002",
            "parent": built["version"],
            "n_delta": len(delta),
            "n_new": len(delta) - n_updated,
            "n_updated": n_updated,
            "n_predicted": sum(
                1 for e in delta if e.cvss_v2 is not None and not e.has_v3
            ),
            "n_total": len(base) + len(delta) - n_updated,
            "model_used": "cnn",
        }
        stages = itertools.count()

        def ingest_once(span=None) -> tuple[float, object, pathlib.Path]:
            target = work / f"op{next(stages)}"
            shutil.copytree(store, target)
            gc.collect()
            started = time.perf_counter()
            if span is None:
                result = artifacts.ingest_delta(target, delta)
            else:
                with span("ingest"):
                    result = artifacts.ingest_delta(target, delta)
            elapsed = time.perf_counter() - started
            return elapsed, result, target

        results = []
        peak_rss_mb: list[float] = []

        def operation():
            elapsed, result, target = ingest_once()
            outcome.record(
                _check(result, target, expected, results[0][1] if results else None)
            )
            op = (elapsed, result, _bytes_written(target, result.version))
            shutil.rmtree(target)
            if not results:  # freed heap is not handed back; read it once
                peak_rss_mb.append(common.vm_hwm_mb())
            results.append(op)
            return op

        common.measure_loop(seconds, operation)
        samples = [elapsed for elapsed, _, _ in results]
        ingest_s = min(samples)
        record = {
            "store": {"version": built["version"], "report": built["report"],
                      "expectation_checked": checked,
                      "pv3_digest": built["pv3_digest"]},
            "delta": {"new": expected["n_new"], "revised": n_updated},
            "setup_s": common.summary(setup_samples),
            "ingest_s": common.summary(samples),
            "result": {
                field: getattr(results[0][1], field)
                for field in ("n_delta", "n_new", "n_updated", "n_predicted",
                              "n_cwe_fixed", "n_date_improved", "n_total")
            },
        }
        end_to_end = {
            "setup_s": statistics.median(setup_samples),
            "latency_ms": ingest_s * 1000.0,
            "ops_per_s": 1.0 / ingest_s,
            "peak_rss_mb": peak_rss_mb[0],
        }
        measured = common.Measured(outcome, end_to_end, {}, record)
        if trace:
            spans = tracing.Tracer()
            traced = []
            spans.install()
            try:
                common.measure_loop(seconds, lambda: traced.append(ingest_once(spans.span)))
            finally:
                spans.uninstall()
            for elapsed, result, target in traced:
                outcome.record(_check(result, target, expected, results[0][1]))
                shutil.rmtree(target)
            path = common.trace_path("ingest", seed)
            spans.write(path)
            table = tracing.self_times(spans.spans, keep=tracing.under("ingest"))
            metrics, rows = tracing.layer_metrics(table, len(traced), "ingest")
            traced_s = min(elapsed for elapsed, _, _ in traced)
            metrics["artifacts.bytes_written"] = results[0][2]
            metrics["trace.overhead_pct"] = (traced_s / ingest_s - 1.0) * 100.0
            measured.per_layer.update(metrics)
            measured.table = [
                f"per-layer self time per ingest_delta (traced {traced_s:.3f} s, "
                f"untraced {ingest_s:.3f} s, absent: {spans.absent or 'none'}):",
                *tracing.format_table(rows, table["ingest"][1] / len(traced)),
                f"trace written to {path}",
            ]
    return measured
