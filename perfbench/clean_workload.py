"""The ``clean`` workload: the batch user's full ``clean()`` rebuild.

Set-up generates the ``baseline`` feed (timed several times).  Each
operation is one ``repro.core.clean()`` on the default executor; CNN
training is most of it, so changes to ``ml.nn`` and ``core.severity``
show here and serving layers are absent.

The backport model is pinned to the paper's CNN.  Left to the held-out
selection, the winner changes from seed to seed at this epoch count,
and with it whether the CNN forward over every scored CVE (about a
second and 40 MiB) is part of the run — a bimodal workload.  Pinning
skips the selection step (``core.severity.select``), which costs under
1% of ``clean()``.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time

import common
import tracer as tracing

#: training epochs: enough that ``severity.fit`` stays the majority of
#: ``clean()`` while one operation still fits the run length.
EPOCHS = 6
SETUP_REPEATS = 3

#: crawler outcome counters (``dates.*``) that make up the references
#: attempted; ``date_extracted`` is the useful one.
_REFERENCE_OUTCOMES = (
    "date_extracted",
    "no_date_found",
    "fetch_failed",
    "skipped_uncovered_domain",
    "skipped_dead_domain",
)


def _clean_once(bundle, seed: int, scale: float) -> dict:
    """One timed ``clean()``, its output checks, and what the record
    keeps of it (the rectified snapshot itself is dropped, so peak RSS
    does not grow with the number of operations)."""
    from repro import perf
    from repro.core import (
        EngineConfig,
        clean,
        from_ground_truth,
        product_oracle_from_truth,
    )

    recorder = perf.get_recorder()
    recorder.reset()
    gc.collect()
    started = time.perf_counter()
    rectified = clean(
        bundle.snapshot,
        bundle.web,
        from_ground_truth(bundle.truth.vendor_map),
        product_oracle_from_truth(bundle.truth.product_map),
        engine_config=EngineConfig(epochs=EPOCHS),
        prediction_model="cnn",
    )
    elapsed = time.perf_counter() - started
    peak_rss_mb = common.vm_hwm_mb()
    counters = recorder.counters
    attempted = sum(counters.get(f"dates.{name}", 0) for name in _REFERENCE_OUTCOMES)
    report = dataclasses.asdict(rectified.report)
    problems, checked = common.check_report(report, seed, scale)
    scored = [entry for entry in bundle.snapshot.entries if entry.cvss_v2 is not None]
    if len(rectified.pv3_scores) != len(scored):
        problems.append(
            f"{len(rectified.pv3_scores)} predicted scores for {len(scored)} v2-scored CVEs"
        )
    if not all(0.0 <= score <= 10.0 for score in rectified.pv3_scores.values()):
        problems.append("a predicted v3 score lies outside [0, 10]")
    return {
        "clean_s": elapsed,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "report": report,
        "expectation_checked": checked,
        "pv3_digest": common.scores_digest(rectified.pv3_scores),
        "phases": recorder.phase_seconds(),
        "extract_ratio": (
            counters.get("dates.date_extracted", 0) / attempted if attempted else 0.0
        ),
    }


def best_phases(ops: list[dict]) -> float:
    """``clean()`` seconds assembled from the fastest run of each of its
    innermost phases (the program's own phase timers) across ``ops``,
    plus the fastest remainder outside them.

    A shared machine slows down in bursts of a few seconds; an 8-s
    ``clean()`` rarely runs clear of one, but each of its phases often
    does, so this is the steadier estimate of what ``clean()`` costs.
    """
    names = set().union(*(op["phases"] for op in ops))
    leaves = [n for n in names if not any(o.startswith(n + ".") for o in names)]
    remainder = min(op["clean_s"] - sum(op["phases"].get(n, 0.0) for n in leaves) for op in ops)
    return remainder + sum(min(op["phases"].get(n, 0.0) for op in ops) for n in leaves)


def run(seed: int, seconds: float, trace: bool, scale: float) -> common.Measured:
    import repro.synth as synth

    config = common.generator_config(seed, scale)
    setup_samples = []
    bundle = None
    for _ in range(SETUP_REPEATS):
        bundle = None  # free the previous bundle before timing the next
        started = time.perf_counter()
        bundle = synth.generate(config)
        setup_samples.append(time.perf_counter() - started)

    outcome = common.Outcome()

    ops = common.measure_loop(seconds, lambda: _clean_once(bundle, seed, scale))
    for op in ops:
        outcome.record(op["problems"])
    clean_samples = [op["clean_s"] for op in ops]
    record = {
        "n_cves": len(bundle.snapshot),
        "epochs": EPOCHS,
        "setup_s": common.summary(setup_samples),
        "clean_s": common.summary(clean_samples),
        "predict_p50_ms": statistics.median(
            op["phases"].get("severity.predict", 0.0) * 1000 for op in ops
        ),
        "best_phases_s": best_phases(ops),
        "report": ops[-1]["report"],
        "expectation_checked": ops[-1]["expectation_checked"],
        "pv3_digest": ops[-1]["pv3_digest"],
    }
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "latency_ms": best_phases(ops) * 1000.0,
        "ops_per_s": 1.0 / best_phases(ops),
        # after the first operation: freed heap is not handed back, so
        # later readings would grow with the number of operations.
        "peak_rss_mb": ops[0]["peak_rss_mb"],
    }
    measured = common.Measured(outcome, end_to_end, {}, record)
    if trace:
        _traced(measured, bundle, config, seconds, seed, scale, best_phases(ops))
    return measured


def _traced(measured, bundle, config, seconds, seed, scale, untraced_clean_s) -> None:
    import repro.synth as synth

    spans = tracing.Tracer()
    spans.install()
    try:
        synth.generate(config)

        def operation() -> dict:
            with spans.span("clean"):
                return _clean_once(bundle, seed, scale)

        ops = common.measure_loop(seconds, operation)
    finally:
        spans.uninstall()
    for op in ops:
        measured.outcome.record(op["problems"])
    path = common.trace_path("clean", seed)
    spans.write(path)

    table = tracing.self_times(spans.spans, keep=tracing.under("clean"))
    metrics, rows = tracing.layer_metrics(table, len(ops), "clean")
    generate = tracing.self_times(spans.spans, keep=tracing.under("synth.generate"))
    metrics["synth.generate_s"] = generate.get("synth.generate", [0, 0.0])[1]
    traced_clean_s = best_phases(ops)
    metrics["core.dates.extract_ratio"] = ops[-1]["extract_ratio"]
    metrics["trace.overhead_pct"] = (traced_clean_s / untraced_clean_s - 1.0) * 100.0
    measured.per_layer.update(metrics)
    by_parent = tracing.self_by_parent(spans.spans, keep=tracing.under("clean"))
    measured.table = [
        f"per-layer self time per clean() (traced {traced_clean_s:.3f} s, "
        f"untraced {untraced_clean_s:.3f} s, absent: {spans.absent or 'none'}):",
        *tracing.format_table(rows, table["clean"][1] / len(ops)),
        "ml.nn layer timers by enclosing wrapped call (self s per clean()):",
        *(
            f"  {name:<26} under {parent:<26}{own / len(ops):>10.3f}"
            for (name, parent), own in sorted(by_parent.items())
            if name.startswith("ml.nn.")
        ),
        f"trace written to {path}",
    ]
