#!/usr/bin/env python
"""Pipeline benchmark harness.

Runs the full cleaning pipeline (``repro.core.clean``) at one or more
``REPRO_SCALE`` factors, collects per-phase wall times from the
:mod:`repro.perf` recorder plus peak RSS, and appends the measurements
to ``BENCH_pipeline.json`` so the perf trajectory accumulates across
changes.  Each entry records the model ``clean()``'s held-out selection
picked and the host's core count.  Entries come from different hosts and
dates, so judge a change by fresh parent/change runs on one host, not
against an earlier entry.

Every run is made under a named scenario (default ``baseline``, the
distribution every pre-engine number used); ``--scenario`` picks one
preset and ``--matrix`` fans each scale out across several presets so
perf claims cover the scenario matrix instead of one happy path.  The
scenario is recorded in every run entry.

Usage::

    PYTHONPATH=src python tools/bench.py                  # default scale
    PYTHONPATH=src python tools/bench.py --scales 0.075 0.25 1.0
    PYTHONPATH=src python tools/bench.py --label current --epochs 40
    PYTHONPATH=src python tools/bench.py --scales 0.25 \
        --crawl-cache .crawl_cache.json                   # warm crawl
    PYTHONPATH=src python tools/bench.py --scenario chaos-names
    PYTHONPATH=src python tools/bench.py --scales 0.02 --matrix   # all presets
    PYTHONPATH=src python tools/bench.py --matrix chaos-names adversarial
    PYTHONPATH=src python tools/bench.py --scales 0.02 \
        --trace trace.json                                # Perfetto span trace
    PYTHONPATH=src python tools/bench.py --check-schema BENCH_pipeline.json

Historical run entries may carry ``workers`` / ``backend`` keys from
when ``clean()`` could shard its phases; the schema ignores them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA = "repro-bench/2"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"

#: required keys of one run entry and their types.  ``scenario`` names
#: the generator scenario the run was measured under (schema /2).
_RUN_FIELDS = {
    "label": str,
    "scenario": str,
    "scale": (int, float),
    "n_cves": int,
    "epochs": int,
    "wall_s": (int, float),
    "peak_rss_mb": (int, float),
    "phases": dict,
}
#: keys checked only when present: older entries predate them.
_OPTIONAL_FIELDS = {"model_used": str, "nproc": int}


def validate(data: object) -> list[str]:
    """Schema errors in a BENCH_pipeline.json document (empty = valid)."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return ["document must be a JSON object"]
    if data.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {data.get('schema')!r}")
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        return errors + ["runs must be a non-empty list"]
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            errors.append(f"runs[{i}] must be an object")
            continue
        for field, types in _RUN_FIELDS.items():
            if field not in run:
                errors.append(f"runs[{i}] missing field {field!r}")
            elif not isinstance(run[field], types):
                errors.append(f"runs[{i}].{field} has wrong type")
        for field, types in _OPTIONAL_FIELDS.items():
            if field in run and not isinstance(run[field], types):
                errors.append(f"runs[{i}].{field} has wrong type")
        phases = run.get("phases")
        if isinstance(phases, dict):
            bad = [k for k, v in phases.items() if not isinstance(v, (int, float))]
            for key in bad:
                errors.append(f"runs[{i}].phases[{key!r}] must be a number")
        counters = run.get("counters")
        if counters is not None and not isinstance(counters, dict):
            errors.append(f"runs[{i}].counters must be an object")
        elif counters:
            # a count is an int: not a bool, and not a float leaking
            # from the recorder's registry
            for key, value in counters.items():
                if not isinstance(key, str) or type(value) is not int:
                    errors.append(f"runs[{i}].counters[{key!r}] must be an integer")
    return errors


def load(path: pathlib.Path) -> dict:
    if path.exists():
        with path.open(encoding="utf-8") as handle:
            return json.load(handle)
    return {"schema": SCHEMA, "runs": []}


def bench_one(
    scale: float,
    epochs: int,
    seed: int,
    label: str,
    scenario_name: str = "baseline",
    crawl_cache: str | None = None,
    trace_path: str | None = None,
) -> dict:
    """Run generate + clean at one (scale, scenario) and return the run
    record."""
    from repro import perf
    from repro.core import (
        EngineConfig,
        clean,
        from_ground_truth,
        product_oracle_from_truth,
    )
    from repro.experiments import PAPER_SCALE_CVES
    from repro.synth import generate, get_scenario

    scenario = get_scenario(scenario_name)
    config = scenario.generator_config(max(2000, int(PAPER_SCALE_CVES * scale)), seed)
    n_cves = config.n_cves
    engine_config = EngineConfig(epochs=epochs)
    recorder = perf.get_recorder()
    recorder.reset()
    print(
        f"[bench] scale={scale} scenario={scenario.name} n_cves={n_cves} "
        f"epochs={epochs} ..."
    )
    trace_ctx = (
        perf.trace_session(trace_path) if trace_path else contextlib.nullcontext()
    )
    with trace_ctx:
        t_generate = time.perf_counter()
        bundle = generate(config)
        generate_s = time.perf_counter() - t_generate

        t_clean = time.perf_counter()
        rectified = clean(
            bundle.snapshot,
            bundle.web,
            from_ground_truth(bundle.truth.vendor_map),
            product_oracle_from_truth(bundle.truth.product_map),
            engine_config=engine_config,
            crawl_cache=crawl_cache,
        )
        wall_s = time.perf_counter() - t_clean
    if trace_path:
        print(f"[bench] wrote trace {trace_path}")

    phases = {name: round(seconds, 3) for name, seconds in recorder.phase_seconds().items()}
    phases["generate"] = round(generate_s, 3)
    return {
        "label": label,
        "scenario": scenario.name,
        "scale": scale,
        "n_cves": n_cves,
        "epochs": epochs,
        "wall_s": round(wall_s, 3),
        "peak_rss_mb": perf.peak_rss_mb(),
        "model_used": rectified.report.model_used,
        "nproc": os.cpu_count(),
        "phases": phases,
        "counters": recorder.counters,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", nargs="+", type=float, default=[0.075],
        help="REPRO_SCALE factors to run (default: 0.075)",
    )
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--label", default="current")
    parser.add_argument(
        "--scenario", default="baseline", metavar="NAME",
        help="generator scenario preset to run under (default: baseline)",
    )
    parser.add_argument(
        "--matrix", nargs="*", default=None, metavar="NAME",
        help="run each scale under several scenario presets "
        "(no names = every registered preset); overrides --scenario",
    )
    parser.add_argument(
        "--crawl-cache", default=None, metavar="PATH",
        help="persistent crawl cache JSON shared across runs "
        "(default: REPRO_CRAWL_CACHE or no cache)",
    )
    parser.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="PATH",
        help="write a Chrome trace-event JSON (Perfetto-loadable) of each "
        "run; with multiple runs, files are suffixed -<run index>",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help="trajectory JSON to append to (default: BENCH_pipeline.json)",
    )
    parser.add_argument(
        "--check-schema", type=pathlib.Path, metavar="FILE",
        help="validate FILE against the bench schema and exit",
    )
    args = parser.parse_args(argv)

    if args.check_schema is not None:
        try:
            with args.check_schema.open(encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"[bench] {args.check_schema}: unreadable: {error}")
            return 1
        errors = validate(data)
        for error in errors:
            print(f"[bench] schema error: {error}")
        print(
            f"[bench] {args.check_schema}: "
            + ("INVALID" if errors else f"valid ({len(data['runs'])} runs)")
        )
        return 1 if errors else 0

    for scale in args.scales:
        if scale <= 0:
            parser.error(f"--scales must be positive, got {scale}")

    from repro.synth import ScenarioError, get_scenario, scenario_names

    if args.matrix is not None:
        scenarios = list(args.matrix) or scenario_names()
    else:
        scenarios = [args.scenario]
    try:
        for name in scenarios:
            get_scenario(name)
    except ScenarioError as error:
        parser.error(str(error))

    document = load(args.output)
    if "runs" not in document or not isinstance(document.get("runs"), list):
        document = {"schema": SCHEMA, "runs": []}
    document["schema"] = SCHEMA

    n_runs = len(args.scales) * len(scenarios)
    run_index = 0
    for scale in args.scales:
        for scenario_name in scenarios:
            trace_path = None
            if args.trace is not None:
                trace_path = str(args.trace)
                if n_runs > 1:  # one trace file per run, never clobbered
                    trace_path = str(
                        args.trace.with_name(
                            f"{args.trace.stem}-{run_index}{args.trace.suffix}"
                        )
                    )
            run_index += 1
            run = bench_one(
                scale,
                args.epochs,
                args.seed,
                args.label,
                scenario_name=scenario_name,
                crawl_cache=args.crawl_cache,
                trace_path=trace_path,
            )
            document["runs"].append(run)
            print(
                f"[bench] scale={scale} scenario={run['scenario']}: "
                f"clean() {run['wall_s']}s with {run['model_used']}, "
                f"peak RSS {run['peak_rss_mb']} MiB"
            )

    errors = validate(document)
    if errors:  # defensive: never write a file CI would reject
        for error in errors:
            print(f"[bench] internal schema error: {error}")
        return 1
    args.output.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )
    print(f"[bench] wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
