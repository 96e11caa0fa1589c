#!/usr/bin/env python
"""Ingest and cold-start cost along a segment chain.

An ingest writes one segment on its parent, and the ingest onto a chain
of ``repro.artifacts.ingest.MAX_SEGMENTS`` segments writes a fresh full
base instead (a **rebase**).  So a run of ingests costs segment writes
that grow with the chain, then one full rewrite, and every load —
a ``repro serve`` worker's cold start, a hot swap — replays the chain.
This tool measures both sides of that cap on a copy of a store::

    PYTHONPATH=src python tools/bench_chain.py --artifacts /tmp/store \\
        --ingests 9 --cold-start 0,1,8 --output /tmp/chain.json

Each step builds a seeded delta from the store's current snapshot
(``tools/make_delta_feed.build_delta``, ``--new`` fresh CVEs plus
``--mutate`` revisions, seed = step number), times ``ingest_delta`` of
it ``--repeats`` times, each on a fresh copy of the store, and keeps the
last copy as the store for the next step.  After any step that leaves a
chain length named in ``--cold-start`` (0 is the store as given, and
again the base a rebase writes), it times a cold start —
``load_artifacts`` plus ``ServiceState`` construction, the work a
worker does at start and on every hot swap — in ``--cold-repeats``
fresh child processes, with each child's peak RSS.
The input store is never modified.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

TOOLS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS.parent / "src"))
sys.path.insert(0, str(TOOLS))  # make_delta_feed, also when imported


def _chain_length(store: pathlib.Path) -> int:
    from repro.artifacts import read_current

    version = read_current(store)
    manifest = json.loads((store / version / "manifest.json").read_text(encoding="utf-8"))
    return len(manifest.get("chain", ()))


def _peak_rss_mb() -> float:
    """This process's peak resident set (Linux ``VmHWM``), in MiB.

    Not ``ru_maxrss``: a spawned child's counts the resident set its
    parent had at the spawn, and this tool's own process holds a whole
    decoded snapshot by then.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _probe(store: pathlib.Path) -> None:
    """One cold start, in this process: print its seconds and peak RSS."""
    from repro.artifacts import load_artifacts
    from repro.service.state import ServiceState

    started = time.perf_counter()
    state = ServiceState(load_artifacts(store))
    elapsed = time.perf_counter() - started
    print(json.dumps({
        "cold_start_s": round(elapsed, 4),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "n_cves": len(state.snapshot),
    }))


def cold_start(store: pathlib.Path, repeats: int) -> dict:
    """Cold starts of ``store`` in ``repeats`` fresh child processes."""
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(TOOLS / "bench_chain.py"), "--probe", str(store)],
            capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    seconds = [run["cold_start_s"] for run in runs]
    return {
        "chain": _chain_length(store),
        "n_cves": runs[0]["n_cves"],
        "cold_start_s": seconds,
        "median_s": round(statistics.median(seconds), 4),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }


def ingest_step(
    store: pathlib.Path, step: int, n_new: int, n_mutate: int, repeats: int
) -> dict:
    """Time ``repeats`` ingests of one delta, each into a fresh copy of
    ``store``; the last copy replaces ``store``."""
    from make_delta_feed import build_delta

    from repro.artifacts import ingest_delta, load_artifacts

    delta = build_delta(list(load_artifacts(store).snapshot.entries), n_new, n_mutate, step)
    chain_before = _chain_length(store)
    trial = store.with_name("trial")
    samples, bytes_written, result = [], 0, None
    for _ in range(repeats):
        shutil.rmtree(trial, ignore_errors=True)
        shutil.copytree(store, trial)
        gc.collect()
        started = time.perf_counter()
        result = ingest_delta(trial, delta)
        samples.append(time.perf_counter() - started)
        manifest = json.loads(
            (trial / result.version / "manifest.json").read_text(encoding="utf-8")
        )
        bytes_written = sum(meta["bytes"] for meta in manifest["files"].values())
    shutil.rmtree(store)
    trial.rename(store)
    chain_after = _chain_length(store)
    return {
        "step": step,
        "chain_before": chain_before,
        "rebased": chain_after == 0,
        "n_delta": result.n_delta,
        "n_total": result.n_total,
        "ingest_s": [round(s, 4) for s in samples],
        "median_s": round(statistics.median(samples), 4),
        "bytes_written": bytes_written,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifacts", type=pathlib.Path, help="store to copy and ingest into")
    parser.add_argument("--ingests", type=int, default=9, help="successive ingests (default 9)")
    parser.add_argument("--new", type=int, default=500, help="fresh CVEs per delta (default 500)")
    parser.add_argument("--mutate", type=int, default=250, help="revised CVEs per delta (default 250)")
    parser.add_argument("--repeats", type=int, default=3, help="timed ingests per step (default 3)")
    parser.add_argument("--cold-start", default="0,1,8",
                        help="chain lengths to cold-start at, comma-separated (default 0,1,8)")
    parser.add_argument("--cold-repeats", type=int, default=3,
                        help="cold starts per chain length (default 3)")
    parser.add_argument("--output", type=pathlib.Path, help="write the JSON record here")
    parser.add_argument("--probe", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is not None:
        _probe(args.probe)
        return 0
    if args.artifacts is None:
        parser.error("--artifacts is required")
    if args.ingests < 0 or args.repeats < 1 or args.cold_repeats < 1:
        parser.error("--ingests must be >= 0, --repeats and --cold-repeats >= 1")
    lengths = {int(part) for part in args.cold_start.split(",") if part.strip()}

    from repro.artifacts.ingest import MAX_SEGMENTS

    record = {"max_segments": MAX_SEGMENTS, "ingests": [], "cold_starts": []}
    with tempfile.TemporaryDirectory(prefix="bench-chain-") as work:
        store = pathlib.Path(work) / "store"
        shutil.copytree(args.artifacts, store)

        def maybe_cold_start(step: int) -> None:
            if _chain_length(store) in lengths:
                row = {"after_step": step, **cold_start(store, args.cold_repeats)}
                record["cold_starts"].append(row)
                print(f"[bench-chain] cold start, chain {row['chain']} ({row['n_cves']:,} CVEs): "
                      f"median {row['median_s']:.3f} s {row['cold_start_s']}, "
                      f"peak RSS {row['peak_rss_mb']} MiB", flush=True)

        maybe_cold_start(0)
        for step in range(1, args.ingests + 1):
            row = ingest_step(store, step, args.new, args.mutate, args.repeats)
            record["ingests"].append(row)
            kind = "rebase" if row["rebased"] else "segment"
            print(f"[bench-chain] ingest {step} onto chain {row['chain_before']} ({kind}): "
                  f"median {row['median_s']:.3f} s {row['ingest_s']}, "
                  f"{row['bytes_written']:,} bytes", flush=True)
            maybe_cold_start(step)
    if record["ingests"]:
        medians = [row["median_s"] for row in record["ingests"]]
        record["mean_ingest_s"] = round(statistics.fmean(medians), 4)
        print(f"[bench-chain] mean of the {len(medians)} ingest medians: "
              f"{record['mean_ingest_s']:.3f} s")
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
