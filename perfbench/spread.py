"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload clean --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out spread.json

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``.  A benchmark is steady when every spread except
``setup_s``'s stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

import common
from expect import parse_seeds

HERE = pathlib.Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    definition = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    workloads = (
        [w["name"] for w in definition["workloads"]]
        if args.workload == "all" else [args.workload]
    )
    report = {}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, definition["run_seconds"], args.trace)
            runs.append(result)
            common.log(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"wall {result['wall_s']:.1f} s "
                + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                           if n in bounds or args.trace)
            )
        summary = {"correct": all(r["correct"] for r in runs),
                   "max_wall_s": max(r["wall_s"] for r in runs), "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary["metrics"][name] = {
                "median": statistics.median(values),
                "iqr_share": common.quartile_spread(values),
                "bound": bounds.get(name),
                "values": values,
            }
        report[workload] = summary
        print(f"{workload}: all correct={summary['correct']}, "
              f"slowest run {summary['max_wall_s']:.1f} s")
        for name, row in summary["metrics"].items():
            spread = row["iqr_share"]
            print(f"  {name:<30} median {row['median']:>14.4f}  "
                  f"spread {spread if spread is not None else float('nan'):>8.4f}"
                  + (f"  bound {row['bound']}" if row["bound"] is not None else ""))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
