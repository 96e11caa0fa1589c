"""Regenerate the committed cleaning-report expectations.

The ``clean`` workload and the serving-store fixture check the
training-independent ``CleaningReport`` fields against
``expectations.json``.  This script recomputes them with a one-epoch,
linear-regression-only ``clean()`` (those fields do not depend on the
model) and merges them into the file::

    python3 perfbench/expect.py --seeds 0-99
    python3 perfbench/expect.py --seeds 7 --scale 0.005

Regenerate only on purpose: a change in these numbers is a change in
what the cleaner outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import common


def expected_report(seed: int, scale: float) -> dict:
    from repro.core import (
        EngineConfig,
        clean,
        from_ground_truth,
        product_oracle_from_truth,
    )
    from repro.synth import generate

    bundle = generate(common.generator_config(seed, scale))
    rectified = clean(
        bundle.snapshot,
        bundle.web,
        from_ground_truth(bundle.truth.vendor_map),
        product_oracle_from_truth(bundle.truth.product_map),
        engine_config=EngineConfig(epochs=1, models=("lr",)),
        prediction_model="lr",
    )
    report = dataclasses.asdict(rectified.report)
    return {field: report[field] for field in common.CHECKED_REPORT_FIELDS}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-99 or 1,5,9-12")
    parser.add_argument("--scale", type=float, default=common.SCALE)
    args = parser.parse_args(argv)
    common.ensure_source_tree()
    path = common.EXPECTATIONS
    document = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    runs = document.setdefault(str(common.n_cves(args.scale)), {})
    for seed in parse_seeds(args.seeds):
        runs[str(seed)] = expected_report(seed, args.scale)
        common.log(f"seed {seed}: {runs[str(seed)]}")
        path.write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
