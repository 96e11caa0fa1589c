"""The artifact store that ``serve-*`` and ``ingest`` run against.

Built with the code under test in a child process, so the parent's peak
RSS reflects only the measured work::

    python3 perfbench/fixture.py --seed 1 --out STORE

``clean()`` is told to select the CNN: at the short epoch count used
here the held-out selection would pick another model, which would
silently take the CNN forward out of every predict request.  The last
line of output is a JSON object with the version, the cleaning report
and a digest of the predicted scores.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import subprocess
import sys

import common

#: training epochs for the fixture's models; the served model only has
#: to exist, not to be accurate.
FIXTURE_EPOCHS = 1


def build(seed: int, scale: float, root: pathlib.Path) -> dict:
    """Build the store under ``root`` in a child process; return its
    summary (raises ``RuntimeError`` when the build fails)."""
    done = subprocess.run(
        [
            sys.executable,
            str(pathlib.Path(__file__).resolve()),
            "--seed", str(seed),
            "--scale", str(scale),
            "--out", str(root),
        ],
        env=common.child_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"fixture build failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=common.SCALE)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    common.ensure_source_tree()

    from repro.core import (
        EngineConfig,
        clean,
        from_ground_truth,
        product_oracle_from_truth,
    )
    from repro.synth import generate

    bundle = generate(common.generator_config(args.seed, args.scale))
    rectified = clean(
        bundle.snapshot,
        bundle.web,
        from_ground_truth(bundle.truth.vendor_map),
        product_oracle_from_truth(bundle.truth.product_map),
        engine_config=EngineConfig(epochs=FIXTURE_EPOCHS),
        prediction_model="cnn",
    )
    version = rectified.export_artifacts(args.out)
    print(
        json.dumps(
            {
                "version": version,
                "report": dataclasses.asdict(rectified.report),
                "pv3_digest": common.scores_digest(rectified.pv3_scores),
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
