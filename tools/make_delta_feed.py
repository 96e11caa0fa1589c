#!/usr/bin/env python
"""Synthetic delta-feed generator for ingest benchmarks and tests.

Builds a realistic NVD *delta* feed against an existing base — a mix of
brand-new CVEs and mutations of already-published ones — so
``python -m repro ingest`` and ``tools/bench_service.py --ingest`` have
a workload shaped like NVD's daily "modified" feed:

- **mutations** revise existing entries the way NVD updates do: the
  description gains an analysis sentence naming a concrete CWE (which
  the §4.4 regex recovery picks up on ingest) and the ``modified``
  stamp advances past publication;
- **new CVEs** are cloned from base entries under fresh high-numbered
  ids, published after the base snapshot, and stripped of their CVSS
  v3 vector — exactly the rows the persisted §4.3 model backports.

The base comes from ``--base feed.json.gz`` or from the ``CURRENT``
version of an artifact store (``--artifacts DIR``, read through
``repro.artifacts.load_artifacts``, so a version that is a base plus
ingest segments gives its whole snapshot).  Everything is
seeded, so the same arguments produce byte-identical feeds.

Usage::

    PYTHONPATH=src python tools/make_delta_feed.py --artifacts /tmp/store \\
        --out /tmp/delta.json.gz --new 200 --mutate 100
    PYTHONPATH=src python tools/make_delta_feed.py --base snapshot.json.gz \\
        --out delta.json.gz
"""

from __future__ import annotations

import argparse
import datetime
import pathlib
import random
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: concrete CWE labels the mutated descriptions name (all in the §4.4
#: recovery surface).
_CWES = ("CWE-79", "CWE-89", "CWE-119", "CWE-20", "CWE-200", "CWE-264")


def build_delta(
    entries: list,
    n_new: int,
    n_mutate: int,
    seed: int,
) -> list:
    """The delta entries: ``n_mutate`` revisions + ``n_new`` fresh CVEs."""
    if not entries:
        raise ValueError("base feed is empty; nothing to derive a delta from")
    rng = random.Random(seed)
    ordered = sorted(entries, key=lambda entry: entry.cve_id)
    existing_ids = {entry.cve_id for entry in ordered}
    latest = max(entry.published for entry in ordered)

    delta = []
    for entry in rng.sample(ordered, min(n_mutate, len(ordered))):
        cwe = rng.choice(_CWES)
        revised = entry.description + (
            f" Further analysis classified this issue as {cwe}."
        )
        delta.append(
            entry.replace(
                descriptions=(revised, *entry.descriptions[1:]),
                modified=latest + datetime.timedelta(days=rng.randint(1, 30)),
            )
        )

    year = latest.year
    serial = 90000  # high numbers: never collides with generated ids
    for _ in range(n_new):
        template = rng.choice(ordered)
        while f"CVE-{year}-{serial}" in existing_ids:
            serial += 1
        cve_id = f"CVE-{year}-{serial}"
        serial += 1
        published = latest + datetime.timedelta(days=rng.randint(1, 45))
        delta.append(
            template.replace(
                cve_id=cve_id,
                published=published,
                modified=None,
                cvss_v3=None,  # the persisted model backports these
                descriptions=(
                    f"A newly disclosed issue similar to {template.cve_id}. "
                    + template.description,
                ),
            )
        )
    return delta


def load_base(base: pathlib.Path | None, artifacts: pathlib.Path | None) -> list:
    from repro.artifacts import ArtifactError, load_artifacts
    from repro.nvd import load_feed

    if base is not None:
        return load_feed(base)
    assert artifacts is not None
    try:  # replays a segment version's chain onto its base
        return load_artifacts(artifacts).snapshot.entries
    except ArtifactError as error:
        raise SystemExit(f"[delta] {error}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--base", type=pathlib.Path, metavar="FEED",
        help="base NVD JSON feed to derive the delta from",
    )
    source.add_argument(
        "--artifacts", type=pathlib.Path, metavar="DIR",
        help="artifact store whose CURRENT snapshot is the base",
    )
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument(
        "--new", type=int, default=200, dest="n_new",
        help="brand-new CVEs to invent (default: 200)",
    )
    parser.add_argument(
        "--mutate", type=int, default=100, dest="n_mutate",
        help="existing CVEs to revise (default: 100)",
    )
    parser.add_argument("--seed", type=int, default=2018)
    args = parser.parse_args(argv)
    if args.n_new < 0 or args.n_mutate < 0:
        parser.error("--new and --mutate must be non-negative")
    if args.n_new + args.n_mutate == 0:
        parser.error("nothing to generate: --new and --mutate are both 0")

    from repro.nvd import save_feed

    entries = load_base(args.base, args.artifacts)
    delta = build_delta(entries, args.n_new, args.n_mutate, args.seed)
    save_feed(delta, args.out)
    n_mutated = len(delta) - args.n_new
    print(
        f"[delta] wrote {len(delta)} entries to {args.out} "
        f"({n_mutated} mutated, {args.n_new} new; base {len(entries)} CVEs)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
