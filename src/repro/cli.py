"""Command-line interface.

Batch subcommands::

    python -m repro generate  --n-cves 5000 --out snapshot.json.gz
    python -m repro synth     --list
    python -m repro synth     --scenario chaos-names --out chaos.json.gz
    python -m repro synth     --scenario baseline --set scale=1.5 --show
    python -m repro stats     snapshot.json.gz [--json]
    python -m repro fix-cwe   snapshot.json.gz --out fixed.json.gz
    python -m repro demo      --n-cves 3000 [--artifacts DIR]

``synth`` is the scenario-engine front end (see
:mod:`repro.synth.scenario`): it generates a feed under a named preset
from the scenario registry, optionally with ``--set key=value``
parameter overrides validated against the declared schema.  ``generate``
stays the raw, scenario-free path (equivalent to
``synth --scenario baseline``).

Serving subcommands (see ``docs/architecture.md``)::

    python -m repro serve     --artifacts DIR [--host H] [--port P]
    python -m repro ingest    delta.json.gz --artifacts DIR
    python -m repro recover   --artifacts DIR [--keep N]

``recover`` runs the store's crash-recovery sweep on demand (ingest
runs it automatically): leaked staging directories are removed, torn
version directories are quarantined, the ``CURRENT`` pointer is
repaired, and with ``--keep`` stale versions are garbage-collected.

``fix-cwe`` works on any NVD JSON feed — including a real one: it
applies the §4.4 ``CWE-[0-9]*`` recovery and rewrites the feed.
``demo`` runs the whole pipeline against a synthetic snapshot (the
other fixers need the web corpus / analyst oracles the synthetic
bundle provides), prints the cleaning report, and with ``--artifacts``
exports the run into a versioned artifact store.  ``serve`` cold-starts
the query API from such a store without retraining; ``ingest`` cleans
a delta feed with the persisted models and flips the store's version
pointer, which a running server hot-swaps onto.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections.abc import Sequence

from repro.core import (
    EngineConfig,
    apply_cwe_fixes,
    clean,
    extract_cwe_fixes,
    from_ground_truth,
    product_oracle_from_truth,
)
from repro.nvd import NvdSnapshot, load_feed, save_feed
from repro.reporting import render_table
from repro.synth import GeneratorConfig, generate

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: what reading a feed file can raise: ``OSError`` for a missing file
#: or a ``.gz`` that is not gzip, ``EOFError`` for a cut-off gzip
#: stream, ``ValueError`` for text that is not JSON, not an NVD feed,
#: or that holds a CVE id twice.
_FEED_ERRORS = (OSError, EOFError, ValueError)


def _input_error(path: str, error: Exception | str) -> int:
    """Print ``error: <path>: <reason>``; the exit code for bad input."""
    # An OSError's str() repeats the path; its strerror does not.
    reason = getattr(error, "strerror", None) or str(error)
    print(f"error: {path}: {reason}", file=sys.stderr)
    return 2


def _missing_out_dir(path: str) -> bool:
    """Report an ``--out`` path whose directory does not exist, before
    any work is done; True when it was reported."""
    directory = pathlib.Path(path).parent
    if directory.is_dir():
        return False
    _input_error(path, f"directory {str(directory)!r} does not exist")
    return True


def _cmd_generate(args: argparse.Namespace) -> int:
    if _missing_out_dir(args.out):
        return 2
    bundle = generate(GeneratorConfig(n_cves=args.n_cves, seed=args.seed))
    save_feed(bundle.snapshot.entries, args.out)
    print(f"wrote {len(bundle.snapshot)} CVEs to {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.synth import ScenarioError, get_scenario, scenario_names
    from repro.synth.scenario import PARAMETER_SCHEMA, with_overrides

    if args.list:
        rows = []
        for name in scenario_names():
            scenario = get_scenario(name)
            knobs = ", ".join(
                f"{parameter}={getattr(scenario, parameter)}"
                for parameter in PARAMETER_SCHEMA
                if getattr(scenario, parameter)
                != getattr(type(scenario)(), parameter)
            )
            rows.append([name, knobs or "(all defaults)"])
        print(render_table(["Scenario", "Non-default parameters"], rows))
        return 0

    try:
        scenario = get_scenario(args.scenario)
        if args.set:
            overrides = {}
            for item in args.set:
                key, _, value = item.partition("=")
                if not _:
                    raise ScenarioError(
                        f"--set expects key=value, got {item!r}"
                    )
                overrides[key] = value
            scenario = with_overrides(scenario, overrides)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.show:
        print(json.dumps(scenario.to_json(), indent=2, sort_keys=True))
        return 0
    if not args.out:
        print("error: --out is required (or use --list / --show)", file=sys.stderr)
        return 2
    if _missing_out_dir(args.out):
        return 2

    try:
        bundle = scenario.generate(args.n_cves, args.seed)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    save_feed(bundle.snapshot.entries, args.out)
    print(
        f"wrote {len(bundle.snapshot)} CVEs to {args.out} "
        f"(scenario {scenario.name}, seed {args.seed})"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        snapshot = NvdSnapshot(load_feed(args.feed))
    except _FEED_ERRORS as error:
        return _input_error(args.feed, error)
    stats = snapshot.stats()
    if args.json:
        # Exactly the shape the service's /v1/stats endpoint returns.
        print(json.dumps(stats.as_dict(), indent=2))
        return 0
    rows = [
        ["CVEs", stats.n_cves],
        ["vendors", stats.n_vendors],
        ["products", stats.n_products],
        ["CWE types (concrete)", stats.n_cwe_types],
        ["with CVSS v2", stats.n_with_v2],
        ["with CVSS v3", stats.n_with_v3],
        ["reference URLs", stats.n_references],
        ["year range", f"{stats.year_range[0]}-{stats.year_range[1]}"],
    ]
    print(render_table(["Snapshot statistic", "Value"], rows, title=str(args.feed)))
    return 0


def _cmd_fix_cwe(args: argparse.Namespace) -> int:
    if _missing_out_dir(args.out):
        return 2
    try:
        snapshot = NvdSnapshot(load_feed(args.feed))
    except _FEED_ERRORS as error:
        return _input_error(args.feed, error)
    result = extract_cwe_fixes(snapshot)
    fixed = apply_cwe_fixes(snapshot, result)
    save_feed(fixed.entries, args.out)
    rows = [
        ["CVEs scanned", len(snapshot)],
        ["CWE labels recovered", result.n_fixed],
        ["... were NVD-CWE-Other", result.fixed_other],
        ["... were NVD-CWE-noinfo", result.fixed_noinfo],
        ["... were unassigned", result.fixed_unassigned],
        ["... extended concrete labels", result.fixed_already_labeled],
    ]
    print(render_table(["CWE recovery (§4.4)", "Count"], rows))
    print(f"wrote corrected feed to {args.out}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.out and _missing_out_dir(args.out):
        return 2
    bundle = generate(GeneratorConfig(n_cves=args.n_cves, seed=args.seed))
    rectified = clean(
        bundle.snapshot,
        bundle.web,
        from_ground_truth(bundle.truth.vendor_map),
        product_oracle_from_truth(bundle.truth.product_map),
        engine_config=EngineConfig(epochs=args.epochs, models=("lr", "dnn")),
        crawl_cache=args.crawl_cache,
    )
    report = rectified.report
    rows = [
        ["CVEs processed", report.n_cves],
        ["publication dates improved", report.n_improved_dates],
        ["vendor names impacted", report.n_vendor_names_impacted],
        ["product names impacted", report.n_product_names_impacted],
        ["v3 scores backported", report.n_v3_predicted],
        ["CWE labels recovered", report.n_cwe_fixed],
        ["prediction model", report.model_used.upper()],
    ]
    print(render_table(["Cleaning report", "Value"], rows))
    if args.out:
        save_feed(rectified.snapshot.entries, args.out)
        print(f"wrote rectified feed to {args.out}")
    if args.artifacts:
        version = rectified.export_artifacts(args.artifacts)
        print(f"exported artifact version {version} to {args.artifacts}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactError
    from repro.service import serve

    try:
        return serve(
            args.artifacts,
            host=args.host,
            port=args.port,
            version=args.version,
            reload_interval=args.reload_interval,
            workers=args.workers,
            access_log=args.access_log,
        )
    except ArtifactError as error:
        return _input_error(args.artifacts, error)


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.artifacts import recover_store

    if not pathlib.Path(args.artifacts).is_dir():
        # The sweep reads a missing store as a clean, empty one.
        return _input_error(args.artifacts, "no such directory")
    report = recover_store(
        args.artifacts, keep=args.keep, verify_hashes=args.verify_hashes
    )
    rows = [
        ["staging dirs removed", len(report.staging_removed)],
        ["versions quarantined", len(report.quarantined)],
        ["stale versions GC'd", len(report.gc_removed)],
        ["valid versions", len(report.valid_versions)],
        ["CURRENT before", report.current_before or "(none)"],
        ["CURRENT after", report.current_after or "(none)"],
    ]
    print(render_table(["Recovery sweep", "Value"], rows, title=str(args.artifacts)))
    print(report.summary())
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactError, ingest_delta

    try:
        delta = NvdSnapshot(load_feed(args.feed))
    except _FEED_ERRORS as error:
        return _input_error(args.feed, error)
    try:
        result = ingest_delta(
            args.artifacts, delta.entries, crawl_cache=args.crawl_cache
        )
    except ArtifactError as error:
        return _input_error(args.artifacts, error)
    rows = [
        ["delta CVEs", result.n_delta],
        ["... new", result.n_new],
        ["... updated", result.n_updated],
        ["v3 scores predicted (no retrain)", result.n_predicted],
        ["CWE labels recovered", result.n_cwe_fixed],
        ["dates improved (cached scrapes)", result.n_date_improved],
        ["snapshot size now", result.n_total],
        ["prediction model", result.model_used.upper()],
    ]
    print(render_table(["Incremental ingest", "Value"], rows))
    print(
        f"exported artifact version {result.version} "
        f"(parent {result.parent}) to {args.artifacts}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cleaning-the-NVD reproduction toolkit",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event file (loadable in Perfetto) "
        "covering the command's pipeline phases, or serve's per-request "
        "spans (PATH.w<index> per worker); same effect as the REPRO_TRACE "
        "environment variable",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("generate", help="write a synthetic NVD feed")
    cmd.add_argument("--n-cves", type=int, default=5000)
    cmd.add_argument("--seed", type=int, default=2018)
    cmd.add_argument("--out", required=True)
    cmd.set_defaults(func=_cmd_generate)

    cmd = commands.add_parser(
        "synth",
        help="generate a feed under a named scenario preset "
        "(parametric scenario engine)",
    )
    cmd.add_argument(
        "--scenario", default="baseline", metavar="NAME",
        help="scenario preset from the registry (default: baseline)",
    )
    cmd.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one scenario parameter (repeatable; validated "
        "against the declared parameter schema)",
    )
    cmd.add_argument(
        "--n-cves", type=int, default=5000,
        help="base population before the scenario's scale multiplier",
    )
    cmd.add_argument("--seed", type=int, default=2018)
    cmd.add_argument("--out", default=None)
    cmd.add_argument(
        "--list", action="store_true",
        help="list the registered scenario presets and exit",
    )
    cmd.add_argument(
        "--show", action="store_true",
        help="print the resolved scenario as canonical JSON and exit",
    )
    cmd.set_defaults(func=_cmd_synth)

    cmd = commands.add_parser("stats", help="summarise a feed file")
    cmd.add_argument("feed")
    cmd.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable shape served by /v1/stats",
    )
    cmd.set_defaults(func=_cmd_stats)

    cmd = commands.add_parser(
        "fix-cwe", help="apply the CWE-id recovery to a feed (works on real feeds)"
    )
    cmd.add_argument("feed")
    cmd.add_argument("--out", required=True)
    cmd.set_defaults(func=_cmd_fix_cwe)

    cmd = commands.add_parser("demo", help="run the full pipeline on synthetic data")
    cmd.add_argument("--n-cves", type=int, default=3000)
    cmd.add_argument("--seed", type=int, default=2018)
    cmd.add_argument("--epochs", type=int, default=10)
    cmd.add_argument("--out", default=None)
    cmd.add_argument(
        "--crawl-cache", default=None, metavar="PATH",
        help="persistent crawl cache JSON; repeated runs skip re-fetching "
        "reference URLs (default: REPRO_CRAWL_CACHE or no cache)",
    )
    cmd.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="export the cleaned run into a versioned artifact store "
        "(what `repro serve` cold-starts from)",
    )
    cmd.set_defaults(func=_cmd_demo)

    cmd = commands.add_parser(
        "serve",
        help="serve the query API from persisted artifacts (no retraining)",
    )
    cmd.add_argument("--artifacts", required=True, metavar="DIR")
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument("--port", type=int, default=8080)
    cmd.add_argument(
        "--version", default=None, metavar="vNNNN",
        help="pin one artifact version (default: follow the CURRENT "
        "pointer and hot-swap when ingest moves it)",
    )
    cmd.add_argument(
        "--reload-interval", type=float, default=1.0, metavar="SECONDS",
        help="how often to poll the CURRENT pointer for hot swaps "
        "(0 checks on every request; --version disables polling)",
    )
    cmd.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="server processes sharing the port via SO_REUSEPORT "
        "(default 1; each worker cold-starts from the store and "
        "hot-swaps independently)",
    )
    cmd.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="append one JSONL line per request (ts, method, path, "
        "status, latency ms, trace id); with --workers N "
        "every worker appends to the same file",
    )
    cmd.set_defaults(func=_cmd_serve)

    cmd = commands.add_parser(
        "ingest",
        help="clean a delta feed with persisted models and roll a new "
        "artifact version",
    )
    cmd.add_argument("feed", help="NVD JSON feed of new/changed CVEs")
    cmd.add_argument("--artifacts", required=True, metavar="DIR")
    cmd.add_argument(
        "--crawl-cache", default=None, metavar="PATH",
        help="replay §4.1 scrape outcomes from this cache (default: "
        "REPRO_CRAWL_CACHE; uncached URLs fall back to the NVD date)",
    )
    cmd.set_defaults(func=_cmd_ingest)

    cmd = commands.add_parser(
        "recover",
        help="run the crash-recovery sweep over an artifact store",
    )
    cmd.add_argument("--artifacts", required=True, metavar="DIR")
    cmd.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="garbage-collect all but the newest N valid versions "
        "(default: keep everything)",
    )
    cmd.add_argument(
        "--verify-hashes", action="store_true",
        help="also verify per-file sha256 hashes against each manifest "
        "(slower; default checks file presence only)",
    )
    cmd.set_defaults(func=_cmd_recover)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace:
        import os

        # clean() (and serve) pick the target up via maybe_trace() /
        # trace_target(); the env var also reaches spawned workers.
        os.environ["REPRO_TRACE"] = args.trace
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
