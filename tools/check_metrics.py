#!/usr/bin/env python
"""Prometheus exposition-format and trace-file linter.

Checks a ``/metrics`` payload — fetched live with ``--url`` or read
from a saved snapshot file — against the text exposition format 0.0.4
contract that scrapers depend on:

- every sample's metric family declares ``# TYPE`` (and ``# HELP``)
  *before* its first sample, and a family's samples are contiguous;
- metric and label names are legal (``[a-zA-Z_:][a-zA-Z0-9_:]*`` /
  ``[a-zA-Z_][a-zA-Z0-9_]*``);
- no series (name + label set) appears twice;
- every sample value parses as a float (``+Inf``/``-Inf``/``NaN``
  included);
- histogram families expose cumulative, ``+Inf``-terminated
  ``_bucket`` series whose top bucket equals ``_count``.

With ``--trace FILE`` it instead validates a Chrome trace-event JSON
file (as written by ``REPRO_TRACE`` / ``--trace``): every event carries
the required keys and the trace holds at least one span.

Usage::

    PYTHONPATH=src python tools/check_metrics.py metrics.txt
    PYTHONPATH=src python tools/check_metrics.py --url http://127.0.0.1:8080/metrics
    PYTHONPATH=src python tools/check_metrics.py --trace trace.json

Exit status is 0 when every check passes, 1 otherwise (every violation
is printed).
"""

from __future__ import annotations

import argparse
import math
import pathlib
import re
import sys
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[^\s{]+)(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)(?:\s+(?P<ts>\S+))?$"
)
TYPES = ("counter", "gauge", "histogram", "summary", "untyped")

#: sample-name suffixes each metric type may emit beyond the bare name.
_TYPE_SUFFIXES = {
    "histogram": ("_bucket", "_sum", "_count"),
    "summary": ("_sum", "_count"),
}


def _parse_labels(raw: str) -> tuple[list[tuple[str, str]], str | None]:
    """``a="x",b="y"`` → pairs; second item is an error (or None)."""
    pairs: list[tuple[str, str]] = []
    rest = raw.strip()
    while rest:
        match = re.match(r'^([^=,{}]+)="((?:[^"\\]|\\.)*)"\s*(?:,\s*|$)', rest)
        if match is None:
            return pairs, f"unparseable label fragment {rest!r}"
        name, value = match.group(1).strip(), match.group(2)
        if not LABEL_NAME_RE.match(name):
            return pairs, f"illegal label name {name!r}"
        value = value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
        pairs.append((name, value))
        rest = rest[match.end():]
    return pairs, None


def _parse_value(raw: str) -> float | None:
    if raw in ("+Inf", "Inf"):
        return math.inf
    if raw == "-Inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        return None


def _family_of(sample_name: str, typed: dict[str, str]) -> str:
    """The declared family a sample belongs to (longest-prefix match)."""
    if sample_name in typed:
        return sample_name
    for family, metric_type in typed.items():
        for suffix in _TYPE_SUFFIXES.get(metric_type, ()):
            if sample_name == family + suffix:
                return family
    return sample_name


def lint_exposition(text: str) -> list[str]:
    """All format violations in a ``/metrics`` payload (empty = clean)."""
    errors: list[str] = []
    typed: dict[str, str] = {}       # family -> declared type
    helped: set[str] = set()
    seen_series: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
    #: families whose sample block has ended; reappearing is an error.
    closed: set[str] = set()
    current_family: str | None = None
    #: histogram buckets: (family, non-le labels) -> [(le, count)]
    buckets: dict[tuple[str, tuple], list[tuple[float, float]]] = {}
    counts: dict[tuple[str, tuple], float] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                if not METRIC_NAME_RE.match(name):
                    errors.append(f"line {lineno}: illegal metric name {name!r}")
                    continue
                if parts[1] == "TYPE":
                    declared = parts[3].strip() if len(parts) > 3 else ""
                    if declared not in TYPES:
                        errors.append(
                            f"line {lineno}: unknown type {declared!r} for {name}"
                        )
                    if name in typed:
                        errors.append(f"line {lineno}: duplicate TYPE for {name}")
                    typed[name] = declared
                else:
                    helped.add(name)
            continue

        match = SAMPLE_RE.match(line.strip())
        if match is None:
            errors.append(f"line {lineno}: unparseable sample line {line!r}")
            continue
        sample_name = match.group("name")
        if not METRIC_NAME_RE.match(sample_name):
            errors.append(f"line {lineno}: illegal metric name {sample_name!r}")
            continue
        family = _family_of(sample_name, typed)
        if family not in typed:
            errors.append(f"line {lineno}: sample {sample_name} has no # TYPE")
        if family not in helped:
            errors.append(f"line {lineno}: sample {sample_name} has no # HELP")
        if family != current_family:
            if family in closed:
                errors.append(
                    f"line {lineno}: family {family} samples are not contiguous"
                )
            if current_family is not None:
                closed.add(current_family)
            current_family = family

        labels, label_error = _parse_labels(match.group("labels") or "")
        if label_error:
            errors.append(f"line {lineno}: {label_error}")
            continue
        series_key = (sample_name, tuple(sorted(labels)))
        if series_key in seen_series:
            errors.append(f"line {lineno}: duplicate series {sample_name}{dict(labels)}")
        seen_series.add(series_key)

        value = _parse_value(match.group("value"))
        if value is None:
            errors.append(
                f"line {lineno}: value {match.group('value')!r} does not parse"
            )
            continue

        if typed.get(family) == "histogram":
            label_map = dict(labels)
            rest = tuple(sorted((k, v) for k, v in labels if k != "le"))
            if sample_name == family + "_bucket":
                if "le" not in label_map:
                    errors.append(f"line {lineno}: bucket sample missing le label")
                    continue
                bound = _parse_value(label_map["le"])
                if bound is None:
                    errors.append(
                        f"line {lineno}: le={label_map['le']!r} does not parse"
                    )
                    continue
                buckets.setdefault((family, rest), []).append((bound, value))
            elif sample_name == family + "_count":
                counts[(family, rest)] = value

    for (family, rest), pairs in buckets.items():
        series = f"{family}{dict(rest)}"
        bounds = [bound for bound, _ in pairs]
        if bounds != sorted(bounds):
            errors.append(f"{series}: bucket le bounds are not sorted")
        if not any(math.isinf(bound) and bound > 0 for bound in bounds):
            errors.append(f"{series}: no le=\"+Inf\" bucket")
        values = [count for _, count in pairs]
        if values != sorted(values):
            errors.append(f"{series}: bucket counts are not cumulative")
        if (family, rest) in counts and values:
            if counts[(family, rest)] != values[-1]:
                errors.append(
                    f"{series}: _count {counts[(family, rest)]} != "
                    f"+Inf bucket {values[-1]}"
                )
    return errors


def summarize_exposition(text: str) -> tuple[int, int]:
    """(n_families, n_samples) — for the success message."""
    families = set()
    samples = 0
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            families.add(line.split()[2])
        elif line.strip() and not line.startswith("#"):
            samples += 1
    return len(families), samples


# ---------------------------------------------------------------------------
# Trace-file checks.
# ---------------------------------------------------------------------------


def lint_trace_events(events: list) -> tuple[list[str], set[int]]:
    """Schema violations in trace-event JSON, plus the span pid set."""
    errors: list[str] = []
    pids: set[int] = set()
    n_spans = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"events[{i}]: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            errors.append(f"events[{i}]: unexpected ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"events[{i}]: missing name")
        if not isinstance(event.get("pid"), int):
            errors.append(f"events[{i}]: missing integer pid")
            continue
        if phase == "X":
            n_spans += 1
            pids.add(event["pid"])
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    errors.append(f"events[{i}]: missing numeric {key}")
            if not isinstance(event.get("tid"), int):
                errors.append(f"events[{i}]: missing integer tid")
            args = event.get("args")
            if not isinstance(args, dict) or not args.get("trace_id"):
                errors.append(f"events[{i}]: span args lack trace_id")
        else:
            args = event.get("args")
            if not isinstance(args, dict) or not isinstance(args.get("name"), str):
                errors.append(f"events[{i}]: metadata event lacks args.name")
    if n_spans == 0:
        errors.append("trace holds no spans (no ph=X events)")
    return errors, pids


def check_trace(path: pathlib.Path) -> int:
    from repro.obs.trace import load_trace

    try:
        events = load_trace(path)
    except (OSError, ValueError) as error:
        print(f"[check-metrics] {path}: unreadable trace: {error}")
        return 1
    errors, pids = lint_trace_events(events)
    for error in errors:
        print(f"[check-metrics] trace error: {error}")
    if errors:
        print(f"[check-metrics] {path}: INVALID ({len(errors)} errors)")
        return 1
    print(
        f"[check-metrics] {path}: valid trace — {len(events)} events, "
        f"spans from {len(pids)} process(es)"
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "snapshot", nargs="?", type=pathlib.Path,
        help="saved /metrics snapshot to lint",
    )
    parser.add_argument(
        "--url", metavar="URL",
        help="fetch and lint a live /metrics endpoint (also checks the "
        "Content-Type header)",
    )
    parser.add_argument(
        "--trace", type=pathlib.Path, metavar="FILE",
        help="validate a Chrome trace-event JSON file instead",
    )
    args = parser.parse_args(argv)

    if args.trace is not None:
        return check_trace(args.trace)

    if (args.snapshot is None) == (args.url is None):
        parser.error("exactly one of SNAPSHOT, --url, or --trace is required")

    errors: list[str] = []
    if args.url is not None:
        source = args.url
        try:
            with urllib.request.urlopen(args.url, timeout=10.0) as response:
                content_type = response.headers.get("Content-Type", "")
                text = response.read().decode("utf-8")
        except OSError as error:
            print(f"[check-metrics] {args.url}: fetch failed: {error}")
            return 1
        if "text/plain" not in content_type or "version=0.0.4" not in content_type:
            errors.append(
                f"Content-Type {content_type!r} is not the exposition "
                f"format 0.0.4 content type"
            )
    else:
        source = str(args.snapshot)
        try:
            text = args.snapshot.read_text(encoding="utf-8")
        except OSError as error:
            print(f"[check-metrics] {source}: unreadable: {error}")
            return 1

    errors.extend(lint_exposition(text))
    for error in errors:
        print(f"[check-metrics] {error}")
    if errors:
        print(f"[check-metrics] {source}: INVALID ({len(errors)} errors)")
        return 1
    families, samples = summarize_exposition(text)
    print(
        f"[check-metrics] {source}: valid exposition — "
        f"{families} families, {samples} samples"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
