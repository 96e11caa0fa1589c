"""``BENCHMARK.json``'s shape, and agreement with what ``run.py`` prints."""

import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def validate(doc: object) -> list[str]:
    """Every way ``doc`` breaks the benchmark-definition rules."""
    if not isinstance(doc, dict):
        return ["the document must be an object"]
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        errors.append(f"keys must be exactly {sorted(keys)}")
        return errors
    command, paths = doc["command"], doc["paths"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        errors.append("command must list 1 to 32 strings")
    else:
        for part in command:
            if not isinstance(part, str) or len(part) > 200:
                errors.append(f"bad command part {part!r}")
            elif part.startswith("/") or ".." in part.split("/"):
                errors.append(f"command part {part!r} leaves the repository")
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths must list 1 to 16 directories")
    else:
        for path in paths:
            if not isinstance(path, str) or not PATH.fullmatch(path) or ".." in path.split("/"):
                errors.append(f"bad path {path!r}")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    names: list[str] = []
    workloads = doc["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        errors.append("workloads must list 2 to 8 entries")
    else:
        for workload in workloads:
            if not isinstance(workload, dict) or set(workload) != {"name", "why"}:
                errors.append(f"workload {workload!r} needs exactly name and why")
                continue
            names.append(workload["name"])
            why = workload["why"]
            if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
                errors.append(f"workload {workload['name']!r}: why must be one line of <= 200 characters")
    for section, low, high, metric_keys in (
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        metrics = doc[section]
        if not (isinstance(metrics, list) and low <= len(metrics) <= high):
            errors.append(f"{section} must list {low} to {high} metrics")
            continue
        for metric in metrics:
            if not isinstance(metric, dict) or set(metric) != metric_keys:
                errors.append(f"{section} metric {metric!r} needs exactly {sorted(metric_keys)}")
                continue
            names.append(metric["name"])
            if not isinstance(metric["unit"], str) or not UNIT.fullmatch(metric["unit"]):
                errors.append(f"bad unit {metric['unit']!r} on {metric['name']!r}")
            if metric["better"] not in ("lower", "higher"):
                errors.append(f"{metric['name']!r}: better must be lower or higher")
            if section == "end_to_end":
                bound = metric["bound"]
                if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
                    errors.append(f"{metric['name']!r}: bound must be in (0, 0.25]")
    for name in names:
        if not isinstance(name, str) or not NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        errors.append(f"names used more than once: {duplicates}")
    setup = [m for m in doc["end_to_end"] if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif any(
        isinstance(m, dict) and m.get("bound", 0) > setup[0]["bound"] for m in doc["end_to_end"]
    ):
        errors.append("setup_s must carry the largest bound")
    return errors


@pytest.fixture(scope="module")
def definition() -> dict:
    assert BENCHMARK.stat().st_size <= 64 * 1024
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def test_committed_benchmark_definition_is_valid(definition):
    assert validate(definition) == []


def test_paths_hold_only_regular_files(definition):
    for path in definition["paths"]:
        for entry in (HERE.parent / path).rglob("*"):
            if "__pycache__" in entry.parts:
                continue
            assert not entry.is_symlink(), entry
            assert entry.is_dir() or entry.is_file(), entry


def test_run_reports_exactly_the_declared_metrics(definition):
    assert {w["name"] for w in definition["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in definition["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in definition["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize(
    "name",
    ["", "_leading", ".dot", "has space", "x" * 65, "slash/inside", "café"],
)
def test_bad_metric_names_are_rejected(definition, name):
    doc = json.loads(json.dumps(definition))
    doc["per_layer"][0]["name"] = name
    assert any("bad name" in error for error in validate(doc))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["end_to_end"][1].update(bound=0.3), "bound"),
        (lambda d: d["end_to_end"][1].update(unit="milliseconds!"), "bad unit"),
        (lambda d: d["per_layer"].append(dict(d["per_layer"][0])), "more than once"),
        (lambda d: d["end_to_end"].pop(0), "setup_s"),
        (lambda d: d.update(run_seconds=61), "run_seconds"),
        (lambda d: d.update(command=["python3", "/abs/run.py"]), "leaves"),
        (lambda d: d["workloads"][0].update(why="two\nlines"), "one line"),
        (lambda d: d.update(extra=1), "keys"),
    ],
)
def test_shape_violations_are_rejected(definition, mutate, message):
    doc = json.loads(json.dumps(definition))
    mutate(doc)
    assert any(message in error for error in validate(doc))
