"""Helpers shared by the workloads: statistics, process probes, run record."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import pathlib
import platform
import shutil
import statistics
import sys
import tempfile
import time
from collections.abc import Iterator, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOLS = ROOT / "tools"
#: scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".perfbench"

#: CVE count of the paper's NVD snapshot; every workload runs at a
#: fixed share of it.
PAPER_SCALE_CVES = 107_200
SCALE = 0.075

#: environment prefixes that change the program's behaviour or thread
#: policy.  The benchmark never sets them; it records any that are set.
RECORDED_ENV_PREFIXES = ("REPRO_", "OPENBLAS_", "OMP_")

#: a tail percentile is reported only when at least this many samples
#: lie beyond it.
TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


#: ``CleaningReport`` fields that do not depend on training, so a run
#: at any epoch count must reproduce the committed expectation.
CHECKED_REPORT_FIELDS = (
    "n_cves",
    "n_improved_dates",
    "n_vendor_names_impacted",
    "n_product_names_impacted",
    "n_v3_predicted",
    "n_cwe_fixed",
)
EXPECTATIONS = pathlib.Path(__file__).resolve().parent / "expectations.json"


def n_cves(scale: float) -> int:
    return max(200, int(PAPER_SCALE_CVES * scale))


def generator_config(seed: int, scale: float):
    """The ``baseline`` scenario's generator config for one workload seed."""
    from repro.synth import get_scenario

    return get_scenario("baseline").generator_config(n_cves(scale), seed)


def check_report(report: dict, seed: int, scale: float) -> tuple[list[str], bool]:
    """Mismatches between a cleaning report and the committed expectation
    for ``(seed, scale)``, and whether an expectation exists."""
    import json

    expected_runs = json.loads(EXPECTATIONS.read_text(encoding="utf-8"))
    expected = expected_runs.get(str(n_cves(scale)), {}).get(str(seed))
    if expected is None:
        return [], False
    problems = [
        f"report.{field} = {report.get(field)!r}, expected {expected[field]!r}"
        for field in CHECKED_REPORT_FIELDS
        if report.get(field) != expected[field]
    ]
    return problems, True


def scores_digest(scores: dict[str, float]) -> str:
    """A short digest of per-CVE predicted scores (changes when any
    prediction changes)."""
    import hashlib

    digest = hashlib.sha256()
    for cve_id in sorted(scores):
        digest.update(f"{cve_id}={scores[cve_id]!r};".encode("ascii"))
    return digest.hexdigest()[:16]


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10,000 at
    9,990 instead of a float's 9,990.000000000002."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly past the nearest-rank ``pct`` percentile."""
    return n - _rank(n, pct)


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """``(pct, value)`` for the highest candidate percentile that has at
    least :data:`TAIL_MIN_BEYOND` samples beyond it, or None."""
    ordered = sorted(values)
    for pct in TAIL_CANDIDATES:
        if beyond(len(ordered), pct) >= TAIL_MIN_BEYOND:
            return pct, percentile(ordered, pct)
    return None


def quartile_spread(values: Sequence[float]) -> float | None:
    """Inter-quartile distance as a share of the median (None below 2
    samples or at a zero median)."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def summary(values: Sequence[float]) -> dict:
    """Repeat count, median and spread of one metric's samples."""
    return {
        "n": len(values),
        "median": statistics.median(values) if values else None,
        "min": min(values) if values else None,
        "max": max(values) if values else None,
        "iqr_share": quartile_spread(values),
    }


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """utime + stime of a live process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # fields[0] is the state (field 3), so utime/stime (14/15) sit at 11/12.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git (None outside a
    repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = git / ref
            if ref_path.is_file():
                return ref_path.read_text(encoding="ascii").strip()
            packed = (git / "packed-refs").read_text(encoding="ascii")
            for line in packed.splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def environment_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith(RECORDED_ENV_PREFIXES)
        },
    }


def child_env() -> dict[str, str]:
    """Environment for program subprocesses: the caller's, plus the
    source tree on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def trace_path(workload: str, seed: int, role: str = "") -> pathlib.Path:
    """Where a traced run keeps its span file (kept after the run)."""
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return traces / f"{workload}-{seed}{'-' + role if role else ''}.json"


@contextlib.contextmanager
def workdir(prefix: str) -> Iterator[pathlib.Path]:
    """A private scratch directory under :data:`WORK`, removed on exit."""
    WORK.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Outcome:
    """Operations attempted and failed, with the first few failure notes.

    An operation fails when it raises, answers with an error, or its
    output check finds a mismatch; a failure never ends the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.extend(problems[: max(0, 20 - len(self.notes))])
        return not problems


@dataclasses.dataclass
class Measured:
    """What one workload run hands back to ``run.py``."""

    outcome: Outcome
    #: gated metrics (``BENCHMARK.json`` ``end_to_end``) by name.
    end_to_end: dict[str, float]
    #: traced-run metrics (``per_layer``) by name; missing ones are 0.
    per_layer: dict[str, float]
    #: everything else worth keeping: samples, checks, the metrics
    #: under their workload-specific names.
    record: dict
    #: the printed per-layer self-time table (traced runs only).
    table: list[str] = dataclasses.field(default_factory=list)


def measure_loop(seconds: float, op) -> list:
    """Call ``op()`` until ``seconds`` have passed (at least once);
    returns the results in order."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(op())
    return results


def log(message: str) -> None:
    print(f"[perfbench] {message}", flush=True)


def ensure_source_tree() -> None:
    """Exit with status 2 unless the program's sources are present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    for path in (SRC, TOOLS):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
