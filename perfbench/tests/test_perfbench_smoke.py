"""Each workload end to end at a tiny size, through the real command."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: 536 CVEs; seeds 1-3 have committed expectations at this size.
SMOKE_SCALE = "0.005"


def _run(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    done = _run(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--scale", SMOKE_SCALE,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("run record: "))[12:])
    assert record.get("expectation_checked") or record["store"]["expectation_checked"]
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_end_to_end_metric(workload):
    result = _result(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, layers",
    [
        ("clean", ("core.severity.fit.cnn_s", "ml.nn.adam.steps", "clean.self_s")),
        ("serve-connect", ("service.transport_us", "service.handle_us", "artifacts.load_s")),
        ("ingest", ("artifacts.export_s", "artifacts.load_s", "artifacts.bytes_written")),
    ],
)
def test_traced_run_reports_every_layer(workload, layers):
    result = _result(workload, trace=1)
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.PER_LAYER
    for layer in layers:
        assert result["metrics"][layer]["value"] > 0, layer


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "clean", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
