#!/usr/bin/env python
"""Chaos harness: the full pipeline under an injected fault plan.

Runs crawl→clean→export→ingest→serve twice — once fault-free, once
under a seeded :mod:`repro.faults` plan — and asserts the robustness
contract the fault plane promises:

- **no unhandled exception** anywhere in the faulted flow (any escape
  fails the harness with a traceback and a nonzero exit);
- **the store stays loadable** after every write phase, including the
  one whose export was torn mid-publish;
- **the service keeps answering** — every probe of the faulted server
  returns HTTP 200, and with ``serve.worker:kill`` in the plan a
  supervised ``repro serve --workers 2`` subprocess must respawn the
  killed worker and still shut down cleanly on SIGINT;
- **the telemetry plane stays honest** — both flows' ``/metrics``
  payloads pass the :mod:`check_metrics` exposition lint, and
  ``--trace`` writes a Perfetto-loadable span trace of each flow even
  when faults fire mid-phase;
- **the final output is bit-identical** to the fault-free run: every
  file of the ``CURRENT`` artifact version matches byte-for-byte after
  decompression (``manifest.json`` is excluded — version numbers shift
  when torn directories consume them, and npz/gzip containers embed
  write times).

Usage::

    PYTHONPATH=src python tools/chaos.py --scale 0.02 --seed 7
    PYTHONPATH=src python tools/chaos.py --plan "web.fetch:error=0.3" --keep
    PYTHONPATH=src python tools/chaos.py --scenario chaos-names

Everything is seeded; the same arguments produce the same faults at
the same points, which is what makes the bit-identical assertion a
hard guarantee instead of a lucky draw.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from make_delta_feed import build_delta  # noqa: E402 (tools/ sibling)

import check_metrics  # noqa: E402 (tools/ sibling)

#: Default plan: flaky web fetches, one torn artifact publish, one
#: failed hot-reload, one killed serve worker.
DEFAULT_PLAN = (
    "web.fetch:error=0.2;store.write:torn=1;serve.reload:error=1;"
    "serve.worker:kill=1"
)

#: The paper's snapshot is 107.2K CVEs; --scale multiplies it.
FULL_SCALE_CVES = 107_200


def log(message: str) -> None:
    print(f"[chaos] {message}", flush=True)


def http_get(url: str, timeout: float = 10.0) -> tuple[int, dict]:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def http_get_text(url: str, timeout: float = 10.0) -> tuple[int, str, str]:
    """(status, content type, body) for a plain-text endpoint."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def http_get_retry(url: str, deadline_s: float = 30.0) -> tuple[int, dict]:
    """``http_get`` with retries — for workers still cold-starting."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            return http_get(url)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


# ---------------------------------------------------------------------------
# One pipeline flow (fault-free or faulted, depending on the plan).
# ---------------------------------------------------------------------------


def run_flow(
    workdir: pathlib.Path,
    *,
    plan_text: str | None,
    seed: int,
    n_cves: int,
    epochs: int,
    scenario_name: str = "baseline",
    trace_path: str | None = None,
) -> dict:
    """crawl→clean→export→pool→ingest→serve under ``plan_text``.

    Returns a summary dict (store path, CURRENT version, probe and
    fault tallies).  Every phase asserts its own invariant; an
    unhandled exception from any layer fails the harness.
    """
    from repro import faults
    from repro.artifacts import load_artifacts, read_current
    from repro.core import (
        EngineConfig,
        clean,
        from_ground_truth,
        product_oracle_from_truth,
    )
    from repro.nvd import load_feed
    from repro.obs import trace_session
    from repro.service import create_server
    from repro.synth import generate, get_scenario

    scenario = get_scenario(scenario_name)
    label = "faulted" if plan_text else "baseline"
    if plan_text:
        faults.install(faults.FaultPlan.parse(plan_text, seed=seed))
    else:
        faults.clear()

    store = workdir / "store"
    cache_path = workdir / "crawl_cache.json"
    summary: dict = {"label": label, "store": store}

    # Span tracing must survive the fault plan: the trace file is written
    # on ExitStack close even when a phase below raises.
    trace = contextlib.ExitStack()
    if trace_path:
        trace.enter_context(trace_session(trace_path))
    try:
        # -- generate + crawl + clean + export ---------------------------
        config = scenario.generator_config(n_cves, seed)
        bundle = generate(config)
        log(f"{label}: cleaning {config.n_cves} CVEs (scenario {scenario.name})")
        rectified = clean(
            bundle.snapshot,
            bundle.web,
            from_ground_truth(bundle.truth.vendor_map),
            product_oracle_from_truth(bundle.truth.product_map),
            engine_config=EngineConfig(models=("lr",), epochs=epochs),
            crawl_cache=str(cache_path),
        )
        version = rectified.export_artifacts(store)
        load_artifacts(store)  # store must be loadable right after export
        log(f"{label}: exported {version}, store loadable")

        # -- serve, then ingest while live: the hot swap (and the
        # injected reload failure) happens under the server's feet ------
        server = create_server(store, port=0, reload_interval=0.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            base_url = f"http://{host}:{port}"
            status, _ = http_get(base_url + "/healthz")
            assert status == 200, f"/healthz answered {status}"

            base_entries = load_feed(
                store / read_current(store) / "snapshot.json.gz"
            )
            delta = build_delta(base_entries, n_new=20, n_mutate=10, seed=seed)
            from repro.artifacts import ingest_delta

            result = ingest_delta(store, delta, crawl_cache=str(cache_path))
            load_artifacts(store)
            log(f"{label}: ingested {result.n_delta} → {result.version}")

            # Every probe must answer 200 throughout the swap window; a
            # failed reload costs a retry on the next request, never an
            # error response.  The service must land on the new version.
            served = None
            for _ in range(10):
                status, payload = http_get(base_url + "/healthz")
                assert status == 200, f"/healthz answered {status}"
                served = payload["version"]
                if served == result.version:
                    break
            assert served == result.version, (
                f"service never swapped to {result.version} (stuck on {served})"
            )
            for path in ("/v1/stats", "/v1/metrics"):
                status, payload = http_get(base_url + path)
                assert status == 200, f"{path} answered {status}"
            summary["metrics"] = payload

            # The Prometheus plane must stay lintable under faults too.
            status, content_type, text = http_get_text(base_url + "/metrics")
            assert status == 200, f"/metrics answered {status}"
            assert "version=0.0.4" in content_type, (
                f"/metrics content type {content_type!r} is not exposition "
                f"format 0.0.4"
            )
            lint_errors = check_metrics.lint_exposition(text)
            assert not lint_errors, (
                f"/metrics failed the exposition lint: {lint_errors}"
            )
            summary["prometheus_families"] = summarized = (
                check_metrics.summarize_exposition(text)
            )
            log(
                f"{label}: /metrics lint clean "
                f"({summarized[0]} families, {summarized[1]} samples)"
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        log(f"{label}: service answered every probe and swapped versions")

        summary["current"] = read_current(store)
        if plan_text:
            plan = faults.active()
            summary["fired"] = {
                f"{site}:{kind}": plan.fired(site, kind)
                for site, kind in plan.specs
            }
    finally:
        trace.close()
        faults.clear()
    return summary


# ---------------------------------------------------------------------------
# Supervised serving under serve.worker:kill (subprocess, own env plan).
# ---------------------------------------------------------------------------


def run_supervised_serve(store: pathlib.Path, seed: int, timeout: float = 60.0) -> None:
    """``repro serve --workers 2`` must survive a SIGKILLed worker.

    Waits for the supervisor's status drop-box to report the respawn,
    probes the (still answering) service, then SIGINTs the tree and
    requires a clean exit.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_FAULTS"] = "serve.worker:kill=1"
    env["REPRO_FAULTS_SEED"] = str(seed)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--artifacts", str(store), "--workers", "2", "--port", "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    status_path = store / ".supervisor.json"
    port = None
    try:
        banner = process.stdout.readline()
        assert "[serve]" in banner, f"unexpected banner: {banner!r}"
        port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + timeout
        restarts = 0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise AssertionError(
                    f"supervisor died early (rc={process.returncode})"
                )
            try:
                status = json.loads(status_path.read_text(encoding="utf-8"))
                restarts = int(status.get("restarts", 0))
            except (OSError, ValueError):
                pass  # not written yet / mid-replace
            if restarts >= 1:
                break
            time.sleep(0.1)
        assert restarts >= 1, "supervisor never respawned the killed worker"
        status_code, payload = http_get_retry(f"http://127.0.0.1:{port}/healthz")
        assert status_code == 200, "service stopped answering after respawn"
        log(
            f"supervised serve: worker killed and respawned "
            f"(restarts={restarts}), still answering on :{port}"
        )
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            output, _ = process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            output, _ = process.communicate()
            raise AssertionError("supervisor ignored SIGINT")
    assert process.returncode == 0, (
        f"supervisor exited {process.returncode}; output:\n{output}"
    )


# ---------------------------------------------------------------------------
# Output equivalence.
# ---------------------------------------------------------------------------


def _normalized(path: pathlib.Path) -> object:
    """File content with container noise (gzip mtime, npz zip dates)
    stripped, so equality means the *data* is bit-identical."""
    if path.name.endswith(".json.gz"):
        with gzip.open(path, "rb") as handle:
            return handle.read()
    if path.suffix == ".npz":
        import numpy as np

        with np.load(path) as archive:
            return {name: archive[name].tobytes() for name in archive.files}
    return path.read_bytes()


def compare_current(baseline_store: pathlib.Path, faulted_store: pathlib.Path) -> int:
    """Assert the two CURRENT versions hold identical data; returns the
    number of files compared."""
    from repro.artifacts import read_current

    baseline_dir = baseline_store / read_current(baseline_store)
    faulted_dir = faulted_store / read_current(faulted_store)
    names = {
        str(path.relative_to(baseline_dir))
        for path in baseline_dir.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }
    other = {
        str(path.relative_to(faulted_dir))
        for path in faulted_dir.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }
    assert names == other, f"file sets differ: {sorted(names ^ other)}"
    for name in sorted(names):
        left = _normalized(baseline_dir / name)
        right = _normalized(faulted_dir / name)
        assert left == right, f"{name} differs between baseline and faulted run"
    return len(names)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="fraction of the paper's 107.2K-CVE snapshot (default: 0.02)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--scenario", default="baseline", metavar="NAME",
        help="generator scenario preset for both flows (default: baseline)",
    )
    parser.add_argument(
        "--plan", default=DEFAULT_PLAN,
        help=f"fault plan for the faulted run (default: {DEFAULT_PLAN!r})",
    )
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="PATH",
        help="write Chrome trace-event JSONs of both flows "
        "(PATH-baseline.json / PATH-faulted.json style suffixes)",
    )
    parser.add_argument(
        "--workdir", type=pathlib.Path, default=None,
        help="working directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--keep", action="store_true",
        help="keep the working directory for inspection",
    )
    args = parser.parse_args(argv)

    from repro.synth import ScenarioError, get_scenario

    try:
        get_scenario(args.scenario)
    except ScenarioError as error:
        parser.error(str(error))
    n_cves = max(300, int(FULL_SCALE_CVES * args.scale))

    workdir = args.workdir or pathlib.Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    def flow_trace(label: str) -> str | None:
        if args.trace is None:
            return None
        path = args.trace.with_name(
            f"{args.trace.stem}-{label}{args.trace.suffix or '.json'}"
        )
        log(f"{label}: tracing to {path}")
        return str(path)

    try:
        baseline = run_flow(
            workdir / "baseline",
            plan_text=None, seed=args.seed, n_cves=n_cves, epochs=args.epochs,
            scenario_name=args.scenario, trace_path=flow_trace("baseline"),
        )
        faulted = run_flow(
            workdir / "faulted",
            plan_text=args.plan, seed=args.seed, n_cves=n_cves, epochs=args.epochs,
            scenario_name=args.scenario, trace_path=flow_trace("faulted"),
        )
        fired = faulted.get("fired", {})
        log(f"faults fired: {fired}")
        assert any(fired.values()), (
            "the plan never fired; the chaos run degenerated to the baseline"
        )
        if fired.get("store.write:torn"):
            quarantine = faulted["store"] / ".quarantine"
            assert quarantine.exists() and any(quarantine.iterdir()), (
                "torn export fired but the recovery sweep quarantined nothing"
            )
            log("recovery sweep quarantined the torn version")
        if fired.get("serve.reload:error"):
            reload_failures = faulted["metrics"]["counters"].get("reload_failures", 0)
            assert reload_failures >= 1, (
                "reload fault fired but /v1/metrics reported no reload_failures"
            )
        n_files = compare_current(baseline["store"], faulted["store"])
        log(
            f"CURRENT ({baseline['current']} vs {faulted['current']}): "
            f"{n_files} files bit-identical"
        )
        if "serve.worker:kill" in args.plan:
            run_supervised_serve(faulted["store"], args.seed)
        log(f"PASS in {time.monotonic() - started:.1f}s (workdir: {workdir})")
        return 0
    finally:
        if not args.keep and args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
