"""Supervised multi-process serving: respawn, budget, backoff, status.

``repro serve --workers N`` runs under :class:`ServeSupervisor`, which
makes the serving plane survive its workers:

- ``N`` worker processes each run a single-process server bound to the
  shared port with ``SO_REUSEPORT`` (the kernel load-balances
  connections across them);
- the supervisor polls its children; a crashed worker (segfault, OOM
  kill, SIGKILL) is **respawned** after an exponential backoff, under
  a per-worker **restart budget** — a worker that keeps dying is
  abandoned rather than flapped forever;
- supervisor state (alive workers, restarts, start failures, abandoned
  workers, degraded flag) is published atomically to
  ``ROOT/.supervisor.json``; every worker's ``/v1/metrics`` surfaces it
  as the ``supervisor`` block and folds the degraded flag into its own
  — worker-failure reporting is *counters*, not stdout;
- SIGINT unwinds the whole tree cleanly: the supervisor forwards it,
  joins the workers, removes the status file, and exits 0.

The supervisor returns 1 only when every worker has exhausted its
restart budget — a degraded-but-answering service keeps running.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import signal
import socket
import sys
import tempfile
import time

from repro.service.http import SERVICE_NAME, SUPERVISOR_STATUS
from repro.service.server import create_server

__all__ = ["ServeSupervisor"]

#: worker exit code for "could not even start the server".
START_FAILED = 13

SUPERVISOR_SCHEMA = "repro-supervisor/1"

#: restarts a worker may use before it is abandoned.
RESTART_BUDGET = 5
#: respawn backoff: BACKOFF_BASE_S doubling per restart, capped at
#: BACKOFF_MAX_S.
BACKOFF_BASE_S = 0.25
BACKOFF_MAX_S = 5.0
#: seconds between supervision passes.
POLL_INTERVAL_S = 0.1


def _worker_main(config: dict, index: int) -> None:
    """One serving worker: a single-process server on the shared port.

    Cold-starts its own :class:`ServiceState` from the multi-reader-safe
    artifact store and polls ``CURRENT`` for hot swaps on its own.
    Start failures exit with :data:`START_FAILED` so the supervisor can
    count them apart from crashes; SIGINT/SIGTERM exit cleanly.
    """
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    # Every worker appends to the shared access log (O_APPEND + one
    # flushed line per request keeps lines whole), but traces split per
    # worker: a JSON event array cannot be interleaved across writers.
    if config["trace_path"]:
        config = {**config, "trace_path": f"{config['trace_path']}.w{index}"}
    try:
        server = create_server(**config, reuse_port=True)
    except Exception:
        sys.exit(START_FAILED)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


class ServeSupervisor:
    """Spawn, watch, respawn and report on serving workers."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 2,
        version: str | None = None,
        reload_interval: float = 1.0,
        access_log: str | os.PathLike[str] | None = None,
        trace_path: str | os.PathLike[str] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.root = pathlib.Path(root)
        self.host = host
        self.port = int(port)
        self.workers = int(workers)
        #: create_server's keyword options, passed to every worker.
        self._server_options = {
            "version": version,
            "reload_interval": float(reload_interval),
            "access_log": os.fspath(access_log) if access_log is not None else None,
            "trace_path": os.fspath(trace_path) if trace_path is not None else None,
        }
        self._procs: list[multiprocessing.Process | None] = [None] * self.workers
        self._restarts = [0] * self.workers
        self._respawn_at = [0.0] * self.workers
        self._abandoned: set[int] = set()
        self.start_failures = 0
        self._placeholder: socket.socket | None = None

    # -- status drop-box -----------------------------------------------------

    def status(self) -> dict:
        alive = sum(
            1 for proc in self._procs if proc is not None and proc.is_alive()
        )
        return {
            "schema": SUPERVISOR_SCHEMA,
            "workers": self.workers,
            "alive": alive,
            "restarts": sum(self._restarts),
            "restart_budget": RESTART_BUDGET,
            "start_failures": self.start_failures,
            "abandoned_workers": sorted(self._abandoned),
            "degraded": bool(self._abandoned),
            "updated": time.time(),
        }

    def _write_status(self) -> None:
        """Atomically publish :meth:`status` for workers' ``/v1/metrics``."""
        try:
            payload = json.dumps(self.status(), indent=1)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=SUPERVISOR_STATUS, suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, self.root / SUPERVISOR_STATUS)
        except OSError:
            pass  # status is best-effort; never take the service down for it

    # -- lifecycle -----------------------------------------------------------

    def _config(self) -> dict:
        """:func:`create_server`'s arguments for a worker (the port is
        fixed once :meth:`run` has reserved it)."""
        return {
            "root": os.fspath(self.root),
            "host": self.host,
            "port": self.port,
            **self._server_options,
        }

    def _spawn(self, index: int) -> None:
        proc = multiprocessing.Process(
            target=_worker_main,
            args=(self._config(), index),
            name=f"repro-serve-{index}",
            daemon=True,
        )
        proc.start()
        self._procs[index] = proc

    def _poll_once(self) -> None:
        """One supervision pass: reap, schedule, respawn."""
        now = time.monotonic()
        changed = False
        for index, proc in enumerate(self._procs):
            if index in self._abandoned:
                continue
            if proc is not None:
                if proc.is_alive():
                    continue
                # reap the corpse and decide what its death costs
                exitcode = proc.exitcode
                proc.join(timeout=0)
                self._procs[index] = None
                changed = True
                if exitcode == START_FAILED:
                    self.start_failures += 1
                self._restarts[index] += 1
                if self._restarts[index] > RESTART_BUDGET:
                    self._abandoned.add(index)
                    continue
                backoff = BACKOFF_BASE_S * 2 ** (self._restarts[index] - 1)
                self._respawn_at[index] = now + min(BACKOFF_MAX_S, backoff)
            if self._procs[index] is None and now >= self._respawn_at[index]:
                self._spawn(index)
                changed = True
        if changed:
            self._write_status()

    def _shutdown(self) -> None:
        for proc in self._procs:
            if proc is not None and proc.is_alive() and proc.pid:
                try:
                    os.kill(proc.pid, signal.SIGINT)
                except OSError:
                    pass
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
        (self.root / SUPERVISOR_STATUS).unlink(missing_ok=True)
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    def run(self) -> int:
        """Serve until interrupted; 0 on clean shutdown, 1 when every
        worker exhausted its restart budget."""
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ValueError(
                "multi-process serving needs SO_REUSEPORT (Linux/BSD); "
                "run with --workers 1 on this platform"
            )
        if self.port == 0:
            # Reserve an ephemeral port every worker can share.  The
            # placeholder stays bound but never listens, so it joins no
            # load-balancing group — it only keeps the number stable.
            self._placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            self._placeholder.bind((self.host, 0))
            self.port = self._placeholder.getsockname()[1]
        print(
            f"[serve] {SERVICE_NAME} on http://{self.host}:{self.port} — "
            f"{self.workers} supervised workers (SO_REUSEPORT, "
            f"restart budget {RESTART_BUDGET}) over {self.root}",
            flush=True,
        )
        for index in range(self.workers):
            self._spawn(index)
        self._write_status()
        try:
            while True:
                self._poll_once()
                if len(self._abandoned) >= self.workers:
                    self._write_status()
                    return 1
                time.sleep(POLL_INTERVAL_S)
        except KeyboardInterrupt:
            pass
        finally:
            self._shutdown()
        return 0
