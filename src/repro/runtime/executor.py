"""The pluggable execution runtime.

An :class:`Executor` maps a function over a list of work items and
returns the results **in input order**.  Three backends implement the
same contract:

- ``serial`` — a plain loop in the calling thread (the reference
  semantics every other backend must reproduce);
- ``thread`` — a :class:`concurrent.futures.ThreadPoolExecutor`; wins
  when the work releases the GIL (numpy GEMMs, BLAS kernels) or blocks
  on I/O (live crawls);
- ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`;
  wins for pure-Python CPU work (pair scoring, page parsing) at the
  cost of pickling the work items.

Every executor owns a :class:`repro.runtime.context.WorkerContext` —
the shared-state plane.  Callers ``publish()`` large read-only objects
(corpus, crawl cache, lookup indices, model weights) into the context
and pass :class:`SharedHandle`\\ s in their tasks; the process backend
ships the published set to each worker process exactly once, through
the pool initializer, and respawns the pool when the published set
changes.  The serial/thread backends resolve handles to direct
references, so publishing there is free.

Determinism contract: callers shard work into chunks whose boundaries
depend only on a fixed chunk size (never on the worker count) via
:func:`chunked`, and reduce the mapped results in input order.  Because
each chunk is computed by identical code on identical inputs and the
reduction order is fixed, ``thread`` and ``process`` runs are
*bit-equivalent* to ``serial`` runs — the property
``tests/test_perf_equivalence.py`` pins.

Backend and worker count resolve from (in priority order) explicit
arguments, the ``REPRO_WORKERS`` / ``REPRO_BACKEND`` environment
variables, and the serial single-worker default.

Perf counters (recorded on the default :mod:`repro.perf` recorder, so
``tools/bench.py`` picks them up):

- ``runtime.publish_bytes`` — pickled bytes of published state shipped
  across worker spawns (blob size × workers per spawn event);
- ``runtime.publish_shipments`` — object→worker deliveries;
- ``runtime.worker_spawns`` — worker processes spawned;
- ``runtime.publishes_per_worker`` — how often each worker receives
  each published object: always 1, because shipping happens only in
  the per-process pool initializer;
- ``runtime.task_payload_bytes`` / ``runtime.tasks`` — pickled bytes
  and count of per-task payloads on process maps (handles + shards,
  now that the fat state rides in the context);
- ``runtime.deltas_merged`` — worker recorder deltas folded back into
  the parent recorder (one per pooled process task).

Worker-side telemetry: process workers record onto their *own* default
recorder, which the parent can't see.  :class:`ProcessExecutor` wraps
every pooled task in :class:`_ShippedTask`, which snapshots the worker
recorder before running the task and ships the delta — counters, phase
seconds, spans — back alongside the result.  The parent merges deltas
in input (task) order with sorted-name inner order, so counter totals
are identical across serial/thread/process backends and worker-side
counters like ``dates.fetch_retried`` are no longer silently lost.
When the parent recorder has an active trace, the wrapper also opens a
per-task span in the worker (same trace id, parented to the span open
at map time), giving traces one lane per worker pid.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import os
import pickle
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro import faults, perf
from repro.runtime.context import SharedHandle, WorkerContext, _install_worker_state

__all__ = [
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "chunked",
    "make_executor",
    "map_published",
    "map_shards",
    "resolve_backend",
    "resolve_workers",
]

T = TypeVar("T")
R = TypeVar("R")

BACKENDS = ("serial", "thread", "process")


def resolve_workers(workers: int | None = None) -> int:
    """The effective worker count.

    Explicit ``workers`` wins; otherwise ``REPRO_WORKERS``; otherwise 1.
    Values must be positive integers — a typo fails loudly, mirroring
    ``repro.experiments.scale()``.
    """
    raw: int | str | None = workers
    if raw is None:
        raw = os.environ.get("REPRO_WORKERS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"worker count must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"worker count must be >= 1, got {value}")
    return value


def resolve_backend(backend: str | None = None, workers: int = 1) -> str:
    """The effective backend name.

    Explicit ``backend`` wins; otherwise ``REPRO_BACKEND``; otherwise
    ``serial`` for one worker and ``thread`` for several (numpy releases
    the GIL in the GEMM-bound phases, and threads avoid pickling).
    """
    raw = backend or os.environ.get("REPRO_BACKEND")
    if raw is None:
        return "serial" if workers <= 1 else "thread"
    raw = raw.strip().lower()
    if raw not in BACKENDS:
        raise ValueError(
            f"unknown executor backend {raw!r}; expected one of {BACKENDS}"
        )
    return raw


def chunked(items: Sequence[T], chunk_size: int) -> list[Sequence[T]]:
    """Split ``items`` into consecutive chunks of ``chunk_size``.

    Chunk boundaries depend only on ``chunk_size`` — never on the
    worker count — so parallel maps reduce in the same order with the
    same partial shapes as a serial run (the bit-equivalence contract).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]


def map_shards(
    executor: "Executor | None",
    fn: Callable[[Sequence[T]], R],
    items: Sequence[T],
    chunk_size: int,
) -> list[R]:
    """Map a shard-worker over fixed-size shards of ``items``.

    The one place the determinism contract lives: shards come from
    :func:`chunked` (boundaries fixed by ``chunk_size`` alone) and
    results return in shard order, so callers that reduce them in
    order get identical bytes from every backend.  With no executor, a
    single-worker executor, or work that fits one shard, ``fn`` runs
    inline on ``items`` whole — the same code path a parallel run
    shards, just unsplit.
    """
    if executor is None or executor.workers <= 1 or len(items) <= chunk_size:
        return [fn(items)]
    return executor.map(fn, chunked(items, chunk_size))


def map_published(
    executor: "Executor | None",
    fn: Callable[[tuple[SharedHandle, Sequence[T]]], R],
    name: str,
    shared: Any,
    items: Sequence[T],
    chunk_size: int,
) -> list[R]:
    """Publish ``shared`` once, map ``fn`` over ``(handle, shard)`` tasks.

    The shared-state counterpart of :func:`map_shards`, with the same
    determinism contract: shard boundaries come from :func:`chunked`
    and results return in shard order.  ``shared`` is published under
    ``name`` on the executor's context for the duration of the map —
    shipped once per process worker, a direct reference everywhere
    else — and retired afterwards so later pool spawns stop carrying
    it.  With no executor, one worker, or a single shard, ``fn`` runs
    inline on ``items`` whole through a private context: the identical
    worker code path, just unsplit.
    """
    if executor is None:
        context = WorkerContext()  # kept alive by this frame while fn runs
        return [fn((context.publish(name, shared), items))]
    context = executor.context
    handle = context.publish(name, shared)
    try:
        if executor.workers <= 1 or len(items) <= chunk_size:
            return [fn((handle, items))]
        return executor.map(
            fn, [(handle, shard) for shard in chunked(items, chunk_size)]
        )
    finally:
        context.retire(name)


class Executor:
    """Maps a function over work items, preserving input order."""

    #: backend name, one of :data:`BACKENDS`.
    backend: str = "serial"

    def __init__(self, workers: int = 1, context: WorkerContext | None = None) -> None:
        self.workers = max(1, int(workers))
        self._context = context

    @property
    def context(self) -> WorkerContext:
        """The executor's shared-state plane (created lazily)."""
        if self._context is None:
            self._context = WorkerContext()
        return self._context

    def publish(self, name: str, obj: Any) -> SharedHandle:
        """Shorthand for ``executor.context.publish(name, obj)``."""
        return self.context.publish(name, obj)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """``[fn(item) for item in items]`` — possibly in parallel.

        Results always come back in input order; single-item and
        single-worker maps run inline in the calling thread so the
        fast path costs nothing over a plain loop.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def close(self) -> None:
        """Release pooled workers (no-op for the serial backend).

        Idempotent, and not terminal: a later map re-spawns the pool,
        so eager close() calls are always safe.
        """

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """The reference backend: a plain in-thread loop."""

    backend = "serial"

    def __init__(self, workers: int = 1, context: WorkerContext | None = None) -> None:
        super().__init__(1, context)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]


class _PooledExecutor(Executor):
    """Shared lazy-pool plumbing for the thread and process backends."""

    def __init__(self, workers: int = 2, context: WorkerContext | None = None) -> None:
        super().__init__(workers, context)
        self._pool: concurrent.futures.Executor | None = None

    def _make_pool(self) -> concurrent.futures.Executor:
        raise NotImplementedError  # pragma: no cover - abstract

    def _before_map(self, fn: Callable[[T], R], items: Sequence[T]) -> None:
        """Backend hook, called only when the map will use the pool."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        self._before_map(fn, items)
        if self._pool is None:
            self._pool = self._make_pool()
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadExecutor(_PooledExecutor):
    """Thread-pool backend — for GIL-releasing or blocking work.

    Shared-state handles resolve to direct references here (workers
    live in the publishing process), so publishing costs nothing and
    unpicklable objects remain usable.
    """

    backend = "thread"

    def _make_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-worker"
        )


class _ShippedTask:
    """Wraps a pooled process task to ship its telemetry delta home.

    Runs in the worker: snapshots the worker-local recorder, runs the
    wrapped function, and returns ``(result, RecorderDelta)`` so the
    parent can merge what the task recorded (counters, phase seconds,
    spans) in fixed task order.  When the parent was tracing at map
    time, the worker joins the same trace and the task itself becomes a
    span (named after the callable, parented to the parent's open
    span), so traces grow one lane per worker pid.
    """

    __slots__ = ("fn", "parent_span_id", "task_name", "trace_id")

    def __init__(self, fn: Callable[..., Any], trace_id: str | None, parent_span_id: str | None) -> None:
        self.fn = fn
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.task_name = getattr(fn, "__name__", None) or type(fn).__name__

    def __call__(self, item: Any) -> tuple[Any, perf.RecorderDelta]:
        if isinstance(item, _ExitWorker):
            os._exit(1)
        recorder = perf.get_recorder()
        recorder.reset_after_fork()
        recorder.adopt_trace(self.trace_id, self.parent_span_id)
        mark = recorder.mark()
        if self.trace_id is not None:
            with recorder.phase(self.task_name):
                result = self.fn(item)
        else:
            result = self.fn(item)
        return result, recorder.delta_since(mark)


class ProcessExecutor(_PooledExecutor):
    """Process-pool backend — for pure-Python CPU-bound work.

    The mapped function and its items must be picklable (module-level
    functions over plain data); large read-only state should be
    ``publish()``\\ ed on the executor's context instead of captured in
    closures — the pool initializer installs the published set into
    each worker process exactly once, at spawn, and per-task payloads
    carry only handles and shards.

    When something is *published* after the pool spawned (a later
    phase publishing its state), the pool respawns before the next
    parallel map so workers always hold every live object; each worker
    process still receives each object once.  A *retire* alone keeps
    the pool — workers then hold a superset of the live set, which no
    task may reference anyway — counted by
    ``runtime.pool_respawns_avoided``, so repeated publish→map→retire
    cycles (one ``fit`` per model) pay one spawn, not one per cycle.
    Worker processes spawn lazily on the first parallel map and are
    reused until :meth:`close`.

    A worker dying mid-map (OOM kill, segfault, or the injected
    ``worker:kill`` fault) breaks the whole pool —
    :class:`concurrent.futures.process.BrokenProcessPool` — and every
    queued task with it.  :meth:`map` recovers: the broken pool is
    discarded, a fresh one respawns (re-shipping the published set
    through the initializer), and the map retries from the top.  Task
    shards are pure functions of their inputs, so a retried map returns
    exactly what the unbroken map would have.  Retries are bounded
    (``runtime.pool_respawns`` counts them); a pool that keeps dying
    finally re-raises.
    """

    backend = "process"

    #: map attempts across pool deaths (first try + respawned retries).
    MAP_ATTEMPTS = 3

    def __init__(self, workers: int = 2, context: WorkerContext | None = None) -> None:
        super().__init__(workers, context)
        self._pool_generation = -1
        self._pool_publish_generation = -1

    def _make_pool(self) -> concurrent.futures.Executor:
        context = self.context
        initializer = None
        initargs: tuple[Any, ...] = ()
        if len(context):
            blob = context.payload_blob()  # ValueError names unpicklable objects
            initializer = _install_worker_state
            initargs = (context.context_id, blob)
            perf.add_counter("runtime.publish_bytes", len(blob) * self.workers)
            perf.add_counter(
                "runtime.publish_shipments", len(context) * self.workers
            )
            # Shipping happens only in the per-process initializer, so
            # by construction every worker receives every published
            # object exactly once — the counter pins the contract.
            perf.get_recorder().set_counter("runtime.publishes_per_worker", 1)
        perf.add_counter("runtime.worker_spawns", self.workers)
        self._pool_generation = context.generation
        self._pool_publish_generation = context.publish_generation
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers, initializer=initializer, initargs=initargs
        )

    def worker_pids(self) -> list[int]:
        """PIDs of live pool workers (empty before the pool spawns).

        Best-effort introspection for owners that need to signal their
        workers — e.g. the multi-process serving front end forwarding
        SIGINT on shutdown.
        """
        if self._pool is None:
            return []
        processes = getattr(self._pool, "_processes", None) or {}
        return [
            process.pid
            for process in processes.values()
            if process.pid is not None and process.is_alive()
        ]

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        recorder = perf.get_recorder()
        shipped = _ShippedTask(fn, recorder.trace_id, recorder.current_span_id())
        self._before_map(shipped, items)
        for attempt in range(self.MAP_ATTEMPTS):
            if self._pool is None:
                self._pool = self._make_pool()
            attempt_items: Sequence[Any] = items
            # The ``worker:kill`` fault is consulted parent-side, so a
            # count-mode plan (``worker:kill=1``) fires globally once;
            # the worker that runs the tagged first task exits, which
            # is certain to break the pool.
            if faults.should("worker", "kill", token="process-pool"):
                attempt_items = [_ExitWorker(), *items[1:]]
            try:
                raw = list(self._pool.map(shipped, attempt_items))
            except concurrent.futures.process.BrokenProcessPool:
                perf.add_counter("runtime.pool_respawns", 1)
                self.close()  # discard the broken pool; retry respawns
                if attempt + 1 >= self.MAP_ATTEMPTS:
                    raise
                continue
            # A broken map raises before any delta merges, so a retried
            # map merges each task's telemetry exactly once.
            results: list[R] = []
            for result, delta in raw:
                recorder.merge_delta(delta)
                results.append(result)
            perf.add_counter("runtime.deltas_merged", len(raw))
            return results
        raise AssertionError("unreachable")  # pragma: no cover

    def _before_map(self, fn: Callable[[T], R], items: Sequence[T]) -> None:
        if self._pool is not None and self._pool_generation != self.context.generation:
            if self._pool_publish_generation != self.context.publish_generation:
                self.close()  # missing published state: respawn ships it
            else:
                # Only retires since this pool spawned — workers hold a
                # superset of the live set, which no task may reference
                # anyway.  Keeping the pool saves a full worker respawn
                # per publish→map→retire cycle (one fit per model).
                perf.add_counter("runtime.pool_respawns_avoided", 1)
                self._pool_generation = self.context.generation
        # Measuring doubles the item pickling and adds one fn pickle per
        # map — bounded by 1/len(items) of the pool's own fn shipping,
        # and cheap in absolute terms now that tasks carry handles plus
        # shards instead of the published state.  It also doubles as
        # the early picklability check behind the clear error below.
        try:
            fn_bytes = len(pickle.dumps(fn, pickle.HIGHEST_PROTOCOL))
            item_bytes = sum(
                len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL)) for item in items
            )
        except Exception as error:
            raise ValueError(
                "cannot ship work to process workers: the mapped function or "
                f"a task is not picklable ({error}); publish() shared state "
                "on the executor context and pass handles, use module-level "
                "worker functions, or pick the thread backend"
            ) from error
        perf.add_counter(
            "runtime.task_payload_bytes", fn_bytes * len(items) + item_bytes
        )
        perf.add_counter("runtime.tasks", len(items))


class _ExitWorker:
    """Task item whose worker exits (the ``worker:kill`` fault's teeth)."""


_BACKEND_CLASSES: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def make_executor(
    workers: int | None = None,
    backend: str | None = None,
    context: WorkerContext | None = None,
) -> Executor:
    """Build the configured executor.

    ``workers`` / ``backend`` default through ``REPRO_WORKERS`` /
    ``REPRO_BACKEND`` (see :func:`resolve_workers` and
    :func:`resolve_backend`).  ``make_executor()`` with no arguments and
    no environment overrides returns the serial reference backend.  A
    ``context`` lets callers share one worker context across executors.
    """
    count = resolve_workers(workers)
    name = resolve_backend(backend, count)
    return _BACKEND_CLASSES[name](count, context)
