"""A process-pool executor with a serial in-process mode.

Python threads cannot parallelize the pairing arithmetic (the GIL), so
the engine uses processes.  The ``fork`` start method is preferred where
available: workers inherit the already-generated pairing presets and
loaded modules, making pool start-up tens of milliseconds instead of
seconds.  Each worker optionally runs an initializer once (decode the
public key, build precomputation tables); ``workers=1`` runs tasks
inline in the calling process — after the same initialization — so the
serial path exercises the exact kernel code the parallel path does.

Results are returned in task order regardless of scheduling
(:meth:`concurrent.futures.Executor.map` semantics) and chunking is a
deterministic function of the task count and worker count alone.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro import faulthook
from repro.errors import ParallelError
from repro.obs import collect as obs_collect
from repro.obs.metrics import MetricRegistry
from repro.obs.spans import span as _span, tracer as _tracer

#: Environment default for the worker count (CLI/System fall back to it).
ENV_WORKERS = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve an explicit worker count, falling back to ``REPRO_WORKERS``
    and then to 1 (serial)."""
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ParallelError(
                f"{ENV_WORKERS} must be an integer, got {raw!r}"
            )
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ParallelError(f"worker count must be an int, got {workers!r}")
    if workers < 1:
        raise ParallelError(f"worker count must be >= 1, got {workers}")
    return workers


def _warm_task(delay: float) -> int:
    """Occupy a worker long enough that warm-up tasks spread across the
    pool (spawning every process and running its initializer)."""
    time.sleep(delay)
    return os.getpid()


def _run_instrumented(shipment: Tuple[Callable[[Any], Any], Any, bool, bool]
                      ) -> Tuple[Any, float, Optional[dict]]:
    """Worker-side task shell: run one kernel, time it, capture telemetry.

    ``shipment = (fn, task, collect, kill)``.  The shell is what the
    executor actually maps: it measures the task's wall time in the
    *worker* (so ``par.task.seconds`` reflects kernel cost, not IPC), and
    when the parent dispatched with tracing enabled it records the task
    under a fresh child tracer whose spans and counter deltas ride back
    in the third tuple slot (see :mod:`repro.obs.collect`).  Results are
    passed through untouched — the byte-equivalence contract is
    unaffected.  A ``kill`` shipment (scheduled by the fault injector)
    dies with ``os._exit`` before running the kernel, exactly like an
    OOM-killed or segfaulted worker process.
    """
    fn, task, collect, kill = shipment
    if kill:
        os._exit(113)
    if not collect:
        start = time.perf_counter()
        result = fn(task)
        return result, time.perf_counter() - start, None
    capture = obs_collect.capture_task(getattr(fn, "__name__", "task"))
    with capture:
        result = fn(task)
    return result, capture.duration, capture.payload()


class WorkerPool:
    """Deterministic map over a process pool (or inline when serial).

    Metrics (``par.*`` namespace on ``registry``): ``par.workers`` (the
    configured count), ``par.dispatches`` (``run`` calls), ``par.tasks``
    (tasks executed), ``par.failures`` (dispatches that raised),
    ``par.respawns`` (pools rebuilt after a worker death — the dispatch
    is re-run once on the fresh pool before a failure poisons it), the
    ``par.task.seconds`` per-task latency histogram (measured inside the
    worker, so IPC and queueing are excluded), and the live-dispatch
    gauges ``par.queue.depth`` (tasks submitted but not yet holding a
    worker slot) and ``par.slots.occupied`` (slots presumed busy).

    Telemetry crosses the process boundary: when the global tracer is
    enabled at dispatch time, every task runs under a worker-side
    capture whose spans and counter deltas are merged back into this
    process (see :mod:`repro.obs.collect`), so a traced parallel run
    reports the same work a serial run does.

    The underlying executor is created lazily on first parallel ``run``
    and torn down by :meth:`close` (also on any task failure, so a
    poisoned pool is never reused; the next ``run`` starts a fresh one).
    """

    def __init__(self, workers: Optional[int] = None,
                 initializer: Optional[Callable[..., None]] = None,
                 initargs: Sequence[Any] = (),
                 inline_initializer: Optional[Callable[[], None]] = None,
                 registry: Optional[MetricRegistry] = None) -> None:
        self.workers = resolve_workers(workers)
        self.registry = registry if registry is not None else MetricRegistry()
        self._tasks = self.registry.counter("par.tasks")
        self._dispatches = self.registry.counter("par.dispatches")
        self._failures = self.registry.counter("par.failures")
        self._respawns = self.registry.counter("par.respawns")
        self._task_seconds = self.registry.histogram("par.task.seconds")
        self._pending = 0
        self.registry.gauge("par.workers", lambda: self.workers)
        self.registry.gauge("par.queue.depth",
                            lambda: max(0, self._pending - self.workers))
        self.registry.gauge("par.slots.occupied",
                            lambda: min(self._pending, self.workers))
        self._initializer = initializer
        self._initargs: Tuple[Any, ...] = tuple(initargs)
        self._inline_initializer = inline_initializer
        self._inline_ready = False
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- execution -----------------------------------------------------------

    def run(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every task, returning results in task order.

        ``fn`` must be a module-level (picklable) function of one task
        argument — see :mod:`repro.par.kernels`.  Any task exception
        propagates to the caller after the pool is shut down.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self._dispatches.add()
        self._tasks.add(len(tasks))
        kernel = getattr(fn, "__name__", "task")
        if self.workers == 1:
            self._ensure_inline()
            self._pending = len(tasks)
            results: List[Any] = []
            try:
                for task in tasks:
                    start = time.perf_counter()
                    with _span("par.task", kernel=kernel):
                        results.append(fn(task))
                    self._task_seconds.observe(time.perf_counter() - start)
                    self._pending -= 1
                return results
            except Exception:
                self._failures.add()
                raise
            finally:
                self._pending = 0
        collect = _tracer().enabled
        injector = faulthook.active()
        kill_index = (injector.take_worker_kill(len(tasks))
                      if injector is not None else None)
        try:
            try:
                gathered = self._gather(fn, tasks, collect, kill_index)
            except BrokenProcessPool:
                # A worker died mid-dispatch.  Kernels are deterministic,
                # side-effect-free functions of their task (the byte-
                # identity contract), so the whole dispatch is re-run
                # once on a fresh pool; telemetry from the partial run is
                # discarded to keep counters single-counted.
                self.close()
                self._respawns.add()
                try:
                    gathered = self._gather(fn, tasks, collect, None)
                except BrokenProcessPool as exc:
                    raise ParallelError(
                        "worker pool kept dying after one respawn"
                    ) from exc
            results = []
            for result, seconds, payload in gathered:
                self._task_seconds.observe(seconds)
                if payload is not None:
                    obs_collect.merge_task_telemetry(payload)
                results.append(result)
            return results
        except Exception:
            self._failures.add()
            self.close()
            raise
        finally:
            self._pending = 0

    def _gather(self, fn: Callable[[Any], Any], tasks: List[Any],
                collect: bool, kill_index: Optional[int]
                ) -> List[Tuple[Any, float, Optional[dict]]]:
        """One parallel dispatch, buffered: per-task accounting happens
        only after every result is back, so a dispatch that dies halfway
        (and is retried) never double-counts telemetry."""
        executor = self._ensure_executor()
        self._pending = len(tasks)
        gathered = []
        for triple in executor.map(
                _run_instrumented,
                [(fn, task, collect, index == kill_index)
                 for index, task in enumerate(tasks)],
                chunksize=self._chunksize(len(tasks))):
            self._pending -= 1
            gathered.append(triple)
        return gathered

    def warm(self) -> int:
        """Start every worker (and run its initializer) ahead of real
        work, so pool start-up never lands inside a measured operation.
        Returns the worker count."""
        if self.workers == 1:
            self._ensure_inline()
        else:
            executor = self._ensure_executor()
            list(executor.map(_warm_task, [0.02] * self.workers,
                              chunksize=1))
        return self.workers

    def _chunksize(self, ntasks: int) -> int:
        # Deterministic function of (ntasks, workers) only: ~4 chunks per
        # worker bounds straggler imbalance without per-task IPC overhead.
        return max(1, ntasks // (self.workers * 4))

    # -- lifecycle -----------------------------------------------------------

    def _ensure_inline(self) -> None:
        # The kernel context is per-process module state, so in serial
        # mode a *cheap* inline initializer (install already-built
        # objects) runs before every dispatch — several serial pools in
        # one process would otherwise clobber each other's context.  The
        # expensive wire-format initializer fallback runs once per pool.
        if self._inline_initializer is not None:
            self._inline_initializer()
            return
        if not self._inline_ready:
            if self._initializer is not None:
                self._initializer(*self._initargs)
            self._inline_ready = True

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._executor

    @property
    def started(self) -> bool:
        """Whether a process pool is currently live."""
        return self._executor is not None

    def close(self) -> None:
        """Shut the process pool down (idempotent; the pool restarts
        lazily on the next parallel ``run``)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
