"""Process-parallel experiment execution.

The evaluation grids (Fig 7.2's policy-by-flow sweep, multi-seed
replication) are embarrassingly parallel: every cell is an independent
simulation with an explicit seed and no shared mutable state.  This
module runs such grids across a process pool while keeping the results
**bit-identical** to serial execution:

* every :class:`RunTask` carries its own seed inside its arguments, so
  worker placement cannot change any RNG stream;
* results are gathered in submission order, never completion order;
* worker processes rebuild deterministic shared artefacts (geometry,
  conflict tables) from scratch — construction is pure, so rebuilt and
  shared instances produce the same trajectories;
* tasks reference policies by *name*, never by object: plain names for
  the built-ins, ``"module:name"`` qualified names for plugins (see
  :func:`repro.core.registry.portable_name`), which a worker resolves
  by importing the registering module.  This keeps every task picklable
  and makes custom policies runnable under any pool start method.

Degradation is graceful: ``jobs <= 1``, a single task, an unpicklable
task (e.g. a closure passed to :func:`repro.sim.replication.replicate`)
or a broken/forbidden process pool all fall back to a plain serial
loop, recording why in :attr:`ParallelRunner.fallback_reason`.

Where the speedup comes from
----------------------------
Two fixed costs used to eat the whole parallel win on small grids:

* **Pool spawn.**  A fresh ``ProcessPoolExecutor`` per ``map()`` pays
  interpreter start + module imports per worker, per call (hundreds of
  milliseconds — comparable to the grids themselves).  The pool is now
  **persistent**: created once per (worker count) and reused by every
  subsequent ``map()`` in the process, shut down at interpreter exit.
* **Per-task round-trips and double pickling.**  Tasks are submitted in
  **chunks** (several tasks per future), cutting executor round-trips,
  and the old ``_first_unpicklable`` pre-scan — which serialised every
  task once just to *predict* whether submission would — is gone:
  pickling errors now surface from the submission/gather path itself
  and trigger the same serial fallback without any pre-pass.

Worker count resolution (:func:`resolve_jobs`): an explicit integer
wins; ``None`` consults the ``REPRO_JOBS`` environment variable and
defaults to serial; ``0``, ``-1`` or ``"auto"`` mean "one worker per
CPU".
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.registry import registry_generation

__all__ = [
    "ParallelRunner",
    "RunTask",
    "resolve_jobs",
    "run_tasks",
    "shutdown_pool",
]

#: Environment variable consulted when ``jobs`` is None.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalise a ``jobs`` request to a concrete worker count (>= 1).

    ``None`` reads ``REPRO_JOBS`` (absent/invalid -> 1, i.e. serial);
    ``0``, ``-1`` and ``"auto"`` mean one worker per CPU; any other
    value is clamped to at least 1.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        jobs = raw
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(jobs)
        except ValueError:
            return 1
    if jobs in (0, -1):
        return os.cpu_count() or 1
    return max(int(jobs), 1)


@dataclass(frozen=True, eq=False)
class RunTask:
    """One picklable unit of work: ``fn(*args, **kwargs)``.

    ``fn`` must be an importable module-level callable for the task to
    cross a process boundary; anything else (lambdas, closures, bound
    methods of unpicklable objects) still *runs*, but forces the runner
    into its serial fallback.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Free-form label (used in error messages / bench artefacts).
    label: str = ""

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def _execute_chunk(tasks: Sequence[RunTask]) -> List[Any]:
    """Run a chunk of tasks in one worker round-trip, in order."""
    return [task.run() for task in tasks]


# -- persistent pool ---------------------------------------------------------
#: The process-wide executor, reused across ``map()`` calls.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
#: Policy-registry generation the pool's workers inherited.  Under the
#: default (fork) start method workers snapshot the registry at spawn;
#: a plugin registered afterwards would be invisible to them, so a
#: generation mismatch forces a fresh pool.
_POOL_REGISTRY_GEN = -1
#: Pools created over the process lifetime (bench/regression probe: a
#: well-behaved workload spawns exactly one).
POOL_SPAWNS = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, (re)created on first use, a worker-count
    change, or a policy-registry mutation since the last spawn.  Worker
    processes are lazy: the executor object itself is cheap, processes
    spawn on first submit and then stay warm."""
    global _POOL, _POOL_WORKERS, _POOL_REGISTRY_GEN, POOL_SPAWNS
    generation = registry_generation()
    if (
        _POOL is None
        or _POOL_WORKERS != workers
        or _POOL_REGISTRY_GEN != generation
    ):
        if _POOL is not None:
            _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
        _POOL_REGISTRY_GEN = generation
        POOL_SPAWNS += 1
    return _POOL


def _discard_pool() -> None:
    """Drop a broken pool so the next ``map()`` starts a fresh one."""
    global _POOL, _POOL_WORKERS, _POOL_REGISTRY_GEN
    if _POOL is not None:
        try:
            _POOL.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
    _POOL = None
    _POOL_WORKERS = 0
    _POOL_REGISTRY_GEN = -1


def shutdown_pool() -> None:
    """Shut the persistent pool down (tests / explicit cleanup)."""
    global _POOL, _POOL_WORKERS, _POOL_REGISTRY_GEN
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
    _POOL = None
    _POOL_WORKERS = 0
    _POOL_REGISTRY_GEN = -1


atexit.register(shutdown_pool)


def _is_pickling_error(exc: BaseException) -> bool:
    """Did submission die because a task cannot cross the process
    boundary?  ``pickle``/``copyreg`` raise PicklingError but also raw
    TypeError/AttributeError (e.g. locks, lambdas under some
    protocols), so match on the message for those."""
    if isinstance(exc, pickle.PicklingError):
        return True
    if isinstance(exc, (TypeError, AttributeError)):
        text = str(exc).lower()
        return "pickle" in text or "serialize" in text
    return False


class ParallelRunner:
    """Ordered map of :class:`RunTask` s over a persistent process pool.

    Parameters
    ----------
    jobs:
        Worker count request (see :func:`resolve_jobs`).
    chunk_size:
        Tasks per submitted future; ``None`` picks a size that gives
        each worker a few chunks (load balancing) without per-task
        round-trips.

    Attributes
    ----------
    used_parallel:
        True when the last :meth:`map` actually ran on a pool.
    fallback_reason:
        Why the last :meth:`map` ran serially (``None`` when parallel).
    """

    def __init__(
        self,
        jobs: Union[int, str, None] = None,
        chunk_size: Optional[int] = None,
    ):
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.jobs = resolve_jobs(jobs)
        self.chunk_size = chunk_size
        self.used_parallel = False
        self.fallback_reason: Optional[str] = None

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _run_serial(tasks: Sequence[RunTask]) -> List[Any]:
        return [task.run() for task in tasks]

    def _chunks(self, tasks: List[RunTask], workers: int) -> List[List[RunTask]]:
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            # ~4 chunks per worker balances load against round-trips.
            size = max(1, len(tasks) // (workers * 4))
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    # -- public API --------------------------------------------------------
    def map(self, tasks: Sequence[RunTask]) -> List[Any]:
        """Run every task; results in task order.

        Exceptions raised by a task propagate to the caller (with any
        still-pending chunks cancelled), exactly as they would
        serially.  Unpicklable tasks are detected when their chunk is
        submitted — no pre-scan serialises the batch twice — and
        demote the whole map to the serial fallback.
        """
        tasks = list(tasks)
        self.used_parallel = False
        self.fallback_reason = None
        if not tasks:
            return []
        if self.jobs <= 1:
            self.fallback_reason = "jobs<=1"
            return self._run_serial(tasks)
        if len(tasks) == 1:
            self.fallback_reason = "single task"
            return self._run_serial(tasks)
        workers = min(self.jobs, len(tasks))
        chunks = self._chunks(tasks, workers)
        try:
            pool = _get_pool(workers)
            futures = [pool.submit(_execute_chunk, chunk) for chunk in chunks]
            results: List[Any] = []
            failure: Optional[BaseException] = None
            for future in futures:
                if failure is not None:
                    future.cancel()
                    continue
                try:
                    results.extend(future.result())
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failure = exc
            if failure is not None:
                raise failure
        except Exception as exc:
            if _is_pickling_error(exc):
                # A task cannot cross the process boundary; the pool
                # itself is fine.
                self.fallback_reason = (
                    f"unpicklable task: {type(exc).__name__}: {exc}"
                )
                return self._run_serial(tasks)
            if isinstance(exc, (OSError, RuntimeError)):
                # Pool could not start or died (sandboxed env, fork
                # limits, killed worker, ...): degrade to serial rather
                # than fail, and drop the pool so the next map retries
                # from scratch.
                _discard_pool()
                self.fallback_reason = (
                    f"pool failure: {type(exc).__name__}: {exc}"
                )
                return self._run_serial(tasks)
            raise
        self.used_parallel = True
        return results


def run_tasks(
    tasks: Sequence[RunTask], jobs: Union[int, str, None] = None
) -> List[Any]:
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    return ParallelRunner(jobs).map(tasks)
