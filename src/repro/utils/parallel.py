"""Process-pool map helper for embarrassingly parallel work.

RB sequence execution fans out over :func:`parallel_map`.  The helper runs
serially at ``num_workers=1``; ``num_workers > 1`` (or ``0`` = every CPU)
maps over a process pool.  A default :class:`~repro.session.Session` uses
``num_workers=0``, so its RB specs fan out; pass ``num_workers=1`` for a
serial, easy-to-profile run.

The pool is **persistent**: repeated ``parallel_map`` calls with the same
worker count reuse one module-level :class:`ProcessPoolExecutor` instead of
re-spawning workers per call.  Worker startup (fork + interpreter/numpy
warm-up) costs tens to hundreds of milliseconds, which used to dominate
sub-second RB workloads; with reuse it is paid once per process.  Workers
also keep their process-local caches — notably the memory-mapped channel
tables of :mod:`repro.store` — warm across calls.  Call
:func:`shutdown_pool` to reclaim the workers explicitly (an ``atexit`` hook
does it at interpreter exit).

**Starting the pool.**  Under ``fork`` the workers are copies of the
process at the moment the pool starts; a fork taken while another thread
holds a lock leaves that lock held forever in the child.  A multi-worker
:class:`~repro.session.Session` therefore calls :func:`start_pool` from the
thread that constructs it, before it runs any thread of its own, and pool
creation is serialized so two threads' first maps cannot each build one.

**Start methods.**  The pool honours the multiprocessing *start method*
selected by ``$REPRO_MP_START`` (``fork`` | ``spawn`` | ``forkserver``; the
platform default when unset).  ``fork`` is fastest but Linux-only in
practice; ``spawn`` — the only method on Windows and the default on macOS —
re-imports the worker interpreter from scratch, so workers receive no
forked module state.  Everything the RB engine ships to workers is
picklable by construction (module-level functions, frozen dataclass
contexts, :class:`~repro.store.ChannelTableHandle` instead of
live memory maps), and a spawn-context **initializer** re-applies the
parent's ``REPRO_*`` environment knobs (store directory, smoke flags) in
each fresh worker so path resolution matches the parent.  CI runs a matrix
leg with ``REPRO_MP_START=spawn`` to keep this path green.

**Single calls.**  :func:`pool_submit` runs one call on the same pool and
returns a :class:`PoolCall` whose ``result()`` waits for it.  A session
sends its cold GRAPE optimizations there while its own thread builds the
rest of the plan.  At ``num_workers=1`` the call runs inline, at
submission, through the same helper.  A call whose pool broke (a worker
died) replaces the pool and runs once more, like :func:`parallel_map`.
Each call carries the submitter's ``REPRO_*`` variables, so a knob set
after the pool started applies to it as it would inline.

**One BLAS thread per worker.**  Every worker pins each OpenBLAS loaded
into it (numpy's and scipy's are separate copies) to one thread, through
the library's own ``*_set_num_threads`` entry point.  A pool already runs
one task per core, and BLAS threads on top of it oversubscribe the cores:
on a 2-vCPU box the paper's GRAPE optimizations took 2.5-3.4 s on a
2-worker pool with default BLAS threads, against 0.8-1.2 s pinned and
1.4-2.0 s serially (``docs/performance.md``).  ``OPENBLAS_NUM_THREADS``
alone cannot do this: a
forked worker inherits the parent's already initialized OpenBLAS, which
read the variable once at load time.  The parent's own thread count is
left as it is.
"""

from __future__ import annotations

import atexit
import ctypes
import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Generic, Iterable, Sequence, TypeVar

__all__ = [
    "parallel_map",
    "pool_submit",
    "PoolCall",
    "openblas_threads",
    "available_workers",
    "auto_chunksize",
    "start_pool",
    "shutdown_pool",
    "pool_start_method",
]

T = TypeVar("T")
R = TypeVar("R")

_START_METHODS = ("fork", "spawn", "forkserver")

#: The persistent executor and the (worker count, start method) it was
#: created with — a changed count *or* a changed ``$REPRO_MP_START`` rolls
#: the pool.
_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple[int, str] | None = None
#: Serializes creation and shutdown of the persistent executor (re-entrant:
#: creation shuts the previous executor down under the same lock).
_POOL_LOCK = threading.RLock()


def pool_start_method() -> str:
    """The multiprocessing start method the pool will use.

    ``$REPRO_MP_START`` when set (``fork`` | ``spawn`` | ``forkserver``),
    else the platform default (``fork`` on Linux, ``spawn`` on macOS and
    Windows).

    Raises
    ------
    ValueError
        If ``$REPRO_MP_START`` names an unknown or unavailable method.
    """
    env = os.environ.get("REPRO_MP_START")
    if not env:
        return mp.get_start_method()
    method = env.strip().lower()
    if method not in _START_METHODS:
        raise ValueError(
            f"REPRO_MP_START must be one of {_START_METHODS}, got {env!r}"
        )
    if method not in mp.get_all_start_methods():
        raise ValueError(
            f"start method {method!r} is not available on this platform "
            f"(available: {mp.get_all_start_methods()})"
        )
    return method


def _propagated_environment() -> dict[str, str]:
    """The ``REPRO_*`` knobs a spawned worker must see (snapshot)."""
    return {key: value for key, value in os.environ.items() if key.startswith("REPRO_")}


def _worker_init(environment: dict[str, str]) -> None:
    """Default pool initializer: the parent's ``REPRO_*`` knobs, one BLAS thread.

    Under ``fork`` the child inherits the environment anyway and this is a
    no-op rewrite; under ``spawn``/``forkserver`` it guarantees the worker
    resolves the same store directory, smoke flags and optimizer caps as
    the parent even when those were set *after* interpreter startup via
    ``os.environ`` assignment (which ``spawn`` does not replay).

    It then loads numpy's and scipy's OpenBLAS (a spawned worker has not
    imported scipy yet) and pins every loaded OpenBLAS to one thread (see
    the module notes).  The service's process-mode workers run it too.
    """
    _apply_environment(environment)
    import numpy  # noqa: F401 - loads numpy's OpenBLAS
    import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS

    _openblas_call("set_num_threads", 1)


def _apply_environment(environment: dict[str, str]) -> None:
    """Make this process's ``REPRO_*`` variables exactly ``environment``."""
    for key in [k for k in os.environ if k.startswith("REPRO_") and k not in environment]:
        del os.environ[key]
    os.environ.update(environment)


#: Entry-point name patterns of the OpenBLAS builds numpy and scipy load:
#: ``scipy_openblas_<name>64_`` in numpy's wheel (64-bit integers),
#: ``scipy_openblas_<name>`` in scipy's, ``openblas_<name>`` in a system
#: OpenBLAS.
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}64_",
    "scipy_openblas_{}",
    "openblas_{}64_",
    "openblas_{}",
)


def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries loaded into this process.

    Read from ``/proc/self/maps``; empty where that does not exist (macOS,
    Windows), which leaves BLAS threads there as they are.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[5]
                for fields in (line.split(maxsplit=5) for line in maps)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()
            }
    except OSError:
        return []
    return sorted(path.strip() for path in paths)


def _openblas_call(name: str, *args: int) -> list[int]:
    """Call OpenBLAS function ``name`` in every loaded OpenBLAS.

    Returns one result per library that exports one of the
    :data:`_OPENBLAS_SYMBOLS` spellings of ``name``; a library exporting
    none is skipped.
    """
    results = []
    for path in _openblas_libraries():
        library = ctypes.CDLL(path)  # the loaded copy, not a second one
        for pattern in _OPENBLAS_SYMBOLS:
            function = getattr(library, pattern.format(name), None)
            if function is not None:
                results.append(function(*args))
                break
    return results


def openblas_threads() -> list[int]:
    """The thread count of every OpenBLAS loaded into this process.

    One entry per loaded library (numpy and scipy each load their own);
    inside a pool worker every entry is 1.
    """
    return _openblas_call("get_num_threads")


def _get_pool(num_workers: int) -> ProcessPoolExecutor:
    """The persistent executor, (re)created when count or method changes.

    A new executor launches all of its workers before it is returned.
    """
    global _POOL, _POOL_KEY
    key = (num_workers, pool_start_method())
    with _POOL_LOCK:
        if _POOL is None or _POOL_KEY != key:
            shutdown_pool()
            _POOL = ProcessPoolExecutor(
                max_workers=num_workers,
                mp_context=mp.get_context(key[1]),
                initializer=_worker_init,
                initargs=(_propagated_environment(),),
            )
            _POOL_KEY = key
            # under fork the first submit launches every worker; under spawn
            # and forkserver each submit that finds no idle worker adds one
            for future in [_POOL.submit(int) for _ in range(num_workers)]:
                future.result()
        return _POOL


def start_pool(num_workers: int) -> None:
    """Start the persistent pool for ``num_workers`` with all its workers now.

    Call it from a thread that runs alone (see the module notes).  A pool
    that already runs with this worker count and start method is kept as
    it is; ``num_workers`` counts as in :func:`parallel_map`, and a
    count of one starts nothing.
    """
    num_workers = _worker_count(num_workers)
    if num_workers > 1:
        _get_pool(num_workers)


def shutdown_pool() -> None:
    """Shut down the persistent worker pool (no-op when none is running).

    Safe to call at any time; the next ``parallel_map`` with
    ``num_workers > 1`` transparently starts a fresh pool.
    """
    global _POOL, _POOL_KEY
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=False, cancel_futures=True)
            _POOL = None
            _POOL_KEY = None


atexit.register(shutdown_pool)


def available_workers() -> int:
    """Return the number of usable CPU workers (at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))  # respects cgroup/affinity limits
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def _worker_count(num_workers: int | None) -> int:
    """The worker count a ``num_workers`` knob selects.

    ``None`` selects 1 (serial); ``0`` or a negative value selects
    :func:`available_workers`.
    """
    if num_workers is None:
        return 1
    return available_workers() if num_workers <= 0 else int(num_workers)


def auto_chunksize(n_items: int, num_workers: int) -> int:
    """Heuristic pool chunk size: ~4 chunks per worker, at least 1.

    Small chunks keep the pool load-balanced when task durations vary (long
    RB sequences take longer than short ones); one-item chunks pay pickling
    overhead per item.  Four chunks per worker is the standard compromise
    (it is also what ``multiprocessing.Pool.map`` defaults to).
    """
    if num_workers <= 1:
        return 1
    return max(1, n_items // (4 * num_workers))


def parallel_map(func: Callable[[T], R], items: Iterable[T], num_workers: int = 1) -> list[R]:
    """Map ``func`` over ``items``, optionally using a process pool.

    Parameters
    ----------
    func:
        Callable applied to each item.  Must be picklable when
        ``num_workers > 1`` — under the ``spawn`` start method that means a
        module-level function (lambdas and closures only survive ``fork``).
    items:
        Iterable of inputs.
    num_workers:
        ``1`` (default) runs serially in-process; ``>1`` uses a
        ``ProcessPoolExecutor`` with that many workers; ``0`` or negative
        values select :func:`available_workers` — the convention the RB
        executor exposes as ``num_workers=0`` ("use every CPU").

    Returns
    -------
    list
        Results in the same order as ``items``.

    Notes
    -----
    The pool is the persistent one of this module, mapped in chunks of
    :func:`auto_chunksize` items.  Its start method follows ``$REPRO_MP_START`` (see
    :func:`pool_start_method`); changing it between calls transparently
    rolls the persistent pool.  Every worker runs the default initializer,
    which re-applies the parent's ``REPRO_*`` environment so spawned
    workers resolve the same persistent-store root as the parent.
    """
    items = list(items)
    num_workers = _worker_count(num_workers)
    if num_workers == 1 or len(items) <= 1:
        return [func(item) for item in items]
    chunksize = auto_chunksize(len(items), num_workers)
    pool = _get_pool(num_workers)
    try:
        return list(pool.map(func, items, chunksize=chunksize))
    except BrokenProcessPool:
        # a worker died (OOM-kill, crash); replace the pool and retry once
        _retire_pool(pool)
        return list(_get_pool(num_workers).map(func, items, chunksize=chunksize))


def _retire_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down if it is still the persistent one.

    Every caller that saw the pool break retires it, but only the first
    one replaces it: a later caller must not shut down the fresh pool.
    """
    with _POOL_LOCK:
        if _POOL is pool:
            shutdown_pool()


def _timed_call(
    func: Callable[..., R], args: tuple, environment: dict[str, str] | None = None
) -> tuple[float, R]:
    """``func(*args)`` and its wall time, measured where it runs.

    A pool worker first takes on the submitter's ``REPRO_*`` variables
    (``environment``), so a knob set after the pool started, such as
    ``REPRO_MAX_OPT_ITER``, applies to the call as it would inline.
    """
    if environment is not None:
        _apply_environment(environment)
    start = time.perf_counter()
    value = func(*args)
    return time.perf_counter() - start, value


class PoolCall(Generic[R]):
    """One call submitted through :func:`pool_submit`.

    ``result()`` waits for the call and returns its value, or raises its
    exception; it may be called any number of times, from any thread.  The
    first ``result()`` that finds the pool broken retires it and submits
    the call once more to a fresh pool; a second break raises.
    :attr:`seconds` is the call's own wall time (``None`` until it has
    finished), measured in the process that ran it.
    """

    def __init__(self, func: Callable[..., R], args: tuple, num_workers: int):
        self._func = func
        self._args = args
        self._num_workers = num_workers
        self._lock = threading.Lock()
        self._retried = False
        self.seconds: float | None = None
        if num_workers == 1:
            self._pool = None
            self._future: Future = Future()
            try:
                self._future.set_result(_timed_call(func, args))
            except Exception as exc:  # noqa: BLE001 - raised again by result()
                self._future.set_exception(exc)
        else:
            self._submit()

    def _submit(self) -> None:
        self._pool = _get_pool(self._num_workers)
        self._future = self._pool.submit(
            _timed_call, self._func, self._args, _propagated_environment()
        )

    def result(self) -> R:
        """The call's value (waits for it; see the class notes on retries)."""
        with self._lock:
            try:
                seconds, value = self._future.result()
            except BrokenProcessPool:
                if self._retried:
                    raise
                self._retried = True
                _retire_pool(self._pool)
                self._submit()
                seconds, value = self._future.result()
            self.seconds = seconds
            return value


def pool_submit(func: Callable[..., R], *args, num_workers: int = 1) -> PoolCall[R]:
    """Run ``func(*args)`` on the persistent pool; returns at once.

    ``num_workers`` counts as in :func:`parallel_map`.  At one worker the
    call runs inline before this returns; otherwise it goes to the
    persistent pool of that size, so ``func`` and ``args`` must pickle
    (a module-level function under ``spawn``).
    """
    return PoolCall(func, args, _worker_count(num_workers))
