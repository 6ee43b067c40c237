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
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "parallel_map",
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
    """Default pool initializer: re-apply the parent's ``REPRO_*`` knobs.

    Under ``fork`` the child inherits the environment anyway and this is a
    no-op rewrite; under ``spawn``/``forkserver`` it guarantees the worker
    resolves the same store directory, smoke flags and optimizer caps as
    the parent even when those were set *after* interpreter startup via
    ``os.environ`` assignment (which ``spawn`` does not replay).
    """
    for key in [k for k in os.environ if k.startswith("REPRO_") and k not in environment]:
        del os.environ[key]
    os.environ.update(environment)


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
    try:
        return list(_get_pool(num_workers).map(func, items, chunksize=chunksize))
    except BrokenProcessPool:
        # a worker died (OOM-kill, crash); replace the pool and retry once
        shutdown_pool()
        return list(_get_pool(num_workers).map(func, items, chunksize=chunksize))
