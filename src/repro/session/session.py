"""The :class:`Session`: the declarative experiment submission surface.

A session owns the live resources every experiment needs — the per-device
:class:`~repro.backend.backend.PulseBackend` instances, the persistent
Clifford channel store, and the process-pool fan-out — and executes
:mod:`specs <repro.session.specs>` against them:

.. code-block:: python

    from repro.session import Session, IRBSpec, GRAPESpec

    pulse = GRAPESpec(device="montreal", gate="x", duration_ns=105.0,
                      n_ts=12, include_decoherence=True, seed=2022)
    custom = IRBSpec(device="montreal", gate="x", qubits=(0,),
                     lengths=(1, 16, 48), n_seeds=4, shots=400,
                     seed=2022, calibration=pulse)
    default = IRBSpec(device="montreal", gate="x", qubits=(0,),
                      lengths=(1, 16, 48), n_seeds=4, shots=400, seed=2022)

    with Session(store="auto", num_workers=0) as session:
        custom_result, default_result = session.run_all([custom, default])

``run_all`` plans the batch first (see
:mod:`repro.session.planner`): shared preparation — the Clifford group,
the device backend, the GRAPE pulse nested by ``custom``, and the
per-Clifford channel table both IRB curves replay — is created exactly
once, then execution fans out.  Cold GRAPE optimizations run on the
process pool of :mod:`repro.utils.parallel` while the calling thread
builds the rest, and a spec waits only for the pulse it needs.  Each
experiment draws its sequences once and builds the table elements they
use under the table's own lock, so an element shared by several specs is
built (and persisted) exactly once.  The reference curve of an IRB does
not depend on the interleaved gate, so ``custom`` and ``default`` above
compute it once and both read it.
``submit(spec)`` returns a
:class:`~concurrent.futures.Future` immediately; concurrent submits of
overlapping specs coordinate through per-artifact locks.

With a persistent store attached the session additionally consults the
**result cache** (the store's ``results`` namespace, keyed by spec
cache-fingerprint × backend-properties fingerprint): re-submitting an
identical spec returns the stored :class:`ExperimentResult` — marked
``provenance["cache_hit"] = True`` — without building a single prep
artifact or executing anything, sweeps resolve at per-point granularity
(a partially cached grid runs only its missing points), and GRAPE prep
steps persist their optimized pulses to the ``pulses`` namespace so warm
sessions skip pulse optimization entirely.  ``Session(result_cache=False)``
or ``REPRO_RESULT_CACHE=0`` force a fully cold run (see
``docs/caching.md``).

Results are bit-identical to running the standalone experiment classes
directly: the session changes *when* shared artifacts are built (or
whether a cached bit-identical payload is replayed), never *what* is
computed (all randomness flows from per-spec seeds).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from .loader import load_execution_modules
from .planner import SessionPlan, plan_specs, prep_steps_for
from .results import ExperimentResult
from .specs import ExperimentSpec, GRAPESpec, OptimizerSpec
from ..obs import ShadowSampler, Trace, resolve_trace_sink
from ..utils.parallel import pool_submit, start_pool
from ..utils.validation import ValidationError

__all__ = ["Session"]


class Session:
    """Owns backends, store and pool; executes specs with shared planning.

    Parameters
    ----------
    backend : PulseBackend or dict, optional
        A pre-built backend to adopt (matched to specs by its properties
        fingerprint), or a mapping of canonical device name →
        ``PulseBackend``.  Backends for other devices are created on
        demand with ``calibrated_qubits=[0, 1]`` (the paper's layout).
    store : optional
        Persistent Clifford-store selector: ``"auto"`` (default cache
        directory), a path, a :class:`~repro.store.ArtifactStore`, or
        ``None`` for no persistence.
    num_workers : int
        Process fan-out for spec execution: ``0`` = all available CPUs,
        ``1`` = serial.
    max_concurrency : int, optional
        Maximum number of specs executing concurrently (thread fan-out on
        top of the process pool).  Defaults to ``max(4, os.cpu_count())``
        so wide machines fan out wider while small ones keep the floor of
        4 that overlaps I/O-ish stages (store reads, schedule lowering)
        with compute.
    seed : optional
        Seed of backends created by the session (feeds only their
        fallback sampling RNG; every experiment draws from its spec seed,
        so results do not depend on this).
    result_cache : bool, optional
        Whether to reuse cached results (and persisted GRAPE pulses) from
        the store's ``results``/``pulses`` namespaces.  Defaults to on
        whenever a store is attached; pass ``False`` — or set
        ``REPRO_RESULT_CACHE=0``, which always wins — to force a cold,
        bit-identity-baseline run.  Cold runs still *publish* their
        results, so the next cached session finds them.
    shadow_rate : float, optional
        Fraction of result-cache hits to *shadow-verify*: re-execute on
        the live engine and compare payload fingerprints bit-for-bit
        (see :mod:`repro.obs.shadow`).  Matches are counted
        (``shadow_checks``) and marked ``provenance["shadow_verified"]``;
        a mismatch quarantines the cached entry, republishes the fresh
        result and counts a ``shadow_mismatches``.  Defaults to 0 (off);
        ``$REPRO_SHADOW_RATE`` always wins.
    trace_sink : optional
        Where to emit per-job traces as JSON lines: ``None`` (default)
        defers to ``$REPRO_TRACE_FILE``, ``False`` disables emission, a
        path or :class:`~repro.obs.trace.TraceSink` selects a file.
        Independent of the sink, every root job's finished trace is
        attached to ``result.provenance["trace"]``.
    shadow_seed : int, optional
        Seed of the shadow sampling RNG (deterministic sampling for
        tests; never influences experiment payloads).
    """

    def __init__(
        self,
        backend=None,
        store="auto",
        num_workers: int = 0,
        max_concurrency: int | None = None,
        seed=None,
        result_cache: bool | None = None,
        shadow_rate: float | None = None,
        trace_sink=None,
        shadow_seed: int | None = None,
    ):
        from ..store import resolve_store, result_cache_enabled

        self.store = resolve_store(store)
        self.result_cache = self.store is not None and result_cache_enabled(result_cache)
        self.shadow = ShadowSampler(shadow_rate, seed=shadow_seed)
        self.trace_sink = resolve_trace_sink(trace_sink)
        #: Per-thread state of the job a thread serves: its ``trace`` and
        #: the ``batch`` token its shared reference curves are keyed under.
        self._local = threading.local()
        self._batches = itertools.count(1)
        self.num_workers = int(num_workers)
        # fork the process pool now, while this thread runs alone: a fork
        # from an executor thread can copy a lock another thread holds
        start_pool(self.num_workers)
        self.seed = seed
        self._backends: dict[str, object] = {}
        self._adopted = []
        if backend is not None:
            if isinstance(backend, dict):
                for name, instance in backend.items():
                    self._backends[_canonical(name)] = instance
            else:
                self._adopted.append(backend)
        self._artifacts: dict[tuple, object] = {}
        self._artifact_locks: dict[tuple, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        if max_concurrency is None:
            # floor of 4 (never shrink below the historical default), scale
            # up with the machine so wide hosts fan wider by default
            max_concurrency = max(4, os.cpu_count() or 1)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(max_concurrency)),
            thread_name_prefix="repro-session",
        )
        self._closed = False
        #: Wall-clock seconds spent building each prep key (observability).
        #: A GRAPE key counts its optimization's own wall time, measured in
        #: the pool worker that ran it, plus publishing and lowering it
        #: here.
        self.prep_timings: dict[tuple, float] = {}
        #: Per-session counters: ``cache_hits`` / ``cache_misses`` (result
        #: cache consultations), ``executions`` (specs actually executed)
        #: and ``prep_builds`` (artifacts built through the registry) —
        #: together with the store's namespace counters these prove that a
        #: warm replay performs zero prep builds and zero executions, and
        #: that concurrent duplicate submissions execute exactly once
        #: (``dedup_waits``, counted lazily, appears when a submission
        #: waited on another session's in-flight execution of its key).
        #: Shadow verification counts lazily too: ``shadow_checks`` (hits
        #: re-executed and compared) and ``shadow_mismatches`` (cached
        #: entries that failed bit-identity and were quarantined).
        self.stats: dict[str, int] = {
            "cache_hits": 0, "cache_misses": 0, "executions": 0, "prep_builds": 0,
        }
        self._stats_lock = threading.Lock()
        #: Memoized properties fingerprints per canonical device name.
        self._props_fps: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the session's thread executor (idempotent).

        The shared process pool of :mod:`repro.utils.parallel` is left
        running (it is module-level and reused across sessions); call
        :func:`repro.utils.parallel.shutdown_pool` to reclaim it.
        """
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        store = getattr(self.store, "root", None)
        return (
            f"Session(devices={sorted(self._backends) or '∅'}, "
            f"store={str(store) if store else None}, num_workers={self.num_workers})"
        )

    # ------------------------------------------------------------------ #
    # resources
    # ------------------------------------------------------------------ #
    def backend_for(self, device: str):
        """The session's (shared, lazily created) backend of a device."""
        device = _canonical(device)
        return self._artifact(("backend", device), lambda: self._build_backend(device))

    def schedule_for(self, spec: GRAPESpec):
        """The optimized pulse schedule of a GRAPE spec (prepared once)."""
        return self._grape_artifact(spec)[1]

    def optimization_for(self, spec: GRAPESpec):
        """The raw :class:`OptimResult` of a GRAPE spec (prepared once)."""
        return self._grape_artifact(spec)[0]

    def _bump_stat(self, counter: str, n: int = 1) -> None:
        """Increment one session counter (thread-safe)."""
        with self._stats_lock:
            self.stats[counter] = self.stats.get(counter, 0) + n

    def stats_snapshot(self) -> dict[str, int]:
        """A consistent point-in-time copy of :attr:`stats`.

        Taken under the counter lock, so a reader aggregating across
        concurrently executing jobs (the service's ``/v1/metrics``
        scrape) never observes a torn dictionary.
        """
        with self._stats_lock:
            return dict(self.stats)

    def _store_counters(self) -> dict[str, dict[str, int]]:
        """Snapshot of the store's namespace counters ({} without a store)."""
        return self.store.stats if self.store is not None else {}

    def properties_fingerprint_for(self, device: str) -> str:
        """Properties fingerprint a spec on ``device`` will run against.

        Resolved without building a backend: an already-registered (or
        adopted) backend's snapshot wins, otherwise the library device's
        static calibration data is fingerprinted directly — this is the
        second half of the result-cache key, so cache lookups stay free of
        preparation work.

        A registered backend's fingerprint is re-read on **every** call
        (never memoized): the drift study swaps ``backend.properties`` in
        place, and the cache key must follow the live snapshot — exactly
        as ``PulseBackend._check_cache_freshness`` does for the in-memory
        caches.  Only the immutable library-device fingerprint is
        memoized.
        """
        device = _canonical(device)
        registered = self._backends.get(device)
        if registered is not None:
            return registered.properties.fingerprint()
        fp = self._props_fps.get(device)
        if fp is None:
            from ..devices.library import get_device

            fp = get_device(device).fingerprint()
            self._props_fps[device] = fp
        return fp

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #
    def submit(self, spec: ExperimentSpec) -> "Future[ExperimentResult]":
        """Submit one spec for execution; returns a future immediately.

        Shared preparation is coordinated through per-artifact locks, so
        concurrently submitted overlapping specs create each shared
        artifact (group, backend, GRAPE pulse, channel table) exactly
        once — the rest block until it is ready, then execute.
        """
        return self._submit(spec)

    def _submit(self, spec: ExperimentSpec, batch: int | None = None) -> "Future[ExperimentResult]":
        """Queue one root job; ``batch`` is the token of the ``run_all`` it belongs to."""
        if self._closed:
            raise ValidationError("session is closed")
        if not isinstance(spec, ExperimentSpec):
            raise ValidationError(f"submit expects an ExperimentSpec, got {type(spec).__name__}")
        return self._executor.submit(self._run_spec, spec, batch)

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute one spec synchronously (``submit(...).result()``)."""
        return self.submit(spec).result()

    def run_all(self, specs: Iterable[ExperimentSpec]) -> list[ExperimentResult]:
        """Plan a batch jointly, build shared prep once, then fan out.

        Equivalent to submitting every spec and gathering the results —
        but the preparation phase is planned over the *whole batch* up
        front (see :meth:`plan`), so e.g. three IRB specs on the same
        qubits share one backend, group and channel table, created before
        any experiment starts.  Each experiment then builds the table
        elements its own sequences use.

        IRB specs of the batch that draw the same reference curve read one
        :class:`~repro.benchmarking.rb.RBResult`, computed by the first of
        them (see :meth:`_shared_reference`); the batch's curves are
        dropped when it returns.
        """
        specs = list(specs)
        plan = self.plan(specs)
        self._build_plan(plan)
        batch = next(self._batches)
        futures = [self._submit(spec, batch) for spec in specs]
        try:
            return [future.result() for future in futures]
        finally:
            wait(futures)
            self._end_batch(batch)

    def plan(self, specs: Sequence[ExperimentSpec]) -> SessionPlan:
        """The deduplicated preparation plan of a batch (builds nothing).

        With the result cache enabled the plan is cache-aware: specs whose
        result is already stored are marked
        :attr:`~repro.session.planner.SessionPlan.cached` and the prep
        steps only they would have needed are dropped (see
        :func:`~repro.session.planner.plan_specs`).
        """
        load_execution_modules()
        return plan_specs(
            specs,
            store=self.store if self.result_cache else None,
            properties_fingerprint=self.properties_fingerprint_for,
        )

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    def _build_plan(self, plan: SessionPlan) -> None:
        """Build every plan step exactly once; GRAPE runs on the pool.

        Steps go in plan order: the backends, then every ``grape`` step,
        largest problem first, then the groups and tables.  A cold GRAPE
        step is sent to the persistent process pool and registered as a
        pending artifact, so this thread builds the groups and tables while
        the pool optimizes.  The method returns
        without waiting for a pulse: a spec that needs one waits for its
        own key when it executes (:meth:`_grape_artifact`).  At
        ``num_workers=1`` each optimization runs inline when it is
        dispatched.

        A ``table`` step only creates the table object; the experiment
        that reads the table builds the elements its own sequences use.
        """
        for step in plan.steps:
            self._build_step(step)

    def _build_step(self, step):
        """Build one plan step through the exactly-once artifact registry.

        A ``grape`` step returns its registry entry, which is a
        :class:`_PendingArtifact` while the pool still optimizes.
        """
        if step.kind == "group":
            return self._group_artifact(step.key[1])
        if step.kind == "backend":
            return self.backend_for(step.key[1])
        if step.kind == "grape":
            return self._pulse_entry(step.payload)
        if step.kind == "table":
            return self._artifact(step.key, lambda: self._build_table(*step.key[1:]))
        raise ValidationError(f"unknown preparation kind {step.kind!r}")

    def _artifact(self, key: tuple, builder):
        """The artifact of one prep key, built exactly once under a lock.

        A double-checked per-key :class:`threading.Lock` makes concurrent
        ``submit()`` calls that need the same artifact coordinate: the
        first builds, the rest block until it is registered, nobody builds
        twice.  Build wall-clocks are recorded in :attr:`prep_timings`.
        A pending entry (see :meth:`_register`) is waited for.
        """
        return _resolved(self._register(key, builder))

    def _register(self, key: tuple, builder, prep: bool = True):
        """The registry entry of one prep key, built exactly once under a lock.

        Like :meth:`_artifact`, but a builder may return a
        :class:`_PendingArtifact`, and that entry is returned as it is; its
        own ``finish`` records its timing.  ``prep=False`` registers an
        execution artifact (a batch's shared reference curve), which is
        neither timed in :attr:`prep_timings` nor counted in
        ``prep_builds``.
        """
        artifact = self._artifacts.get(key)
        if artifact is not None:
            return artifact
        with self._registry_lock:
            lock = self._artifact_locks.setdefault(key, threading.Lock())
        with lock:
            artifact = self._artifacts.get(key)
            if artifact is None:
                start = time.perf_counter()
                artifact = builder()
                if prep:
                    if not isinstance(artifact, _PendingArtifact):
                        self._add_timing(key, time.perf_counter() - start)
                    self._bump_stat("prep_builds")
                self._artifacts[key] = artifact
        return artifact

    def _shared_reference(self, device: str, experiment):
        """The batch's share of an IRB experiment's reference curve, or ``None``.

        Within one batch — a :meth:`run_all` or a container's children —
        IRB experiments whose curve key agrees read one reference curve:
        the first computes it through :meth:`_register` and the rest wait
        for it.  The key is the batch token, the canonical device, its live
        properties fingerprint and the experiment's
        :meth:`~repro.benchmarking.irb.InterleavedRBExperiment.reference_key`.
        A job outside a batch, or an unseeded experiment, computes its own.
        """
        batch = getattr(self._local, "batch", None)
        curve = experiment.reference_key()
        if batch is None or curve is None:
            return None
        key = (
            "reference", batch, _canonical(device),
            experiment.backend.properties.fingerprint(), *curve,
        )
        return lambda compute: self._register(key, compute, prep=False)

    def _end_batch(self, batch: int) -> None:
        """Drop a finished batch's shared reference curves from the registry.

        Every registered key has a lock, so the locks also reach the keys
        whose curve raised and was never stored.
        """
        with self._registry_lock:
            for key in [key for key in self._artifact_locks if key[:2] == ("reference", batch)]:
                del self._artifact_locks[key]
                self._artifacts.pop(key, None)

    def _group_artifact(self, n_qubits: int):
        """The (store-backed) Clifford group, built/loaded exactly once."""

        def build():
            from ..benchmarking.clifford import clifford_group

            return clifford_group(n_qubits, store=self.store)

        return self._artifact(("group", int(n_qubits)), build)

    def _grape_artifact(self, spec):
        """(OptimResult, Schedule) of a pulse spec, built exactly once.

        Waits for the optimization when the pool still runs it; see
        :meth:`_pulse_entry`.
        """
        return _resolved(self._pulse_entry(spec))

    def _pulse_entry(self, spec):
        """The registry entry of a pulse spec, dispatching its optimization.

        Accepts a :class:`GRAPESpec` or an :class:`OptimizerSpec`; the
        spec is normalized through ``canonical_pulse_spec()`` first, so
        ``OptimizerSpec(method="lbfgs")`` and the equivalent legacy
        ``GRAPESpec`` resolve to the **same** artifact key and pulse-cache
        entry (the thin-alias contract).

        With a store attached, the optimization outcome is persisted to
        the ``pulses`` namespace keyed by the spec fingerprint × the
        calibration snapshot's properties fingerprint — a warm session
        (result cache enabled) loads the stored amplitudes and skips the
        optimizer entirely, then re-derives the schedule bit-identically
        (``pulse_schedule_from_result`` is a pure function of the stored
        amplitudes).  Cold builds always publish, so even a
        ``result_cache=False`` baseline run warms the pulse store for
        subsequent sessions.

        A cold optimization runs on the persistent process pool
        (:func:`~repro.utils.parallel.pool_submit`), and the entry is a
        :class:`_PendingArtifact` until its first reader finishes it: the
        pulse is published and lowered to a schedule in this process.
        """
        if not isinstance(spec, (GRAPESpec, OptimizerSpec)):
            raise ValidationError("pulse preparation expects a GRAPESpec or OptimizerSpec")
        spec = spec.canonical_pulse_spec()
        key = ("grape", spec.fingerprint())

        def build():
            from ..experiments.gates import pulse_schedule_from_result

            properties = self.backend_for(spec.device).properties
            config = spec.gate_config()
            optimization = self._stored_pulse(spec)
            if optimization is not None:
                return optimization, pulse_schedule_from_result(properties, config, optimization)
            # the pulse key is read with the optimization's inputs, so a
            # properties snapshot swapped in before the pool finishes cannot
            # mix into it
            pulse_key = self._pulse_key(spec) if self.store is not None else None
            call = pool_submit(
                _optimize_pulse,
                properties,
                config,
                spec.method_options() or None,
                num_workers=self.num_workers,
            )

            def finish():
                optimization = call.result()
                start = time.perf_counter()
                if pulse_key is not None:
                    self.store.save_pulse(
                        pulse_key,
                        optimization,
                        metadata={"device": _canonical(spec.device), "gate": spec.gate},
                    )
                pair = optimization, pulse_schedule_from_result(properties, config, optimization)
                self._add_timing(key, call.seconds + time.perf_counter() - start)
                return pair

            return _PendingArtifact(finish)

        return self._register(key, build)

    def _stored_pulse(self, spec):
        """The persisted optimization of a pulse spec (``None`` on a miss or when off)."""
        if self.store is None or not self.result_cache:
            return None
        return self.store.load_pulse(self._pulse_key(spec))

    def _pulse_key(self, spec) -> str:
        return self.store.pulse_key(
            spec.cache_fingerprint(), self.properties_fingerprint_for(spec.device)
        )

    def _add_timing(self, key: tuple, seconds: float) -> None:
        """Add build seconds to one key of :attr:`prep_timings` (thread-safe)."""
        with self._stats_lock:
            self.prep_timings[key] = self.prep_timings.get(key, 0.0) + seconds

    def _build_backend(self, device: str):
        from ..backend.backend import PulseBackend
        from ..devices.library import get_device

        existing = self._backends.get(device)
        if existing is not None:
            return existing
        properties = get_device(device)
        for adopted in self._adopted:
            if adopted.properties.fingerprint() == properties.fingerprint():
                self._backends[device] = adopted
                return adopted
        backend = PulseBackend.from_device(
            device,
            calibrated_qubits=[0, 1],
            seed=self.seed,
        )
        self._backends[device] = backend
        return backend

    def _build_table(self, device: str, qubits: tuple[int, ...]):
        """Create (or fetch) the backend's channel table for a qubit set.

        Only the table object is made here, once per key through the
        registry: :func:`~repro.benchmarking.engine.clifford_channel_table`
        caches tables on the backend without a lock.  No element is built;
        each experiment builds (and, with a store, persists) the elements
        its own sequences use, under the table's build lock.
        """
        from ..benchmarking.engine import clifford_channel_table

        backend = self.backend_for(device)
        group = self._group_artifact(len(qubits))
        return clifford_channel_table(backend, list(qubits), group, store=self.store)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _cached_result(self, spec: ExperimentSpec) -> ExperimentResult | None:
        """Serve one concrete spec from the result cache, if possible.

        A hit returns the stored result — payload bit-identical to the
        cold run that produced it — with ``provenance["cache_hit"]`` set;
        no prep artifact is built and nothing executes.  Misses (including
        corrupt or truncated entries, which the store counts and treats as
        absent) return ``None`` and the caller falls through to the cold
        path, whose publication repairs the entry.
        """
        if not self.result_cache:
            return None
        result = self.store.load_result(
            spec.cache_fingerprint(), self.properties_fingerprint_for(spec.device)
        )
        if result is None:
            self._bump_stat("cache_misses")
            return None
        result.provenance = {**result.provenance, "cache_hit": True}
        self._bump_stat("cache_hits")
        return result

    def _publish_result(self, spec: ExperimentSpec, result: ExperimentResult) -> None:
        """Publish a freshly computed result to the store (exactly once)."""
        if self.store is None or spec.is_container:
            return
        self.store.save_result(
            result,
            cache_fingerprint=spec.cache_fingerprint(),
            properties_fingerprint=result.provenance["properties_fingerprint"],
        )

    #: Seconds between polls of the ``results`` namespace while another
    #: session executes the same key (the in-flight wait loop).
    _INFLIGHT_POLL = 0.1

    def _run_spec(self, spec: ExperimentSpec, batch: int | None = None) -> ExperimentResult:
        """Serve one spec, wrapped in its (root-job-only) trace.

        Every *root* job — a direct ``submit``/``run`` — carries one
        :class:`~repro.obs.trace.Trace` recording the spans of its
        phases and the store-counter deltas it caused.  Sweep children
        recurse through this method on the same thread and record their
        spans into the root sweep's trace instead of opening one each:
        child provenance is embedded in the sweep *payload*, so a
        per-child trace would break the payload's determinism.

        The finished trace is attached to the returned result's
        ``provenance["trace"]`` **after** any cache publication — the
        stored document never contains a trace, keeping cached payload +
        provenance bit-identical across serving paths — and emitted to
        the configured :attr:`trace_sink` as one JSON line.

        ``batch`` is the token of the :meth:`run_all` the root job belongs
        to (``None`` for a single submit); children run in their
        container's batch.
        """
        if getattr(self._local, "trace", None) is not None:
            return self._run_spec_inner(spec)  # sweep child: reuse root trace
        load_execution_modules()  # executor threads never race a first import
        trace = Trace(spec.kind, spec_fingerprint=spec.fingerprint())
        self._local.trace = trace
        self._local.batch = batch
        before = self._store_counters()
        try:
            result = self._run_spec_inner(spec)
        except Exception as exc:
            trace.add("error", repr(exc))
            raise
        finally:
            self._local.trace = None
            self._local.batch = None
            trace.add("store_counter_deltas", _counter_deltas(before, self._store_counters()))
            trace.finish()
            if self.trace_sink is not None:
                self.trace_sink.emit(trace)
        result.provenance = {**result.provenance, "trace": trace.to_dict()}
        return result

    @contextmanager
    def _span(self, name: str, **attributes):
        """Record a span on the current job's trace (no-op without one)."""
        trace = getattr(self._local, "trace", None)
        if trace is None:
            yield dict(attributes)
        else:
            with trace.span(name, **attributes) as attrs:
                yield attrs

    def _run_spec_inner(self, spec: ExperimentSpec) -> ExperimentResult:
        """Serve one spec: cache hit, in-flight wait, or cold execution."""
        if spec.is_container:
            return self._run_container(spec)
        with self._span("cache_lookup", spec_fingerprint=spec.fingerprint()) as attrs:
            cached = self._cached_result(spec)
            attrs["hit"] = cached is not None
        if cached is not None:
            return self._maybe_shadow_verify(spec, cached)
        if self.result_cache:
            return self._run_spec_exactly_once(spec)
        return self._execute_spec(spec)

    def _maybe_shadow_verify(
        self, spec: ExperimentSpec, cached: ExperimentResult
    ) -> ExperimentResult:
        """Shadow-verify a sampled cache hit against a live re-execution.

        When the :class:`~repro.obs.shadow.ShadowSampler` selects this
        hit, the spec is re-executed on the live engine **without
        publishing** and the two payload fingerprints are compared:

        * **match** — the cached result is served as usual, marked
          ``provenance["shadow_verified"]`` (``shadow_checks`` counted);
        * **mismatch** — the cached entry is quarantined (moved aside on
          disk, counted by the store), the fresh result is published in
          its place and served, and the session counts a
          ``shadow_mismatches`` — the exact signal the CI shadow-canary
          job fails on.

        Only plain cache hits are sampled; hits resolved through the
        in-flight wait were *just* produced by a live execution and
        carry nothing to verify.
        """
        if not self.shadow.sample():
            return cached
        with self._span("shadow_verify") as attrs:
            self._bump_stat("shadow_checks")
            fresh = self._execute_spec(spec, publish=False)
            match = fresh.payload_fingerprint() == cached.payload_fingerprint()
            attrs["match"] = match
            if match:
                cached.provenance = {**cached.provenance, "shadow_verified": True}
                return cached
            self._bump_stat("shadow_mismatches")
            self.store.quarantine_result(
                spec.cache_fingerprint(), self.properties_fingerprint_for(spec.device)
            )
            self._publish_result(spec, fresh)
            fresh.provenance = {
                **fresh.provenance, "shadow_verified": True, "shadow_mismatch": True,
            }
            return fresh

    def _run_spec_exactly_once(self, spec: ExperimentSpec) -> ExperimentResult:
        """Cold execution under the cross-process lock-or-wait protocol.

        Closes the ROADMAP in-flight-deduplication gap: publication was
        always exactly-once (``save_result`` serializes on the entry's
        writer lock), but two *concurrently* cold sessions both executed.
        Here the execution itself coordinates on the key's
        :meth:`~repro.store.results.ResultMixin.inflight_lock`:

        * the first session acquires it non-blockingly and executes
          (publishing before release, as before);
        * racing sessions — other threads of this session, other
          processes, or the service daemon's workers — fail the
          non-blocking acquire, count a ``dedup_waits``, and poll the
          ``results`` namespace until the executor's publication lands,
          which they serve exactly like a cache hit (provenance marked
          ``cache_hit`` + ``inflight_wait``);
        * a waiter that instead observes the lock *free* again without a
          valid publication (the executor crashed, or opted out of
          publishing) takes the lock over, re-checks the cache under it,
          and becomes the executor — so a dead executor never wedges the
          key, it merely costs the wait.

        The protocol is gated on :attr:`result_cache`: with the cache
        disabled (``result_cache=False`` / ``REPRO_RESULT_CACHE=0``)
        every submission executes independently, preserving the forced
        cold-baseline semantics.
        """
        cache_fp = spec.cache_fingerprint()
        props_fp = self.properties_fingerprint_for(spec.device)
        lock = self.store.inflight_lock(cache_fp, props_fp)
        contended = False
        try:
            lock.acquire(timeout=0)
        except TimeoutError:
            contended = True
            self._bump_stat("dedup_waits")
            with self._span("inflight_wait") as attrs:
                while True:
                    if self.store.has_result(cache_fp, props_fp):
                        result = self.store.load_result(cache_fp, props_fp)
                        if result is not None:
                            result.provenance = {
                                **result.provenance, "cache_hit": True, "inflight_wait": True,
                            }
                            # the wait resolved into a cache hit: count it, so
                            # N duplicate submissions aggregate to 1 execution
                            # + N-1 cache_hits across sessions
                            self._bump_stat("cache_hits")
                            attrs["resolved"] = "publication"
                            return result
                    try:
                        lock.acquire(timeout=self._INFLIGHT_POLL)
                        attrs["resolved"] = "takeover"
                        break  # lock freed without a publication: take over
                    except TimeoutError:
                        continue
        try:
            # re-check under the lock: the previous holder — or a racer
            # that published between our cache miss and an *uncontended*
            # acquire (it released just before we tried) — may have landed
            # the result.  The counter-free full-document probe keeps the
            # common genuinely-cold (and corrupt-entry) paths' stats
            # untouched.
            if contended or self.store.has_valid_result(cache_fp, props_fp):
                cached = self._cached_result(spec)
                if cached is not None:
                    return cached
            return self._execute_spec(spec)
        finally:
            lock.release()

    def _execute_spec(self, spec: ExperimentSpec, publish: bool = True) -> ExperimentResult:
        """Prepare (exactly once, lock-guarded) and execute one spec.

        ``publish=False`` skips the result-cache publication — the
        shadow-verification re-run uses it so a *matching* check leaves
        the store byte-for-byte untouched (the mismatch path republishes
        explicitly after quarantining the bad entry).
        """
        prep_start = time.perf_counter()
        with self._span("plan") as attrs:
            steps = list(prep_steps_for(spec))
            attrs["n_steps"] = len(steps)
        with self._span("prep"):
            for step in steps:
                _resolved(self._build_step(step))
        prepare_s = time.perf_counter() - prep_start

        execute_start = time.perf_counter()
        with self._span("execute", kind=spec.kind):
            executor_name = self._EXECUTORS.get(spec.kind)
            if executor_name is None:
                raise ValidationError(f"cannot execute spec of kind {spec.kind!r}")
            payload, provenance_extra = getattr(self, executor_name)(spec)
        execute_s = time.perf_counter() - execute_start

        self._bump_stat("executions")
        backend = self.backend_for(spec.device)
        provenance = {
            "spec_fingerprint": spec.fingerprint(),
            "properties_fingerprint": backend.properties.fingerprint(),
            "store_root": str(self.store.root) if self.store is not None else None,
            "timings": {"prepare_s": prepare_s, "execute_s": execute_s},
            **provenance_extra,
        }
        result = ExperimentResult(
            kind=spec.kind, spec=spec.to_dict(), payload=payload, provenance=provenance
        )
        if publish:
            self._publish_result(spec, result)
        return result

    def _run_container(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute a container spec: plan its children jointly, run each.

        Covers every ``is_container`` spec — parameter sweeps and drift
        studies alike.  The plan is cache-aware, so the container resolves
        at **per-child granularity**: children whose result is already
        cached are served from the store (payload bit-identical to the
        cold run) and excluded from preparation; only the missing children
        build prep and execute.  The aggregate result itself is
        reassembled from the children rather than cached — its provenance
        reports how many were warm (``cached_points``).  The payload opens
        with the container's :meth:`~repro.session.specs.ExperimentSpec.payload_header`
        (the sweep's grid, the drift study's day axis) followed by the
        per-child documents.

        The children are one batch: IRB children that draw the same
        reference curve compute it once (see :meth:`_shared_reference`).
        """
        children = spec.expand()
        with self._span("plan") as attrs:
            plan = self.plan(children)
            attrs["n_steps"] = len(plan.steps)
            attrs["n_points"] = len(children)
        with self._span("prep"):
            self._build_plan(plan)
        outer = getattr(self._local, "batch", None)
        self._local.batch = batch = next(self._batches)
        try:
            results = [self._run_spec(child) for child in children]
        finally:
            self._local.batch = outer
            self._end_batch(batch)
        payload = {
            **spec.payload_header(),
            "children": [
                {"spec": r.spec, "payload": r.payload, "provenance": r.provenance}
                for r in results
            ],
        }
        provenance = {
            "spec_fingerprint": spec.fingerprint(),
            "n_points": len(children),
            "cached_points": sum(1 for r in results if r.cache_hit),
        }
        return ExperimentResult(
            kind=spec.kind, spec=spec.to_dict(), payload=payload, provenance=provenance
        )

    #: Spec kind → executor method name: the single execution registry
    #: every concrete spec dispatches through.  New spec kinds plug in by
    #: registering a planner (:func:`~repro.session.planner.register_spec_planner`)
    #: and adding one executor entry here — cache replay, traces, stats and
    #: service submission come for free.
    _EXECUTORS = {
        "grape": "_execute_grape",
        "optimizer": "_execute_optimizer",
        "rb": "_execute_rb",
        "irb": "_execute_irb",
        "xeb": "_execute_xeb",
        "purity_rb": "_execute_purity_rb",
        "cycle": "_execute_cycle",
    }

    def _execute_grape(self, spec: GRAPESpec):
        """Execute a GRAPE spec: expose the pulse and its channel errors."""
        from ..qobj.gates import standard_gate_unitary
        from ..qobj.metrics import average_gate_fidelity

        backend = self.backend_for(spec.device)
        optimization, schedule = self._grape_artifact(spec)
        gate = spec.gate.lower()
        target = standard_gate_unitary(gate)
        custom_channel = backend.simulator.schedule_channel(schedule, qubits=list(spec.qubits))
        custom_error = 1.0 - average_gate_fidelity(custom_channel, target)
        if gate == "h":
            # no standalone default H pulse exists: the default H transpiles
            # to rz-sx-rz, so its channel error is that of the default sx
            default_channel = backend.gate_channel("sx", spec.qubits)
            default_error = 1.0 - average_gate_fidelity(
                default_channel, standard_gate_unitary("sx")
            )
        else:
            default_channel = backend.gate_channel(gate, spec.qubits)
            default_error = 1.0 - average_gate_fidelity(default_channel, target)
        times = np.arange(optimization.n_ts) * optimization.dt
        payload = {
            "times_ns": times,
            "initial_amps": np.asarray(optimization.initial_amps),
            "final_amps": np.asarray(optimization.final_amps),
            "fid_err": float(optimization.fid_err),
            "n_iter": int(optimization.n_iter),
            "n_ts": int(optimization.n_ts),
            "dt": float(optimization.dt),
            "duration_ns": float(spec.duration_ns),
            "schedule_duration_samples": int(schedule.duration),
            "custom_channel_error": float(custom_error),
            "default_channel_error": float(default_error),
        }
        return payload, {"schedule_fingerprint": schedule.fingerprint()}

    def _rb_payload(self, result) -> dict:
        """Flatten one RBResult into plain payload entries.

        The arrays are copies: IRB payloads of one batch may flatten the
        same shared reference curve.
        """
        return {
            "lengths": np.array(result.lengths),
            "survival_mean": np.array(result.survival_mean),
            "survival_std": np.array(result.survival_std),
            "alpha": float(result.alpha),
            "alpha_err": float(result.alpha_err),
            "error_per_clifford": float(result.error_per_clifford),
            "error_per_clifford_err": float(result.error_per_clifford_err),
            **_fit_fields(result.fit),
        }

    def _table_provenance(self, spec) -> dict:
        """Store key of the channel table a RB/IRB spec replays (if any)."""
        table = self._artifacts.get(("table", _canonical(spec.device), spec.qubits))
        if table is None:
            return {}
        return {"store_key": table.store_key}

    def _execute_rb(self, spec: RBSpec):
        """Execute a standard-RB spec through the shared resources."""
        from ..benchmarking.rb import StandardRB

        backend = self.backend_for(spec.device)
        experiment = StandardRB(
            backend,
            list(spec.qubits),
            lengths=spec.lengths,
            n_seeds=spec.n_seeds,
            shots=spec.shots,
            seed=spec.seed,
            engine=spec.engine,
            num_workers=self.num_workers,
            store=self.store,
        )
        result = experiment.run()
        return self._rb_payload(result), self._table_provenance(spec)

    def _execute_irb(self, spec: IRBSpec):
        """Execute an interleaved-RB spec (custom pulse from its GRAPE)."""
        from ..benchmarking.irb import InterleavedRBExperiment

        backend = self.backend_for(spec.device)
        calibration_schedule = None
        if spec.calibration is not None:
            calibration_schedule = self._grape_artifact(spec.calibration)[1]
        experiment = InterleavedRBExperiment(
            backend,
            spec.gate,
            list(spec.qubits),
            lengths=spec.lengths,
            n_seeds=spec.n_seeds,
            shots=spec.shots,
            seed=spec.seed,
            custom_calibration=calibration_schedule,
            engine=spec.engine,
            num_workers=self.num_workers,
            store=self.store,
        )
        result = experiment.run(reference=self._shared_reference(spec.device, experiment))
        lo, hi = result.systematic_bounds
        payload = {
            "gate_name": result.gate_name,
            "gate_error": float(result.gate_error),
            "gate_error_std": float(result.gate_error_std),
            "alpha_c": float(result.alpha_c),
            "systematic_lower": float(lo),
            "systematic_upper": float(hi),
        }
        for label, curve in (("reference", result.reference), ("interleaved", result.interleaved)):
            for key, value in self._rb_payload(curve).items():
                payload[f"{label}_{key}"] = value
        return payload, self._table_provenance(spec)

    def _execute_optimizer(self, spec: OptimizerSpec):
        """Execute an optimizer spec: the pulse payload + method digest.

        An ``lbfgs`` spec with no method options **is** the legacy GRAPE
        path: it normalizes to the equivalent :class:`GRAPESpec` (shared
        prep artifact, pulse-cache key and result-cache entry), so its
        payload stays bit-identical to the ``grape`` kind.  Every other
        method extends the pulse payload with the optimizer's uniform
        digest (``wall_time`` is deliberately excluded — payloads must be
        deterministic for cache replay and shadow verification).
        """
        canonical = spec.canonical_pulse_spec()
        payload, provenance_extra = self._execute_grape(spec)
        if isinstance(canonical, GRAPESpec):
            return payload, provenance_extra
        optimization, _ = self._grape_artifact(spec)
        digest = optimization.summary()
        payload["method"] = digest["method"]
        payload["n_fun_evals"] = digest["n_fun_evals"]
        payload["termination_reason"] = digest["termination_reason"]
        payload["converged"] = digest["converged"]
        return payload, provenance_extra

    def _execute_xeb(self, spec):
        """Execute a linear-XEB spec through the shared resources."""
        from ..benchmarking.xeb import run_xeb

        backend = self.backend_for(spec.device)
        result = run_xeb(
            backend,
            list(spec.qubits),
            depths=spec.depths,
            n_circuits=spec.n_circuits,
            shots=spec.shots,
            seed=spec.seed,
            engine=spec.engine,
            store=self.store,
        )
        payload = {
            "depths": np.asarray(result.depths),
            "fidelity": np.asarray(result.fidelity),
            "layer_fidelity": float(result.layer_fidelity),
            "layer_fidelity_err": float(result.fit.alpha_err),
            **_fit_fields(result.fit),
        }
        return payload, self._table_provenance(spec)

    def _execute_purity_rb(self, spec):
        """Execute a purity-RB (unitarity) spec through the shared resources."""
        from ..benchmarking.purity import run_purity_rb

        backend = self.backend_for(spec.device)
        result = run_purity_rb(
            backend,
            list(spec.qubits),
            lengths=spec.lengths,
            n_seeds=spec.n_seeds,
            seed=spec.seed,
            engine=spec.engine,
            store=self.store,
        )
        payload = {
            "lengths": np.asarray(result.lengths),
            "shifted_purity_mean": np.asarray(result.shifted_purity_mean),
            "shifted_purity_std": np.asarray(result.shifted_purity_std),
            "unitarity": float(result.unitarity),
            "unitarity_err": float(result.unitarity_err),
            **_fit_fields(result.fit),
        }
        return payload, self._table_provenance(spec)

    def _execute_cycle(self, spec):
        """Execute a cycle-benchmarking spec through the shared resources."""
        from ..benchmarking.cycle import run_cycle_benchmark

        backend = self.backend_for(spec.device)
        result = run_cycle_benchmark(
            backend,
            spec.gate,
            list(spec.qubits),
            lengths=spec.lengths,
            n_seeds=spec.n_seeds,
            shots=spec.shots,
            seed=spec.seed,
            engine=spec.engine,
            num_workers=self.num_workers,
            store=self.store,
        )
        payload = {"gate_name": result.gate, **self._rb_payload(result.rb)}
        payload["error_per_cycle"] = float(result.error_per_cycle)
        payload["error_per_cycle_err"] = float(result.error_per_cycle_err)
        return payload, self._table_provenance(spec)


class _PendingArtifact:
    """A registry entry whose value the process pool is still computing.

    :meth:`resolve` runs ``finish`` — wait for the pool's result, then
    finish the artifact in this process — exactly once: the first
    resolving thread runs it and the others wait for its value.  A
    ``finish`` that raises leaves the entry unresolved, and the next
    reader raises the same way.
    """

    def __init__(self, finish):
        self._finish = finish
        self._lock = threading.Lock()
        self._value = None

    def resolve(self):
        """The finished artifact (waits for the pool and runs ``finish`` once)."""
        with self._lock:
            if self._value is None:
                self._value = self._finish()
            return self._value


def _fit_fields(fit) -> dict:
    """A decay fit's status and reduced χ² as payload entries."""
    return {"fit_status": fit.status, "reduced_chi2": float(fit.reduced_chi2)}


def _resolved(entry):
    """The value of a registry entry, waiting for it when it is pending."""
    return entry.resolve() if isinstance(entry, _PendingArtifact) else entry


def _optimize_pulse(properties, config, method_options):
    """Pool task of a cold ``grape`` step: one pulse optimization."""
    from ..experiments import gates

    return gates.optimize_gate_pulse(properties, config, method_options=method_options)


def _canonical(device: str) -> str:
    """Canonical device key shared with the planner."""
    from .planner import _canonical_device

    return _canonical_device(device)


def _counter_deltas(before: dict, after: dict) -> dict:
    """Non-zero per-namespace deltas between two ``ArtifactStore.stats`` snapshots."""
    deltas: dict = {}
    for namespace, counters in after.items():
        base = before.get(namespace, {})
        changed = {
            key: value - base.get(key, 0)
            for key, value in counters.items()
            if value - base.get(key, 0)
        }
        if changed:
            deltas[namespace] = changed
    return deltas
