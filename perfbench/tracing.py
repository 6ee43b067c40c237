"""Per-layer tracing built from the benchmark's own files.

A :class:`Tracer` wraps public functions of each layer *at the name the
caller resolves*: ``engine.py`` binds ``sample_measurement`` at import, so the
wrapper goes on ``repro.benchmarking.engine.sample_measurement``, not on
``repro.backend.sampling``.  Each wrapped call records one span (name, start,
end, parent, thread) in memory; :meth:`Tracer.write_spans` writes them out
when the run ends.  The parent of a span is the innermost traced call open on
the same thread, so a layer's *self time* is its duration minus that of its
direct children.

The batched expm/Fréchet kernels are counted, not spanned: they run
thousands of times per GRAPE and a span each would dominate what it measures.

Work fanned out to ``repro.utils.parallel`` pool processes (RB sequence jobs
of a ``num_workers != 1`` session) is only seen at ``execute_channels``
granularity: the pool workers are other processes and record nothing here.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Span layers: (module, attribute path, span name).  A layer may be reached
#: through several bindings; every one the program calls is wrapped.
SPANS = (
    ("repro.session.session", "Session.plan", "session.plan"),
    ("repro.session.session", "prep_steps_for", "session.plan"),
    ("repro.benchmarking.clifford", "clifford_group", "benchmarking.clifford_group"),
    ("repro.benchmarking.rb", "clifford_group", "benchmarking.clifford_group"),
    ("repro.benchmarking.engine", "CliffordChannelTable.ensure", "benchmarking.table_ensure"),
    ("repro.benchmarking.rb", "rb_sequences", "benchmarking.rb_sequences"),
    ("repro.benchmarking.irb", "rb_sequences", "benchmarking.rb_sequences"),
    ("repro.benchmarking.engine", "execute_sequences_with_channels", "benchmarking.execute_channels"),
    ("repro.benchmarking.rb", "fit_rb_decay", "benchmarking.fit"),
    ("repro.experiments.gates", "optimize_gate_pulse", "experiments.optimize_gate_pulse"),
    ("repro.experiments.gates", "optimize_gate_pulse_batch", "experiments.optimize_gate_pulse_batch"),
    ("repro.backend.backend", "PulseBackend.gate_channel", "backend.gate_channel"),
    ("repro.benchmarking.engine", "sample_measurement", "backend.sample_measurement"),
    ("repro.store", "ArtifactStore.load_group_arrays", "store.groups.read"),
    ("repro.store", "ArtifactStore.ensure_group_saved", "store.groups.write"),
    ("repro.store", "ArtifactStore.load_channel_table", "store.channel_tables.read"),
    ("repro.store", "ArtifactStore.save_channel_table", "store.channel_tables.write"),
    ("repro.store", "ArtifactStore.load_pulse", "store.pulses.read"),
    ("repro.store", "ArtifactStore.save_pulse", "store.pulses.write"),
    ("repro.store", "ArtifactStore.load_result", "store.results.read"),
    ("repro.store", "ArtifactStore.save_result", "store.results.write"),
    ("repro.service.client", "ServiceClient.submit", "service.http_submit"),
    ("repro.service.client", "ServiceClient.status", "service.http_status"),
    ("repro.service.client", "ServiceClient.result", "service.result"),
)

#: Counted kernels: (module, attribute, counter prefix).
KERNELS = (
    ("repro.core.dynamics", "expm_batch", "solvers.expm"),
    ("repro.core.dynamics", "hermitian_eig_batch", "solvers.expm"),
    ("repro.core.grape", "expm_frechet_batch", "solvers.expm"),
    ("repro.core.grape_batch", "hermitian_eig_batch", "solvers.expm"),
    ("repro.solvers.propagator", "expm_batch", "solvers.expm"),
    ("repro.solvers.propagator", "expm_unitary_step_batch", "solvers.expm"),
)

#: Span layers reported with ``busy_s`` and ``self_s`` (in report order).
TIMED_LAYERS = (
    "session.plan",
    "benchmarking.clifford_group",
    "benchmarking.table_ensure",
    "benchmarking.rb_sequences",
    "benchmarking.execute_channels",
    "benchmarking.fit",
    "experiments.optimize_gate_pulse",
    "experiments.optimize_gate_pulse_batch",
    "backend.gate_channel",
    "backend.sample_measurement",
)
#: Span layers whose call count is reported as ``<layer>.calls``.
COUNTED_LAYERS = (
    "benchmarking.clifford_group",
    "benchmarking.rb_sequences",
    "benchmarking.fit",
    "backend.gate_channel",
    "backend.sample_measurement",
)
STORE_NAMESPACES = ("groups", "channel_tables", "pulses", "results")

#: Marks a patched class attribute that was inherited, not defined on the class.
_INHERITED = object()


def import_layers() -> None:
    """Import every traced module, so traced and untraced runs import alike."""
    for module_name, _, _ in SPANS + KERNELS:
        importlib.import_module(module_name)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) of a dotted attribute path in a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span and counter recorder over patched layer functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to one counter (thread-safe)."""
        with self._lock:
            self.counters[name] += n

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped to record one span per call.

        ``after(result)`` runs after a successful call, outside the span,
        to derive counters from the call's result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if after is not None:
                after(result)
            return result

        return wrapper

    def kernel(self, prefix: str, fn):
        """``fn`` wrapped to add to ``<prefix>.calls`` and ``<prefix>.busy_s``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.counters[prefix + ".calls"] += 1
                    self.counters[prefix + ".busy_s"] += elapsed

        return wrapper

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        owner, attr = _resolve(module_name, path)
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))

    def count_bfs(self) -> "Tracer":
        """Count Clifford-group breadth-first searches (group constructions)."""
        self._patch(
            "repro.benchmarking.clifford",
            "CliffordGroup.__init__",
            lambda fn: self._counting(fn, "benchmarking.clifford_group.bfs"),
        )
        return self

    def _counting(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every layer of :data:`SPANS` and :data:`KERNELS`."""
        hooks = {
            "benchmarking.fit": self._after_fit,
            "experiments.optimize_gate_pulse": self._after_optimize,
            "experiments.optimize_gate_pulse_batch": self._after_optimize,
        }
        for module_name, path, name in SPANS:
            if name == "benchmarking.table_ensure":
                self._patch(module_name, path, self._ensure_wrapper)
                continue
            if name.startswith("store."):
                after = self._store_hook(name)
            else:
                after = hooks.get(name)
            self._patch(
                module_name, path, lambda fn, name=name, after=after: self.span(name, fn, after)
            )
        for module_name, attr, prefix in KERNELS:
            self._patch(module_name, attr, lambda fn, prefix=prefix: self.kernel(prefix, fn))
        return self.count_bfs()

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _INHERITED:
                delattr(owner, attr)  # unshadow the base-class method
            else:
                setattr(owner, attr, saved)

    # ------------------------------------------------------------------ #
    # counter hooks
    # ------------------------------------------------------------------ #
    def _ensure_wrapper(self, fn):
        traced = self.span("benchmarking.table_ensure", fn)

        @functools.wraps(fn)
        def ensure(table, *args, **kwargs):
            before = len(table)
            result = traced(table, *args, **kwargs)
            self.count("benchmarking.table_ensure.elements_built", len(table) - before)
            return result

        return ensure

    def _after_fit(self, fit) -> None:
        self.count("benchmarking.fit.cov_singular", 0 if math.isfinite(fit.alpha_err) else 1)

    def _after_optimize(self, result) -> None:
        for optimization in result if isinstance(result, list) else [result]:
            self.count("core.optim.n_iter", optimization.n_iter)
            self.count("core.optim.n_fun_evals", optimization.n_fun_evals)

    def _store_hook(self, name: str):
        namespace, op = name.split(".")[1:]
        if op == "read":
            def after(value):
                if value is None:
                    self.count(f"store.{namespace}.misses")
        elif namespace == "groups":
            def after(wrote):
                self.count("store.groups.writes", 1 if wrote else 0)
        else:
            def after(value):
                self.count(f"store.{namespace}.writes")
        return after

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def layer_totals(self) -> dict[str, float]:
        """Busy, self time and counts of every layer, summed over the run.

        ``busy_s`` sums the outermost span of each nested same-name chain
        (a traced call inside another of the same layer is not counted
        twice); ``self_s`` subtracts the direct children's durations.  Both
        sum over threads, so they can exceed the wall time.
        """
        by_id = {span[0]: span for span in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span_id, name, start, end, parent, _ in self.spans:
            calls[name] += 1
            own[name] += (end - start) - child_time[span_id]
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[1] != name:
                ancestor = by_id.get(ancestor[4])
            if ancestor is None:
                busy[name] += end - start
        totals: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            totals[f"{layer}.busy_s"] = busy[layer]
            totals[f"{layer}.self_s"] = own[layer]
        for layer in COUNTED_LAYERS:
            totals[f"{layer}.calls"] = calls[layer]
        for namespace in STORE_NAMESPACES:
            totals[f"store.{namespace}.reads"] = calls[f"store.{namespace}.read"]
            totals[f"store.{namespace}.read_s"] = busy[f"store.{namespace}.read"]
            totals[f"store.{namespace}.write_s"] = busy[f"store.{namespace}.write"]
        for name in (
            "benchmarking.clifford_group.bfs",
            "benchmarking.table_ensure.elements_built",
            "benchmarking.fit.cov_singular",
            "core.optim.n_iter",
            "core.optim.n_fun_evals",
            "solvers.expm.calls",
            "solvers.expm.busy_s",
            *(f"store.{ns}.{c}" for ns in STORE_NAMESPACES for c in ("writes", "misses")),
        ):
            totals[name] = self.counters.get(name, 0)
        totals["trace.spans"] = len(self.spans)
        return totals

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to tracer start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, thread in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start - self._t0,
                            "end": end - self._t0,
                            "parent": parent,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )

