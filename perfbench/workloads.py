"""The three benchmark workloads: ``paper_cold``, ``seed_study``, ``service_mix``.

Each workload function takes a :class:`Run` and returns a :class:`Outcome`:
end-to-end metrics measured with tracing off, or, in a traced run, per-layer
metrics from alternating traced and untraced units of work (the difference
of their ``run_s`` medians is the tracing overhead).

A *unit of work* is what ``run_s`` times: one cold paper batch, one
seed-study batch, or one round of service jobs.  Per-layer counts and busy
times are reported per unit, so they do not depend on how many units fit in
``--seconds``.
"""

from __future__ import annotations

import json
import math
import os
import queue
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.service.client import ServiceClient
from repro.session import Session
from repro.utils.parallel import parallel_map

import specs as workload_specs
from tracing import STORE_NAMESPACES, Tracer, import_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh store warm-ups per seed-study run (``setup_s`` is their median).
SEED_STUDY_SETUPS = 5
#: Store warm-up + daemon boots per service-mix run (``setup_s`` is their median).
SERVICE_SETUPS = 2
#: Jobs per service round (the service ``run_s`` unit) and how many are fresh.
ROUND_JOBS = 20
FRESH_PER_ROUND = 6
#: Client threads of the service closed loop (one job in flight each).
CLIENT_THREADS = 2
#: Paper batches per untraced run, whatever ``--seconds`` allows: a cold
#: batch takes 4-9 s and single batches scatter by +-15 % on a shared 2-vCPU
#: host (serial sessions scatter as much), so the per-batch figures are
#: averaged over at least six.
PAPER_MIN_BATCHES = 6
#: Seconds to wait for a child batch or a daemon boot before giving up
#: (a batch takes under 10 s; a run must end within 180 s).
CHILD_TIMEOUT_S = 60.0


@dataclass
class Run:
    """Arguments of one benchmark run."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path
    results_dir: Path

    def child_env(self) -> dict[str, str]:
        """Environment of child interpreters: this checkout's ``src`` first."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = str(self.workdir)
        return env


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    checks: dict[str, bool] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _middle(values) -> list[int]:
    """Indexes of the values left after dropping the lowest and the highest quarter."""
    ranked = sorted(range(len(values)), key=values.__getitem__)
    cut = len(ranked) // 4
    return ranked[cut:len(ranked) - cut]


def _steady(values) -> float:
    """Interquartile mean: the mean of the middle half of the values.  A slow
    outlier unit (the host paused the benchmark) moves it no more than it
    moves a median, while the middle units are averaged rather than a single
    one picked."""
    return float(statistics.fmean(values[i] for i in _middle(values))) if values else 0.0


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _per_unit(totals: dict[str, float], units: int) -> dict[str, float]:
    return {name: value / max(units, 1) for name, value in totals.items()}


def _add(into: dict[str, float], totals: dict[str, float]) -> None:
    for name, value in totals.items():
        into[name] = into.get(name, 0.0) + value


def _overhead(traced: list[float], untraced: list[float]) -> dict[str, float]:
    traced_s, untraced_s = _median(traced), _median(untraced)
    return {
        "trace.run_s_traced": traced_s,
        "trace.run_s_untraced": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }


def start_process_pool() -> None:
    """Start the program's persistent process pool while this process has one thread.

    A default ``Session`` (``num_workers=0``) otherwise forks the pool lazily
    from one of its executor threads while the others compute; in about 1
    cold paper batch in 100 a forked worker then waited forever on a lock
    another thread held at the fork, and the batch hung.  Forking first keeps
    the same pool (same worker count, same start method) without that race.
    """
    parallel_map(abs, [0, 0], num_workers=0)


def session_latencies_ms(results, called_wall: float) -> list[float]:
    """Per-spec time from the ``run_all`` call until that spec's result was ready."""
    return [
        1e3 * (r.provenance["trace"]["started_at"] + r.provenance["trace"]["duration_s"] - called_wall)
        for r in results
    ]


def _end_to_end(setups, run_s, rates, latencies, rss_mb) -> dict[str, float]:
    """End-to-end metrics from per-unit samples.

    ``run_s``, ``rates`` (specs completed per second) and ``latencies`` (the
    round trips of the unit's specs) hold one entry per unit of work.  The
    percentiles pool the round trips of the middle half of the units by
    ``run_s``, the units :func:`_steady` averages.
    """
    pooled = [ms for index in _middle(run_s) for ms in latencies[index]]
    return {
        "setup_s": _median(setups),
        "run_s": _steady(run_s),
        "specs_per_s": _steady(rates),
        "rt_p50_ms": _percentile(pooled, 50),
        "rt_p90_ms": _percentile(pooled, 90),
        "peak_rss_mb": rss_mb,
    }


def _run_child(run: Run, command: list[str]) -> tuple[int, str, str]:
    """Run a child interpreter in its own process group; kill the group on timeout.

    Returns (exit code, stdout, stderr); a timeout reads as exit code -1.
    """
    child = subprocess.Popen(
        command, env=run.child_env(), cwd=run.workdir, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        return child.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the child and its pool workers
        out, err = child.communicate()
        return -1, out, err + f"\nchild timed out after {CHILD_TIMEOUT_S:g} s\n"


def _last_json(text: str) -> dict | None:
    """The JSON document on the last line of a child's output, if any."""
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _measuring(run: Run, start: float, index: int, min_units: int = 1) -> bool:
    """Whether to start another unit: ``--seconds`` not yet spent, fewer than
    ``min_units`` units run, or a traced run without both kinds of unit yet."""
    floor = 2 if run.trace else min_units
    return time.perf_counter() - start < run.seconds or index < floor


def _is_table_spec(kind: str) -> bool:
    return kind in ("rb", "irb")


# --------------------------------------------------------------------------- #
# paper_cold
# --------------------------------------------------------------------------- #
def paper_cold(run: Run) -> Outcome:
    """Every Fig./Table I spec through one ``Session(store=None)``, a fresh child per batch."""
    setups, run_s, latencies, rss = [], [], [], []
    traced_run_s, untraced_run_s, totals = [], [], {}
    reference: dict[str, str] | None = None
    batch_size = len(workload_specs.paper_specs(run.seed))
    attempted = failed = bfs_missing = traced_units = table_specs = 0
    start = time.perf_counter()
    index = 0
    while _measuring(run, start, index, PAPER_MIN_BATCHES):
        traced = run.trace and index % 2 == 1
        command = [sys.executable, str(HERE / "paper_child.py"), "--order-seed", str(run.seed)]
        if traced:
            spans = run.results_dir / f"spans-paper_cold-seed{run.seed}-unit{index}.jsonl"
            command += ["--spans", str(spans)]
        spawned_wall = time.time()
        code, out, err = _run_child(run, command)
        index += 1
        document = _last_json(out) if code == 0 else None
        if document is None:
            sys.stderr.write(err)
            attempted += batch_size
            failed += batch_size
            break
        batch = document["results"]
        attempted += len(batch)
        fingerprints = {entry["spec"]: entry["payload"] for entry in batch}
        if reference is None:
            reference = fingerprints
        for entry in batch:
            error = entry["gate_error"]
            if reference.get(entry["spec"]) != entry["payload"] or (
                entry["kind"] == "irb" and not (math.isfinite(error) and 0.0 < error < 0.1)
            ):
                failed += 1
        if document["bfs"] < 1:
            bfs_missing += 1
        setups.append(document["ready_wall"] - spawned_wall)
        run_s.append(document["run_s"])
        rss.append(document["rss_mb"])
        if traced:
            traced_run_s.append(document["run_s"])
            _add(totals, document["layers"])
            traced_units += 1
            table_specs += sum(1 for entry in batch if _is_table_spec(entry["kind"]))
        else:
            latencies.append(document["latencies_ms"])
            untraced_run_s.append(document["run_s"])
    outcome = Outcome(
        metrics={}, attempted=max(attempted, 1), failed=failed,
        checks={"clifford_group did a BFS in every child": bfs_missing == 0 and bool(run_s)},
        samples={"batches": len(run_s), "spec_latencies": sum(map(len, latencies))},
    )
    if not run_s:
        return outcome
    if run.trace:
        outcome.metrics = _session_layers(totals, traced_units, table_specs)
        outcome.metrics.update(_overhead(traced_run_s, untraced_run_s))
    else:
        rates = [batch_size / elapsed for elapsed in run_s]
        # A child's peak RSS depends on how many of the session's threads hold
        # their arrays at once, which varies from batch to batch (220-295 MB);
        # the smallest peak is the footprint of the work itself.
        outcome.metrics = _end_to_end(setups, run_s, rates, latencies, min(rss))
    return outcome


#: Service layers, measured only by ``service_mix`` (0 on the other workloads).
SERVICE_LAYERS = (
    "service.queue_wait_ms",
    "service.execute_ms",
    "service.visible_lag_ms",
    "service.polls_per_job",
    "service.http_submit_ms",
    "service.http_status_ms",
    "service.cache_hit_ratio",
    "service.rt_cached_p50_ms",
    "service.rt_cached_p95_ms",
    "service.rt_fresh_p50_ms",
    "service.rt_fresh_p90_ms",
)


def _session_layers(totals: dict[str, float], units: int, table_specs: int) -> dict[str, float]:
    """Per-unit layer metrics of in-process (Session) workloads."""
    metrics = dict.fromkeys(SERVICE_LAYERS, 0.0)
    metrics.update(_per_unit(totals, units))
    metrics["benchmarking.rb_sequences.calls_per_spec"] = (
        totals.get("benchmarking.rb_sequences.calls", 0) / table_specs if table_specs else 0.0
    )
    return metrics


# --------------------------------------------------------------------------- #
# seed_study
# --------------------------------------------------------------------------- #
def _warm_seed_study_store(root: Path) -> float:
    start = time.perf_counter()
    with Session(store=root) as session:
        session.run_all(workload_specs.seed_study_warmup_specs())
    return time.perf_counter() - start


def seed_study(run: Run) -> Outcome:
    """Fresh-seed IRB batches on a warmed store, in this long-lived process."""
    import_layers()
    start_process_pool()
    setups = []
    store = None
    for attempt in range(SEED_STUDY_SETUPS):
        if store is not None:
            shutil.rmtree(store)
        store = run.workdir / f"seed-store-{attempt}"
        setups.append(_warm_seed_study_store(store))

    seeds = workload_specs.fresh_seeds(run.seed)
    pick = random.Random(run.seed)
    tracer = Tracer()
    run_s, rates, latencies, traced_run_s, untraced_run_s = [], [], [], [], []
    attempted = failed = cache_hits = elements_written = traced_units = table_specs = 0
    start = time.perf_counter()
    index = 0
    while _measuring(run, start, index):
        batch = workload_specs.seed_study_batch(seeds)
        traced = run.trace and index % 2 == 1
        index += 1
        if traced:
            tracer.install()
        called_wall = time.time()
        began = time.perf_counter()
        attempted += len(batch)
        try:
            with Session(store=store) as session:
                results = session.run_all(batch)
        except Exception:  # a failed batch is counted, the study goes on
            traceback.print_exc()
            failed += len(batch)
            continue
        finally:
            elapsed = time.perf_counter() - began
            tracer.uninstall()
        cache_hits += session.stats["cache_hits"]
        tables = session.store.stats["channel_tables"]
        elements_written += tables["writes"] + tables["elements_written"]
        failed += sum(1 for r in results if not math.isfinite(r.payload["gate_error"]))
        run_s.append(elapsed)
        rates.append(len(batch) / elapsed)
        if traced:
            traced_run_s.append(elapsed)
            traced_units += 1
            table_specs += len(batch)
        else:
            untraced_run_s.append(elapsed)
            latencies.append(session_latencies_ms(results, called_wall))
        # outside the timed section: one sampled spec re-run without a store
        position = pick.randrange(len(batch))
        with Session(store=None) as check:
            again = check.run(batch[position])
        if again.payload_fingerprint() != results[position].payload_fingerprint():
            failed += 1
    outcome = Outcome(
        metrics={}, attempted=max(attempted, 1), failed=failed,
        checks={
            "no result-cache hit in any batch": cache_hits == 0,
            "no channel-table element built after setup": elements_written == 0,
        },
        samples={"batches": len(run_s), "spec_latencies": sum(map(len, latencies))},
    )
    if not run_s:
        return outcome
    if run.trace:
        tracer.write_spans(run.results_dir / f"spans-seed_study-seed{run.seed}.jsonl")
        outcome.metrics = _session_layers(tracer.layer_totals(), traced_units, table_specs)
        outcome.metrics.update(_overhead(traced_run_s, untraced_run_s))
    else:
        outcome.metrics = _end_to_end(setups, run_s, rates, latencies, _rss_self_mb())
    return outcome


# --------------------------------------------------------------------------- #
# service_mix
# --------------------------------------------------------------------------- #
class Daemon:
    """One ``python -m repro.service`` process on a store in the work directory."""

    def __init__(self, run: Run, store: Path):
        self.run = run
        self.store = store
        self.process: subprocess.Popen | None = None
        self.url = ""
        self._lines: queue.Queue = queue.Queue()
        self._reader: threading.Thread | None = None

    def _read_stdout(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def start(self) -> None:
        log = open(self.store.parent / "daemon.log", "a")
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.service", "--port", "0",
                    "--root", str(self.store),
                    "--queue", str(self.store.parent / "queue.sqlite3"),
                    "--no-auth",
                ],
                env=self.run.child_env(), cwd=self.run.workdir,
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        finally:
            log.close()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError("daemon did not finish booting") from None
            if line is None:
                raise RuntimeError(f"daemon exited during boot ({self.process.wait()})")
            match = re.search(r"listening on (\S+)", line)
            if match:
                self.url = match.group(1)
            if line.strip().startswith("auth:"):
                break
        ServiceClient(self.url).health()

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)
        self.process.stdout.close()
        self.process = None


def _warm_service(run: Run, index: int) -> tuple[Daemon, dict[str, str], float]:
    """Warm a store with the paper batch (in a child) and boot a daemon on it."""
    store = run.workdir / f"service-{index}" / "store"
    store.parent.mkdir(parents=True)
    start = time.perf_counter()
    code, out, err = _run_child(
        run,
        [sys.executable, str(HERE / "paper_child.py"), "--order-seed", str(run.seed),
         "--store", str(store)],
    )
    document = _last_json(out) if code == 0 else None
    if document is None:
        raise RuntimeError(f"store warm-up failed (exit {code}):\n{err}")
    daemon = Daemon(run, store)
    try:
        daemon.start()
    except BaseException:
        daemon.stop()
        raise
    elapsed = time.perf_counter() - start
    return daemon, {entry["spec"]: entry["payload"] for entry in document["results"]}, elapsed


_EVENT = re.compile(r'^repro_session_events_total\{counter="(\w+)"\}\s+(\S+)$', re.M)


def _session_events(client: ServiceClient) -> dict[str, float]:
    return {name: float(value) for name, value in _EVENT.findall(client.metrics())}


def _store_counters(client: ServiceClient) -> dict[str, dict[str, int]]:
    return client.store_stats()["stats"]


@dataclass
class _Job:
    spec: object
    cached: bool
    traced: bool = False
    rt_ms: float = 0.0
    ok: bool = False
    document: dict | None = None
    returned_wall: float = 0.0


def _run_job(client: ServiceClient, job: _Job, expected: dict[str, str]) -> None:
    began = time.perf_counter()
    job_id = client.submit(job.spec)
    result = client.result(job_id)
    job.rt_ms = 1e3 * (time.perf_counter() - began)
    job.returned_wall = time.time()
    if job.cached:
        job.ok = result.cache_hit and result.payload_fingerprint() == expected[job.spec.fingerprint()]
    else:
        error = result.payload["error_per_clifford"]
        job.ok = not result.cache_hit and math.isfinite(error) and 0.0 < error < 0.1
    if job.traced:
        job.document = client.status(job_id)  # timestamps, outside the round trip


def _service_round(client: ServiceClient, jobs: list[_Job], expected) -> int:
    """Run one round through the closed loop; returns the number of failed jobs."""
    lock = threading.Lock()
    pending = list(reversed(jobs))
    failures = []

    def worker():
        while True:
            with lock:
                if not pending:
                    return
                job = pending.pop()
            try:
                _run_job(client, job, expected)
            except Exception as exc:  # a failed job is counted, the loop goes on
                failures.append(repr(exc))

    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
        for future in [pool.submit(worker) for _ in range(CLIENT_THREADS)]:
            future.result()
    for message in failures:
        sys.stderr.write(f"service job failed: {message}\n")
    return len(failures)


def service_mix(run: Run) -> Outcome:
    """A 2-thread closed loop of cached paper specs and fresh RB specs via HTTP."""
    import_layers()
    setups, daemon = [], None
    try:
        for index in range(SERVICE_SETUPS):
            if daemon is not None:
                daemon.stop()
                shutil.rmtree(daemon.store.parent)
            daemon, expected, elapsed = _warm_service(run, index)
            setups.append(elapsed)
        return _service_loop(run, daemon, expected, setups)
    finally:
        if daemon is not None:
            daemon.stop()


def _service_loop(run: Run, daemon: Daemon, expected, setups) -> Outcome:
    client = ServiceClient(daemon.url)
    cached_pool = workload_specs.paper_specs(run.seed)
    seeds = workload_specs.fresh_seeds(run.seed)
    order = random.Random(run.seed)
    tracer = Tracer()
    events_before = _session_events(client)
    store_before = _store_counters(client)
    rounds_s, traced_s, untraced_s, rounds_jobs = [], [], [], []
    failed = 0
    start = time.perf_counter()
    index = 0
    while _measuring(run, start, index):
        traced = run.trace and index % 2 == 1
        jobs = [
            _Job(order.choice(cached_pool), True, traced)
            for _ in range(ROUND_JOBS - FRESH_PER_ROUND)
        ]
        jobs += [
            _Job(workload_specs.fresh_rb_spec(next(seeds)), False, traced)
            for _ in range(FRESH_PER_ROUND)
        ]
        order.shuffle(jobs)
        index += 1
        if traced:
            tracer.install()
        began = time.perf_counter()
        try:
            failed += _service_round(client, jobs, expected)
        finally:
            elapsed = time.perf_counter() - began
            tracer.uninstall()
        rounds_s.append(elapsed)
        (traced_s if traced else untraced_s).append(elapsed)
        rounds_jobs.append(jobs)
    rss_mb = daemon.peak_rss_mb()
    events = _session_events(client)
    store_after = _store_counters(client)

    done = [job for jobs in rounds_jobs for job in jobs if job.rt_ms > 0]
    failed += sum(1 for job in done if not job.ok)
    n_cached = sum(1 for job in done if job.cached)
    n_fresh = len(done) - n_cached
    hits = events.get("cache_hits", 0) - events_before.get("cache_hits", 0)
    executions = events.get("executions", 0) - events_before.get("executions", 0)
    untraced_jobs = [job for job in done if not job.traced]
    outcome = Outcome(
        metrics={}, attempted=max(sum(map(len, rounds_jobs)), 1), failed=failed,
        checks={
            "every cached spec hit the result cache": hits >= n_cached and n_cached > 0,
            "every fresh spec executed": executions == n_fresh,
        },
        samples={
            "rounds": len(rounds_s), "jobs": len(untraced_jobs),
            "cached_jobs": sum(1 for job in untraced_jobs if job.cached),
            "fresh_jobs": sum(1 for job in untraced_jobs if not job.cached),
        },
    )
    if not rounds_s:
        return outcome
    if run.trace:
        tracer.write_spans(run.results_dir / f"spans-service_mix-seed{run.seed}.jsonl")
        outcome.metrics = _service_layers(
            tracer, done, len(traced_s), len(rounds_s),
            hits / max(hits + executions, 1), store_before, store_after,
        )
        outcome.metrics.update(_overhead(traced_s, untraced_s))
    else:
        rates = [ROUND_JOBS / elapsed for elapsed in rounds_s]
        latencies = [[job.rt_ms for job in jobs if job.rt_ms > 0] for jobs in rounds_jobs]
        outcome.metrics = _end_to_end(setups, rounds_s, rates, latencies, rss_mb)
    return outcome


def _service_layers(tracer, jobs, traced_rounds, rounds, hit_ratio, before, after) -> dict[str, float]:
    """Service per-layer metrics, measured from outside the daemon."""
    totals = tracer.layer_totals()
    metrics = {name: 0.0 for name in totals}  # in-daemon layers are not visible here
    metrics["trace.spans"] = totals["trace.spans"] / max(traced_rounds, 1)
    for namespace in STORE_NAMESPACES:
        delta = {
            counter: after[namespace].get(counter, 0) - before[namespace].get(counter, 0)
            for counter in ("hits", "misses", "writes")
        }
        metrics[f"store.{namespace}.reads"] = (delta["hits"] + delta["misses"]) / rounds
        metrics[f"store.{namespace}.misses"] = delta["misses"] / rounds
        metrics[f"store.{namespace}.writes"] = delta["writes"] / rounds
    metrics["benchmarking.rb_sequences.calls_per_spec"] = 0.0

    documented = [job for job in jobs if job.document is not None]
    by_name: dict[str, list[float]] = {}
    children: dict[int, int] = {}
    for span_id, name, start, end, parent, _ in tracer.spans:
        by_name.setdefault(name, []).append(1e3 * (end - start))
        if name == "service.http_status" and parent is not None:
            children[parent] = children.get(parent, 0) + 1
    results = [span[0] for span in tracer.spans if span[1] == "service.result"]

    def docs(key_a, key_b):
        return [1e3 * (job.document[key_b] - job.document[key_a]) for job in documented]

    cached = [job.rt_ms for job in jobs if job.cached]
    fresh = [job.rt_ms for job in jobs if not job.cached]
    metrics.update({
        "service.queue_wait_ms": _median(docs("submitted_at", "started_at")),
        "service.execute_ms": _median(docs("started_at", "finished_at")),
        "service.visible_lag_ms": _median(
            [1e3 * (job.returned_wall - job.document["finished_at"]) for job in documented]
        ),
        "service.polls_per_job": sum(children.get(i, 0) for i in results) / max(len(results), 1),
        "service.http_submit_ms": _median(by_name.get("service.http_submit", [0.0])),
        "service.http_status_ms": _median(by_name.get("service.http_status", [0.0])),
        "service.cache_hit_ratio": hit_ratio,
        "service.rt_cached_p50_ms": _percentile(cached, 50),
        "service.rt_cached_p95_ms": _percentile(cached, 95),
        "service.rt_fresh_p50_ms": _percentile(fresh, 50),
        "service.rt_fresh_p90_ms": _percentile(fresh, 90),
    })
    return metrics


WORKLOADS = {
    "paper_cold": paper_cold,
    "seed_study": seed_study,
    "service_mix": service_mix,
}
