"""The observability layer: per-job traces, /v1/metrics, shadow checks.

Covers the PR acceptance criteria of the observability layer:

* **Tracing** — every root job carries a trace whose spans record the
  ``cache_lookup`` / ``plan`` / ``prep`` / ``execute`` phases (and
  ``shadow_verify`` when sampled) with durations and store-counter
  deltas; the trace rides in ``provenance["trace"]`` of the *returned*
  result only — the cached document on disk never contains one, and
  sweep children record into the root trace instead of opening their
  own.  Sinks append one JSON line per job (``REPRO_TRACE_FILE``).
* **Metrics** — the stdlib registry renders valid Prometheus text
  exposition (validated by the same ``docs/check_metrics.py`` parser CI
  runs), and the daemon's ``GET /v1/metrics`` exports every required
  series, stays valid under concurrent scrapes racing job execution,
  and reflects executions / cache hits / queue counts.
* **Shadow verification** — a full-rate shadow session re-executes a
  cache hit, proves bit-identity (``shadow_verified``), writes nothing;
  a forcibly corrupted entry is detected, quarantined on disk, counted
  (``shadow_mismatches``, store ``quarantined``) and repaired in place;
  ``$REPRO_SHADOW_RATE`` overrides the constructor argument.
"""

from __future__ import annotations

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro.obs import (
    SHADOW_RATE_ENV,
    TRACE_FILE_ENV,
    MetricsRegistry,
    ShadowSampler,
    Trace,
    TraceSink,
    resolve_shadow_rate,
    resolve_trace_sink,
)
from repro.service import ExperimentService, ServiceClient, ServiceConfig
from repro.service.__main__ import build_parser
from repro.service.workers import WorkerPool
from repro.session import RBSpec, Session, SweepSpec
from repro.store import ArtifactStore
from repro.utils.validation import ValidationError

#: Small-but-real RB workload shared by the observability tests.
FAST_RB = dict(device="montreal", qubits=(0,), lengths=(1, 4, 8), n_seeds=1, shots=100, seed=5)


def _load_check_metrics():
    """Import ``docs/check_metrics.py`` (not a package) by file path."""
    path = Path(__file__).resolve().parents[1] / "docs" / "check_metrics.py"
    spec = importlib.util.spec_from_file_location("check_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_metrics = _load_check_metrics()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _service(tmp_path, store, **overrides):
    defaults = dict(
        host="127.0.0.1", port=0, store=store,
        queue_path=tmp_path / "queue.sqlite3", workers=1,
    )
    defaults.update(overrides)
    return ExperimentService(ServiceConfig(**defaults))


def _span_names(result) -> list[str]:
    return [span["name"] for span in result.provenance["trace"]["spans"]]


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
class TestTracing:
    def test_cold_run_trace_shape(self, store):
        spec = RBSpec(**FAST_RB)
        with Session(store=store, num_workers=1) as session:
            result = session.run(spec)

        trace = result.provenance["trace"]
        assert trace["kind"] == "rb"
        assert trace["spec_fingerprint"] == spec.fingerprint()
        assert len(trace["trace_id"]) == 16

        spans = trace["spans"]
        assert [span["name"] for span in spans] == [
            "cache_lookup", "plan", "prep", "execute",
        ]
        assert spans[0]["attributes"]["hit"] is False
        assert spans[3]["attributes"]["kind"] == "rb"
        for span in spans:
            assert span["start_s"] >= 0.0 and span["duration_s"] >= 0.0
            assert span["start_s"] + span["duration_s"] <= trace["duration_s"] + 1e-6
        # completion order recovers the sequential timeline
        starts = [span["start_s"] for span in spans]
        assert starts == sorted(starts)

        deltas = trace["attributes"]["store_counter_deltas"]
        assert deltas["results"]["writes"] == 1
        assert deltas["results"]["misses"] == 1

    def test_warm_run_trace_is_one_lookup(self, store):
        spec = RBSpec(**FAST_RB)
        with Session(store=store, num_workers=1) as session:
            session.run(spec)
        with Session(store=store, num_workers=1) as session:
            warm = session.run(spec)
            assert session.stats_snapshot()["executions"] == 0
        assert _span_names(warm) == ["cache_lookup"]
        assert warm.provenance["trace"]["spans"][0]["attributes"]["hit"] is True
        # the warm trace caused no store writes at all
        deltas = warm.provenance["trace"]["attributes"]["store_counter_deltas"]
        assert deltas.get("results", {}).get("writes", 0) == 0

    def test_stored_document_never_contains_a_trace(self, store):
        spec = RBSpec(**FAST_RB)
        with Session(store=store, num_workers=1) as session:
            cold = session.run(spec)
        assert "trace" in cold.provenance  # ...but only on the returned copy
        path = store.result_path(
            spec.cache_fingerprint(), cold.provenance["properties_fingerprint"]
        )
        document = json.loads(path.read_text())
        assert "trace" not in document["provenance"]

    def test_sweep_children_record_into_the_root_trace(self, store):
        sweep = SweepSpec(base=RBSpec(**FAST_RB), grid={"seed": (5, 6)})
        with Session(store=store, num_workers=1) as session:
            result = session.run(sweep)

        trace = result.provenance["trace"]
        assert trace["kind"] == "sweep"
        names = [span["name"] for span in trace["spans"]]
        # the sweep's joint plan/prep, then both children's phases, all in
        # the ONE root trace (2 children x cache_lookup+plan+prep+execute)
        assert names.count("execute") == 2
        assert names.count("cache_lookup") == 2
        # child provenance is embedded in the sweep payload and must stay
        # deterministic: no child ever carries its own trace
        for child in result.payload["children"]:
            assert "trace" not in child["provenance"]

    def test_trace_sink_appends_one_json_line_per_job(self, store, tmp_path):
        sink_path = tmp_path / "traces.jsonl"
        specs = [RBSpec(**FAST_RB), RBSpec(**{**FAST_RB, "seed": 6})]
        with Session(store=store, num_workers=1, trace_sink=sink_path) as session:
            for spec in specs:
                session.run(spec)

        lines = [json.loads(line) for line in sink_path.read_text().splitlines()]
        assert len(lines) == 2
        assert {line["spec_fingerprint"] for line in lines} == {
            spec.fingerprint() for spec in specs
        }
        assert len({line["trace_id"] for line in lines}) == 2
        for line in lines:
            assert line["kind"] == "rb" and line["duration_s"] > 0.0

    def test_env_names_the_default_sink(self, store, tmp_path, monkeypatch):
        sink_path = tmp_path / "env-traces.jsonl"
        monkeypatch.setenv(TRACE_FILE_ENV, str(sink_path))
        with Session(store=store, num_workers=1) as session:
            session.run(RBSpec(**FAST_RB))
        assert len(sink_path.read_text().splitlines()) == 1

        # trace_sink=False disables emission even with the env set
        sink_path.unlink()
        with Session(store=store, num_workers=1, trace_sink=False) as session:
            session.run(RBSpec(**{**FAST_RB, "seed": 7}))
        assert not sink_path.exists()

    def test_resolve_trace_sink_contract(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_FILE_ENV, raising=False)
        assert resolve_trace_sink(None) is None
        assert resolve_trace_sink(False) is None
        sink = TraceSink(tmp_path / "t.jsonl")
        assert resolve_trace_sink(sink) is sink
        assert resolve_trace_sink(tmp_path / "u.jsonl").path == tmp_path / "u.jsonl"
        with pytest.raises(ValidationError):
            resolve_trace_sink(3.14)

    def test_sink_failure_never_raises(self, tmp_path):
        sink = TraceSink(tmp_path)  # a directory: appending raises OSError
        sink.emit(Trace("rb").finish())  # swallowed

    def test_trace_finish_is_idempotent(self):
        trace = Trace("rb", spec_fingerprint="f" * 64)
        with trace.span("execute", kind="rb"):
            pass
        first = trace.finish().duration_s
        assert trace.finish().duration_s == first
        document = trace.to_dict()
        assert document["duration_s"] == first
        assert document["spans"][0]["name"] == "execute"


# ---------------------------------------------------------------------- #
# the metrics registry
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_render_is_valid_exposition(self):
        registry = MetricsRegistry()
        registry.counter("events_total", "Things that happened.").inc(3)
        registry.counter("events_total", "dup").labels(kind="write").inc()
        registry.gauge("pressure", "A point-in-time value.").set(0.5)
        histogram = registry.histogram("latency_seconds", "Waits.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        histogram.labels(status="done").observe(0.2)

        errors = check_metrics.validate(registry.render(), required=())
        assert errors == []

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", "Escaping.").labels(path='a"b\\c\nd').inc()
        text = registry.render()
        assert check_metrics.validate(text, required=()) == []
        assert '\\"' in text and "\\n" in text

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "H.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render()
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert "h_seconds_count 3" in text
        assert "h_seconds_sum 5.55" in text

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total", "N.")
        assert registry.counter("n_total", "other help") is counter
        with pytest.raises(ValidationError):
            registry.gauge("n_total", "not a counter")
        with pytest.raises(ValidationError):
            registry.counter("bad name", "spaces are illegal")
        with pytest.raises(ValidationError):
            registry.counter("ok_total", "bad label").labels(**{"0bad": "x"})

    def test_counter_value_tracking(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "C.")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        child = counter.labels(kind="x")
        child.set(7)
        assert child.value == 7


# ---------------------------------------------------------------------- #
# shadow sampling + verification
# ---------------------------------------------------------------------- #
class TestShadowSampler:
    def test_rate_bounds(self, monkeypatch):
        monkeypatch.delenv(SHADOW_RATE_ENV, raising=False)
        assert resolve_shadow_rate(None) == 0.0
        assert resolve_shadow_rate(0.25) == 0.25
        with pytest.raises(ValidationError):
            resolve_shadow_rate(1.5)
        assert not ShadowSampler(0.0).enabled
        assert not any(ShadowSampler(0.0).sample() for _ in range(50))
        assert all(ShadowSampler(1.0).sample() for _ in range(50))

    def test_seeded_sampling_is_deterministic(self, monkeypatch):
        monkeypatch.delenv(SHADOW_RATE_ENV, raising=False)
        draws = [
            [ShadowSampler(0.5, seed=11).sample() for _ in range(32)]
            for _ in range(2)
        ]
        assert draws[0] == draws[1]

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(SHADOW_RATE_ENV, "1.0")
        assert resolve_shadow_rate(0.0) == 1.0
        monkeypatch.setenv(SHADOW_RATE_ENV, "0")
        assert resolve_shadow_rate(1.0) == 0.0
        monkeypatch.setenv(SHADOW_RATE_ENV, "not-a-float")
        with pytest.raises(ValidationError):
            resolve_shadow_rate(0.5)


class TestShadowVerification:
    def test_matching_hit_is_marked_and_writes_nothing(self, store):
        spec = RBSpec(**FAST_RB)
        with Session(store=store, num_workers=1) as session:
            cold = session.run(spec)
        with Session(store=store, num_workers=1, shadow_rate=1.0) as session:
            verified = session.run(spec)
            stats = session.stats_snapshot()

        assert verified.provenance.get("shadow_verified") is True
        assert verified.provenance.get("cache_hit") is True
        assert "shadow_mismatch" not in verified.provenance
        assert verified.payload_fingerprint() == cold.payload_fingerprint()
        assert stats["shadow_checks"] == 1
        assert stats.get("shadow_mismatches", 0) == 0
        assert stats["executions"] == 1  # the unpublished shadow re-run
        # a matching check leaves the store byte-for-byte untouched
        assert store.namespace_stats("results")["writes"] == 1
        assert store.namespace_stats("results")["quarantined"] == 0
        # ...and the trace shows the verification phases
        names = _span_names(verified)
        assert names[0] == "cache_lookup" and names[-1] == "shadow_verify"
        assert verified.provenance["trace"]["spans"][-1]["attributes"]["match"] is True

    def test_forced_mismatch_quarantines_and_repairs(self, store):
        spec = RBSpec(**FAST_RB)
        with Session(store=store, num_workers=1) as session:
            cold = session.run(spec)

        path = store.result_path(
            spec.cache_fingerprint(), cold.provenance["properties_fingerprint"]
        )
        document = json.loads(path.read_text())
        document["payload"]["alpha"] = 0.123456  # silent corruption
        path.write_text(json.dumps(document))

        with Session(store=store, num_workers=1, shadow_rate=1.0) as session:
            repaired = session.run(spec)
            stats = session.stats_snapshot()

        assert stats["shadow_checks"] == 1 and stats["shadow_mismatches"] == 1
        assert repaired.provenance.get("shadow_mismatch") is True
        assert repaired.provenance.get("shadow_verified") is True
        assert repaired.payload_fingerprint() == cold.payload_fingerprint()
        # the bad entry was moved aside, not deleted: one quarantined
        # sibling on disk, one counted by the store
        assert store.namespace_stats("results")["quarantined"] == 1
        quarantined = list(path.parent.glob("*.quarantined"))
        assert len(quarantined) == 1
        assert json.loads(quarantined[0].read_text())["payload"]["alpha"] == 0.123456
        # the republished entry serves the repaired payload to the next hit
        with Session(store=store, num_workers=1) as session:
            replay = session.run(spec)
            assert session.stats_snapshot()["executions"] == 0
        assert replay.payload_fingerprint() == cold.payload_fingerprint()

    def test_env_rate_overrides_the_constructor(self, store, monkeypatch):
        spec = RBSpec(**FAST_RB)
        with Session(store=store, num_workers=1) as session:
            session.run(spec)
        monkeypatch.setenv(SHADOW_RATE_ENV, "1.0")
        with Session(store=store, num_workers=1, shadow_rate=0.0) as session:
            verified = session.run(spec)
            assert session.stats_snapshot()["shadow_checks"] == 1
        assert verified.provenance.get("shadow_verified") is True

    def test_shadowing_defaults_to_off(self, store, monkeypatch):
        monkeypatch.delenv(SHADOW_RATE_ENV, raising=False)
        spec = RBSpec(**FAST_RB)
        with Session(store=store, num_workers=1) as session:
            session.run(spec)
        with Session(store=store, num_workers=1) as session:
            warm = session.run(spec)
            stats = session.stats_snapshot()
        assert "shadow_verified" not in warm.provenance
        assert "shadow_checks" not in stats  # lazy: absent until one happens

    def test_stats_snapshot_is_a_copy(self, store):
        with Session(store=store) as session:
            snapshot = session.stats_snapshot()
            snapshot["executions"] = 999
            assert session.stats["executions"] == 0


# ---------------------------------------------------------------------- #
# the daemon's /v1/metrics
# ---------------------------------------------------------------------- #
class TestServiceMetrics:
    def test_exposition_is_valid_before_and_after_jobs(self, tmp_path, store):
        spec = RBSpec(**FAST_RB)
        with _service(tmp_path, store) as service, ServiceClient(service.url) as client:
            before = client.metrics()
            assert check_metrics.validate(before) == []
            assert 'repro_jobs{status="done"} 0' in before

            client.result(client.submit(spec), timeout=120.0)
            after = client.metrics()
            assert check_metrics.validate(after) == []
            assert 'repro_jobs{status="done"} 1' in after
            assert 'repro_session_events_total{counter="executions"} 1' in after
            assert "repro_job_duration_seconds_bucket" in after
            assert "repro_job_queue_latency_seconds_count 1" in after

            # a duplicate submission is a cache hit: the ratio moves
            client.result(client.submit(spec), timeout=120.0)
            final = client.metrics()
            assert 'repro_session_events_total{counter="cache_hits"} 1' in final
            assert "repro_cache_hit_ratio 0.5" in final

    def test_exposition_stays_valid_under_concurrent_scrapes(self, tmp_path, store):
        with _service(tmp_path, store) as service, ServiceClient(service.url) as client:
            job_ids = [
                client.submit(RBSpec(**{**FAST_RB, "seed": seed})) for seed in (21, 22)
            ]
            failures: list[str] = []

            def scrape():
                for _ in range(10):
                    failures.extend(check_metrics.validate(client.metrics()))

            threads = [threading.Thread(target=scrape) for _ in range(4)]
            for thread in threads:
                thread.start()
            results = [client.result(job_id, timeout=120.0) for job_id in job_ids]
            for thread in threads:
                thread.join()

            assert failures == []
            assert all(result.kind == "rb" for result in results)

    def test_daemon_shadow_rate_flows_to_workers(self, tmp_path, store):
        spec = RBSpec(**FAST_RB)
        with _service(tmp_path, store, shadow_rate=1.0) as service, ServiceClient(service.url) as client:
            client.result(client.submit(spec), timeout=120.0)
            replay = client.result(client.submit(spec), timeout=120.0)
            text = client.metrics()
            sessions = service.pool.aggregate_stats()

        assert replay.provenance.get("shadow_verified") is True
        assert sessions["shadow_checks"] == 1
        assert sessions["shadow_mismatches"] == 0
        assert "repro_shadow_checks_total 1" in text
        assert "repro_shadow_mismatches_total 0" in text

    def test_daemon_trace_file_collects_worker_traces(self, tmp_path, store):
        sink_path = tmp_path / "service-traces.jsonl"
        with _service(tmp_path, store, trace_file=sink_path) as service, ServiceClient(service.url) as client:
            client.result(client.submit(RBSpec(**FAST_RB)), timeout=120.0)
        lines = [json.loads(line) for line in sink_path.read_text().splitlines()]
        assert len(lines) == 1 and lines[0]["kind"] == "rb"

    def test_aggregate_stats_are_zero_seeded(self, tmp_path, store):
        service = _service(tmp_path, store)  # constructed, never started
        sessions = service.pool.aggregate_stats()
        assert sessions == {key: 0 for key in WorkerPool.STAT_KEYS}
        # the required series render even with nothing running
        assert check_metrics.validate(service.metrics_text()) == []

    def test_cli_exposes_the_observability_flags(self):
        args = build_parser().parse_args(
            ["--shadow-rate", "0.25", "--trace-file", "traces.jsonl"]
        )
        assert args.shadow_rate == 0.25
        assert args.trace_file == "traces.jsonl"
