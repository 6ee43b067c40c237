"""Shared helpers for the benchmark harness.

Every bench times one subsystem (the RB engine, the store, the session,
the service, shadow verification) and (a) reports the wall time through
pytest-benchmark, (b) prints its measured rows, and (c) writes them to
``benchmarks/results/<name>.txt`` so the numbers are preserved next to the
timing output.  The paper's figure and table claims are tier-1 tests
(``tests/test_paper_claims.py``).

The harness additionally emits ``benchmarks/results/BENCH_rb.json`` — the
machine-readable summary (per-bench wall clock plus the metrics benches
register through the ``bench_metrics`` fixture) that CI uploads as an
artifact and compares against the committed baseline via
``benchmarks/check_regression.py``.

Environment knobs:

* ``REPRO_BENCH_SMOKE=1`` (set by the CI benchmark-smoke job) — reduced-size
  smoke mode: benches that support it shrink their workload, and the emitted
  JSON is tagged so the regression checker refuses to compare smoke numbers
  against the full baseline.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_rb.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

_wall_clocks: dict[str, float] = {}
_metrics: dict[str, dict] = {}


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, np.ndarray):
        return np.array2string(np.asarray(value), precision=5, max_line_width=120)
    return str(value)


@pytest.fixture(scope="session")
def save_results():
    """Return a callable that persists a bench's regenerated data."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, data: dict | str) -> str:
        if isinstance(data, str):
            text = data
        else:
            lines = [f"{key}: {_format_value(value)}" for key, value in data.items()]
            text = "\n".join(lines)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")
        return text

    return _save


@pytest.fixture(scope="session")
def bench_metrics():
    """Session dict benches use to register named metrics for BENCH_rb.json.

    Usage: ``bench_metrics["rb_engine"] = {"speedup": ..., ...}``.
    """
    return _metrics


@pytest.fixture(scope="session")
def smoke_mode() -> bool:
    """Whether the reduced-size CI smoke mode is active."""
    return SMOKE


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    yield
    _wall_clocks[item.name] = time.perf_counter() - start


def pytest_sessionfinish(session, exitstatus):
    if not _wall_clocks:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "smoke": SMOKE,
        "wall_clock_s": {name: round(wall, 4) for name, wall in sorted(_wall_clocks.items())},
        "metrics": _metrics,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
