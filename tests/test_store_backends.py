"""Tests for the file layer of the store's ``results`` namespace.

Two layers of coverage:

* the **on-disk layout** — a published result is exactly one file,
  ``results/v<N>/<spec>/<props>.json``, that every reader of the store
  (``ls``, ``disk_stats``, ``load_result``, a bounded ``prune``) sees;
* **fault injection** on the namespace's file calls — reads fail open (an
  I/O hiccup is a cache miss, never an exception), writes fail loudly
  (publication errors propagate, leaving no partial file), and a listing
  fault skips one retention sweep without crashing it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.session.results import ExperimentResult
from repro.store import RESULT_FORMAT_VERSION, ArtifactStore

SPEC_FP, PROPS_FP = "c" * 64, "p" * 64


def _result_for(spec_dict: dict, payload_value: float = 1.0) -> ExperimentResult:
    """A tiny synthetic result document for retention tests."""
    return ExperimentResult(
        kind=spec_dict["kind"],
        spec=spec_dict,
        payload={"value": payload_value},
        provenance={"spec_fingerprint": "s" * 64, "properties_fingerprint": "p" * 64},
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def saved(store):
    """The store with one published result under (SPEC_FP, PROPS_FP)."""
    store.save_result(_result_for({"kind": "rb", "seed": 1}),
                      cache_fingerprint=SPEC_FP, properties_fingerprint=PROPS_FP)
    return store


class TestLocalFSLayout:
    def test_keys_map_onto_files(self, store):
        result = _result_for({"kind": "rb", "seed": 1})
        store.save_result(result, cache_fingerprint=SPEC_FP, properties_fingerprint=PROPS_FP)
        directory = store.root / "results" / f"v{RESULT_FORMAT_VERSION}" / SPEC_FP
        path = directory / f"{PROPS_FP}.json"
        assert store.result_path(SPEC_FP, PROPS_FP) == path
        assert path.read_bytes() == (result.to_json() + "\n").encode("utf-8")
        # no tmp-file litter from the atomic publish
        assert [p.name for p in directory.iterdir()] == [path.name]

    def test_sweep_empty_collects_empty_directories(self, saved):
        assert saved.prune(results_max_age=0.0) == 1
        assert not saved.result_path(SPEC_FP, PROPS_FP).parent.exists()

    def test_every_reader_sees_one_saved_result(self, saved):
        """``ls``, ``disk_stats``, ``load_result`` and a bounded ``prune``
        all read the one file the result was published to."""
        size = saved.result_path(SPEC_FP, PROPS_FP).stat().st_size
        [entry] = saved.ls("results")
        assert entry["key"] == f"{SPEC_FP}/{PROPS_FP}"
        assert entry["files"] == 1 and entry["bytes"] == size
        assert saved.disk_stats()["results"] == {"entries": 1, "files": 1, "bytes": size}
        assert saved.load_result(SPEC_FP, PROPS_FP).payload == {"value": 1.0}
        assert saved.prune(results_max_bytes=size) == 0  # within the bound
        assert saved.prune(results_max_bytes=size - 1) == 1
        assert saved.ls("results") == []
        assert saved.disk_stats()["results"]["entries"] == 0
        assert saved.load_result(SPEC_FP, PROPS_FP) is None


class TestResultFileFaults:
    def test_reads_fail_open_as_cache_misses(self, saved, monkeypatch):
        """An I/O fault on the read path is a miss, never an exception."""
        real_open = Path.open

        def failing_open(self, *args, **kwargs):
            if self.suffix == ".json" and "results" in self.parts:
                raise OSError("injected read fault")
            return real_open(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "open", failing_open)
            assert saved.has_result(SPEC_FP, PROPS_FP) is False
            assert saved.load_result(SPEC_FP, PROPS_FP) is None
        stats = saved.namespace_stats("results")
        assert stats["misses"] == 1 and stats["corrupt"] == 1
        # the fault is gone: the same reads now succeed
        assert saved.has_result(SPEC_FP, PROPS_FP) is True
        assert saved.load_result(SPEC_FP, PROPS_FP) is not None

    def test_write_faults_propagate_then_retry_succeeds(self, store, monkeypatch):
        """Publication must fail loudly, leave no partial file, and an
        immediate retry publishes."""
        result = _result_for({"kind": "rb", "seed": 1})

        def failing_replace(src, dst):
            raise OSError("injected write fault")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", failing_replace)
            with pytest.raises(OSError, match="injected write fault"):
                store.save_result(result, cache_fingerprint=SPEC_FP,
                                  properties_fingerprint=PROPS_FP)
        directory = store.result_path(SPEC_FP, PROPS_FP).parent
        assert list(directory.iterdir()) == []  # no entry, no tmp litter
        assert store.namespace_stats("results")["writes"] == 0
        assert store.save_result(result, cache_fingerprint=SPEC_FP,
                                 properties_fingerprint=PROPS_FP) is True
        assert store.load_result(SPEC_FP, PROPS_FP) is not None

    def test_sweep_survives_listing_faults(self, saved, monkeypatch):
        """A prune whose listing fails skips the sweep instead of crashing."""

        def failing_rglob(self, pattern):
            raise OSError("injected listing fault")

        with monkeypatch.context() as patch:
            patch.setattr(Path, "rglob", failing_rglob)
            assert saved.prune(results_max_age=0.0) == 0  # hiccup: skipped sweep
        assert saved.has_result(SPEC_FP, PROPS_FP)
        assert saved.prune(results_max_age=0.0) == 1  # next sweep collects
