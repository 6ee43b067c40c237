"""Benchmark of the paper pipeline: cold paper run, fresh-seed IRB study, service mix.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` makes a separate traced run and reports the
per-layer metrics, each tagged with the end-to-end metric and workload it
should move (``perfbench/layers.json``).  ``--workload all`` runs every
workload untraced and then traced.  The report, the machine fingerprint and
the spans of traced runs are written under ``.perfbench/results``; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment variables that change what the program does; a run refuses them.
BEHAVIOUR_VARIABLES = (
    "REPRO_RESULT_CACHE",
    "REPRO_GRAPE_BATCH",
    "REPRO_ARRAY_BACKEND",
    "REPRO_MP_START",
    "REPRO_SHADOW_RATE",
    "REPRO_TRACE_FILE",
    "REPRO_MAX_OPT_ITER",
)

#: What each workload's report must say about the layers it cannot see.
_POOL_NOTE = (
    "RB sequence jobs fan out to utils/parallel pool processes, so they appear only "
    "at execute_channels granularity (sample_measurement reads 0)."
)
NOTES = {
    "paper_cold": _POOL_NOTE,
    "seed_study": _POOL_NOTE,
    "service_mix": "Measured from outside the daemon: job documents, client calls and "
    "/v1/metrics + /v1/store/stats deltas. In-daemon layers read 0; store "
    "read_s/write_s are not observable from outside.",
}


def _refused_variables() -> list[str]:
    return sorted(
        name
        for name in os.environ
        if name in BEHAVIOUR_VARIABLES or name.startswith("REPRO_FAULT_")
    )


def machine_fingerprint() -> dict:
    """Cores, BLAS, Python and numpy versions of the measuring machine."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _ordered_metrics(outcome, declared: list[dict]) -> dict:
    """The outcome's metrics in declaration order, with units; all must be present."""
    missing = [entry["name"] for entry in declared if entry["name"] not in outcome.metrics]
    if missing and outcome.metrics:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {}
    for entry in declared:
        value = float(outcome.metrics.get(entry["name"], 0.0))
        if not math.isfinite(value):
            raise RuntimeError(f"metric {entry['name']} is not finite ({value})")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def _report(workload: str, trace: bool, outcome, metrics: dict, layers: dict, machine: dict) -> None:
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"== {workload}: {kind} ==")
    print("machine: " + ", ".join(f"{key}={value}" for key, value in machine.items()))
    print("samples: " + ", ".join(f"{key}={value}" for key, value in outcome.samples.items()))
    for check, passed in outcome.checks.items():
        print(f"check: {check}: {'ok' if passed else 'FAILED'}")
    print(
        f"attempted={outcome.attempted} failed={outcome.failed} "
        f"failed_frac={outcome.failed / outcome.attempted:.4f}"
    )
    for name, entry in metrics.items():
        moves = ""
        if trace:
            targets = layers.get(name, [])
            moves = "  -> " + (", ".join(f"{m} on {w}" for m, w in targets) or "(overhead)")
        print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']:<6}{moves}")
    if trace:
        print(f"note: {NOTES[workload]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, contract: dict, machine: dict):
    """Run one workload; print its report and write it under ``.perfbench/results``."""
    import workloads

    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench" / "work" / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    saved_tmpdir = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    try:
        outcome = workloads.WORKLOADS[name](
            workloads.Run(seed=seed, seconds=seconds, trace=trace, workdir=workdir,
                          results_dir=results_dir)
        )
    finally:
        tempfile.tempdir = None
        if saved_tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmpdir
        shutil.rmtree(workdir, ignore_errors=True)
    declared = contract["per_layer"] if trace else contract["end_to_end"]
    metrics = _ordered_metrics(outcome, declared)
    with open(HERE / "layers.json") as handle:
        layers = json.load(handle)
    _report(name, trace, outcome, metrics, layers, machine)
    document = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "finished_at": time.time(),
        "machine": machine,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "samples": outcome.samples,
        "metrics": metrics,
    }
    if trace:
        document["moves"] = {metric: layers.get(metric, []) for metric in metrics}
        document["note"] = NOTES[name]
    suffix = "traced" if trace else "e2e"
    with open(results_dir / f"{name}-seed{seed}-{suffix}.json", "w") as handle:
        json.dump(document, handle, indent=2)
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cold", "seed_study", "service_mix", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = _refused_variables()
    if refused:
        print(f"refusing to run with behaviour-changing variables set: {refused}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    contract = _load_contract()
    machine = machine_fingerprint()

    if args.workload != "all":
        outcome, metrics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), contract, machine
        )
        print(json.dumps({
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }))
        return 0

    correct, attempted, failed, combined = True, 0, 0, {}
    for name in ("paper_cold", "seed_study", "service_mix"):
        for trace in (False, True):
            outcome, metrics = run_workload(name, args.seed, args.seconds, trace, contract, machine)
            correct = correct and outcome.correct
            attempted += outcome.attempted
            failed += outcome.failed
            combined.update({f"{name}.{metric}": entry for metric, entry in metrics.items()})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
