"""Golden headline numbers of the paper batch (``tests/golden/paper.json``).

The 28 deduplicated Fig. / Table I specs (seed 2022, fast mode) are pinned
by their headline numbers, each compared within its own tolerance (see
:data:`TOLERANCES`), and by their payload fingerprints, which are compared
only when numpy and its BLAS match the build that recorded the file.

Regenerate the file (and print the old → new diff) with::

    PYTHONPATH=src python tests/golden/paper_golden.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.experiments.figures import (
    fig1_spec,
    fig2_spec,
    fig3_specs,
    fig4_specs,
    fig5_specs,
    fig6_specs,
    fig7_spec,
    fig8_specs,
)
from repro.experiments.table1 import TABLE1_ROWS, table1_row_specs

SEED = 2022
GOLDEN_PATH = Path(__file__).with_name("paper.json")

#: Headline fields per spec kind, each with ``(kind, value)`` of its
#: tolerance: ``abs`` bounds |new − old|, ``rel`` bounds |new − old| / |old|,
#: ``exact`` asks for equality (the decay fits' statuses).
#: An α may drift by 1e-6 between two correct decay fits; EPCs and gate
#: errors scale α by at most 3/4 (gate errors take a ratio of two α's);
#: the Magesan bound's sqrt(1 − α) term amplifies α's drift up to ~100×.
#: Channel errors come from a deterministic simulation of the optimized
#: pulse.  ``fid_err`` is left out: it depends on the optimizer's path.
TOLERANCES = {
    "grape": {
        "custom_channel_error": ("rel", 1e-6),
        "default_channel_error": ("rel", 1e-6),
    },
    "irb": {
        "reference_alpha": ("abs", 1e-6),
        "interleaved_alpha": ("abs", 1e-6),
        "reference_alpha_err": ("rel", 1e-3),
        "interleaved_alpha_err": ("rel", 1e-3),
        "reference_error_per_clifford": ("abs", 1e-6),
        "interleaved_error_per_clifford": ("abs", 1e-6),
        "gate_error": ("abs", 2e-6),
        "systematic_lower": ("abs", 2e-4),
        "systematic_upper": ("abs", 2e-4),
        "reference_fit_status": ("exact", None),
        "interleaved_fit_status": ("exact", None),
    },
}


def paper_specs(seed: int = SEED) -> list:
    """Every Fig. / Table I spec at ``seed``, deduplicated by fingerprint (28)."""
    specs = [fig1_spec(seed), fig2_spec(seed), fig7_spec(seed)]
    for triple in (fig3_specs(seed), fig4_specs(seed), fig5_specs(seed), fig8_specs(seed)):
        specs.extend(triple.values())
    specs.extend(fig6_specs(seed).values())
    for row in TABLE1_ROWS:
        specs.extend(table1_row_specs(row, seed=seed).values())
    return list({spec.fingerprint(): spec for spec in specs}.values())


def environment() -> dict:
    """The numpy and BLAS builds payload fingerprints depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _label(spec) -> str:
    """Readable name of a spec: kind, gate, device, qubits and pulse."""
    pulse = spec.calibration if spec.kind == "irb" else spec
    parts = [spec.kind, spec.gate, spec.device, "q" + "".join(map(str, spec.qubits))]
    if pulse is None:
        parts.append("default")
    else:
        parts.append(f"{pulse.duration_ns:g}ns/{pulse.max_iter}it/{pulse.optimizer_levels}lvl")
    return " ".join(parts)


def entry(spec, result) -> dict:
    """The golden entry of one spec's result."""
    return {
        "kind": spec.kind,
        "label": _label(spec),
        "payload_fingerprint": result.payload_fingerprint(),
        "headlines": {
            name: result[name] if kind == "exact" else float(result[name])
            for name, (kind, _) in TOLERANCES[spec.kind].items()
        },
    }


def record(specs, result_of) -> dict:
    """The golden document of a batch (``result_of(spec)`` → its result)."""
    return {
        "seed": SEED,
        "environment": environment(),
        "specs": {spec.fingerprint(): entry(spec, result_of(spec)) for spec in specs},
    }


def _within(old: float, new: float, tolerance) -> bool:
    kind, bound = tolerance
    if kind == "exact" or not (math.isfinite(old) and math.isfinite(new)):
        return old == new
    scale = abs(old) if kind == "rel" else 1.0
    return abs(new - old) <= bound * scale


def compare(golden: dict, current: dict) -> list[str]:
    """Every disagreement of ``current`` with ``golden`` (empty when they agree)."""
    problems = []
    if set(golden["specs"]) != set(current["specs"]):
        problems.append(
            f"spec sets differ: missing {sorted(set(golden['specs']) - set(current['specs']))}, "
            f"new {sorted(set(current['specs']) - set(golden['specs']))}"
        )
    same_build = golden["environment"] == current["environment"]
    for key in sorted(set(golden["specs"]) & set(current["specs"])):
        old, new = golden["specs"][key], current["specs"][key]
        for name, tolerance in TOLERANCES[old["kind"]].items():
            a, b = old["headlines"].get(name), new["headlines"][name]
            if not _within(a, b, tolerance):
                problems.append(f"{old['label']} {name}: {a!r} -> {b!r} (tolerance {tolerance})")
        if same_build and old["payload_fingerprint"] != new["payload_fingerprint"]:
            problems.append(f"{old['label']}: payload fingerprint changed")
    return problems


def diff_table(golden: dict, current: dict) -> str:
    """Markdown table of every headline that moved (old → new) and the max |Δα|."""
    rows = ["| spec | field | old | new | Δ |", "|---|---|---|---|---|"]
    max_alpha = 0.0
    for key in sorted(set(golden["specs"]) & set(current["specs"]), key=lambda k: golden["specs"][k]["label"]):
        old, new = golden["specs"][key], current["specs"][key]
        for name, b in new["headlines"].items():
            a = old["headlines"].get(name)
            if a == b:
                continue
            if not isinstance(a, float) or not isinstance(b, float):
                rows.append(f"| {old['label']} | {name} | {a} | {b} | |")
                continue
            delta = b - a if math.isfinite(a) and math.isfinite(b) else float("nan")
            if name.endswith("_alpha"):
                max_alpha = max(max_alpha, abs(delta))
            rows.append(f"| {old['label']} | {name} | {a:.10g} | {b:.10g} | {delta:+.3g} |")
        if old["payload_fingerprint"] != new["payload_fingerprint"]:
            rows.append(f"| {old['label']} | payload fingerprint | {old['payload_fingerprint'][:12]} "
                        f"| {new['payload_fingerprint'][:12]} | |")
    rows.append(f"\nmax |Δα| = {max_alpha:.3g}")
    return "\n".join(rows)


def main() -> int:
    """Run the paper batch, rewrite the golden file and print the diff."""
    from repro.session import Session

    specs = paper_specs()
    with tempfile.TemporaryDirectory() as store, Session(store=store, num_workers=1, seed=SEED) as session:
        results = dict(zip((s.fingerprint() for s in specs), session.run_all(specs)))
        current = record(specs, lambda spec: results[spec.fingerprint()])
    if GOLDEN_PATH.exists():
        golden = json.loads(GOLDEN_PATH.read_text())
        print(diff_table(golden, current))
        for problem in compare(golden, current):
            print("outside tolerance:", problem)
    GOLDEN_PATH.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
