"""One cold paper batch in a fresh interpreter (a child of ``run.py``).

Usage::

    python3 perfbench/paper_child.py --order-seed N [--store DIR] [--spans PATH]

Runs every Fig. / Table I spec through one ``Session`` with its other
arguments at their defaults: ``store=None`` for the ``paper_cold`` workload,
or a store directory to warm it for ``service_mix``.  A fresh interpreter per
batch keeps the process-wide Clifford-group cache, the tableau ``lru_cache``
and the persistent process pool cold.  ``--spans`` installs the tracer and
writes its spans there.  The last stdout line is one JSON document.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.session import Session  # noqa: E402

from specs import paper_specs  # noqa: E402
from tracing import Tracer, import_layers  # noqa: E402
from workloads import session_latencies_ms, start_process_pool  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--store", default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    batch = paper_specs(args.order_seed)
    import_layers()
    start_process_pool()
    ready_wall = time.time()
    tracer = Tracer().install() if args.spans else Tracer().count_bfs()
    called_wall = time.time()
    start = time.perf_counter()
    with Session(store=args.store) as session:
        results = session.run_all(batch)
    run_s = time.perf_counter() - start
    tracer.uninstall()

    document = {
        "ready_wall": ready_wall,
        "run_s": run_s,
        "latencies_ms": session_latencies_ms(results, called_wall),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bfs": tracer.counters.get("benchmarking.clifford_group.bfs", 0),
        "results": [
            {
                "spec": spec.fingerprint(),
                "kind": spec.kind,
                "payload": result.payload_fingerprint(),
                "gate_error": result.payload.get("gate_error"),
            }
            for spec, result in zip(batch, results)
        ],
    }
    if args.spans:
        tracer.write_spans(Path(args.spans))
        document["layers"] = tracer.layer_totals()
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
