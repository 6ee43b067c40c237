"""No two threads ever run a first-time ``repro`` import concurrently.

The daemon boots with only its own layers imported; everything a spec's
parse or execution reaches loads later, once, through
:func:`repro.session.loader.load_execution_modules`.  The check runs in a
fresh interpreter: after the loader, parsing every paper spec and a fresh
``RBSpec`` and running a fresh and a cached spec import no new module.
"""

import json
import os
import subprocess
import sys
import textwrap

from golden.paper_golden import paper_specs

from repro.service.cluster import _repro_pythonpath

CHILD = textwrap.dedent(
    """
    import json
    import sys

    import repro.service  # the daemon's boot imports

    boot = {name for name in sys.modules if name.startswith("repro")}
    from repro.session.loader import load_execution_modules

    load_execution_modules()
    loaded = {name for name in sys.modules if name.startswith("repro")}

    from repro.session import GRAPESpec, IRBSpec, RBSpec, Session, spec_from_dict

    paper = [spec_from_dict(data) for data in json.loads(sys.stdin.read())]
    rb = spec_from_dict(RBSpec(lengths=(1, 8, 16), n_seeds=2, shots=50, seed=77).to_dict())
    pulse = GRAPESpec(duration_ns=56.0, n_ts=8, include_decoherence=False, max_iter=20, seed=3)
    irb = spec_from_dict(IRBSpec(lengths=(1, 8, 16), n_seeds=2, shots=50, seed=77,
                                 calibration=pulse).to_dict())
    with Session(store=sys.argv[1], num_workers=1) as session:
        fresh = [session.run(rb), session.run(irb)]
        cached = session.run(rb)
    print(json.dumps({
        "boot": sorted(boot),
        "loaded_late": sorted(loaded - boot),
        "new": sorted({name for name in sys.modules if name.startswith("repro")} - loaded),
        "n_paper": len(paper),
        "fresh_hits": [result.cache_hit for result in fresh],
        "cached_hit": cached.cache_hit,
    }))
    """
)


def test_loader_imports_everything_parsing_and_running_reach(tmp_path):
    env = dict(os.environ, PYTHONPATH=_repro_pythonpath())
    dicts = [spec.to_dict() for spec in paper_specs()]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "store")],
        input=json.dumps(dicts), capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["n_paper"] == 28
    assert report["fresh_hits"] == [False, False] and report["cached_hit"]
    assert report["new"] == [], "imported after the loader ran"
    # the loader, not the boot, brings in the execution layers
    assert "repro.benchmarking.engine" not in report["boot"]
    assert "repro.benchmarking.engine" in report["loaded_late"]
