"""One-time import of the modules that parse and execute specs.

``import repro.service`` loads only the daemon's own layers (HTTP, queue,
store, session front end), so the daemon boots fast.  The rest of the
package — devices, backend, pulses, circuits, GRAPE, RB — loads on first
use, and in the daemon first use happens on several threads at once: HTTP
handlers parsing specs and worker sessions executing them.  Package
``__init__``s import their submodules while other modules import those
submodules directly, so two threads running first-time imports concurrently
can deadlock on importlib's per-module locks; the loser then sees a
partially initialized module (``ImportError``) or a missing ``sys.modules``
entry (``KeyError``).

:func:`load_execution_modules` closes that window: every path that may run
a first-time import — :func:`~repro.session.specs.spec_from_dict`,
:meth:`Session.plan <repro.session.session.Session.plan>` and each job a
session runs — calls it first, and it imports the whole closure once,
under one process-wide lock.  Later calls return after one flag check.
"""

from __future__ import annotations

import importlib
import threading

__all__ = ["load_execution_modules"]

#: Packages whose imports close over every module a spec's parse or
#: execution reaches (backend, circuits, core, devices, pulse, qobj and
#: solvers come in through them).
EXECUTION_MODULES = ("repro.experiments", "repro.benchmarking")

_lock = threading.RLock()
_loaded = False


def load_execution_modules() -> None:
    """Import :data:`EXECUTION_MODULES` once per process, under one lock."""
    global _loaded
    if _loaded:
        return
    with _lock:
        if not _loaded:
            for name in EXECUTION_MODULES:
                importlib.import_module(name)
            _loaded = True
