"""The ``groups`` namespace: persisted Clifford-group enumerations.

Group enumerations are backend-independent singletons — one file per qubit
count — so they skip the manifest machinery: each file's name carries its
own :data:`GROUP_FORMAT_VERSION` and its presence *is* the manifest.  A
warm load skips the two-qubit breadth-first search; see
:func:`repro.benchmarking.clifford.clifford_group`.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from .core import atomic_write

__all__ = ["GROUP_FORMAT_VERSION", "GroupMixin"]

#: Versions the group-enumeration files independently of the channel
#: tables (which key on ``STORE_FORMAT_VERSION``), so a change to the
#: group payload never invalidates channel entries.  v2: generator words
#: and tableaux only; element matrices are derived from the words, on load
#: exactly as in a cold build.  The version is in the filename, so a
#: reader never opens another version's file.
GROUP_FORMAT_VERSION = 2


class GroupMixin:
    """Typed API of the ``groups`` namespace (mixed into the store)."""

    def _group_path(self, n_qubits: int) -> Path:
        return self.namespace_dir("groups") / f"clifford_{n_qubits}q_v{GROUP_FORMAT_VERSION}.npz"

    def load_group_arrays(self, n_qubits: int) -> dict[str, np.ndarray] | None:
        """Load a persisted Clifford-group enumeration, or None when absent."""
        path = self._group_path(n_qubits)
        if not path.exists():
            self._bump("groups", "misses")
            return None
        try:
            with np.load(path) as payload:
                arrays = {name: payload[name] for name in payload.files}
        except (OSError, ValueError, zipfile.BadZipFile):
            self._bump("groups", "misses")
            return None
        self._bump("groups", "hits")
        return arrays

    def remove_group_arrays(self, n_qubits: int) -> None:
        """Delete a persisted group enumeration (used to drop corrupt files)."""
        self._group_path(n_qubits).unlink(missing_ok=True)

    def ensure_group_saved(self, group) -> bool:
        """Persist a group enumeration unless it is already on disk.

        The check-then-write races with other cold processes, so it runs
        under the group's cross-process advisory lock: exactly one writer
        serializes the two-qubit enumeration to disk, the rest observe
        the finished file.  Returns True when a new file was written.
        """
        path = self._group_path(group.n_qubits)
        if path.exists():
            return False
        with self._lock(self._entry_lock_name("groups", path.stem)):
            if path.exists():  # a racing writer finished while we waited
                return False
            path.parent.mkdir(parents=True, exist_ok=True)
            arrays = group.to_arrays()
            atomic_write(path, lambda fh: np.savez(fh, **arrays))
            self._bump("groups", "writes")
        return True
