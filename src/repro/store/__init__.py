"""Unified content-addressed artifact store (``repro.store``).

One :class:`ArtifactStore` persists every reusable artifact of the
pipeline, in four typed namespaces under a single on-disk root:

========== ================= ==========================================
namespace       directory     contents
========== ================= ==========================================
``channel_tables`` ``channels/`` per-Clifford superoperator tables
                                 (mmap'd read-only, merged generations)
``groups``        ``groups/``    Clifford group enumerations per qubit
                                 count (words + tableaux)
``pulses``        ``pulses/``    optimized GRAPE pulses keyed by
                                 (spec, properties) fingerprints
``results``       ``results/v2/`` cached :class:`ExperimentResult`
                                 documents, ``<spec>/<properties>.json``
========== ================= ==========================================

Every namespace shares the same mechanics (see
:mod:`~repro.store.core`): atomic tmp-file + rename publication, writers
serialized per key on an advisory :class:`~repro.utils.locks.FileLock`,
manifest generations where payloads can be superseded, per-namespace
``stats`` counters, and one :meth:`~repro.store.core.StoreCore.prune`
garbage-collection policy.  Content addressing *is* the invalidation
contract across all four: drifted inputs hash to a different key, so a
stale read is structurally impossible.

Maintenance is scriptable via ``python -m repro.store`` (``ls``, ``stats``,
``prune``, ``rm``) — see :mod:`repro.store.__main__`.
"""

from __future__ import annotations

from pathlib import Path

from .channels import STORE_FORMAT_VERSION, ChannelTableHandle, ChannelTableMixin
from .core import NAMESPACES, StoreCore, StoreNamespace, default_store_root
from .groups import GROUP_FORMAT_VERSION, GroupMixin
from .pulses import PULSE_FORMAT_VERSION, PulseMixin
from .results import RESULT_FORMAT_VERSION, ResultMixin, result_cache_enabled
from ..utils.validation import ValidationError

__all__ = [
    "ArtifactStore",
    "ChannelTableHandle",
    "StoreNamespace",
    "NAMESPACES",
    "STORE_FORMAT_VERSION",
    "GROUP_FORMAT_VERSION",
    "PULSE_FORMAT_VERSION",
    "RESULT_FORMAT_VERSION",
    "default_store_root",
    "resolve_store",
    "result_cache_enabled",
]


class ArtifactStore(ChannelTableMixin, GroupMixin, PulseMixin, ResultMixin, StoreCore):
    """One content-addressed store, four typed namespaces.

    Parameters
    ----------
    root : str or Path
        Directory holding the store (created on first write).  Every
        namespace lives in files under it (see
        :class:`~repro.store.core.StoreCore` for the layout).

    Notes
    -----
    The typed APIs are provided by the namespace mixins:

    * channel tables — :meth:`~repro.store.channels.ChannelTableMixin.channel_table_key`,
      :meth:`~repro.store.channels.ChannelTableMixin.save_channel_table`,
      :meth:`~repro.store.channels.ChannelTableMixin.load_channel_table`,
      :meth:`~repro.store.channels.ChannelTableMixin.handle`,
    * groups — :meth:`~repro.store.groups.GroupMixin.ensure_group_saved`,
      :meth:`~repro.store.groups.GroupMixin.load_group_arrays`,
    * pulses — :meth:`~repro.store.pulses.PulseMixin.pulse_key`,
      :meth:`~repro.store.pulses.PulseMixin.save_pulse`,
      :meth:`~repro.store.pulses.PulseMixin.load_pulse`,
    * results — :meth:`~repro.store.results.ResultMixin.save_result`,
      :meth:`~repro.store.results.ResultMixin.load_result`,
      :meth:`~repro.store.results.ResultMixin.has_result`,

    plus the shared maintenance surface of
    :class:`~repro.store.core.StoreCore` (``ls``, ``disk_stats``,
    ``prune``, ``rm``, ``stats``).
    """


def resolve_store(store) -> ArtifactStore | None:
    """Resolve the user-facing ``store`` knob to a store instance (or None).

    Parameters
    ----------
    store : None, "auto", str, Path or ArtifactStore
        ``None`` disables persistence, ``"auto"`` selects
        :func:`default_store_root`, a path selects that directory, and an
        existing store instance is passed through.  Anything else —
        ``False`` included — raises :class:`ValidationError`: ``None`` is
        the one value for "no store".

    Returns
    -------
    ArtifactStore or None
        The resolved store.
    """
    if store is None:
        return None
    if isinstance(store, ArtifactStore):
        return store
    if store == "auto":
        return ArtifactStore(default_store_root())
    if isinstance(store, (str, Path)):
        return ArtifactStore(store)
    raise ValidationError(
        f"store must be None, 'auto', a path or a store instance, got {store!r}"
    )
