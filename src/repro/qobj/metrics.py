"""Channel fidelity against a target unitary.

The optimizers' cost functions live in :mod:`repro.core.cost`; this module
scores an implemented (noisy) gate channel, as the session and the drift and
optimizer studies do.
"""

from __future__ import annotations

import numpy as np

from .superop import average_gate_fidelity_from_super

__all__ = ["average_gate_fidelity"]


def average_gate_fidelity(channel_super, target_unitary) -> float:
    """Average gate fidelity of a channel superoperator against a target unitary."""
    return average_gate_fidelity_from_super(np.asarray(channel_super, dtype=complex), target_unitary)
