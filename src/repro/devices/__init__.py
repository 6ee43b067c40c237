"""Superconducting-device models.

This package models the IBM Q backends used in the paper:

* :mod:`~repro.devices.properties` — calibration data containers
  (:class:`QubitProperties`, :class:`BackendProperties`) mirroring the
  information IBM publishes for each backend (qubit frequency, anharmonicity,
  T1/T2, readout and gate errors, coupling map, ``dt``),
* :mod:`~repro.devices.transmon` — single-transmon Duffing-oscillator
  Hamiltonians in the rotating frame, drive/control operators, and collapse
  operators derived from T1/T2,
* :mod:`~repro.devices.cross_resonance` — the effective cross-resonance (CR)
  Hamiltonian of Eq. (1) of the paper, used for the two-qubit CNOT work,
* :mod:`~repro.devices.coupling` — coupling-map graphs (adjacency dicts with
  breadth-first distances) including the 27-qubit Falcon heavy-hex layout
  shared by ibmq_montreal/toronto,
* :mod:`~repro.devices.drift` — a day-to-day calibration-drift process used
  by the Section V drift study,
* :mod:`~repro.devices.library` — parameter sets for the specific devices the
  paper ran on (montreal, toronto, boeblingen, rome).
"""

from .properties import QubitProperties, BackendProperties, GateProperties
from .transmon import TransmonModel, duffing_drift, drive_operators, collapse_operators, embed_qubit_unitary
from .cross_resonance import CrossResonanceModel
from .coupling import CouplingMap, heavy_hex_falcon27, linear_coupling
from .drift import CalibrationDriftModel
from .library import (
    fake_montreal,
    fake_toronto,
    fake_boeblingen,
    fake_rome,
    get_device,
    canonical_device_name,
    DEVICE_REGISTRY,
)

__all__ = [
    "QubitProperties",
    "BackendProperties",
    "GateProperties",
    "TransmonModel",
    "duffing_drift",
    "drive_operators",
    "collapse_operators",
    "embed_qubit_unitary",
    "CrossResonanceModel",
    "CouplingMap",
    "heavy_hex_falcon27",
    "linear_coupling",
    "CalibrationDriftModel",
    "fake_montreal",
    "fake_toronto",
    "fake_boeblingen",
    "fake_rome",
    "get_device",
    "canonical_device_name",
    "DEVICE_REGISTRY",
]
