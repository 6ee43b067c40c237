"""Quantum operators, gate unitaries, superoperators and channel fidelity.

Every object here is a plain complex ``numpy.ndarray``; kets are ``(d, 1)``
column vectors, operators ``(d, d)`` matrices and superoperators act on
column-stacked density matrices.  The package provides:

* constructors for common operators (Pauli, ladder, number, projectors) and
  computational-basis kets,
* operator embedding into a larger tensor space (``expand_operator``),
* superoperator machinery (``spre``/``spost``, Liouvillians, Kraus/Choi
  conversions) for open-system dynamics and gate-channel caching,
* the average gate fidelity of a channel against a target unitary,
* the standard gate unitaries used as optimization targets and RB/IRB
  references.
"""

from .operators import (
    identity,
    sigmax,
    sigmay,
    sigmaz,
    sigmap,
    sigmam,
    pauli,
    destroy,
    create,
    num,
    projector_op,
)
from .states import basis
from .tensor import expand_operator
from .superop import (
    spre,
    spost,
    sprepost,
    liouvillian,
    lindblad_dissipator,
    unitary_superop,
    kraus_to_super,
    super_to_choi,
    choi_to_kraus,
    apply_superop,
    average_gate_fidelity_from_super,
)
from .metrics import average_gate_fidelity
from .gates import (
    x_gate,
    y_gate,
    z_gate,
    hadamard,
    s_gate,
    sdg_gate,
    t_gate,
    tdg_gate,
    sx_gate,
    sxdg_gate,
    rx_gate,
    ry_gate,
    rz_gate,
    phase_gate,
    u3_gate,
    cx_gate,
    cz_gate,
    swap_gate,
    iswap_gate,
    cr_gate,
    standard_gate_unitary,
    GATE_UNITARIES,
)

__all__ = [
    # operators
    "identity",
    "sigmax",
    "sigmay",
    "sigmaz",
    "sigmap",
    "sigmam",
    "pauli",
    "destroy",
    "create",
    "num",
    "projector_op",
    # states
    "basis",
    # tensor
    "expand_operator",
    # superop
    "spre",
    "spost",
    "sprepost",
    "liouvillian",
    "lindblad_dissipator",
    "unitary_superop",
    "kraus_to_super",
    "super_to_choi",
    "choi_to_kraus",
    "apply_superop",
    "average_gate_fidelity_from_super",
    # metrics
    "average_gate_fidelity",
    # gates
    "x_gate",
    "y_gate",
    "z_gate",
    "hadamard",
    "s_gate",
    "sdg_gate",
    "t_gate",
    "tdg_gate",
    "sx_gate",
    "sxdg_gate",
    "rx_gate",
    "ry_gate",
    "rz_gate",
    "phase_gate",
    "u3_gate",
    "cx_gate",
    "cz_gate",
    "swap_gate",
    "iswap_gate",
    "cr_gate",
    "standard_gate_unitary",
    "GATE_UNITARIES",
]
