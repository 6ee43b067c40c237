"""Spec constructors for every figure of the paper.

Each figure is described by a **spec constructor** (``figN_spec`` /
``figN_specs``) returning frozen, serializable
:mod:`repro.session.specs` objects.  Run them through a
:class:`~repro.session.session.Session`, so that submitting several
figures together shares their preparation (device backends, GRAPE pulses,
Clifford channel tables) exactly once:

.. code-block:: python

    from repro.session import Session
    from repro.experiments.figures import fig3_specs, fig4_specs

    with Session(store="auto") as session:
        specs3, specs4 = fig3_specs(), fig4_specs()
        results = session.run_all(
            [specs3["custom_irb"], specs3["default_irb"],
             specs4["custom_irb"], specs4["default_irb"]]
        )  # one montreal backend, one 1q channel table, shared planning

With a persistent store the session's result cache makes a repeated run a
**warm replay**: cached IRB curves and persisted GRAPE pulses are served
from the store bit-identically instead of re-executing (see
``docs/caching.md``).  The histograms of Figs. 3–6 are
:func:`~repro.experiments.gates.gate_histogram` calls on the session's
``backend_for(device)`` and ``schedule_for(grape_spec)``.

Figure inventory:

* Fig. 1 — initial vs optimized control amplitudes for the X gate,
* Fig. 2 — the custom X pulse schedule on the drive channel D0 and the
  transpiler confirmation that it replaces the default X,
* Fig. 3/4/5 — IRB decay curves (custom vs default) and the output-state
  histogram for X, √X and H,
* Fig. 6 — CX with SINE input pulses on boeblingen/rome: histograms for the
  default and the pulse-optimized CX,
* Fig. 7 — the custom CX pulse schedule on D0/D1/U0,
* Fig. 8 — IRB decay curves for the custom vs default CX.
"""

from __future__ import annotations

from ..session.specs import ExperimentSpec, GRAPESpec, IRBSpec

__all__ = [
    "fig1_spec",
    "fig2_spec",
    "fig3_specs",
    "fig4_specs",
    "fig5_specs",
    "fig6_specs",
    "fig7_spec",
    "fig8_specs",
]


def fig1_spec(seed: int = 2022) -> GRAPESpec:
    """Fig. 1 spec: the decoherence-aware 105 ns X-gate optimization."""
    return GRAPESpec(
        device="montreal", gate="x", qubits=(0,), duration_ns=105.0, n_ts=12,
        include_decoherence=True, seed=seed,
    )


def fig2_spec(seed: int = 2022) -> GRAPESpec:
    """Fig. 2 spec: same optimization as Fig. 1 (the schedule view of it)."""
    return fig1_spec(seed)


def _single_qubit_irb_specs(
    gate: str,
    device: str,
    duration_ns: float,
    n_ts: int,
    include_decoherence: bool,
    seed: int,
    fast: bool,
    optimizer_levels: int = 3,
) -> dict[str, ExperimentSpec]:
    """Shared constructor of the Figs. 3–5 spec triples."""
    lengths = (1, 16, 48, 96, 160) if fast else (1, 16, 48, 96, 160, 240)
    grape = GRAPESpec(
        device=device, gate=gate, qubits=(0,), duration_ns=duration_ns, n_ts=n_ts,
        include_decoherence=include_decoherence, optimizer_levels=optimizer_levels,
        seed=seed,
    )
    common = dict(
        device=device, gate=gate, qubits=(0,), lengths=lengths,
        n_seeds=4 if fast else 8, shots=400 if fast else 1200, seed=seed,
    )
    return {
        "grape": grape,
        "custom_irb": IRBSpec(calibration=grape, **common),
        "default_irb": IRBSpec(calibration=None, **common),
    }


def fig3_specs(seed: int = 2022, fast: bool = True) -> dict[str, ExperimentSpec]:
    """Fig. 3 specs: custom (105 ns) vs default X IRB on montreal."""
    return _single_qubit_irb_specs("x", "montreal", 105.0, 12, True, seed, fast)


def fig4_specs(seed: int = 2022, fast: bool = True) -> dict[str, ExperimentSpec]:
    """Fig. 4 specs: custom (162 ns) vs default √X IRB on montreal.

    As in the paper, the √X optimization neglects decoherence.
    """
    return _single_qubit_irb_specs("sx", "montreal", 162.0, 14, False, seed, fast)


def fig5_specs(seed: int = 2022, fast: bool = True) -> dict[str, ExperimentSpec]:
    """Fig. 5 specs: custom (267 ns) vs default H IRB on toronto.

    As in the paper, this long-duration H pulse is optimized on the bare
    two-level Pauli-control model (``optimizer_levels=2``).  In the paper
    it ends up *worse* than the default (transpiled) H; here it does not:
    paper-size IRB puts it at 0.59–0.86× the default error at 8 of 8 seeds.
    """
    return _single_qubit_irb_specs(
        "h", "toronto", 267.0, 16, False, seed, fast, optimizer_levels=2
    )


def fig6_specs(seed: int = 2022) -> dict[str, GRAPESpec]:
    """Fig. 6 specs: the early SINE-pulse CX optimizations per device."""
    return {
        device: GRAPESpec(
            device=device, gate="cx", qubits=(0, 1), duration_ns=640.0, n_ts=16,
            include_decoherence=False, init_pulse_type="SINE", init_pulse_scale=0.15,
            max_iter=150, seed=seed,
        )
        for device in ("boeblingen", "rome")
    }


def fig7_spec(seed: int = 2022) -> GRAPESpec:
    """Fig. 7 spec: the 1193 ns GaussianSquare-seeded CX optimization."""
    return GRAPESpec(
        device="montreal", gate="cx", qubits=(0, 1), duration_ns=1193.0, n_ts=20,
        include_decoherence=False, init_pulse_type="GAUSSIAN_SQUARE",
        init_pulse_scale=0.1, max_iter=300, seed=seed,
    )


def fig8_specs(seed: int = 2022, fast: bool = True) -> dict[str, ExperimentSpec]:
    """Fig. 8 specs: custom (1193 ns) vs default CX IRB on montreal."""
    grape = fig7_spec(seed)
    common = dict(
        device="montreal", gate="cx", qubits=(0, 1),
        lengths=(1, 2, 4, 8, 12) if fast else (1, 2, 4, 8, 16, 24),
        n_seeds=3 if fast else 6, shots=300 if fast else 800, seed=seed,
    )
    return {
        "grape": grape,
        "custom_irb": IRBSpec(calibration=grape, **common),
        "default_irb": IRBSpec(calibration=None, **common),
    }
