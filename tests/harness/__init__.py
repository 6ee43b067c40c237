"""Test harnesses shared by the suite (not collected as tests).

* :mod:`tests.harness.cluster` — the multi-daemon crash/fault-injection
  harness the scale-out tests and the CI ``cluster-smoke`` job drive,
* :mod:`tests.harness.spec_contract` — the spec-conformance battery run
  against every registered experiment spec kind (serialization round
  trips, fingerprint discipline, warm zero-execution replay),
* :mod:`tests.harness.quantum` — reference quantum-information helpers
  (random states and unitaries, partial traces, fidelities, CPTP checks)
  the tests build fixtures and oracles from,
* :mod:`tests.harness.rk4` — a fixed-step RK4 integrator, the ODE oracle
  the PWC propagators are checked against,
* :mod:`tests.harness.validation` — argument validators only the tests use.
"""
