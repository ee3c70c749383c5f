"""QPU substrate: pluggable simulation backends, noise, readout, devices.

Simulation backends
===================

The functional QPU (:class:`SimulatedQPU`) is parameterized by a
:class:`SimulationBackend` — the contract ``apply_gate`` /
``probability_of_one`` / ``measure_with_probability`` / ``reset`` /
``copy`` between the device layer and a quantum-state representation.
Two implementations are registered:

``"statevector"`` (:class:`StateVector`)
    Dense 2^n amplitudes.  Exact for every gate in the library,
    exponential in the qubit count, hard-capped at 24 qubits.  The
    default everywhere, and what :class:`StateVectorQPU` pins.

``"stabilizer"`` (:class:`StabilizerState`)
    Aaronson–Gottesman CHP tableau.  O(n) per gate and O(n^2) memory,
    so 50+ qubit QEC workloads run end-to-end — but only Clifford
    gates (i, x, y, z, h, s, sdg, x90/xm90/y90/ym90, cnot, cz, swap,
    iswap) are representable; anything else raises
    :class:`NonCliffordGateError`.  :class:`StabilizerQPU` pins it.

Selection is threaded by name through the stack: set
``QCPConfig(qpu_backend="stabilizer")``, pass ``backend=`` to
:class:`~repro.qcp.shots.ShotEngine` / :func:`~repro.qcp.shots.run_shots`
or to :class:`SimulatedQPU` directly, or use ``--qpu stabilizer`` on the
CLI.  :func:`make_backend` instantiates a backend by registry name.
"""

from repro.qpu.backend import (NonCliffordGateError, SimulationBackend,
                               backend_names, make_backend,
                               register_backend)
from repro.qpu.density import DensityMatrix
from repro.qpu.device import (AppliedOperation, PRNGQPU, QPUBase,
                              SimulatedQPU, StabilizerQPU,
                              StateVectorQPU)
from repro.qpu.noise import (DecoherenceNoise, DepolarizingNoise,
                             NoiseModel, PairZZCrosstalk, PauliChannel,
                             QubitDecoherenceNoise, QubitReadoutError,
                             ReadoutError, ZZCrosstalk,
                             ideal_noise_model, paper_noise_model)
from repro.qpu.profile import (DeviceProfile, QubitCalibration,
                               load_device_profile)
from repro.qpu.readout import DeterministicReadout, PRNGReadout
from repro.qpu.stabilizer import StabilizerState
from repro.qpu.statevector import DENSE_QUBIT_LIMIT, StateVector
from repro.qpu.topology import Topology, full_topology, linear_topology

__all__ = [
    "AppliedOperation", "DENSE_QUBIT_LIMIT", "DensityMatrix",
    "DepolarizingNoise", "DeterministicReadout", "DeviceProfile",
    "DecoherenceNoise", "NoiseModel", "NonCliffordGateError",
    "PairZZCrosstalk", "PauliChannel", "PRNGQPU",
    "PRNGReadout", "QPUBase", "QubitCalibration",
    "QubitDecoherenceNoise", "QubitReadoutError", "ReadoutError",
    "SimulatedQPU", "SimulationBackend", "StabilizerQPU",
    "StabilizerState", "StateVector", "StateVectorQPU", "Topology",
    "ZZCrosstalk", "backend_names", "full_topology",
    "ideal_noise_model", "linear_topology", "load_device_profile",
    "make_backend", "paper_noise_model", "register_backend",
]
