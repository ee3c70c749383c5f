"""QPU device models receiving timed operations from the control stack.

Two flavours share one interface:

* :class:`SimulatedQPU` — a functional simulator with a noise model,
  parameterized by a :mod:`simulation backend <repro.qpu.backend>`:
  the dense ``"statevector"`` (exact, <= 24 qubits; the default — the
  :class:`StateVectorQPU` alias pins it) or the polynomial
  ``"stabilizer"`` tableau (Clifford-only, hundreds of qubits).  It
  tracks simultaneous-drive windows so the ZZ crosstalk channel can
  act exactly when two coupled qubits are driven at once.
* :class:`PRNGQPU` — no quantum state; measurement outcomes come from a
  pseudo-random (or scripted) source, reproducing the paper's FPGA
  methodology for the 37-qubit microarchitecture benchmarks.

Both record an *operation log* with issue timestamps so tests and
metrics can check timing behaviour (deterministic operation supply,
Section 4.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.circuit.gates import lookup_gate
from repro.qpu.backend import SimulationBackend, make_backend
from repro.qpu.noise import NoiseModel, ideal_noise_model
from repro.qpu.readout import DeterministicReadout, PRNGReadout
from repro.qpu.topology import Topology, full_topology


@dataclass(frozen=True)
class AppliedOperation:
    """One operation as received by the QPU, with its issue time."""

    time_ns: int
    gate: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


class QPUBase:
    """Shared bookkeeping: operation log and timing checks.

    ``profile`` is an optional calibrated
    :class:`~repro.qpu.profile.DeviceProfile`; when set, every duration
    the bookkeeping uses — busy intervals, timing-violation checks,
    drive windows — comes from :meth:`gate_duration_ns`'s per-qubit
    resolution instead of the uniform gate library.
    """

    def __init__(self, topology: Topology, profile=None) -> None:
        self.topology = topology
        self.profile = profile
        self.operation_log: list[AppliedOperation] = []
        self._busy_until: dict[int, int] = {}
        self.timing_violations: list[AppliedOperation] = []

    @property
    def n_qubits(self) -> int:
        return self.topology.n_qubits

    def gate_duration_ns(self, gate: str, qubits: tuple[int, ...]) -> int:
        """Duration of ``gate`` on ``qubits`` (profile-calibrated)."""
        if self.profile is not None:
            return self.profile.gate_duration_ns(gate, qubits)
        return lookup_gate(gate).duration_ns

    def _record(self, time_ns: int, gate: str, qubits: tuple[int, ...],
                params: tuple[float, ...] = ()) -> AppliedOperation:
        operation = AppliedOperation(time_ns, gate, tuple(qubits),
                                     tuple(params))
        self.operation_log.append(operation)
        duration = self.gate_duration_ns(gate, operation.qubits)
        for qubit in operation.qubits:
            if self._busy_until.get(qubit, 0) > time_ns:
                # An operation arrived while the qubit was still
                # executing the previous one: a timing violation the
                # microarchitecture is supposed to prevent.
                self.timing_violations.append(operation)
            self._busy_until[qubit] = time_ns + duration
        return operation

    def apply_gate(self, time_ns: int, gate: str, qubits: tuple[int, ...],
                   params: tuple[float, ...] = ()) -> None:
        raise NotImplementedError

    def measure(self, time_ns: int, qubit: int) -> int:
        raise NotImplementedError

    def reset(self, time_ns: int, qubit: int) -> None:
        raise NotImplementedError


class SimulatedQPU(QPUBase):
    """Functional QPU: every issued operation acts on a backend state.

    ``backend`` selects the state representation by registry name
    (``"statevector"`` or ``"stabilizer"``); the live state object is
    exposed as :attr:`state`.  Noise channels that need amplitudes
    (raw unitaries, amplitude damping) only work on the dense backend;
    the stabilizer backend raises
    :class:`~repro.qpu.backend.NonCliffordGateError` for them and for
    any non-Clifford gate.
    """

    def __init__(self, topology: Topology | int,
                 noise: NoiseModel | None = None,
                 seed: int | None = None,
                 backend: str = "statevector",
                 profile=None) -> None:
        if isinstance(topology, int):
            topology = full_topology(topology)
        if profile is not None:
            # Compose calibrated per-qubit/per-pair channels over the
            # supplied model (see DeviceProfile.noise_model) once, at
            # construction — restart() reseeds the composed model.
            noise = profile.noise_model(base=noise, seed=seed)
        super().__init__(topology, profile=profile)
        self.noise = noise or ideal_noise_model()
        self.backend_name = backend
        self._rng = random.Random(seed)
        self.state: SimulationBackend = make_backend(
            backend, topology.n_qubits, rng=self._rng)
        # Active drive windows for ZZ accounting: qubit -> (start, end).
        self._windows: dict[int, tuple[int, int]] = {}
        # Pre-collapse ground-state probability at each qubit's last
        # measurement (what an averaged readout would estimate).
        self.measure_ground_probabilities: dict[int, float] = {}

    def restart(self, seed: int | None = None) -> None:
        """Fresh |0...0> state; the operation log carries on.

        ``seed`` reseeds the measurement RNG **and** the noise model's
        channel RNG (with a salted derivation, see
        :meth:`~repro.qpu.noise.NoiseModel.reseed`), making the new
        state's outcome stream *and* its noise trajectory reproducible
        — what a shot engine needs to make per-shot seeds meaningful
        on a reused QPU, and what lets the trace cache replay noisy
        shots bit-identically.  ``None`` keeps both rngs where they
        are; a negative seed raises ``ValueError``, because
        ``random.Random(-k)`` seeds like ``random.Random(k)``.  The
        state object is reinitialized *in place* so its identity is
        stable across shots — compiled replay closures bound to it
        (trace cache) survive a restart.
        """
        if seed is not None:
            if seed < 0:
                raise ValueError(
                    f"negative seed {seed}: random.Random(-k) seeds "
                    f"like random.Random(k)")
            self._rng.seed(seed)
            self.noise.reseed(seed)
        self.state.reinitialize()
        self._windows.clear()
        self._busy_until.clear()
        self.measure_ground_probabilities.clear()

    def _note_window(self, time_ns: int, qubits: tuple[int, ...],
                     duration: int) -> None:
        """Record drive windows and apply per-pair ZZ for overlaps.

        A window whose drive stopped at or before ``time_ns`` can
        never overlap this or any later gate (issue times are
        monotone per qubit), so it is pruned first — the dict holds
        only open windows, not every qubit ever driven.

        Each coupled pair touching the gate accumulates its *own*
        overlap's conditional phase (``ZZCrosstalk.window_events`` is
        the single shared implementation), never one collapsed
        ``max``-overlap event for the whole driven set.
        """
        windows = self._windows
        expired = [qubit for qubit, (_, stop) in windows.items()
                   if stop <= time_ns]
        for qubit in expired:
            del windows[qubit]
        end = time_ns + duration
        events = self.noise.zz_window_events(windows, time_ns, end,
                                             qubits)
        for qubit in qubits:
            windows[qubit] = (time_ns, end)
        if events:
            self.noise.apply_zz_events(self.state, events)

    def _decay_idle(self, time_ns: int, qubits: tuple[int, ...]) -> None:
        """T1/T2 decay for the idle gap since each qubit's last op.

        The longer the control processor delays an operation, the
        longer its qubits idle and the more they decay — the error
        mechanism the paper's TR <= 1 requirement exists to bound.
        """
        if self.noise.decoherence is None:
            return
        for qubit in qubits:
            idle = time_ns - self._busy_until.get(qubit, 0)
            if idle > 0:
                self.noise.idle_decay(self.state, qubit, idle)

    def apply_gate(self, time_ns: int, gate: str, qubits: tuple[int, ...],
                   params: tuple[float, ...] = ()) -> None:
        qubits = tuple(qubits)
        definition = lookup_gate(gate)
        self.topology.validate_gate(qubits)
        self._decay_idle(time_ns, qubits)
        self._record(time_ns, gate, qubits, params)
        if definition.is_reset:
            self.state.reset(qubits[0])
            return
        if definition.is_measurement:
            raise ValueError("use measure() for measurement operations")
        self.state.apply_gate(gate, qubits, tuple(params))
        self.noise.after_gate(self.state, gate, qubits)
        self._note_window(time_ns, qubits,
                          self.gate_duration_ns(gate, qubits))

    def measure(self, time_ns: int, qubit: int) -> int:
        self._decay_idle(time_ns, (qubit,))
        self._record(time_ns, "measure", (qubit,))
        outcome, p_one = self.state.measure_with_probability(qubit)
        self.measure_ground_probabilities[qubit] = 1.0 - p_one
        return self.noise.corrupt_readout(outcome, qubit)

    def reset(self, time_ns: int, qubit: int) -> None:
        self.apply_gate(time_ns, "reset", (qubit,))


class StateVectorQPU(SimulatedQPU):
    """A :class:`SimulatedQPU` pinned to the dense statevector backend."""

    def __init__(self, topology: Topology | int,
                 noise: NoiseModel | None = None,
                 seed: int | None = None,
                 profile=None) -> None:
        super().__init__(topology, noise=noise, seed=seed,
                         backend="statevector", profile=profile)


class StabilizerQPU(SimulatedQPU):
    """A :class:`SimulatedQPU` pinned to the Clifford tableau backend."""

    def __init__(self, topology: Topology | int,
                 noise: NoiseModel | None = None,
                 seed: int | None = None,
                 profile=None) -> None:
        super().__init__(topology, noise=noise, seed=seed,
                         backend="stabilizer", profile=profile)


class PRNGQPU(QPUBase):
    """Architecture-benchmark QPU: logs operations, samples outcomes."""

    def __init__(self, topology: Topology | int,
                 readout: PRNGReadout | DeterministicReadout | None = None
                 ) -> None:
        if isinstance(topology, int):
            topology = full_topology(topology)
        super().__init__(topology)
        self.readout = readout or PRNGReadout()

    def apply_gate(self, time_ns: int, gate: str, qubits: tuple[int, ...],
                   params: tuple[float, ...] = ()) -> None:
        qubits = tuple(qubits)
        self.topology.validate_gate(qubits)
        self._record(time_ns, gate, qubits, params)

    def measure(self, time_ns: int, qubit: int) -> int:
        self._record(time_ns, "measure", (qubit,))
        return self.readout.sample(qubit)

    def reset(self, time_ns: int, qubit: int) -> None:
        self._record(time_ns, "reset", (qubit,))
