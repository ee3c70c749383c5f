"""Automatic QPU-backend routing (``qpu_backend="auto"``).

The two simulation substrates have complementary envelopes: the
stabilizer tableau runs Clifford-only programs in polynomial time
(hundreds of qubits) but cannot represent a single T gate, while the
dense statevector is exact for every gate in the library but
exponential in the register size.  ``"auto"`` closes the gap: the shot
engine hands the program here once, before any shot runs, and
:func:`route_backend` picks the cheapest substrate that is *exact* for
the workload —

* ``"stabilizer"`` when every issued gate (including both arms of each
  MRCE) is Clifford and parameter-free **and** the noise model, with a
  device profile's channels composed over it, is Pauli-compatible
  (:attr:`~repro.qpu.noise.NoiseModel.is_pauli_only`);
* ``"statevector"`` otherwise.

A calibrated :class:`~repro.qpu.profile.DeviceProfile` may pin a
backend (``"backend"`` key in the profile JSON); the pin wins over the
program analysis, because a calibration is measured against one
physical modality.

Routing is a pure function of (program, noise, profile, register
size): the decision is computed once per engine, stored on it, carried
in service engine identity and surfaced through ``/stats`` and the CLI
so operators can see *why* a backend was chosen.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.circuit.gates import GATE_ALIASES
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.qpu.stabilizer import (_CLIFFORD_DECOMPOSITIONS,
                                  _TWO_QUBIT_DECOMPOSITIONS)

#: Canonical names the stabilizer tableau represents exactly.
CLIFFORD_GATES = (frozenset(_CLIFFORD_DECOMPOSITIONS)
                  | frozenset(_TWO_QUBIT_DECOMPOSITIONS))

#: Non-unitary operations every substrate supports.
_STRUCTURAL = frozenset({"measure", "reset"})


@dataclass(frozen=True)
class RoutingDecision:
    """Why ``"auto"`` picked what it picked.

    ``backend`` is the routed substrate name (never ``"auto"``);
    ``reason`` is a one-line human-readable justification;
    ``clifford_only`` is the program analysis result independent of
    what was ultimately chosen; ``forced`` is set when a device
    profile pinned the backend and the program analysis was
    overridden.
    """

    backend: str
    reason: str
    clifford_only: bool
    n_qubits: int
    forced: bool = False

    def as_dict(self) -> dict:
        """JSON-ready rendering (service payloads, ``/stats``)."""
        return asdict(self)


def _canonical_gate(name: str) -> str:
    key = name.lower()
    return GATE_ALIASES.get(key, key)


def is_clifford_program(program: Program) -> bool:
    """True iff every issued operation is Clifford and parameter-free.

    Scans the instruction stream once: ``QOP`` gates (any parametric
    gate — even a Clifford angle spelled as a rotation — routes
    dense), both arms of every ``MRCE``, and the structural
    measure/reset operations.  Classical instructions never touch the
    substrate and are ignored.
    """
    for instr in program.instructions:
        if instr.opcode == Opcode.QOP:
            gate = _canonical_gate(instr.gate)
            if gate in _STRUCTURAL:
                continue
            if gate not in CLIFFORD_GATES or instr.params:
                return False
        elif instr.opcode == Opcode.MRCE:
            for arm in (instr.op_if_zero, instr.op_if_one):
                gate = _canonical_gate(arm)
                if gate not in CLIFFORD_GATES \
                        and gate not in _STRUCTURAL:
                    return False
    return True


def route_backend(program: Program, n_qubits: int,
                  noise=None, profile=None) -> RoutingDecision:
    """Pick the substrate for ``backend="auto"`` (see module docstring).

    ``noise`` is the base noise model (may be ``None`` = ideal);
    ``profile`` an optional :class:`~repro.qpu.profile.DeviceProfile`.
    The profile's readout, T1/T2 and ZZ channels are composed over
    ``noise`` (:meth:`~repro.qpu.profile.DeviceProfile.noise_model`),
    as the device composes them, and its ``backend`` pin, when
    present, wins over the program analysis.
    """
    return route_analysed(is_clifford_program(program), n_qubits,
                          noise=noise, profile=profile)


def route_analysed(clifford: bool, n_qubits: int,
                   noise=None, profile=None) -> RoutingDecision:
    """The routing rules, given the program analysis already made.

    ``clifford`` is :func:`is_clifford_program` of the program; the
    shot-sweep service keeps it per program text, so a repeated text
    routes without being parsed again.
    """
    if profile is not None and profile.backend is not None:
        backend = profile.backend
        return RoutingDecision(
            backend=backend,
            reason=f"device profile {profile.name or '<unnamed>'!s} "
                   f"pins {backend!r}",
            clifford_only=clifford, n_qubits=n_qubits, forced=True)
    if profile is not None:
        noise = profile.noise_model(base=noise)
    if clifford and (noise is None or noise.is_pauli_only):
        return RoutingDecision(
            backend="stabilizer",
            reason="Clifford-only program under Pauli-compatible "
                   "noise: polynomial tableau is exact",
            clifford_only=True, n_qubits=n_qubits)
    if clifford:
        reason = ("Clifford-only program, but the noise model needs "
                  "amplitudes: dense statevector")
    else:
        reason = "non-Clifford gates present: dense statevector"
    return RoutingDecision(backend="statevector", reason=reason,
                           clifford_only=clifford, n_qubits=n_qubits)
