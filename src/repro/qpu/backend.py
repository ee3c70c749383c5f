"""Pluggable simulation backends for the QPU substrate.

The control stack issues the same operation stream regardless of how
the quantum state is represented.  :class:`SimulationBackend` is the
contract between the device layer and a state representation: apply a
named gate, ask for a pre-collapse excited-state probability, measure
with collapse, reset, and fork an independent copy.

Two implementations ship with the reproduction:

* ``"statevector"`` — :class:`~repro.qpu.statevector.StateVector`, a
  dense 2^n amplitude vector.  Supports every gate in the library but
  is hard-capped at 24 qubits.
* ``"stabilizer"`` — :class:`~repro.qpu.stabilizer.StabilizerState`, an
  Aaronson–Gottesman CHP tableau.  Polynomial in the qubit count
  (hundreds of qubits are fine) but restricted to Clifford gates; a
  non-Clifford gate raises :class:`NonCliffordGateError`.

Backends register themselves in a name registry so configuration
(:class:`~repro.qcp.config.QCPConfig.qpu_backend`), the shot engine and
the CLI can select one by string.
"""

from __future__ import annotations

import abc
import random
from typing import Sequence

#: One pre-resolved backend operation: ``(kind, name, qubits, params)``
#: where ``kind`` is ``"gate"`` (unitary) or ``"reset"``.  The name is
#: already canonical (aliases resolved), so batched appliers can key
#: caches on it directly.
BackendOp = tuple[str, str, tuple[int, ...], tuple[float, ...]]


class NonCliffordGateError(ValueError):
    """A gate outside the backend's supported group was requested."""


class SimulationBackend(abc.ABC):
    """Contract between the QPU device layer and a state representation.

    Implementations own an ``n_qubits`` attribute and an ``rng``
    (``random.Random``) used for measurement draws.  Measurement must
    consume exactly **one** ``rng.random()`` draw per call (compare the
    draw against :meth:`probability_of_one`), so that different
    backends seeded identically produce identical outcome streams on
    circuits both can represent.
    """

    #: Registry name; subclasses override.
    backend_name: str = ""

    n_qubits: int
    rng: random.Random

    @abc.abstractmethod
    def apply_gate(self, gate: str, qubits: tuple[int, ...],
                   params: tuple[float, ...] = ()) -> None:
        """Apply a library gate by name."""

    @abc.abstractmethod
    def probability_of_one(self, qubit: int) -> float:
        """Pre-collapse probability of measuring ``qubit`` as 1."""

    @abc.abstractmethod
    def measure_with_probability(self, qubit: int) -> tuple[int, float]:
        """Measure ``qubit`` like :meth:`measure`; return the outcome
        and the pre-collapse :meth:`probability_of_one`, which the
        measurement computes for its draw anyway."""

    def measure(self, qubit: int) -> int:
        """Projectively measure ``qubit`` and collapse the state."""
        return self.measure_with_probability(qubit)[0]

    @abc.abstractmethod
    def reset(self, qubit: int) -> None:
        """Force ``qubit`` to |0> (measure, flip on 1)."""

    @abc.abstractmethod
    def copy(self) -> "SimulationBackend":
        """Independent deep copy of the state (shares the rng)."""

    @abc.abstractmethod
    def reinitialize(self) -> None:
        """Return the state to |0...0> **in place**.

        Unlike building a fresh backend this keeps the object identity
        (and the rng reference) stable, so compiled operation closures
        bound to this instance stay valid across shots.
        """

    # -- checkpointing (the divergence-frontier resume path) ---------------

    @abc.abstractmethod
    def snapshot(self) -> object:
        """An opaque, immutable-by-convention copy of the state data.

        Cheaper than :meth:`copy` (no new backend object, no rng
        plumbing); the contract is that ``restore(snapshot())`` is an
        exact round trip.
        """

    @abc.abstractmethod
    def restore(self, snap: object) -> None:
        """Overwrite the state **in place** from a :meth:`snapshot`.

        Object identity (and the rng reference) is preserved, so
        compiled closures bound to this instance stay valid — same
        contract as :meth:`reinitialize`.  The rng is deliberately
        *not* part of the snapshot: a caller checkpointing mid-shot
        wants the rng at its live position.

        The trace cache's divergence-frontier resume usually needs no
        explicit checkpoint — the live state after a replayed prefix
        *is* the frontier — but its stabilizer sign-trace replay never
        touches the real tableau, so on a miss it materializes the
        frontier by calling ``restore`` with a *constructed* snapshot:
        the trie node's compile-time exit x/z columns plus the live
        sign column ``r``.
        """

    # -- batched shots (the shot-batched trace-cache replay path) ----------

    def make_batch_state(self, width: int) -> object | None:
        """A lockstep batch representation of ``width`` fresh |0...0>
        states, or ``None`` when the backend has no batch kernel.

        Batched trace-cache replay advances a whole cohort of shots
        per compiled step; a backend that can represent the cohort as
        one object (e.g. the statevector's amplitude rows, one per
        distinct lane state) returns it here.  The default is ``None``; only the dense
        replay mode, which runs on the statevector, asks for one.  (The
        stabilizer substrate is batched without this hook: its
        sign-trace replay never touches the tableau, so the cohort
        lives in bit-planes owned by the trace cache.)
        """
        return None

    # -- sequential application (the reference for compiled replay) --------

    def apply_ops(self, ops: Sequence[BackendOp]) -> None:
        """Apply a pre-resolved operation stream in order.

        The stream never contains measurements — those are the branch
        points of a trace and are performed by the caller via
        :meth:`measure` so it can observe the outcome.  Resets consume
        exactly one rng draw each (measure + conditional flip), so a
        batched replay stays draw-for-draw aligned with the
        cycle-accurate simulation that recorded the stream.
        """
        for kind, name, qubits, params in ops:
            if kind == "reset":
                self.reset(qubits[0])
            else:
                self.apply_gate(name, qubits, params)

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit q{qubit} out of range")


_REGISTRY: dict[str, type] = {}


def register_backend(cls: type) -> type:
    """Class decorator adding a backend to the name registry."""
    if not cls.backend_name:
        raise ValueError(f"{cls.__name__} declares no backend_name")
    _REGISTRY[cls.backend_name] = cls
    return cls


def _ensure_registered() -> None:
    # The built-in backends self-register on import; importing here
    # (rather than at module top) avoids an import cycle with
    # statevector.py, which subclasses SimulationBackend.
    import repro.qpu.stabilizer  # noqa: F401
    import repro.qpu.statevector  # noqa: F401


def backend_names() -> tuple[str, ...]:
    """Names of all registered simulation backends."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def make_backend(name: str, n_qubits: int,
                 rng: random.Random | None = None) -> SimulationBackend:
    """Instantiate the named backend for ``n_qubits`` qubits."""
    _ensure_registered()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {name!r}; available: "
            f"{', '.join(backend_names())}") from None
    return cls(n_qubits, rng=rng)
