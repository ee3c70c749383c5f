"""Register resources of the control processor (Section 5.2.4).

* :class:`RegisterFile` — per-processor general-purpose registers with a
  hardwired zero register.
* :class:`SharedRegisters` — registers visible to all processors, used
  for race-condition management and synchronisation.
* :class:`MeasurementResultRegisters` — written by the digital
  acquisition path, read-only for processors; supports the
  wait-until-valid synchronisation protocol of Section 2.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.isa.instructions import NUM_REGISTERS, ZERO_REG


class RegisterFile:
    """General-purpose registers; register 0 always reads zero."""

    def __init__(self, size: int = NUM_REGISTERS) -> None:
        if size < 2:
            raise ValueError("register file needs at least two registers")
        self._values = [0] * size

    def __len__(self) -> int:
        return len(self._values)

    def read(self, index: int) -> int:
        if index == ZERO_REG:
            return 0
        return self._values[index]

    def write(self, index: int, value: int) -> None:
        if index == ZERO_REG:
            return  # writes to the zero register are ignored
        self._values[index] = int(value)

    def reset(self) -> None:
        for index in range(len(self._values)):
            self._values[index] = 0

    def copy(self) -> "RegisterFile":
        """An independent register file holding the same values."""
        clone = RegisterFile(len(self._values))
        clone._values[:] = self._values
        return clone


class SharedRegisters:
    """Registers shared by all processors (LDM/STM target)."""

    def __init__(self, size: int = 64) -> None:
        self._values = [0] * size

    def __len__(self) -> int:
        return len(self._values)

    def read(self, addr: int) -> int:
        return self._values[addr]

    def write(self, addr: int, value: int) -> None:
        self._values[addr] = int(value)

    def copy(self) -> "SharedRegisters":
        """Independent shared registers holding the same values."""
        clone = SharedRegisters(len(self._values))
        clone._values[:] = self._values
        return clone


@dataclass
class _ResultSlot:
    value: int = 0
    valid: bool = False
    pending: bool = False
    waiters: list[Callable[[int, int], None]] = field(default_factory=list)


@dataclass(frozen=True)
class ResultDelivery:
    """History record of one DAQ write."""

    qubit: int
    value: int
    time_ns: int


class MeasurementResultRegisters:
    """Per-qubit measurement result registers with valid flags.

    Processors may only read; the DAQ (or the standalone readout path)
    calls :meth:`deliver`.  :meth:`wait` registers a callback fired when
    the result becomes valid — the mechanism behind both the FMR
    synchronisation stall and the fast-context-switch wake-up.
    """

    def __init__(self, n_qubits: int) -> None:
        if n_qubits <= 0:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self._slots = [_ResultSlot() for _ in range(n_qubits)]
        self.history: list[ResultDelivery] = []

    def _slot(self, qubit: int) -> _ResultSlot:
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit q{qubit} out of range")
        return self._slots[qubit]

    def invalidate(self, qubit: int) -> None:
        """Mark a result as pending (a measurement was just issued)."""
        slot = self._slot(qubit)
        slot.valid = False
        slot.pending = True

    def deliver(self, qubit: int, value: int, time_ns: int) -> None:
        """DAQ write: store the result, validate, wake all waiters."""
        slot = self._slot(qubit)
        slot.value = int(value)
        slot.valid = True
        slot.pending = False
        self.history.append(ResultDelivery(qubit, int(value), time_ns))
        waiters, slot.waiters = slot.waiters, []
        for callback in waiters:
            callback(int(value), time_ns)

    def is_valid(self, qubit: int) -> bool:
        return self._slot(qubit).valid

    def is_pending(self, qubit: int) -> bool:
        return self._slot(qubit).pending

    def read(self, qubit: int) -> int:
        slot = self._slot(qubit)
        if not slot.valid:
            raise RuntimeError(
                f"read of invalid measurement result for q{qubit}; the "
                "synchronisation protocol should have stalled")
        return slot.value

    def valid_mask(self) -> int:
        """The registers' valid flags, bit ``q`` for qubit ``q``."""
        valid = 0
        for qubit, slot in enumerate(self._slots):
            if slot.valid:
                valid |= 1 << qubit
        return valid

    def restore(self, valid: int, values: dict[int, int]) -> None:
        """Set the valid flags from :meth:`valid_mask`; each valid
        register takes its qubit's value from ``values``.  Nothing is
        pending, no waiters, no history."""
        for qubit, slot in enumerate(self._slots):
            slot.valid = bool(valid >> qubit & 1)
            slot.pending = False
            if slot.valid:
                slot.value = values[qubit]

    def wait(self, qubit: int,
             callback: Callable[[int, int], None]) -> None:
        """Call ``callback(value, time_ns)`` when the result is valid.

        Fires immediately if the result is already valid.
        """
        slot = self._slot(qubit)
        if slot.valid:
            callback(slot.value, -1)
        else:
            slot.waiters.append(callback)
