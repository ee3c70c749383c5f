"""Instruction memory and private instruction caches (Section 5.2.3).

All instructions live in a centralized :class:`InstructionMemory` shared
by every processor.  Each processor owns a :class:`PrivateInstructionCache`
with **two banks**: the active bank holds the executing block, the other
is filled by the scheduler's prefetch so a block switch only costs the
bank-select cycles instead of a full cache fill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Instruction
from repro.isa.program import BlockInfo, Program
from repro.qcp.decode import DecodedInstr, decode_instruction


class InstructionMemory:
    """Centralized main memory holding the whole program.

    Construction pre-decodes every instruction into its dispatch entry
    (kind code, reusable ``QuantumOp``, compiled classical micro-op —
    see :mod:`repro.qcp.decode`), so the per-cycle fetch path of the
    processor cores is an O(1) list index instead of instruction-object
    introspection.  A shot engine shares one memory across all shots,
    amortising the decode to zero.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self._decoded: list[DecodedInstr] = [
            decode_instruction(instr) for instr in program.instructions]

    def __len__(self) -> int:
        return len(self.program)

    def fetch(self, pc: int) -> Instruction:
        if not 0 <= pc < len(self.program):
            raise IndexError(f"instruction fetch out of range: pc={pc}")
        return self.program.instructions[pc]

    def fetch_decoded(self, pc: int) -> DecodedInstr:
        """The pre-decoded ``(kind, instr, payload)`` entry at ``pc``."""
        if not 0 <= pc < len(self._decoded):
            raise IndexError(f"instruction fetch out of range: pc={pc}")
        return self._decoded[pc]

    def block_instructions(self, block: BlockInfo) -> list[Instruction]:
        return self.program.instructions[block.start:block.end]


@dataclass
class _Bank:
    block: BlockInfo | None = None
    ready: bool = False


class CacheError(RuntimeError):
    """Raised on fetches outside the active block (a hardware bug)."""


class PrivateInstructionCache:
    """Double-buffered per-processor instruction cache."""

    def __init__(self, memory: InstructionMemory) -> None:
        self.memory = memory
        self._banks = [_Bank(), _Bank()]
        self._active = 0

    # -- scheduler-facing ---------------------------------------------------

    @property
    def active_block(self) -> BlockInfo | None:
        return self._banks[self._active].block

    @property
    def prefetched_block(self) -> BlockInfo | None:
        bank = self._banks[1 - self._active]
        return bank.block if bank.ready else None

    @property
    def inactive_bank_free(self) -> bool:
        return self._banks[1 - self._active].block is None

    def fill_active(self, block: BlockInfo) -> None:
        """Full allocation: load ``block`` into the active bank."""
        bank = self._banks[self._active]
        bank.block = block
        bank.ready = True

    def prefetch(self, block: BlockInfo) -> None:
        """Load ``block`` into the inactive bank."""
        bank = self._banks[1 - self._active]
        if bank.block is not None:
            raise CacheError(
                f"prefetch into occupied bank (holds {bank.block.name!r})")
        bank.block = block
        bank.ready = True

    def switch(self) -> BlockInfo:
        """Flip to the prefetched bank; returns the new active block."""
        target = self._banks[1 - self._active]
        if target.block is None or not target.ready:
            raise CacheError("switch to an empty/unready bank")
        self.release_active()
        self._active = 1 - self._active
        return target.block

    def release_active(self) -> None:
        """Drop the active bank's block (execution finished)."""
        bank = self._banks[self._active]
        bank.block = None
        bank.ready = False

    def snapshot(self) -> tuple:
        """The banks' ``(block, ready)`` and the active bank index."""
        return (tuple((bank.block, bank.ready) for bank in self._banks),
                self._active)

    def restore(self, state: tuple) -> None:
        """Reload the banks from a :meth:`snapshot`."""
        banks, self._active = state
        for bank, (block, ready) in zip(self._banks, banks):
            bank.block = block
            bank.ready = ready

    def drop_prefetch(self) -> None:
        """Discard a prefetched block (scheduling changed its mind)."""
        bank = self._banks[1 - self._active]
        bank.block = None
        bank.ready = False

    # -- processor-facing ------------------------------------------------------

    def fetch(self, pc: int) -> Instruction:
        """Fetch from the active bank, enforcing the block range."""
        block = self.active_block
        if block is None:
            raise CacheError("fetch with no active block")
        if not block.start <= pc < block.end:
            raise CacheError(
                f"pc {pc} outside active block {block.name!r} "
                f"[{block.start}, {block.end})")
        return self.memory.fetch(pc)

    def fetch_decoded(self, pc: int) -> DecodedInstr:
        """Pre-decoded fetch from the active bank (same range rules)."""
        block = self.active_block
        if block is None:
            raise CacheError("fetch with no active block")
        if not block.start <= pc < block.end:
            raise CacheError(
                f"pc {pc} outside active block {block.name!r} "
                f"[{block.start}, {block.end})")
        return self.memory.fetch_decoded(pc)

    def in_active_block(self, pc: int) -> bool:
        block = self.active_block
        return block is not None and block.start <= pc < block.end
