"""Compile-once instruction decode for the processor cores.

The cycle-accurate processor models used to re-discover what every
instruction *is* on every cycle: a chain of ``isinstance`` checks, enum
lookups, field validation and :class:`~repro.qcp.emitter.QuantumOp`
construction, repeated for each of the millions of cycles a shot sweep
executes.  All of that is a pure function of the (immutable) program,
so this module performs it exactly once when the instruction memory is
built.

Each instruction decodes to a flat tuple ``(kind, instr, payload)``:

* ``kind`` — a small int (``K_QOP`` .. ``K_CLASSICAL``) the cores
  dispatch on with integer compares instead of ``isinstance`` chains;
* ``instr`` — the original instruction, kept for the paths that still
  need source-level fields (MRCE feedback, FMR waiters, tracing);
* ``payload`` — kind-specific pre-computed artifacts: the immutable
  ``QuantumOp`` a quantum instruction will enqueue (built once, reused
  every shot), per-slot bundle expansions, or a compiled *classical
  micro-op*: a closure ``run(processor) -> (disposition, extra_cycles)``
  with operand fields and comparators already bound.

The compiled classical closures replicate the architectural semantics
previously implemented by ``ProcessorCore._apply_classical``; the
dispositions (``"next"``/``"taken"``/``"halt"``/``"stall_fmr"``) and
stall-cycle accounting are unchanged.

Every micro-op closure also carries its **def/use sets** as the
attribute ``effects = (defs, uses)``, derived once next to the closure:
the locations the op writes and reads, each ``(LOC_REG, index)`` for a
register of the executing processor or ``(LOC_SHARED, address)`` for a
shared-memory word.  The hardwired zero register is never a location
(writes to it are dropped, reads are constant), and neither is the
program counter or the measurement-result file.  The trace cache's
decision slice (:mod:`repro.qcp.tracecache`) walks these sets backward
from each recorded branch to find the classical ops a replay must run.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.instructions import (ZERO_REG, Alu, Addi, Branch, Fmr,
                                    Halt, Instruction, Jmp, Ldi, Ldm, Mov,
                                    Mrce, Nop, Not, Qmeas, Qop, Stm)
from repro.isa.vliw import Bundle
from repro.qcp.emitter import QuantumOp

# Dispatch kinds.  K_QOP/K_QMEAS are adjacent so "is quantum" is a
# single ``kind <= K_QMEAS`` compare.
K_QOP = 0
K_QMEAS = 1
K_BUNDLE = 2
K_MRCE = 3
K_CLASSICAL = 4

# Effect classes of classical instructions, used by the trace-cache
# recorder to decide what must be captured for a functional replay:
# E_NONE has no architectural effect beyond control flow that is
# constant (nop/halt/jmp), E_REG mutates register state (replayed via
# the compiled micro-op), E_BRANCH is a data-dependent control decision
# (a trie branch point), E_FMR moves a measurement result into a
# register (replayed from the delivered-outcome map).
E_NONE = 0
E_REG = 1
E_BRANCH = 2
E_FMR = 3

#: A decoded entry: (kind, instruction, payload).
DecodedInstr = tuple

#: A compiled classical micro-op.
ClassicalRun = Callable[["object"], tuple[str, int]]

#: Location spaces of the def/use sets: ``(LOC_REG, index)`` is a
#: register of the processor that executes the op, ``(LOC_SHARED,
#: address)`` a word of the shared registers every processor sees.
LOC_REG = "reg"
LOC_SHARED = "shared"


def _regs(*indices: int) -> tuple:
    """Register locations; the zero register is never one."""
    return tuple((LOC_REG, index) for index in indices
                 if index != ZERO_REG)


def _with_effects(run: ClassicalRun, defs: tuple = (),
                  uses: tuple = ()) -> ClassicalRun:
    """Attach the def/use sets to a micro-op closure."""
    run.effects = (defs, uses)
    return run


def _run_nop(proc) -> tuple[str, int]:
    return "next", 0


def _run_halt(proc) -> tuple[str, int]:
    return "halt", 0


_with_effects(_run_nop)
_with_effects(_run_halt)


def _compile_classical(instr: Instruction) -> ClassicalRun:
    """Bind one classical instruction into a micro-op closure."""
    if isinstance(instr, Nop):
        return _run_nop
    if isinstance(instr, Halt):
        return _run_halt
    if isinstance(instr, Jmp):
        target = int(instr.target)

        def run_jmp(proc):
            proc.pc = target
            return "taken", proc.config.branch_penalty_cycles
        return _with_effects(run_jmp)
    if isinstance(instr, Branch):
        compare = instr._COMPARATORS[instr.opcode]
        rs, rt, target = instr.rs, instr.rt, int(instr.target)

        def run_branch(proc):
            registers = proc.registers
            if compare(registers.read(rs), registers.read(rt)):
                proc.pc = target
                return "taken", proc.config.branch_penalty_cycles
            return "next", 0
        return _with_effects(run_branch, uses=_regs(rs, rt))
    if isinstance(instr, Ldi):
        rd, imm = instr.rd, instr.imm

        def run_ldi(proc):
            proc.registers.write(rd, imm)
            return "next", 0
        return _with_effects(run_ldi, _regs(rd))
    if isinstance(instr, Mov):
        rd, rs = instr.rd, instr.rs

        def run_mov(proc):
            registers = proc.registers
            registers.write(rd, registers.read(rs))
            return "next", 0
        return _with_effects(run_mov, _regs(rd), _regs(rs))
    if isinstance(instr, Ldm):
        rd, addr = instr.rd, instr.addr

        def run_ldm(proc):
            proc.registers.write(rd, proc.shared.read(addr))
            return "next", 0
        return _with_effects(run_ldm, _regs(rd),
                             ((LOC_SHARED, addr),))
    if isinstance(instr, Stm):
        rs, addr = instr.rs, instr.addr

        def run_stm(proc):
            proc.shared.write(addr, proc.registers.read(rs))
            return "next", 0
        return _with_effects(run_stm, ((LOC_SHARED, addr),),
                             _regs(rs))
    if isinstance(instr, Addi):
        rd, rs, imm = instr.rd, instr.rs, instr.imm

        def run_addi(proc):
            registers = proc.registers
            registers.write(rd, registers.read(rs) + imm)
            return "next", 0
        return _with_effects(run_addi, _regs(rd), _regs(rs))
    if isinstance(instr, Not):
        rd, rs = instr.rd, instr.rs

        def run_not(proc):
            registers = proc.registers
            registers.write(rd, registers.read(rs) ^ 1)
            return "next", 0
        return _with_effects(run_not, _regs(rd), _regs(rs))
    if isinstance(instr, Alu):
        evaluate = instr._FUNCS[instr.opcode]
        rd, rs, rt = instr.rd, instr.rs, instr.rt

        def run_alu(proc):
            registers = proc.registers
            registers.write(rd, evaluate(registers.read(rs),
                                         registers.read(rt)))
            return "next", 0
        return _with_effects(run_alu, _regs(rd), _regs(rs, rt))
    if isinstance(instr, Fmr):
        rd, qubit = instr.rd, instr.qubit

        def run_fmr(proc):
            results = proc.results
            if results.is_valid(qubit):
                proc.registers.write(rd, results.read(qubit))
                return "next", 0
            return "stall_fmr", 0
        # The result register file is not replay state: a replay
        # serves fetches from the shot's own delivered bits.
        return _with_effects(run_fmr, _regs(rd))
    raise TypeError(f"not a classical instruction: {instr}")


def _op_for(instr: Qop | Qmeas) -> QuantumOp:
    """The immutable, reusable QuantumOp a quantum instruction issues."""
    if isinstance(instr, Qmeas):
        return QuantumOp(gate="measure", qubits=(instr.qubit,),
                         block=instr.block, step_id=instr.step_id)
    return QuantumOp(gate=instr.gate, qubits=instr.qubits,
                     params=instr.params, block=instr.block,
                     step_id=instr.step_id)


def decode_instruction(instr: Instruction) -> DecodedInstr:
    """Decode one instruction into its ``(kind, instr, payload)`` entry.

    Called once per instruction when the
    :class:`~repro.qcp.memory.InstructionMemory` is built; the cores
    then dispatch on the integer ``kind`` every cycle.  Payloads by
    kind:

    * ``K_QOP`` / ``K_QMEAS`` — ``(QuantumOp, timing, step_id)``, the
      reusable operation object plus its issue-timing label;
    * ``K_BUNDLE`` — per-slot ``(QuantumOp, measured qubit or None,
      slot timing)`` expansions plus the bundle's step and qubit set;
    * ``K_MRCE`` — ``None`` (feedback needs the live instruction);
    * ``K_CLASSICAL`` — ``(micro-op closure, hoistable, effect
      class)``; the effect class (``E_NONE``/``E_REG``/``E_BRANCH``/
      ``E_FMR``) tells the trace-cache recorder whether and how the
      instruction must be captured for a functional replay, and the
      closure's ``effects`` attribute holds its def/use sets.
    """
    if isinstance(instr, Bundle):
        slots = tuple(
            (_op_for(slot),
             slot.qubit if isinstance(slot, Qmeas) else None,
             instr.timing if position == 0 else 0)
            for position, slot in enumerate(instr.slots))
        return (K_BUNDLE, instr,
                (slots, instr.step_id, instr.qubits))
    if isinstance(instr, Qmeas):
        return (K_QMEAS, instr,
                (_op_for(instr), instr.timing, instr.step_id))
    if isinstance(instr, Qop):
        return (K_QOP, instr,
                (_op_for(instr), instr.timing, instr.step_id))
    if isinstance(instr, Mrce):
        return (K_MRCE, instr, None)
    hoistable = not (instr.is_branch
                     or instr.opcode.name in ("HALT", "FMR"))
    if isinstance(instr, (Nop, Halt, Jmp)):
        eclass = E_NONE
    elif isinstance(instr, Branch):
        eclass = E_BRANCH
    elif isinstance(instr, Fmr):
        eclass = E_FMR
    else:
        eclass = E_REG
    return (K_CLASSICAL, instr,
            (_compile_classical(instr), hoistable, eclass))
