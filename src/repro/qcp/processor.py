"""Processor cores: shared machinery and the scalar baseline.

A processor executes the instructions of its current program block,
pushing quantum operations into its timing controller.  The scalar
baseline models the paper's comparison design (equivalent to a
QuMA_v2-style single-issue pipeline): one instruction per cycle,
feedback control stalls the pipeline, no fast context switch unless
enabled in the configuration.

Timing model: the processor advances in whole clock cycles via kernel
events.  Stalls that depend on external events (measurement results)
suspend the event chain and resume via measurement-result-register
waiters; their duration is the stage I+II wait excluded from CES.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.isa.instructions import Mrce, Qmeas, Qop
from repro.isa.program import BlockInfo
from repro.qcp.config import QCPConfig
from repro.qcp.context_switch import ContextSwitchUnit, PendingContext
from repro.qcp.decode import (E_BRANCH, E_FMR, E_REG, K_BUNDLE,
                              K_CLASSICAL, K_MRCE, K_QMEAS, K_QOP)
from repro.qcp.tracecache import REC_CLS, REC_DEC, REC_FMR, REC_MDEC
from repro.qcp.emitter import Emitter, QuantumOp
from repro.qcp.memory import PrivateInstructionCache
from repro.qcp.metrics import CESAccumulator
from repro.qcp.registers import (MeasurementResultRegisters, RegisterFile,
                                 SharedRegisters)
from repro.qcp.timing import TimingController
from repro.qcp.trace import Trace
from repro.sim.kernel import SimKernel


class ProcState(enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    WAIT_RESULT = "wait_result"     # FMR / baseline-MRCE stall (stage I+II)
    WAIT_CONTEXT = "wait_context"   # dependent instruction on stored qubit
    DRAIN = "drain"                 # halt seen, pending contexts remain


class ProcessorCore:
    """Common state and helpers for scalar and superscalar cores."""

    def __init__(self, proc_id: int, kernel: SimKernel, config: QCPConfig,
                 cache: PrivateInstructionCache, shared: SharedRegisters,
                 results: MeasurementResultRegisters, emitter: Emitter,
                 trace: Trace,
                 on_done: Callable[["ProcessorCore"], None]) -> None:
        self.proc_id = proc_id
        self.kernel = kernel
        self.config = config
        self.cache = cache
        self.shared = shared
        self.results = results
        self.emitter = emitter
        self.trace = trace
        self.on_done = on_done
        self.registers = RegisterFile()
        self.timing = TimingController(kernel, emitter,
                                       config.clock_period_ns, proc_id)
        self.ces = CESAccumulator()
        self.contexts = ContextSwitchUnit(config.context_slots)
        self.state = ProcState.IDLE
        self.pc = 0
        self.block: BlockInfo | None = None
        self.blocks_completed = 0
        self._busy_until_ns = 0
        self._current_step: int | None = None
        self._stall_began_ns = 0
        #: Trace-cache chronological stream; set by the system when a
        #: shot is being recorded, ``None`` otherwise (see
        #: :mod:`repro.qcp.tracecache`).
        self.recording: list | None = None
        #: Called (no arguments) after each quiet MRCE decision entry is
        #: recorded; set by the system for a folding trace cache, which
        #: may snapshot the control stack there or end the run.
        self.on_quiet: Callable[[], None] | None = None

    # -- lifecycle ------------------------------------------------------------

    @property
    def idle(self) -> bool:
        return self.state is ProcState.IDLE

    def start_block(self, block: BlockInfo) -> None:
        """Begin executing ``block`` (its cache bank is already filled)."""
        if self.state is not ProcState.IDLE:
            raise RuntimeError(
                f"processor {self.proc_id} started while {self.state}")
        self.block = block
        self.pc = block.start
        self.state = ProcState.RUNNING
        self.timing.reset_timeline()
        self._reset_stream_state()
        self._schedule_cycle(0)

    def _reset_stream_state(self) -> None:
        """Hook for subclasses to clear fetch buffers etc."""

    def _finish_block(self) -> None:
        self.state = ProcState.IDLE
        finished, self.block = self.block, None
        self.blocks_completed += 1
        self.cache.release_active()
        # A block is complete once its last quantum operation has left
        # for the QPU, not merely when halt was dispatched: the
        # processor may run ahead of its timeline, and a successor
        # block must not overlap this block's issue tail.
        done_at = max(self.kernel.now, self._busy_until_ns,
                      self.timing.last_issue_ns or 0)
        self.kernel.schedule_at(done_at, self.on_done, self)
        del finished

    # -- cycle scheduling ---------------------------------------------------------

    @property
    def period(self) -> int:
        return self.config.clock_period_ns

    def _schedule_cycle(self, cycles: int) -> None:
        """Schedule the next cycle event ``cycles`` cycles from now."""
        target = max(self.kernel.now + cycles * self.period,
                     self._busy_until_ns)
        self.kernel.schedule_at(target, self._cycle)

    def _cycle(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- trace-cache recording ------------------------------------------------

    def _record_classical(self, instr, run, eclass: int,
                          disposition: str) -> None:
        """Append one executed classical micro-op to the recording
        stream (caller has already checked ``recording is not None``
        and ``eclass``)."""
        if eclass == E_REG:
            self.recording.append((REC_CLS, self.proc_id, run))
        elif eclass == E_BRANCH:
            self.recording.append(
                (REC_DEC, self.proc_id, run,
                 1 if disposition == "taken" else 0))
        elif disposition == "next":  # valid-path FMR
            self.recording.append((REC_FMR, self.proc_id, instr.rd,
                                   instr.qubit))

    def _record_mrce(self, instr: Mrce, value: int,
                     stalled: bool = False) -> None:
        """Append one MRCE resolution to the recording stream.

        The entry carries the decision time and, for a resolution on
        the stall path, a *quiescence signature*.  When the kernel
        queue is empty (so is the timing queue: each of its operations
        is a kernel event), nothing in the control stack reads absolute
        time, and its future depends only on the pc, the registers and
        ``(last_issue_ns - now, max(busy_until - now, 0))``: two
        decisions with equal signatures have futures that are exact
        time translates.  ``None`` marks every other resolution (see
        :mod:`repro.qcp.tracecache`, Pauli-arm folds).
        """
        now = self.kernel.now
        quiet = None
        if stalled and not self.kernel.pending_events:
            last = self.timing.last_issue_ns
            quiet = (None if last is None else last - now,
                     max(self._busy_until_ns - now, 0))
        self.recording.append((REC_MDEC, instr.result_qubit, value,
                               instr.target_qubit, now, quiet))
        if quiet is not None and self.on_quiet is not None:
            self.on_quiet()

    # -- control-stack restart ----------------------------------------------

    def snapshot(self) -> tuple:
        """This core's state at a quiet MRCE stall, as plain data.

        Taken where :meth:`_record_mrce` stamps a quiescence signature:
        the core is stalled on the MRCE at ``pc`` and nothing is
        pending.  Times are relative to now, and ``busy_until`` is
        clamped at 0 like the signature's (a past value never delays a
        cycle).  The stall's start is left out: it feeds only the CES
        wait of the resolution, and Pauli arms that fold stall at
        different offsets.  Registers are not kept: a snapshot exists
        only on paths without classical entries, so they are at reset.
        """
        now = self.kernel.now
        last = self.timing.last_issue_ns
        return (self.pc, self.block, self.blocks_completed,
                max(self._busy_until_ns - now, 0),
                None if last is None else last - now,
                self._current_step, self.cache.snapshot())

    def restore(self, snapshot: tuple, now: int) -> None:
        """Reload a :meth:`snapshot` at ``now`` and schedule the MRCE's
        resolution then, with the value in its result register."""
        (self.pc, self.block, self.blocks_completed, busy, last,
         self._current_step, banks) = snapshot
        self._busy_until_ns = now + busy
        self.timing.last_issue_ns = None if last is None else now + last
        self._stall_began_ns = now
        self.cache.restore(banks)
        self.state = ProcState.WAIT_RESULT
        instr = self.cache.fetch_decoded(self.pc)[1]
        self.kernel.schedule_at(
            now, lambda: self._resume_mrce(
                instr, self.results.read(instr.result_qubit)))

    # -- quantum execution helpers ---------------------------------------------

    def _execute_quantum_decoded(self, op: QuantumOp, timing: int,
                                 step_id: int | None,
                                 is_measure: bool) -> None:
        """Push a pre-decoded operation onto the timeline."""
        if is_measure:
            # Invalidate at *execute* time so a subsequent FMR cannot
            # read a stale result from an earlier measurement.
            self.results.invalidate(op.qubits[0])
        self.timing.enqueue(op, timing, self.kernel.now)
        self._current_step = step_id
        self.trace.instructions_executed += 1

    def _step_of(self, instr) -> int | None:
        return instr.step_id if instr.step_id is not None \
            else self._current_step

    # -- simple feedback control (MRCE) --------------------------------------------

    def _mrce_issue(self, instr: Mrce, result: int, at_ns: int) -> None:
        """Issue the operation selected by the measurement result."""
        selected = instr.selected_op(result)
        if selected == "i":
            return
        op = QuantumOp(gate=selected, qubits=(instr.target_qubit,),
                       block=instr.block, step_id=instr.step_id)
        self.timing.enqueue_immediate(op, at_ns)

    def _execute_mrce_blocking(self, instr: Mrce) -> bool:
        """Baseline MRCE: stall until the result is valid.

        Returns True if the processor completed the MRCE synchronously
        (result already valid), False if it is now stalled.
        """
        self.trace.instructions_executed += 1
        logic = self.config.mrce_logic_cycles
        if self.results.is_valid(instr.result_qubit):
            result = self.results.read(instr.result_qubit)
            if self.recording is not None:
                self._record_mrce(instr, result)
            self.ces.feedback(self._step_of(instr), 1 + logic)
            self._mrce_issue(instr, result,
                             self.kernel.now + logic * self.period)
            return True
        self.state = ProcState.WAIT_RESULT
        self._stall_began_ns = self.kernel.now
        self.results.wait(instr.result_qubit,
                          lambda value, _t: self._resume_mrce(instr, value))
        return False

    def _resume_mrce(self, instr: Mrce, value: int) -> None:
        now = self.kernel.now
        if self.recording is not None:
            self._record_mrce(instr, value, stalled=True)
        self.ces.excluded_wait(self._step_of(instr),
                               now - self._stall_began_ns)
        logic = self.config.mrce_logic_cycles
        self.ces.feedback(self._step_of(instr), 1 + logic)
        self._mrce_issue(instr, value, now + logic * self.period)
        self.state = ProcState.RUNNING
        self.pc += 1
        self._schedule_cycle(1 + logic)

    def _execute_mrce_fast(self, instr: Mrce) -> bool:
        """Fast-context-switch MRCE.  Returns False if stalled on a
        full context file, True when saved (or resolved immediately)."""
        self.trace.instructions_executed += 1
        if self.results.is_valid(instr.result_qubit):
            # Result already there: no switch needed, plain conditional.
            logic = self.config.mrce_logic_cycles
            result = self.results.read(instr.result_qubit)
            if self.recording is not None:
                self._record_mrce(instr, result)
            self.ces.feedback(self._step_of(instr), 1 + logic)
            self._mrce_issue(instr, result,
                             self.kernel.now + logic * self.period)
            self._busy_until_ns = max(
                self._busy_until_ns,
                self.kernel.now + (1 + logic) * self.period)
            return True
        if not self.contexts.has_free_slot:
            return False
        context = self.contexts.save(instr, self.kernel.now)
        self.ces.feedback(self._step_of(instr), 1)  # the save cycle
        self.results.wait(
            instr.result_qubit,
            lambda value, _t: self._on_context_result(context, value))
        return True

    def _on_context_result(self, context: PendingContext,
                           value: int) -> None:
        """A stored context's measurement result arrived."""
        self.contexts.resolve(context, value, self.kernel.now)
        self.trace.context_switches += 1
        if self.state is ProcState.RUNNING:
            return  # the next cycle event performs the switch-back
        # The pipeline is stalled or draining: the switch-back happens
        # during otherwise-idle cycles.
        self._perform_switch_back(context)
        if self.state is ProcState.WAIT_CONTEXT:
            if not self.contexts.conflicts_with(self._waiting_qubits):
                self.state = ProcState.RUNNING
                self.ces.excluded_wait(
                    self._current_step,
                    self.kernel.now - self._stall_began_ns)
                self._schedule_cycle(0)
        elif self.state is ProcState.DRAIN:
            self._maybe_finish_drain()

    def _perform_switch_back(self, context: PendingContext) -> None:
        """Charge the switch cycles and issue the selected operation."""
        if context in self.contexts.resolved_queue:
            self.contexts.resolved_queue.remove(context)
        if self.recording is not None:
            self._record_mrce(context.instr, context.result or 0)
        switch = self.config.context_switch_cycles
        start = max(self.kernel.now, self._busy_until_ns)
        self._busy_until_ns = start + (switch + 1) * self.period
        self.ces.feedback(self._step_of(context.instr), switch + 1)
        self._mrce_issue(context.instr, context.result or 0,
                         start + switch * self.period)

    _waiting_qubits: tuple[int, ...] = ()

    def _stall_on_context(self, qubits: tuple[int, ...]) -> None:
        self.state = ProcState.WAIT_CONTEXT
        self._waiting_qubits = tuple(qubits)
        self._stall_began_ns = self.kernel.now
        # Resumption happens in _on_context_result.

    def _maybe_finish_drain(self) -> None:
        if not self.contexts.busy:
            self._finish_block()

    # -- result fetch (FMR) ---------------------------------------------------

    def _stall_on_fmr(self, instr) -> None:
        """Stall until the FMR's measurement result is valid."""
        self.state = ProcState.WAIT_RESULT
        self._stall_began_ns = self.kernel.now
        self.results.wait(instr.qubit,
                          lambda value, _t: self._resume_fmr(instr, value))

    def _resume_fmr(self, instr, value: int) -> None:
        # The pc step matters to a scalar core only: a superscalar core
        # fetches from its own fetch pc.
        now = self.kernel.now
        self.ces.excluded_wait(self._step_of(instr),
                               now - self._stall_began_ns)
        self.registers.write(instr.rd, value)
        if self.recording is not None:
            self.recording.append((REC_FMR, self.proc_id, instr.rd,
                                   instr.qubit))
        self.ces.classical(self._step_of(instr), 1)
        self.state = ProcState.RUNNING
        self.pc += 1
        self._schedule_cycle(1)


class ScalarProcessor(ProcessorCore):
    """Single-issue in-order core: the paper's baseline design.

    The cycle loop dispatches on pre-decoded kind codes and compiled
    classical micro-ops (see :mod:`repro.qcp.decode`) so each simulated
    cycle costs a list index plus a few integer compares instead of
    instruction-object introspection.
    """

    def _cycle(self) -> None:
        if self.state is not ProcState.RUNNING:
            return  # stale event after a state change
        # Resolved contexts take priority: switch back before new work.
        context = self.contexts.pop_resolved()
        if context is not None:
            self._perform_switch_back(context)
            self._schedule_cycle(0)
            return
        kind, instr, payload = self.cache.fetch_decoded(self.pc)
        if kind <= K_QMEAS:
            op, timing, step_id = payload
            if self.config.fast_context_switch and \
                    self.contexts.conflicts_with(op.qubits):
                self._stall_on_context(op.qubits)
                return
            self.ces.quantum(step_id if step_id is not None
                             else self._current_step, 1)
            self._execute_quantum_decoded(op, timing, step_id,
                                          kind == K_QMEAS)
            self.pc += 1
            self._schedule_cycle(1)
            return
        if kind == K_BUNDLE:
            # VLIW execution: all slot operations issue at one timing
            # point, one cycle per bundle (QuMA_v2-style baseline).
            slots, step_id, qubits = payload
            if self.config.fast_context_switch and \
                    self.contexts.conflicts_with(qubits):
                self._stall_on_context(qubits)
                return
            self.ces.quantum(step_id if step_id is not None
                             else self._current_step, 1)
            now = self.kernel.now
            for op, meas_qubit, slot_timing in slots:
                if meas_qubit is not None:
                    self.results.invalidate(meas_qubit)
                self.timing.enqueue(op, slot_timing, now)
            self._current_step = step_id
            self.trace.instructions_executed += 1
            self.pc += 1
            self._schedule_cycle(1)
            return
        if kind == K_MRCE:
            if self.config.fast_context_switch:
                if self.contexts.conflicts_with(
                        (instr.result_qubit, instr.target_qubit)):
                    self._stall_on_context(
                        (instr.result_qubit, instr.target_qubit))
                    return
                if self._execute_mrce_fast(instr):
                    self.pc += 1
                    self._schedule_cycle(1)
                else:
                    self._stall_on_context(
                        (instr.result_qubit, instr.target_qubit))
                return
            if self._execute_mrce_blocking(instr):
                self.pc += 1
                self._schedule_cycle(1 + self.config.mrce_logic_cycles)
            return
        # Classical path: run the compiled micro-op.
        run, _hoistable, eclass = payload
        self.trace.instructions_executed += 1
        disposition, extra = run(self)
        if self.recording is not None and eclass:
            self._record_classical(instr, run, eclass, disposition)
        step = self._step_of(instr)
        if disposition == "stall_fmr":
            self._stall_on_fmr(instr)
            return
        if disposition == "halt":
            # Halt is block packaging, not circuit-step work: it does
            # not contribute to CES (Equation 1).
            if self.contexts.busy:
                self.state = ProcState.DRAIN
            else:
                self._finish_block()
            return
        self.ces.classical(step, 1)
        if extra:
            self.ces.control_stall(step, extra)
        if disposition == "next":
            self.pc += 1
        self._schedule_cycle(1 + extra)
