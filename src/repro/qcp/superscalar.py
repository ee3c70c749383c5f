"""The quantum superscalar core (Section 5.3).

Per cycle the core:

1. performs any pending fast-context-switch work,
2. dispatches from the pre-decode buffer under the
   *parallel-until-classical* policy — at most one classical instruction
   (single classical pipeline) plus one group of quantum instructions
   sharing a timing point (the group's leader plus following label-0
   instructions, up to the number of quantum pipelines), and
3. fetches up to ``fetch_width`` instructions into the buffer.

Timing-hazard prevention happens in the pre-decoder: a quantum
instruction with a non-zero label ends the current group and waits for
the next cycle.  Recombination: if a group reaches the end of the buffer
while the next instruction in the cache would join it (a label-0 quantum
instruction), dispatch is deferred one cycle so instructions fetched in
different cycles can still issue together.  While a group is deferred, a
classical instruction *behind* it may dispatch ahead (the lookahead that
absorbs branch latency).

The buffer holds pre-decoded ``(kind, instr, payload)`` entries (see
:mod:`repro.qcp.decode`), so the per-cycle dispatch decisions are
integer compares on kind codes and the classical pipeline executes
compiled micro-ops.
"""

from __future__ import annotations

from collections import deque

from repro.isa.instructions import Mrce
from repro.qcp.decode import (DecodedInstr, K_BUNDLE, K_CLASSICAL,
                              K_MRCE, K_QMEAS)
from repro.qcp.processor import ProcessorCore, ProcState


class SuperscalarProcessor(ProcessorCore):
    """N-way fetch, pre-decode and multi-pipeline quantum dispatch."""

    def _reset_stream_state(self) -> None:
        self._buffer: deque[DecodedInstr] = deque()
        self._fetch_pc = self.pc
        self._deferred_once = False

    # -- fetch ------------------------------------------------------------

    def _fetch_into_buffer(self) -> None:
        room = self.config.buffer_capacity - len(self._buffer)
        count = min(self.config.fetch_width, room)
        block = self.block
        while count > 0 and block is not None \
                and block.start <= self._fetch_pc < block.end:
            self._buffer.append(self.cache.fetch_decoded(self._fetch_pc))
            self._fetch_pc += 1
            count -= 1

    def _flush_buffer(self, new_pc: int) -> None:
        """Redirect fetch after a taken branch."""
        self._buffer.clear()
        self._fetch_pc = new_pc
        self._deferred_once = False

    def _peek_next_in_cache(self) -> DecodedInstr | None:
        block = self.block
        if block is None or not block.start <= self._fetch_pc < block.end:
            return None
        return self.cache.fetch_decoded(self._fetch_pc)

    # -- dispatch ------------------------------------------------------------

    def _quantum_group(self) -> list[DecodedInstr]:
        """Maximal dispatchable group from the buffer head."""
        group: list[DecodedInstr] = []
        for entry in self._buffer:
            if entry[0] > K_QMEAS:
                break  # not a plain quantum instruction
            if group and entry[2][1] != 0:
                break  # different timing point: next cycle
            if len(group) == self.config.n_quantum_pipelines:
                break
            group.append(entry)
        return group

    def _group_may_grow(self, group: list) -> bool:
        """True when deferring one cycle could enlarge the group."""
        if len(group) >= self.config.n_quantum_pipelines:
            return False
        if len(group) < len(self._buffer):
            return False  # something non-joinable follows in the buffer
        upcoming = self._peek_next_in_cache()
        return (upcoming is not None and upcoming[0] <= K_QMEAS
                and upcoming[2][1] == 0)

    def _cycle(self) -> None:
        if self.state is not ProcState.RUNNING:
            return
        context = self.contexts.pop_resolved()
        if context is not None:
            self._perform_switch_back(context)
            self._schedule_cycle(0)
            return

        # Per-cycle attribution state: exactly one cycle is charged per
        # _cycle invocation, quantum taking precedence over classical.
        self._dispatched_quantum = False
        self._dispatched_classical = False
        self._cycle_step: int | None = None

        halted = stalled = False
        stall_cycles = 0
        while self._buffer and not (halted or stalled):
            kind = self._buffer[0][0]
            if kind <= K_QMEAS:
                action = self._try_dispatch_group()
                if action == "stop":
                    break
                if action == "stalled":
                    stalled = True
            elif kind == K_MRCE:
                if self._dispatched_quantum:
                    break
                # MRCE charges its own feedback cycles internally, so it
                # only blocks further quantum dispatch this cycle.
                _handled, mrce_stalled = self._dispatch_mrce(
                    self._buffer[0][1])
                self._dispatched_quantum = True
                if mrce_stalled:
                    stalled = True
            elif kind == K_BUNDLE:
                raise TypeError(
                    "VLIW bundles are not executable on the superscalar "
                    "core; run bundled programs on the scalar baseline")
            else:
                if self._dispatched_classical:
                    break
                entry = self._buffer.popleft()
                disposition, extra = self._dispatch_classical(entry)
                self._dispatched_classical = True
                if disposition == "stall_fmr":
                    stalled = True
                elif disposition == "halt":
                    halted = True
                elif disposition == "taken":
                    stall_cycles = extra
                    break

        if halted and not self._dispatched_quantum:
            # A cycle that only dispatched halt is block packaging and
            # does not contribute to CES (Equation 1).
            self._dispatched_classical = False
        self._account_cycle(stall_cycles)
        if stalled:
            return  # resumption re-enters via the registered waiter
        if halted:
            if self.contexts.busy:
                self.state = ProcState.DRAIN
            else:
                self._finish_block()
            return
        self._fetch_into_buffer()
        if not self._buffer and self._fetch_pc >= (self.block.end
                                                   if self.block else 0):
            # Nothing left to run: a well-formed block ends in halt, so
            # reaching here means the block fell through.
            raise RuntimeError(
                f"block {self.block.name if self.block else '?'} "
                "ran past its end without halt")
        self._schedule_cycle(1 + stall_cycles)

    def _try_dispatch_group(self) -> str:
        """Dispatch (or defer) the quantum group at the buffer head.

        Returns ``"dispatched"``, ``"stop"`` (end this cycle's dispatch)
        or ``"stalled"`` (processor entered a wait state).
        """
        if self._dispatched_quantum:
            return "stop"
        group = self._quantum_group()
        if self.config.fast_context_switch and any(
                self.contexts.conflicts_with(entry[2][0].qubits)
                for entry in group):
            if self._dispatched_classical:
                return "stop"  # finish this cycle, stall next one
            self._stall_on_context(
                tuple(q for entry in group
                      for q in entry[2][0].qubits))
            return "stalled"
        if self._group_may_grow(group) and not self._deferred_once:
            # Recombination: wait one cycle so parallel instructions
            # fetched in different cycles can issue together.  A
            # classical instruction behind the deferred group may
            # dispatch ahead of it (lookahead).
            self._deferred_once = True
            if not self._dispatched_classical:
                lookahead = self._lookahead_classical(len(group))
                if lookahead is not None:
                    self._dispatch_classical(lookahead)
                    self._dispatched_classical = True
            return "stop"
        self._deferred_once = False
        first_step: int | None = None
        for index, entry in enumerate(group):
            self._buffer.popleft()
            kind, _instr, (op, timing, step_id) = entry
            if index == 0:
                first_step = step_id if step_id is not None \
                    else self._current_step
            self._execute_quantum_decoded(op, timing, step_id,
                                          kind == K_QMEAS)
        self._cycle_step = first_step
        self._dispatched_quantum = True
        return "dispatched"

    def _account_cycle(self, stall_cycles: int) -> None:
        """Charge this cycle to the CES ledger (Equation 1 terms)."""
        if self._dispatched_quantum and self._cycle_step is not None:
            self.ces.quantum(self._cycle_step, 1)
        elif self._dispatched_classical:
            self.ces.classical(self._current_step, 1)
        if stall_cycles:
            self.ces.control_stall(self._current_step, stall_cycles)

    # -- helpers -------------------------------------------------------------

    def _lookahead_classical(self, skip: int) -> DecodedInstr | None:
        """First classical instruction behind a deferred quantum group.

        Only non-control-flow classical instructions may be hoisted over
        unissued quantum work; branches must wait so that the quantum
        instructions ahead of them are never squashed.
        """
        for index in range(skip, len(self._buffer)):
            entry = self._buffer[index]
            if entry[0] != K_CLASSICAL:
                return None
            if not entry[2][1]:  # not hoistable (branch/halt/fmr)
                return None
            del self._buffer[index]
            return entry
        return None

    def _dispatch_classical(self, entry: DecodedInstr) -> tuple[str, int]:
        """Execute one classical micro-op (already off the buffer)."""
        _kind, instr, (run, _hoistable, eclass) = entry
        self.trace.instructions_executed += 1
        disposition, extra = run(self)
        if self.recording is not None and eclass:
            self._record_classical(instr, run, eclass, disposition)
        if disposition == "taken":
            self._flush_buffer(self.pc)
        elif disposition == "stall_fmr":
            self._stall_on_fmr(instr)
        return disposition, extra

    def _dispatch_mrce(self, instr: Mrce) -> tuple[bool, bool]:
        """Dispatch the MRCE at the buffer head.

        Returns ``(handled, stalled)``.
        """
        if self.config.fast_context_switch:
            qubits = (instr.result_qubit, instr.target_qubit)
            if self.contexts.conflicts_with(qubits):
                self._stall_on_context(qubits)
                return False, True
            if self._execute_mrce_fast(instr):
                self._buffer.popleft()
                return True, False
            self._stall_on_context(qubits)
            return False, True
        self._buffer.popleft()
        if self._execute_mrce_blocking(instr):
            return True, False
        # Stalled waiting for the result; the base-class _resume_mrce
        # restarts the cycle loop (its pc increment is harmless here —
        # superscalar fetch is driven by _fetch_pc, not pc).
        return False, True
