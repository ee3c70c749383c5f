"""QuAPE system: processors + scheduler + emitter + QPU composition.

This is the reproduction's equivalent of the paper's Figure 5/8/9: a
multiprocessor control microarchitecture (each processor optionally a
quantum superscalar) issuing operations to a QPU either directly (the
"QCP board only" benchmark setup) or through AWG/DAQ board models (the
full control stack of Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analog.awg import AWG
from repro.analog.channels import ChannelMap
from repro.analog.daq import DAQ
from repro.isa.program import (BlockInfoTable, DependencyMode, Program)
from repro.qcp.config import QCPConfig
from repro.qcp.emitter import Emitter
from repro.qcp.memory import InstructionMemory, PrivateInstructionCache
from repro.qcp.metrics import CESAccumulator, TRReport, time_ratio
from repro.qcp.processor import ProcessorCore, ScalarProcessor
from repro.qcp.registers import (MeasurementResultRegisters,
                                 SharedRegisters)
from repro.qcp.scheduler import BlockScheduler
from repro.qcp.superscalar import SuperscalarProcessor
from repro.qcp.trace import Trace
from repro.qpu.device import PRNGQPU, QPUBase
from repro.sim.kernel import SimKernel


class _Stop(Exception):
    """Unwinds the event kernel when the :attr:`QuAPESystem.on_quiet`
    hook ends the run; :meth:`QuAPESystem.run` catches it."""


@dataclass
class ExecutionResult:
    """Outcome of one full program run."""

    total_ns: int
    trace: Trace
    ces: CESAccumulator
    config: QCPConfig
    events_processed: int = 0
    #: The run ended early at a quiet MRCE, where the
    #: :attr:`QuAPESystem.on_quiet` hook took the shot back;
    #: ``total_ns`` is then that decision's time.
    stopped: bool = False

    @property
    def total_cycles(self) -> int:
        return -(-self.total_ns // self.config.clock_period_ns)

    def tr_report(self,
                  step_durations_ns: dict[int, int] | None = None
                  ) -> TRReport:
        """TR per circuit step (Equation 2)."""
        return time_ratio(self.ces, self.config.clock_period_ns,
                          self.config.gate_time_ns, step_durations_ns)


def infer_qubit_count(program: Program) -> int:
    """Highest qubit index any instruction touches, plus one."""
    highest = 0
    for instr in program.instructions:
        for qubit in getattr(instr, "qubits", ()):
            highest = max(highest, qubit)
        for attr in ("qubit", "result_qubit", "target_qubit"):
            value = getattr(instr, attr, None)
            if isinstance(value, int):
                highest = max(highest, value)
    return highest + 1


@dataclass
class QuAPESystem:
    """Composition root wiring one complete control stack.

    ``qpu`` defaults to a :class:`PRNGQPU` (the paper's FPGA-benchmark
    methodology); pass ``qpu_backend`` ("statevector"/"stabilizer") to
    get a functional :class:`~repro.qpu.device.SimulatedQPU` instead.
    ``memory``/``table``/``channel_map`` accept pre-built, program-
    derived artifacts so a shot engine can decode the program once and
    share the results across many systems (they are immutable during a
    run); when omitted they are built here.
    """

    program: Program
    config: QCPConfig = field(default_factory=QCPConfig)
    n_processors: int = 1
    qpu: QPUBase | None = None
    dependency_mode: DependencyMode = DependencyMode.PRIORITY
    use_analog_boards: bool = False
    n_qubits: int | None = None
    qpu_backend: str | None = None
    memory: InstructionMemory | None = None
    table: BlockInfoTable | None = None
    channel_map: ChannelMap | None = None
    #: Trace-cache chronological recording stream: when set, every
    #: processor appends its classical-effect and decision entries to
    #: it (see :mod:`repro.qcp.tracecache`).
    recorder: list | None = None
    #: Called with this system at every quiet MRCE decision a recorded
    #: run reaches (see :meth:`ProcessorCore._record_mrce`); it may
    #: :meth:`snapshot` the control stack, and returns true to end the
    #: run there.
    on_quiet: Callable[["QuAPESystem"], bool] | None = None

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ValueError("need at least one processor")
        self.kernel = SimKernel()
        self.trace = Trace()
        qubits = self.n_qubits or infer_qubit_count(self.program)
        if self.qpu is None:
            if self.qpu_backend is not None:
                from repro.qpu.device import SimulatedQPU

                profile = None
                if self.config.device_profile is not None:
                    from repro.qpu.profile import load_device_profile
                    profile = load_device_profile(
                        self.config.device_profile)
                backend = self.qpu_backend
                if backend == "auto":
                    from repro.qcp.routing import route_backend
                    backend = route_backend(self.program, qubits,
                                            profile=profile).backend
                self.qpu = SimulatedQPU(qubits, backend=backend,
                                        profile=profile)
            else:
                self.qpu = PRNGQPU(qubits)
        self.results = MeasurementResultRegisters(self.qpu.n_qubits)
        self.shared = SharedRegisters()
        if self.memory is None:
            self.memory = InstructionMemory(self.program)
        if self.table is None:
            self.table = BlockInfoTable(self.program,
                                        mode=self.dependency_mode)
        if self.channel_map is None:
            self.channel_map = ChannelMap.default(self.qpu.n_qubits)
        awg = daq = None
        if self.use_analog_boards:
            awg = AWG(kernel=self.kernel, qpu=self.qpu)
            daq = DAQ(kernel=self.kernel, qpu=self.qpu,
                      deliver=self.results.deliver)
        self.emitter = Emitter(
            kernel=self.kernel, qpu=self.qpu, results=self.results,
            trace=self.trace,
            channel_map=self.channel_map,
            awg=awg, daq=daq,
            result_latency_ns=self.config.result_latency_ns)
        self.processors = [self._make_processor(i)
                           for i in range(self.n_processors)]
        self.scheduler = BlockScheduler(
            kernel=self.kernel, table=self.table,
            processors=self.processors, config=self.config,
            trace=self.trace)
        self._restored = False

    def _make_processor(self, proc_id: int) -> ProcessorCore:
        cache = PrivateInstructionCache(self.memory)
        cls = SuperscalarProcessor if self.config.is_superscalar \
            else ScalarProcessor
        core = cls(proc_id=proc_id, kernel=self.kernel,
                   config=self.config, cache=cache, shared=self.shared,
                   results=self.results, emitter=self.emitter,
                   trace=self.trace, on_done=self._processor_done)
        core.recording = self.recorder
        if self.on_quiet is not None:
            core.on_quiet = self._quiet
        return core

    def _quiet(self) -> None:
        if self.on_quiet(self):
            raise _Stop

    def _processor_done(self, processor: ProcessorCore) -> None:
        self.scheduler.processor_finished(processor)

    def snapshot(self) -> tuple:
        """The control stack at a quiet MRCE stall, as plain data.

        Call from :attr:`on_quiet` on a one-processor system.  Nothing
        is pending there (the kernel queue is empty, so no measurement
        is in flight), so the state is the core's
        (:meth:`ProcessorCore.snapshot`), the scheduler's and the
        result registers' valid flags, all clock-free.  Result values
        are not kept: a restart takes them from the restarting shot.
        """
        core, = self.processors
        return (core.snapshot(), self.scheduler.snapshot(),
                self.results.valid_mask())

    def restore(self, snapshot: tuple, now: int,
                values: dict[int, int]) -> None:
        """Start this fresh system from a :meth:`snapshot` at ``now``.

        Each valid result register takes its qubit's value from
        ``values`` (the restarting shot's delivered bits), and the
        stalled MRCE resolves at ``now`` with its register's value.
        :meth:`run` then continues from there instead of starting the
        scheduler.
        """
        core_state, scheduler_state, valid = snapshot
        self.results.restore(valid, values)
        self.scheduler.restore(scheduler_state)
        core, = self.processors
        core.restore(core_state, now)
        self._restored = True

    def run(self, max_events: int | None = 5_000_000) -> ExecutionResult:
        """Execute the whole program; returns the merged result.

        ``total_ns`` is the program completion time: the instant the last
        program block finishes execution.  The kernel keeps draining
        afterwards (trailing operation issues and result deliveries) so
        the trace is complete, but that tail is not program execution
        time.

        A system :meth:`restore` set up continues from its snapshot;
        issues before that quiet decision cannot set ``total_ns``, as
        the program completes after it.  A run the :attr:`on_quiet`
        hook ends returns ``stopped``.
        """
        completion = {"ns": 0}

        def mark_done() -> None:
            completion["ns"] = self.kernel.now

        self.scheduler.on_all_done = mark_done
        if not self._restored:
            self.scheduler.start()
        try:
            self.kernel.run(max_events=max_events)
        except _Stop:
            # Nothing is pending at a quiet decision: the run is over.
            return ExecutionResult(
                total_ns=self.kernel.now, trace=self.trace,
                ces=CESAccumulator(), config=self.config,
                events_processed=self.kernel.events_processed,
                stopped=True)
        if not self.scheduler.all_done:
            raise RuntimeError(
                "simulation drained with unfinished blocks: "
                + ", ".join(e.block.name for e in self.scheduler.entries
                            if e.state.value != "done"))
        ces = CESAccumulator()
        for processor in self.processors:
            ces.merge(processor.ces)
        # The program is complete when every block has finished *and*
        # the timing controllers have issued their last operation; the
        # trailing result-delivery latency of unread measurements is not
        # execution time.
        last_issue = max((record.time_ns for record in self.trace.issues),
                         default=0)
        return ExecutionResult(total_ns=max(completion["ns"], last_issue),
                               trace=self.trace, ces=ces,
                               config=self.config,
                               events_processed=self.kernel.events_processed)


def run_program(program: Program, config: QCPConfig | None = None,
                n_processors: int = 1, qpu: QPUBase | None = None,
                dependency_mode: DependencyMode = DependencyMode.PRIORITY,
                use_analog_boards: bool = False,
                n_qubits: int | None = None) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`QuAPESystem`."""
    system = QuAPESystem(program=program, config=config or QCPConfig(),
                         n_processors=n_processors, qpu=qpu,
                         dependency_mode=dependency_mode,
                         use_analog_boards=use_analog_boards,
                         n_qubits=n_qubits)
    return system.run()
