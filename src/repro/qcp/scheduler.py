"""Dynamic program-block scheduler (Section 5.2.2).

The scheduler continuously polls the block information table, performs
dependency checks (priority-counter mode or direct bit-vector mode),
allocates eligible blocks to idle processors, and prefetches upcoming
blocks into the processors' inactive cache banks so a block switch costs
only a few cycles.

Faithful cost model:

* the scheduler serves **one request at a time** — "during allocation,
  the scheduler is busy and does not answer to other requests";
* a full allocation costs ``alloc_fixed_cycles`` response time plus
  the cache-fill time (``alloc_bus_width`` instructions per cycle);
  a prefetch costs the copy time; switching a prefetched bank costs
  ``cache_switch_cycles``;
* before the task starts the scheduler may prefetch only as many blocks
  as there are processors (the Figure 11 test protocol).

``ideal_scheduler=True`` zeroes every cost — the theoretical-speedup
curve of Figure 11b.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isa.program import (BlockInfo, BlockInfoTable, DependencyMode)
from repro.qcp.config import QCPConfig
from repro.qcp.processor import ProcessorCore
from repro.qcp.trace import BlockEvent, BlockEventKind, Trace
from repro.sim.kernel import SimKernel


class BlockState(enum.Enum):
    WAIT = "wait"
    PREFETCH = "prefetch"        # being (or already) copied to a bank
    READY = "ready"              # prefetched, dependency not yet satisfied
    IN_EXECUTION = "in_execution"
    DONE = "done"


@dataclass
class _Entry:
    block: BlockInfo
    state: BlockState = BlockState.WAIT
    processor: int | None = None  # where prefetched / executing


class BlockScheduler:
    """Allocates program blocks to processors at run time."""

    def __init__(self, kernel: SimKernel, table: BlockInfoTable,
                 processors: list[ProcessorCore], config: QCPConfig,
                 trace: Trace) -> None:
        self.kernel = kernel
        self.table = table
        self.processors = processors
        self.config = config
        self.trace = trace
        self.entries = [_Entry(block=block) for block in table.entries]
        self.priority_counter = 0
        self.busy = False
        self._poll_scheduled = False
        self._finished = False
        self.on_all_done = None  # type: ignore[assignment]

    # -- public ------------------------------------------------------------

    def start(self) -> None:
        """Initial prefetches (bounded by processor count), then run."""
        initial = 0
        entries = self.entries if self.config.enable_prefetch else []
        for entry in entries:
            if initial >= len(self.processors):
                break
            if self._dependency_met(entry):
                processor = self.processors[initial]
                self._prefetch_now(entry, processor)
                initial += 1
        self._request_poll()

    @property
    def all_done(self) -> bool:
        return all(entry.state is BlockState.DONE
                   for entry in self.entries)

    def processor_finished(self, processor: ProcessorCore) -> None:
        """Callback wired to every processor's block completion."""
        for entry in self.entries:
            if (entry.state is BlockState.IN_EXECUTION
                    and entry.processor == processor.proc_id):
                entry.state = BlockState.DONE
                entry.processor = None
                self.trace.record_block_event(BlockEvent(
                    self.kernel.now, BlockEventKind.EXEC_DONE,
                    entry.block.name, processor.proc_id))
                break
        self._advance_priority_counter()
        if self.all_done and not self._finished:
            self._finished = True
            if self.on_all_done is not None:
                self.on_all_done()
            return
        self._request_poll()

    # -- control-stack restart ------------------------------------------------

    def snapshot(self) -> tuple:
        """Plain-data scheduler state (no pending events of its own:
        taken only at a quiet decision, see
        :meth:`~repro.qcp.system.QuAPESystem.snapshot`)."""
        return (tuple([(entry.state, entry.processor)
                       for entry in self.entries]),
                self.priority_counter, self.busy, self._poll_scheduled,
                self._finished)

    def restore(self, snapshot: tuple) -> None:
        """Reload a :meth:`snapshot` into this (fresh) scheduler."""
        (entries, self.priority_counter, self.busy, self._poll_scheduled,
         self._finished) = snapshot
        for entry, (state, processor) in zip(self.entries, entries):
            entry.state = state
            entry.processor = processor

    # -- dependency checking ---------------------------------------------------

    def _advance_priority_counter(self) -> None:
        if self.table.mode is not DependencyMode.PRIORITY:
            return
        while True:
            current = [entry for entry in self.entries
                       if entry.block.priority == self.priority_counter]
            if current and all(entry.state is BlockState.DONE
                               for entry in current):
                self.priority_counter += 1
                continue
            if not current and self.priority_counter < max(
                    (e.block.priority for e in self.entries), default=0):
                self.priority_counter += 1
                continue
            return

    def _dependency_met(self, entry: _Entry) -> bool:
        if self.table.mode is DependencyMode.PRIORITY:
            return entry.block.priority <= self.priority_counter
        done = {e.block.name for e in self.entries
                if e.state is BlockState.DONE}
        return all(dep in done for dep in entry.block.deps)

    def _dependency_running_or_met(self, entry: _Entry) -> bool:
        """Prefetch eligibility: deps done *or* currently executing."""
        if self.table.mode is DependencyMode.PRIORITY:
            if entry.block.priority <= self.priority_counter:
                return True
            if entry.block.priority != self.priority_counter + 1:
                return False
            current = [e for e in self.entries
                       if e.block.priority == self.priority_counter]
            return all(e.state in (BlockState.IN_EXECUTION,
                                   BlockState.DONE) for e in current)
        active = {e.block.name for e in self.entries
                  if e.state in (BlockState.IN_EXECUTION,
                                 BlockState.DONE)}
        return all(dep in active for dep in entry.block.deps)

    # -- the scheduling loop ----------------------------------------------------

    def _request_poll(self) -> None:
        if self._poll_scheduled or self.busy or self._finished:
            return
        self._poll_scheduled = True
        delay = 0 if self.config.ideal_scheduler else \
            self.config.scheduler_poll_cycles * self.config.clock_period_ns
        self.kernel.schedule(delay, self._poll)

    def _poll(self) -> None:
        self._poll_scheduled = False
        if self.busy or self._finished:
            return
        action = self._pick_action()
        if action is not None:
            action()
            return
        # Nothing actionable now; events (processor completions) will
        # re-trigger polling.

    def _pick_action(self):
        # 1. Switch: an idle processor whose prefetched block is eligible.
        for processor in self.processors:
            if not processor.idle:
                continue
            block = processor.cache.prefetched_block
            if block is None:
                continue
            entry = self._entry_of(block.name)
            if entry.state in (BlockState.PREFETCH, BlockState.READY) \
                    and self._dependency_met(entry):
                return lambda e=entry, p=processor: self._do_switch(e, p)
        # 2. Full allocation: eligible block, idle processor, no prefetch.
        idle = [p for p in self.processors
                if p.idle and p.cache.prefetched_block is None]
        if idle:
            for entry in self.entries:
                if entry.state is BlockState.WAIT \
                        and self._dependency_met(entry):
                    return lambda e=entry, p=idle[0]: self._do_alloc(e, p)
        # 3. Prefetch: upcoming block into a free inactive bank.
        if not self.config.enable_prefetch:
            return None
        for entry in self.entries:
            if entry.state is not BlockState.WAIT:
                continue
            if not self._dependency_running_or_met(entry):
                continue
            target = self._prefetch_target()
            if target is None:
                return None
            return lambda e=entry, p=target: self._do_prefetch(e, p)
        return None

    def _entry_of(self, name: str) -> _Entry:
        for entry in self.entries:
            if entry.block.name == name:
                return entry
        raise KeyError(name)

    def _prefetch_target(self) -> ProcessorCore | None:
        """A processor with a free inactive bank, busiest first.

        Prefetching behind a *busy* processor is the paper's pattern:
        the block will be switched to as soon as the current one ends.
        """
        busy = [p for p in self.processors
                if not p.idle and p.cache.inactive_bank_free]
        if busy:
            return busy[0]
        idle = [p for p in self.processors
                if p.idle and p.cache.inactive_bank_free
                and p.cache.prefetched_block is None]
        return idle[0] if idle else None

    # -- actions (each occupies the scheduler) ------------------------------------

    def _fill_cycles(self, size: int) -> int:
        """Cycles to copy ``size`` instructions into a private cache."""
        return -(-size // self.config.alloc_bus_width)

    def _occupy(self, cycles: int, done) -> None:
        self.busy = True
        delay = 0 if self.config.ideal_scheduler else \
            cycles * self.config.clock_period_ns
        self.kernel.schedule(delay, self._release, done)

    def _release(self, done) -> None:
        self.busy = False
        done()
        self._request_poll()

    def _do_switch(self, entry: _Entry, processor: ProcessorCore) -> None:
        self.trace.record_block_event(BlockEvent(
            self.kernel.now, BlockEventKind.SWITCH, entry.block.name,
            processor.proc_id))
        entry.state = BlockState.IN_EXECUTION
        entry.processor = processor.proc_id

        def finish() -> None:
            block = processor.cache.switch()
            self.trace.record_block_event(BlockEvent(
                self.kernel.now, BlockEventKind.EXEC_START, block.name,
                processor.proc_id))
            processor.start_block(block)

        self._occupy(self.config.cache_switch_cycles, finish)

    def _do_alloc(self, entry: _Entry, processor: ProcessorCore) -> None:
        self.trace.record_block_event(BlockEvent(
            self.kernel.now, BlockEventKind.ALLOC_START, entry.block.name,
            processor.proc_id))
        entry.state = BlockState.IN_EXECUTION
        entry.processor = processor.proc_id
        cycles = (self.config.alloc_fixed_cycles
                  + self._fill_cycles(entry.block.size))

        def finish() -> None:
            processor.cache.fill_active(entry.block)
            self.trace.record_block_event(BlockEvent(
                self.kernel.now, BlockEventKind.ALLOC_DONE,
                entry.block.name, processor.proc_id))
            self.trace.record_block_event(BlockEvent(
                self.kernel.now, BlockEventKind.EXEC_START,
                entry.block.name, processor.proc_id))
            processor.start_block(entry.block)

        self._occupy(cycles, finish)

    def _do_prefetch(self, entry: _Entry,
                     processor: ProcessorCore) -> None:
        self.trace.record_block_event(BlockEvent(
            self.kernel.now, BlockEventKind.PREFETCH_START,
            entry.block.name, processor.proc_id))
        entry.state = BlockState.PREFETCH
        entry.processor = processor.proc_id
        cycles = self._fill_cycles(entry.block.size)

        def finish() -> None:
            processor.cache.prefetch(entry.block)
            entry.state = BlockState.READY
            self.trace.record_block_event(BlockEvent(
                self.kernel.now, BlockEventKind.PREFETCH_DONE,
                entry.block.name, processor.proc_id))

        self._occupy(cycles, finish)

    def _prefetch_now(self, entry: _Entry,
                      processor: ProcessorCore) -> None:
        """Pre-start prefetch: free, done before the task begins."""
        processor.cache.prefetch(entry.block)
        entry.state = BlockState.READY
        entry.processor = processor.proc_id
        self.trace.record_block_event(BlockEvent(
            self.kernel.now, BlockEventKind.PREFETCH_DONE,
            entry.block.name, processor.proc_id))
