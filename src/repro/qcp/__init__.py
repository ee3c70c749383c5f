"""QuAPE control microarchitecture — the paper's core contribution."""

from repro.qcp.config import QCPConfig, scalar_config, superscalar_config
from repro.qcp.context_switch import ContextSwitchUnit, PendingContext
from repro.qcp.emitter import Emitter, QuantumOp
from repro.qcp.memory import (CacheError, InstructionMemory,
                              PrivateInstructionCache)
from repro.qcp.metrics import (CESAccumulator, CESRecord, TRReport,
                               average_ces, time_ratio)
from repro.qcp.processor import ProcessorCore, ProcState, ScalarProcessor
from repro.qcp.registers import (MeasurementResultRegisters, RegisterFile,
                                 ResultDelivery, SharedRegisters)
from repro.qcp.scheduler import BlockScheduler, BlockState
from repro.qcp.superscalar import SuperscalarProcessor
from repro.qcp.shots import (ShardOutcomes, ShotEngine, ShotResult,
                             merge_shard_outcomes, outcome_key,
                             program_has_measurement, run_shots)
from repro.qcp.tracecache import (RecordingQPU, TraceCache,
                                  TraceDivergenceError, TraceNode)
from repro.qcp.system import (ExecutionResult, QuAPESystem,
                              infer_qubit_count, run_program)
from repro.qcp.timing import TimingController
from repro.qcp.trace import (BlockEvent, BlockEventKind, IssueRecord,
                             Trace)

__all__ = [
    "BlockEvent", "BlockEventKind", "BlockScheduler", "BlockState",
    "CacheError", "CESAccumulator", "CESRecord", "ContextSwitchUnit",
    "Emitter", "ExecutionResult", "InstructionMemory", "IssueRecord",
    "MeasurementResultRegisters", "PendingContext",
    "PrivateInstructionCache", "ProcState", "ProcessorCore", "QCPConfig",
    "QuantumOp", "QuAPESystem", "RecordingQPU", "RegisterFile",
    "ResultDelivery", "ScalarProcessor", "ShardOutcomes",
    "SharedRegisters", "ShotEngine", "ShotResult",
    "SuperscalarProcessor", "TraceCache", "TraceDivergenceError",
    "TraceNode", "infer_qubit_count", "merge_shard_outcomes",
    "outcome_key", "program_has_measurement", "run_shots",
    "TimingController", "TRReport", "Trace", "average_ces", "run_program",
    "scalar_config", "superscalar_config", "time_ratio",
]
