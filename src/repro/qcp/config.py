"""Configuration of the QuAPE control processor model.

Defaults follow the paper's FPGA prototype: 100 MHz core clock
(Section 6.1), 3-cycle fast context switch (Section 7), ~450 ns total
feedback-control latency (Section 7; 300 ns readout pulse + 100 ns
acquisition + conditional-logic cycles), 20 ns gate time and 10 ns clock
time for the TR metric (Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class QCPConfig:
    """All tunable microarchitecture parameters.

    Besides the paper's parameters it carries the QPU substrate and two
    trace-cache switches, ``trace_cache`` and the memory bound
    ``trace_cache_max_nodes``.  How the shot engine replays (cohort
    width, GEMM fusion) follows from the substrate and never changes a
    result, so it is not configured here.
    """

    # -- clock -----------------------------------------------------------
    clock_period_ns: int = 10

    # -- processor core ----------------------------------------------------
    #: Instructions fetched per cycle (1 = scalar baseline).
    fetch_width: int = 1
    #: Quantum pipelines, i.e. max quantum ops dispatched per cycle.
    n_quantum_pipelines: int = 1
    #: Pre-decoder buffer capacity in instructions (superscalar only).
    buffer_capacity: int = 16
    #: Pipeline-flush penalty of a taken branch, in cycles.
    branch_penalty_cycles: int = 2
    #: Stage-III conditional-logic cycles of a feedback decision.
    mrce_logic_cycles: int = 2
    #: Whether MRCE uses the fast context switch (Section 5.4).
    fast_context_switch: bool = False
    #: Cycles to save/restore an MRCE context (measured as 3, Section 7).
    context_switch_cycles: int = 3
    #: Maximum simultaneously pending MRCE contexts.
    context_slots: int = 4

    # -- block scheduler ---------------------------------------------------
    #: Fixed scheduling-response cycles per allocation request.
    alloc_fixed_cycles: int = 6
    #: Instructions copied from main memory to a private cache per cycle
    #: (the block-RAM read port width of the prototype).
    alloc_bus_width: int = 2
    #: Cycles to switch a private cache to its prefetched bank.
    cache_switch_cycles: int = 2
    #: Scheduler polling granularity in cycles.
    scheduler_poll_cycles: int = 2
    #: Zero-cost scheduling/allocation (the Figure 11b "ideal" curve).
    ideal_scheduler: bool = False
    #: Prefetch upcoming blocks into the second cache bank (Section
    #: 5.2.3); disable to measure the prefetch mechanism's benefit.
    enable_prefetch: bool = True

    # -- QPU substrate ------------------------------------------------------
    #: Simulation backend used whenever the system builds its own
    #: simulated QPU ("statevector" = dense, exact, <= 24 qubits;
    #: "stabilizer" = Clifford tableau, polynomial, 100+ qubits;
    #: "auto" = route per program: stabilizer for Clifford-only
    #: programs under Pauli-compatible noise, statevector otherwise —
    #: see :func:`repro.qcp.routing.route_backend`).
    qpu_backend: str = "statevector"
    #: Path to a calibrated device-profile JSON (``None`` = uniform
    #: gate-library timing and whatever noise model the caller
    #: supplies).  When set, the shot engine loads it fail-closed
    #: (unknown fields raise, naming the key), composes its per-qubit
    #: T1/T2, per-qubit readout fidelities and per-pair ZZ couplings
    #: over the base noise model, and uses its per-gate-per-qubit
    #: durations for every busy/violation/drive-window computation.
    #: The profile *content* (not the path) is part of the service's
    #: engine identity.
    device_profile: str | None = None

    # -- shot execution -----------------------------------------------------
    #: Cache executed shot traces in a decision-keyed trie and replay
    #: repeated decision paths straight into the QPU backend, skipping
    #: the cycle-accurate event simulation (see
    #: :mod:`repro.qcp.tracecache`).  Results are bit-identical either
    #: way — including on noisy substrates, whose channel draws are
    #: replayed positionally from a per-shot reseeded noise rng;
    #: disable to force every shot through the full control-stack
    #: model (e.g. when profiling the microarchitecture itself).  The
    #: shot engine ignores the flag automatically for substrates it
    #: cannot cache: those without a compiled replay mode (see
    #: :func:`repro.qcp.tracecache.replay_mode`) and custom
    #: ``qpu_factory`` devices, which are opaque to the recorder.
    #: Warm seed ranges replay in cohorts of
    #: :func:`repro.qcp.tracecache.auto_batch_width`, and dense
    #: segments always replay GEMM-fused (see
    #: :func:`repro.qpu.statevector.fusion_width`).
    trace_cache: bool = True
    #: LRU bound on trace-cache trie nodes (``None`` = unbounded).
    #: High-path-entropy workloads — RUS loops driven by fair coins —
    #: record a new path per novel decision sequence; the bound evicts
    #: the least-recently-used subtrees after each recording so memory
    #: stays O(bound).  Best-effort: the path recorded by the current
    #: shot is never evicted, so a single path longer than the bound
    #: keeps its nodes until a later eviction pass.
    trace_cache_max_nodes: int | None = None

    # -- standalone readout path (no analog boards attached) ---------------
    #: Stage I+II latency when no DAQ model is attached; 400 ns plus the
    #: conditional-logic cycles reproduces the ~450 ns feedback latency.
    result_latency_ns: int = 400

    # -- metrics --------------------------------------------------------------
    #: Gate time used as the TR denominator (Equation 2).
    gate_time_ns: int = 20

    def __post_init__(self) -> None:
        if self.clock_period_ns <= 0:
            raise ValueError("clock period must be positive")
        if self.fetch_width < 1:
            raise ValueError("fetch width must be at least 1")
        if self.n_quantum_pipelines < 1:
            raise ValueError("need at least one quantum pipeline")
        if self.buffer_capacity < self.fetch_width:
            raise ValueError("buffer must hold at least one fetch group")
        if self.trace_cache_max_nodes is not None \
                and self.trace_cache_max_nodes < 1:
            raise ValueError("trace-cache node bound must be positive")

    @property
    def is_superscalar(self) -> bool:
        return self.fetch_width > 1

    def with_(self, **changes) -> "QCPConfig":
        """Copy with selected fields replaced."""
        return replace(self, **changes)


def scalar_config(**changes) -> QCPConfig:
    """The paper's baseline: single-issue, no fast context switch."""
    return QCPConfig().with_(**changes)


def superscalar_config(width: int = 8, **changes) -> QCPConfig:
    """The paper's 8-way quantum superscalar with fast context switch."""
    base = QCPConfig(fetch_width=width, n_quantum_pipelines=width,
                     buffer_capacity=2 * width, fast_context_switch=True)
    return base.with_(**changes)
