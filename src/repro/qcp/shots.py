"""Shot-based execution: repeated runs with outcome histograms.

Experiments sample a circuit many times.  :class:`ShotEngine` is the
compile-once executor behind that: constructing it decodes the program
into the immutable control-stack artifacts — the instruction memory,
the block-information table and the analog channel map — exactly once,
and builds one reusable QPU.  Each shot then only resets the quantum
state (``qpu.restart()``) and wires fresh lightweight executors
(kernel, scheduler, processors, emitter) around the shared artifacts,
instead of rebuilding the entire world per shot.  :func:`run_shots` is
the one-call convenience wrapper a lab script would use.

On top of that, the engine keeps a decision-keyed **trace cache**
(:mod:`repro.qcp.tracecache`, ``QCPConfig.trace_cache``): the first
shot down any control-flow decision path runs the cycle-accurate
control-stack simulation and records the device-op stream; every
later shot sharing that decision path replays the recorded stream
straight into the QPU backend, skipping the event kernel entirely
while producing bit-identical outcomes, histograms and timings.
Replay itself is compiled per substrate
(:func:`~repro.qcp.tracecache.replay_mode`): sign-trace programs on
the stabilizer backend, whose serial loop decides through one
decide/hit/resume epilogue, and flat GEMM-fused noise-site programs
on the dense backend, which the cohort walker runs, a serial shot
being a cohort of one.  A sweep replays its warm shots in cohorts
(:meth:`ShotEngine.run_range`); how wide, and how wide a fused
block, follows from the substrate, not from the config.
This includes **noisy substrates** (pass ``noise=``): the per-shot
reseeded noise rng is replayed positionally, and a replay that
diverges from the trie hands back the shot's own replay context and
resumes the cycle-accurate simulation from the divergence frontier
(the run's one :class:`~repro.qcp.tracecache.RecordingQPU` skips the
replayed prefix) instead of re-simulating the whole shot — or, at a
quiet MRCE on a folding engine, restarts the control stack there from
a snapshot and hands the shot back to replay at the next quiet MRCE
the trie covers.
Substrates with no compiled replay mode (non-Pauli noise on the
stabilizer backend, channels the compilers do not model) and custom
``qpu_factory`` devices, which the cache cannot see inside, fall back
to always-cycle-accurate execution.

Backend selection
=================

The quantum substrate is chosen by name (see :mod:`repro.qpu.backend`):
``backend="statevector"`` (dense, exact, <= 24 qubits — the default)
or ``backend="stabilizer"`` (Aaronson–Gottesman tableau, polynomial,
100+ qubits, Clifford gates only).  The default comes from
``QCPConfig.qpu_backend``, so one config object can steer a whole
experiment; a custom ``qpu_factory`` overrides everything.  Running a
non-Clifford program on the stabilizer backend raises
:class:`~repro.qpu.backend.NonCliffordGateError`.

Histogram semantics
===================

Conditional branches can make different shots measure different qubit
sets (e.g. "measure q1 only if q0 read 1").  Bitstrings are therefore
keyed against the **union** of the qubits measured across all shots,
in sorted order, with ``-`` marking a qubit the shot never measured —
so mixed-shape shots can never silently misalign the histogram.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.isa.program import BlockInfoTable, DependencyMode, Program
from repro.analog.channels import ChannelMap
from repro.qcp.config import QCPConfig
from repro.qcp.memory import InstructionMemory
from repro.qcp.system import QuAPESystem, infer_qubit_count
from repro.qcp.routing import RoutingDecision, route_backend
from repro.qcp.tracecache import (Handoff, OutcomeKey, RecordingQPU,
                                  TraceCache, TraceRecorder,
                                  auto_batch_width, outcome_key,
                                  replay_mode)
from repro.qpu.device import QPUBase, SimulatedQPU
from repro.qpu.noise import NoiseModel
from repro.qpu.profile import DeviceProfile, load_device_profile

#: Placeholder in a bitstring for a union qubit this shot never measured.
UNMEASURED = "-"


@dataclass
class ShardOutcomes:
    """Partial histogram of one contiguous seed range of a sweep.

    The histogram is keyed by :data:`~repro.qcp.tracecache.OutcomeKey`
    — ``(measured, bits)``, the sorted qubits a shot measured and one
    int of their last values — rather than rendered bitstrings,
    because bitstring rendering depends on the cross-shot measurement
    union — a global property a shard cannot know.  Keys make the
    merge commutative and associative: summing the counters of any
    disjoint cover of ``range(0, shots)`` and rendering once at the
    end (:func:`merge_shard_outcomes`) reproduces, count for count and
    nanosecond for nanosecond, what a serial :meth:`ShotEngine.run`
    over the same seeds produces.
    """

    start: int
    stop: int
    counts: Counter[OutcomeKey] = field(default_factory=Counter)
    total_ns: int = 0

    @property
    def shots(self) -> int:
        return self.stop - self.start


def merge_shard_outcomes(shards) -> ShotResult:
    """Merge :class:`ShardOutcomes` into one :class:`ShotResult`.

    Purely commutative: counter sum plus integer ``total_ns`` sum,
    then one rendering pass against the union of measured qubits.
    A key's bits format once, as one string in measured-qubit order;
    a key measuring the whole union is that string, and any other
    shape places its characters at its qubits' union positions.  Because
    each shot's key and duration are pure functions of its seed (the
    salted per-shot derivation), the merged result is bit-identical to
    serially executing the union of the shard ranges — the property
    the shot-sweep service asserts for its sharded sweeps.
    """
    shards = list(shards)
    if not shards:
        raise ValueError("no shards to merge")
    merged: Counter = Counter()
    total_ns = 0
    shots = 0
    for shard in shards:
        merged.update(shard.counts)
        total_ns += shard.total_ns
        shots += shard.shots
    shapes = {measured for measured, _ in merged}
    union = tuple(sorted(set().union(*shapes)))
    result = ShotResult(shots=shots, measured_qubits=union,
                        total_ns=total_ns)
    position = {qubit: index for index, qubit in enumerate(union)}
    places = {measured: [position[qubit] for qubit in measured]
              for measured in shapes}
    unmeasured = [UNMEASURED] * len(union)
    for (measured, bits), count in merged.items():
        # Character i is bit i, the value of measured[i].
        text = (format(bits, f"0{len(measured)}b")[::-1] if measured
                else "")
        if measured != union:
            rendered = unmeasured.copy()
            for place, bit in zip(places[measured], text):
                rendered[place] = bit
            text = "".join(rendered)
        result.counts[text] += count
    return result


def program_has_measurement(program: Program) -> bool:
    """True when any instruction can deliver a measurement result.

    A program without a single ``qmeas`` yields the empty outcome on
    every shot (``measured_qubits == ()``); callers that need a
    histogram of *bitstrings* — the shot-sweep service, most analyses
    — should reject such programs up front instead of discovering an
    all-``""`` histogram afterwards.
    """
    from repro.isa.opcodes import Opcode

    def measures(instr) -> bool:
        if getattr(instr, "opcode", None) == Opcode.QMEAS:
            return True
        # VLIW bundles carry qmeas operations in their slots.
        return any(measures(op) for op in getattr(instr, "slots", ()))

    return any(measures(instr) for instr in program.instructions)


@dataclass
class ShotResult:
    """Histogram of per-shot measurement outcomes.

    ``measured_qubits`` is the sorted union of every qubit measured by
    at least one shot; a bitstring position holds ``"0"``/``"1"`` for
    the *last* delivered result of that qubit, or ``"-"`` if the shot
    (e.g. down an untaken conditional branch) never measured it.
    """

    shots: int
    measured_qubits: tuple[int, ...]
    counts: Counter = field(default_factory=Counter)
    total_ns: int = 0

    def probability(self, bitstring: str) -> float:
        """Relative frequency of ``bitstring`` (qubit order as in
        ``measured_qubits``, leftmost = first measured qubit)."""
        if self.shots == 0:
            return 0.0
        return self.counts[bitstring] / self.shots

    def expectation(self, qubit: int) -> float:
        """Mean value of one measured qubit (0..1), over the shots
        that actually measured it."""
        if qubit not in self.measured_qubits:
            raise ValueError(
                f"qubit {qubit} was never measured by any shot; "
                f"measured_qubits={self.measured_qubits}")
        position = self.measured_qubits.index(qubit)
        ones = observed = 0
        for bits, count in self.counts.items():
            if bits[position] == UNMEASURED:
                continue
            observed += count
            if bits[position] == "1":
                ones += count
        return ones / observed if observed else 0.0

    def most_frequent(self) -> str:
        """The modal outcome bitstring.

        A program that never measures produces the empty-string
        outcome for every shot (``measured_qubits == ()``); asking for
        a modal *bitstring* then is a category error, so it raises
        instead of silently returning ``""``.  The histogram itself is
        still available (``counts[""] == shots``).
        """
        if not self.counts:
            raise ValueError("no shots recorded")
        if not self.measured_qubits:
            raise ValueError(
                "program never measured any qubit: every shot "
                "produced the empty outcome (counts[''] holds the "
                "shot count)")
        return self.counts.most_common(1)[0][0]


def _last_values(system: QuAPESystem,
                 last_value: dict[int, int]) -> dict[int, int]:
    """``last_value`` updated by every result ``system`` delivered."""
    for delivery in system.results.history:
        last_value[delivery.qubit] = delivery.value
    return last_value


def _check_seed(seed: int) -> None:
    """Refuse a negative shot seed: ``random.Random(-k)`` seeds like
    ``random.Random(k)``, so shot ``-k`` would repeat shot ``k``."""
    if seed < 0:
        raise ValueError(f"negative shot seed {seed}: random.Random(-k) "
                         f"seeds like random.Random(k)")


class ShotEngine:
    """Compile-once, run-many executor for one program.

    Construction performs every program-derived, shot-invariant step:
    qubit-count inference, instruction-memory and block-info-table
    decode, channel-map construction and (unless a ``qpu_factory`` is
    supplied) QPU construction.  :meth:`run` then executes shots that
    each cost only a state reset plus the event-driven execution
    itself.

    ``backend`` picks the simulation backend by registry name and
    defaults to ``config.qpu_backend``.  ``noise`` attaches a
    :class:`~repro.qpu.noise.NoiseModel` to the engine-owned QPU (its
    channel rng is reseeded per shot, so noisy shots stay seed-
    reproducible and trace-cacheable).  ``qpu_factory(seed)``, when
    given, takes full control of QPU construction (one call per shot,
    preserving the historical ``run_shots`` contract) and is mutually
    exclusive with ``noise``.
    """

    def __init__(self, program: Program,
                 config: QCPConfig | None = None,
                 n_processors: int = 1,
                 n_qubits: int | None = None,
                 backend: str | None = None,
                 noise: NoiseModel | None = None,
                 qpu_factory: Callable[[int], QPUBase] | None = None,
                 dependency_mode: DependencyMode = DependencyMode.PRIORITY,
                 seed: int = 0,
                 profile: DeviceProfile | None = None) -> None:
        self.program = program
        self.config = config or QCPConfig()
        self.backend = backend or self.config.qpu_backend
        self.n_processors = n_processors
        self.n_qubits = n_qubits
        self.qubit_count = n_qubits or infer_qubit_count(program)
        self.dependency_mode = dependency_mode
        self.qpu_factory = qpu_factory
        if qpu_factory is not None and noise is not None:
            raise ValueError(
                "noise= configures the engine-owned QPU; a custom "
                "qpu_factory builds its own devices (give them their "
                "own NoiseModel instead)")
        # -- calibrated device profile -----------------------------------
        # An explicit profile object (the service passes inline
        # profiles this way) wins over the config path.  A custom
        # qpu_factory owns its devices, so a profile cannot reach them.
        if profile is None and self.config.device_profile is not None:
            profile = load_device_profile(self.config.device_profile)
        if qpu_factory is not None and profile is not None:
            raise ValueError(
                "a device profile configures the engine-owned QPU; a "
                "custom qpu_factory builds its own devices")
        self.profile = profile
        # -- automatic backend routing (backend="auto") ------------------
        # Resolved once, before the QPU is built: the routed name is
        # what flows into the device and the engine identity — "auto"
        # itself never reaches make_backend.
        self.routing: RoutingDecision | None = None
        if self.backend == "auto":
            if qpu_factory is not None:
                raise ValueError(
                    'backend="auto" routes the engine-owned QPU; a '
                    "custom qpu_factory builds its own devices")
            self.routing = route_backend(program, self.qubit_count,
                                         noise=noise, profile=profile)
            self.backend = self.routing.backend
        # -- compile-once artifacts, shared by every shot ----------------
        self.memory = InstructionMemory(program)
        self.table = BlockInfoTable(program, mode=dependency_mode)
        self.channel_map = ChannelMap.default(self.qubit_count)
        self._qpu: QPUBase | None = None
        if qpu_factory is None:
            self._qpu = SimulatedQPU(self.qubit_count, seed=seed,
                                     backend=self.backend, noise=noise,
                                     profile=profile)
        # -- trace cache: replay decision-path-identical shots -----------
        # An engine-owned SimulatedQPU is cacheable when its substrate
        # has a compiled replay mode, decided once here (noise draws
        # replay positionally from the per-shot reseeded channel rng).
        # Any other substrate, and a custom factory's devices, which
        # are opaque to the recorder, run every shot cycle-accurately.
        self.trace_cache: TraceCache | None = None
        if self.config.trace_cache and self._qpu is not None:
            mode = replay_mode(self._qpu.backend_name, self._qpu.noise)
            if mode is not None:
                self.trace_cache = TraceCache(self.config, mode,
                                              n_processors)

    def _shot_qpu(self, seed: int) -> QPUBase:
        if self.qpu_factory is not None:
            return self.qpu_factory(seed)
        qpu = self._qpu
        qpu.operation_log.clear()
        qpu.timing_violations.clear()
        qpu.restart(seed=seed)
        return qpu

    def run_shot(self, seed: int = 0) -> tuple[dict[int, int], int]:
        """Execute one shot; returns (last result per qubit, run ns).

        ``seed`` makes the shot reproducible on either path: it is
        passed to ``qpu_factory`` when one was supplied, and reseeds
        the reused QPU's measurement RNG otherwise.

        With the trace cache enabled the shot first attempts a trie
        replay (batched backend ops, no event kernel).  A replay that
        diverges from the trie hands the shot to the cycle-accurate
        simulator at the divergence frontier, and replay and
        simulation then alternate until the shot ends:

        * a miss at a node holding a control-stack snapshot (a quiet
          MRCE on a folding engine) *restarts* the control stack there,
          at the shot's own decision time, against the live QPU;
        * any other miss re-runs the control stack from t = 0, and the
          run's :class:`~repro.qcp.tracecache.RecordingQPU` skips the
          prefix device operations the replay applied, serving their
          delivered bits from the shot's replay context;
        * a run records the new path as it goes, and on a folding
          engine stops at a quiet MRCE once the trie holds the shot's
          edge again (the run returns ``stopped``); the shot then
          continues in replay (:meth:`TraceCache.rejoin`).

        A cold cache falls back to a full cycle-accurate shot.  All
        paths return bit-identical results for the same seed.  A
        negative seed raises ``ValueError`` (see :meth:`run_range`).
        """
        _check_seed(seed)
        cache = self.trace_cache
        if cache is None:
            system = self._system(self._shot_qpu(seed))
            execution = system.run()
            system.kernel.run()  # drain trailing deliveries
            return _last_values(system, {}), execution.total_ns
        return self._serve(cache.replay(self._qpu, seed), seed)

    def run_handoff(self, handoff: Handoff) -> tuple[dict[int, int], int]:
        """Finish a shot a replay cohort handed back; returns what
        :meth:`run_shot` returns for its seed.

        The cache resumes the shot where its lane left the cohort
        (:meth:`TraceCache.replay_handoff`), and misses, records and
        rejoins follow as in :meth:`run_shot`.
        """
        return self._serve(
            self.trace_cache.replay_handoff(self._qpu, handoff),
            handoff.seed)

    def _serve(self, replayed, seed: int) -> tuple[dict[int, int], int]:
        """The miss/record/rejoin loop of a trace-cached shot, from
        what its replay returned (see :meth:`run_shot`): a result, the
        shot's replay context at a miss, or ``None`` on a cold trie.
        Each simulator run drives the QPU through one
        :class:`~repro.qcp.tracecache.RecordingQPU`."""
        cache = self.trace_cache
        while not isinstance(replayed, tuple):
            recorder = TraceRecorder.start(cache, replayed)
            restart = recorder.restart
            if replayed is None:
                qpu = RecordingQPU(self._shot_qpu(seed), recorder.stream)
            elif restart is not None:
                # The replay drove the QPU to the restart node.
                qpu = RecordingQPU(self._qpu, recorder.stream)
            else:
                # The replay already restarted/reseeded the QPU and
                # drove it to the frontier: the run from t = 0 skips
                # the prefix the replay applied.
                qpu = RecordingQPU(self._qpu, recorder.stream,
                                   replayed.skip_ops, replayed.outcomes)
            system = self._system(qpu, recorder.stream,
                                  recorder.quiet if cache.folding else None)
            if restart is not None:
                system.restore(*restart)
            execution = system.run()
            if execution.stopped:
                replayed = cache.rejoin(recorder, self._qpu)
                continue
            system.kernel.run()  # drain trailing deliveries
            last_value = _last_values(
                system, {} if restart is None else dict(restart[2]))
            cache.record(recorder, execution.total_ns)
            return last_value, execution.total_ns
        return replayed

    def _system(self, qpu: QPUBase, recorder: list | None = None,
                on_quiet: Callable[[QuAPESystem], bool] | None = None
                ) -> QuAPESystem:
        """A fresh control stack around the shared compiled artifacts."""
        return QuAPESystem(
            program=self.program, config=self.config,
            n_processors=self.n_processors, qpu=qpu,
            n_qubits=self.n_qubits,
            dependency_mode=self.dependency_mode,
            memory=self.memory, table=self.table,
            channel_map=self.channel_map, recorder=recorder,
            on_quiet=on_quiet)

    def run_range(self, start: int, stop: int) -> ShardOutcomes:
        """Execute seeds ``start..stop-1``; return the partial histogram.

        This is the shard entry point of the shot-sweep service
        (:mod:`repro.service`): a worker runs one contiguous seed
        range and hands back :data:`OutcomeKey` counts plus the summed
        duration, without rendering bitstrings — rendering needs the
        cross-shard measurement union, which only the merge
        (:func:`merge_shard_outcomes`) knows.  Shots are pure
        functions of their seed, so any disjoint cover of a seed range
        merges to exactly the serial result.  Seeds are non-negative:
        ``random.Random(-k)`` seeds exactly like ``random.Random(k)``,
        so a negative seed would repeat a positive shot.

        With a trace cache the seeds go to the cache in cohorts of
        :func:`~repro.qcp.tracecache.auto_batch_width`: the cache
        replays each cohort as one wavefront over the trie and hands
        back its leaf groups, one count per group, plus a hand-off for
        each lane that diverged off the cached paths or reached a node
        closed to cohorts.  :meth:`run_handoff` serves those in lane
        order: each resumes where its lane left, and the miss, record
        and rejoin loop of :meth:`run_shot` records its new path as
        usual.  Only a cold trie (no recorded path
        yet) runs the first seed alone, to record a path for the
        cohorts to replay; a range of one seed always runs alone, as a
        sign cohort of one costs more than the serial sign loop.
        After a cold start the cohorts grow from 2, doubling while any
        shot falls back: a trie that knows one path would send most of
        a full cohort back to the serial loop, while the fallbacks of a
        narrow cohort record the paths the next one replays.  A cohort
        with no fallback, and every cohort on a warm trie, is full
        width.  Every shot is bit-identical to its own
        ``run_shot(seed)``, so histograms and timings depend on neither
        the cohort width nor how a sweep is sharded into seed ranges.
        """
        _check_seed(start)
        if stop <= start:
            raise ValueError(
                f"empty shard range [{start}, {stop})")
        shard = ShardOutcomes(start=start, stop=stop)
        counts = shard.counts
        # One tuple object per measured-qubit set: a shard's keys then
        # pickle each set once.
        shapes: dict[tuple[int, ...], tuple[int, ...]] = {}

        def tally(result: tuple[dict[int, int], int]) -> None:
            last_value, shot_ns = result
            measured, bits = outcome_key(last_value)
            counts[shapes.setdefault(measured, measured), bits] += 1
            shard.total_ns += shot_ns

        seeds = range(start, stop)
        cache = self.trace_cache
        if cache is None or len(seeds) < 2:
            for seed in seeds:
                tally(self.run_shot(seed))
            return shard
        width = auto_batch_width(self._qpu)
        step, index = width, 0
        if cache.root is None or cache.root.items is None:
            tally(self.run_shot(seeds[0]))
            step, index = 2, 1
        while index < len(seeds):
            chunk = list(seeds[index:index + step])
            groups, left = cache.replay_batch(self._qpu, chunk)
            for lanes, (measured, bits), shot_ns in groups:
                shots = lanes.bit_count()
                counts[shapes.setdefault(measured, measured), bits] += shots
                shard.total_ns += shots * shot_ns
            for handoff in left:
                tally(self.run_handoff(handoff))
            index += len(chunk)
            step = min(width, 2 * step) if left else width
        return shard

    def run(self, shots: int) -> ShotResult:
        """Execute ``shots`` shots and histogram the outcomes.

        Implemented as the single-shard case of the shard/merge
        pipeline, so serial execution and a sharded sweep share one
        histogramming code path by construction.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        return merge_shard_outcomes([self.run_range(0, shots)])


def run_shots(program: Program, shots: int,
              qpu_factory: Callable[[int], QPUBase] | None = None,
              config: QCPConfig | None = None,
              n_processors: int = 1,
              n_qubits: int | None = None,
              backend: str | None = None,
              noise: NoiseModel | None = None) -> ShotResult:
    """Execute ``program`` ``shots`` times and histogram the outcomes.

    Convenience wrapper constructing a :class:`ShotEngine` (one
    program decode) and running it.  ``qpu_factory(seed)`` builds a
    fresh QPU per shot when supplied; otherwise one simulated QPU is
    built with the ``backend`` (default ``config.qpu_backend``, i.e.
    the dense statevector) and the optional ``noise`` model, and reset
    between shots.  A shot's bitstring records, for every qubit in the
    cross-shot measurement union (sorted), the *last* delivered result
    — see :class:`ShotResult` for the mixed-branch semantics.
    """
    engine = ShotEngine(program, config=config,
                        n_processors=n_processors, n_qubits=n_qubits,
                        backend=backend, noise=noise,
                        qpu_factory=qpu_factory)
    return engine.run(shots)
