"""Differential fuzzing of the shot-execution strategies.

Hypothesis generates random control-flow programs — data-dependent
branches, bounded retry loops, MRCE conditionals, active resets, and
classical accumulators that round-trip through shared memory into a
guarded branch — and every execution strategy must agree **bit for
bit** under a fixed seed:

* simulation backends: ``statevector`` x ``stabilizer`` (the gate pool
  is Clifford-only, so both can represent every generated program and
  their identically seeded outcome streams must coincide);
* trace cache: off (the cycle-accurate reference), on, and on with a
  tiny LRU bound (eviction + re-record churn);
* issue model: scalar x superscalar;
* noise: ideal, Pauli+readout (both backends), the full dense
  channel stack (statevector only) and that stack without decoherence
  but with a Pauli channel (statevector only);
* dense replay flavours: the fused step program and an LRU-bounded
  trie (the unfused steps are pinned against the device amplitude for
  amplitude in ``tests/qcp/test_trace_cache_noise.py``);
* Pauli-arm MRCE folds: arms drawn from ``i``/``x``/``y``/``z``,
  quiet and non-quiet resolutions, and the one folding engine (one
  scalar sign-trace core) against cells that must decline;
* shot batching: lockstep cohorts (bit-plane sign columns on the
  stabilizer backend, batch GEMMs on the statevector backend,
  wavefront trie traversal for control flow) vs the serial per-shot
  sign replay loop on the stabilizer and the cycle-accurate model on
  the statevector, at cohort widths that split at every decision and
  widths larger than the shot count (both reached directly, through
  ``tests/replay_paths.py``).  Dense cohorts run under both dense
  channel stacks, so cohort ZZ windows, deferred corrections and idle
  decay are differential-tested;
* hand-offs: lanes a cohort leaves resume at their own frontier (or
  are replayed from the root when it went stale) on folding,
  fast-switch, dense T1/T2 and node-bounded engines.

This is the suite guarding edge selection, which lives in two places:
the serial sign-trace loop decides through the decide/hit/resume
epilogue (:meth:`repro.qcp.tracecache.TraceCache._epilogue`), and the
one cohort walker (:meth:`~repro.qcp.tracecache.TraceCache._replay_cohort`),
which serves sign cohorts, dense cohorts and the serial dense shot (a
cohort of one), partitions its cohorts through one shared split
(:meth:`~repro.qcp.tracecache.TraceCache._split_cohort`).  The walker
decides once per distinct combination of register values in the
cohort, on either substrate.  A disagreement between any two
strategies points at a hot-loop specialization or at one of the two
shared tails.

The accumulator segments are what the trace cache's decision slice
(only the classical ops a recorded branch depends on are replayed)
and the sign cohorts' value partitions have to get right.  An
accumulator no branch reads is a dead chain, and one read only behind
a data-dependent guard becomes live only once a path through the guard
is recorded, after the ops it depends on were first compiled out.  The
fold is an ``xor`` or an ``add``, so a cohort's accumulator can hold
more than two values, and the guard compares it with ``bne`` or with
the ordered ``blt``/``bge``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.builder import ProgramBuilder
from repro.qcp import ShotEngine, scalar_config, superscalar_config
from repro.qpu.noise import (DecoherenceNoise, DepolarizingNoise,
                             NoiseModel, PauliChannel, ReadoutError,
                             ZZCrosstalk)
from tests.replay_paths import served

#: Clifford-only pool so both backends execute every program.
GATES = ("h", "x", "s", "z", "y90", "cnot")

N_QUBITS = 4
SHOTS = 6

#: Shared-memory word the accumulator segments round-trip through.
ACCUMULATOR_ADDR = 9

#: Accumulator folds ``r6 <- r6 (op) r1``: ``add`` leaves more than two
#: values in a cohort's accumulator.
FOLDS = ("xor", "add")

#: Accumulator guards ``(branch, rs, rt)``; ``r7`` holds the retry
#: bound 3, so the ordered compares split on accumulators near it.
GUARDS = (("bne", 6, 0), ("blt", 7, 6), ("bge", 6, 7))

#: MRCE arms.  A pair with one identity arm is a Pauli-arm fold
#: candidate; any other pair must decline.
ARMS = ("i", "x", "y", "z")


def pauli_noise() -> NoiseModel:
    return NoiseModel(pauli=PauliChannel(px=0.03, py=0.01, pz=0.02),
                      readout=ReadoutError(p0_given_1=0.06,
                                           p1_given_0=0.04))


#: Chained ZZ pairs: when three or four qubits drive concurrently,
#: several pairs overlap in the *same* window, each with its own
#: overlap length — the per-pair accounting the replay modes must
#: reproduce exactly (a collapsed single-event model diverges here).
ZZ_PAIRS = ((0, 1), (1, 2), (2, 3), (0, 3))


def dense_noise() -> NoiseModel:
    return NoiseModel(
        depolarizing=DepolarizingNoise(p=0.02),
        two_qubit_depolarizing=DepolarizingNoise(p=0.04),
        zz=ZZCrosstalk(zeta_hz=2.5e6, pairs=ZZ_PAIRS),
        decoherence=DecoherenceNoise(t1_us=60.0, t2_us=45.0),
        readout=ReadoutError(p0_given_1=0.05, p1_given_0=0.03))


def pauli_dense_noise() -> NoiseModel:
    # The dense stack with a Pauli channel in place of decoherence.
    return NoiseModel(
        depolarizing=DepolarizingNoise(p=0.02),
        two_qubit_depolarizing=DepolarizingNoise(p=0.04),
        pauli=PauliChannel(px=0.02, py=0.01, pz=0.02),
        zz=ZZCrosstalk(zeta_hz=2.5e6, pairs=ZZ_PAIRS),
        readout=ReadoutError(p0_given_1=0.05, p1_given_0=0.03))


@st.composite
def control_flow_programs(draw, coin_resets: int = 0,
                          lead_coin: bool = False):
    """Random well-formed programs exercising every decision kind.

    Segments chain gates with one feedback construct each: a
    measure + branch skip, an MRCE conditional (each arm drawn from
    :data:`ARMS`, optionally with a second measurement still in flight
    when it resolves, then a gate whose timing label 0–5 decides how
    much of the arms' time difference survives), a *bounded* retry loop
    (measure until 0, at most three tries — a miniature RUS whose
    decision paths fan out), an active reset, or an accumulator fold:
    the measured bit is XORed or added into ``r6``, which round-trips
    through shared memory; a later fold may first branch on the
    accumulator (:data:`GUARDS`), guarded by its own bit so that only
    some paths read it.  ``coin_resets`` fair coins, each actively
    reset through an MRCE, end the segments: fold candidates whose
    arms end at the next coin's quiet MRCE stall or, for the last
    coin, at the leaf.  ``lead_coin`` opens the program, before any
    classical op, with one more coin whose reset a second measurement
    and MRCE check: a fold candidate from quiet MRCE to quiet MRCE
    whose nodes keep control-stack snapshots, so a shot that misses
    at the coin restarts there.  Every qubit is measured at the end
    so histograms are comparable.
    """
    builder = ProgramBuilder("fuzz")

    def coin_reset() -> int:
        coin = draw(st.integers(0, N_QUBITS - 1))
        builder.qop("reset", [coin], timing=2)
        builder.qop("h", [coin], timing=2)
        builder.qmeas(coin, timing=2)
        builder.mrce(coin, coin, op_if_zero="i", op_if_one="x")
        return coin

    if lead_coin:
        coin = coin_reset()
        builder.qmeas(coin, timing=2)
        builder.mrce(coin, coin, op_if_zero="i", op_if_one="x")
    builder.ldi(7, 3)  # retry-loop bound
    accumulated = False
    n_segments = draw(st.integers(1, 4))
    for segment in range(n_segments):
        for _ in range(draw(st.integers(0, 3))):
            gate = draw(st.sampled_from(GATES))
            if gate == "cnot":
                control = draw(st.integers(0, N_QUBITS - 1))
                target = draw(
                    st.integers(0, N_QUBITS - 1).filter(
                        lambda q, c=control: q != c))
                builder.qop("cnot", [control, target], timing=2)
            else:
                builder.qop(gate, [draw(st.integers(0, N_QUBITS - 1))],
                            timing=2)
        kind = draw(st.integers(0, 4))
        qubit = draw(st.integers(0, N_QUBITS - 1))
        target = draw(st.integers(0, N_QUBITS - 1))
        if kind == 0:
            builder.qmeas(qubit, timing=2)
            builder.fmr(1, qubit)
            skip = builder.fresh_label(f"skip{segment}")
            builder.beq(1, 0, skip)
            builder.qop("x", [target], timing=2)
            builder.label(skip)
        elif kind == 1:
            builder.qmeas(qubit, timing=2)
            if draw(st.booleans()):
                builder.qmeas(draw(st.integers(0, N_QUBITS - 1).filter(
                    lambda q, m=qubit: q != m)), timing=1)
            builder.mrce(qubit, target,
                         op_if_zero=draw(st.sampled_from(ARMS)),
                         op_if_one=draw(st.sampled_from(ARMS)))
            builder.qop(draw(st.sampled_from(GATES[:-1])),
                        [draw(st.integers(0, N_QUBITS - 1))],
                        timing=draw(st.integers(0, 5)))
        elif kind == 2:
            builder.ldi(5, 0)
            retry = builder.label(builder.fresh_label(f"retry{segment}"))
            builder.qop("h", [qubit], timing=2)
            builder.qmeas(qubit, timing=2)
            builder.fmr(1, qubit)
            builder.addi(5, 5, 1)
            done = builder.fresh_label(f"done{segment}")
            builder.beq(1, 0, done)
            builder.blt(5, 7, retry)
            builder.label(done)
        elif kind == 3:
            builder.qop("reset", [qubit], timing=2)
        else:
            builder.qmeas(qubit, timing=2)
            builder.fmr(1, qubit)
            if accumulated and draw(st.booleans()):
                over = builder.fresh_label(f"over{segment}")
                builder.beq(1, 0, over)
                branch, rs, rt = draw(st.sampled_from(GUARDS))
                getattr(builder, branch)(rs, rt, over)
                builder.qop("x", [target], timing=2)
                builder.label(over)
            getattr(builder, draw(st.sampled_from(FOLDS)))(6, 6, 1)
            builder.stm(6, ACCUMULATOR_ADDR)
            builder.ldm(6, ACCUMULATOR_ADDR)
            accumulated = True
    for _ in range(coin_resets):
        coin_reset()
    for qubit in range(N_QUBITS):
        builder.qmeas(qubit, timing=4)
    builder.halt()
    return builder.build()


def run_matrix(program, engines):
    """Per-seed results of every engine; asserts pairwise equality."""
    names = list(engines)
    reference_name = names[0]
    for seed in range(SHOTS):
        reference = engines[reference_name].run_shot(seed)
        for name in names[1:]:
            result = engines[name].run_shot(seed)
            assert result == reference, (
                f"seed {seed}: {name} diverged from {reference_name}")


def cache_engine(program, backend, config, noise_factory=None,
                 **config_changes):
    noise = noise_factory() if noise_factory is not None else None
    return ShotEngine(program, config=config.with_(**config_changes),
                      backend=backend, n_qubits=N_QUBITS, noise=noise)


@settings(max_examples=12, deadline=None)
@given(control_flow_programs())
def test_fuzz_ideal_backends_and_cache_modes(program):
    """Ideal substrate: backends x {off, on, LRU} x issue widths."""
    for config in (scalar_config(), superscalar_config(4)):
        engines = {}
        for backend in ("statevector", "stabilizer"):
            engines[f"{backend}-uncached"] = cache_engine(
                program, backend, config, trace_cache=False)
            engines[f"{backend}-cached"] = cache_engine(
                program, backend, config)
            engines[f"{backend}-lru"] = cache_engine(
                program, backend, config, trace_cache_max_nodes=4)
        # Cross-backend: identically seeded backends must produce the
        # same outcome stream on Clifford programs (PR 1 contract),
        # so *all six* strategies agree, not just per-backend pairs.
        run_matrix(program, engines)
        for name, engine in engines.items():
            cache = engine.trace_cache
            if cache is not None:
                assert cache.hits + cache.misses == SHOTS, name


@settings(max_examples=10, deadline=None)
@given(control_flow_programs())
def test_fuzz_pauli_noise_both_backends(program):
    """Pauli+readout noise: sign-trace sites vs dense replay vs
    cycle-accurate, with eviction churn in the mix."""
    config = scalar_config()
    engines = {}
    for backend in ("statevector", "stabilizer"):
        engines[f"{backend}-uncached"] = cache_engine(
            program, backend, config, pauli_noise, trace_cache=False)
        engines[f"{backend}-cached"] = cache_engine(
            program, backend, config, pauli_noise)
        engines[f"{backend}-lru"] = cache_engine(
            program, backend, config, pauli_noise,
            trace_cache_max_nodes=4)
    run_matrix(program, engines)


@settings(max_examples=10, deadline=None)
@given(control_flow_programs(), st.booleans())
def test_fuzz_dense_noise_replay_flavours(program, superscalar):
    """Full dense channel stack: every noisy-dense replay flavour —
    the compiled noise-site program, LRU-bounded or not — against the
    cycle-accurate reference."""
    config = superscalar_config(4) if superscalar else scalar_config()
    engines = {
        "uncached": cache_engine(program, "statevector", config,
                                 dense_noise, trace_cache=False),
        "compiled": cache_engine(program, "statevector", config,
                                 dense_noise),
        "compiled-lru": cache_engine(
            program, "statevector", config, dense_noise,
            trace_cache_max_nodes=4),
    }
    run_matrix(program, engines)


@settings(max_examples=8, deadline=None)
@given(control_flow_programs())
def test_fuzz_histograms_and_timings(program):
    """run() aggregation: histograms, total_ns and the measured-qubit
    union are identical across strategies, not just per-shot values."""
    config = scalar_config()
    reference = cache_engine(program, "stabilizer", config, pauli_noise,
                             trace_cache=False).run(SHOTS)
    for backend in ("statevector", "stabilizer"):
        for changes in ({}, {"trace_cache_max_nodes": 4}):
            result = cache_engine(program, backend, config, pauli_noise,
                                  **changes).run(SHOTS)
            assert result.counts == reference.counts
            assert result.total_ns == reference.total_ns
            assert result.measured_qubits == reference.measured_qubits


BATCH_SHOTS = 24
BATCH_WIDTHS = (1, 7, 64, 100)


@settings(max_examples=6, deadline=None)
@given(control_flow_programs())
def test_fuzz_batched_replay_matches_serial(program):
    """Shot-batched replay is bit-identical per shot-seed to serial.

    Every (backend, noise, cohort width) cell must reproduce the
    reference per seed, results and total_ns alike.  On the stabilizer
    the reference is serial sign replay (one ``run_shot`` per seed).
    On the statevector, where a serial shot runs the cohort walker as
    a cohort of one, it is the cycle-accurate model
    (``trace_cache=False``), and the serial engine is one more
    compared cell.  Widths 7 and 64 force wavefront splits at every
    random decision the generated program takes; width 100 exceeds
    the shot count; width 1 degenerates to cohorts of one.  Both dense
    stacks must actually batch, decoherence included; the serial
    engine never counts a cohort.
    """
    config = scalar_config()
    seeds = range(BATCH_SHOTS)
    for backend, noise_factory in (
            ("stabilizer", None),
            ("statevector", None),
            ("stabilizer", pauli_noise),
            ("statevector", pauli_noise),
            ("statevector", pauli_dense_noise),
            ("statevector", dense_noise)):
        name = f"{backend}/{noise_factory}"
        serial = cache_engine(program, backend, config, noise_factory)
        serial_results = served(serial, seeds, "serial")
        cache = serial.trace_cache
        assert cache.batched_shots == cache.serial_fallbacks == \
            cache.wavefront_splits == 0, name
        assert cache.hits + cache.misses == BATCH_SHOTS, name
        if backend == "stabilizer":
            reference = serial_results
        else:
            reference = served(cache_engine(program, backend, config,
                                            noise_factory,
                                            trace_cache=False), seeds)
            assert serial_results == reference, f"{name}/serial"
        batched = 0
        for width in BATCH_WIDTHS:
            engine = cache_engine(program, backend, config,
                                  noise_factory)
            assert served(engine, seeds, width) == reference, \
                f"{name}/{width}"
            cache = engine.trace_cache
            assert cache.hits + cache.misses == BATCH_SHOTS, \
                f"{name}/{width}"
            batched += cache.batched_shots
        if noise_factory in (dense_noise, pauli_dense_noise):
            assert batched > 0, name


FOLD_SHOTS = 16

#: Engines that must decline every fold, against the one that folds.
FOLD_CELLS = {
    "scalar": ({}, "stabilizer", 1),
    "superscalar": ({"fetch_width": 4, "n_quantum_pipelines": 4,
                     "buffer_capacity": 8}, "stabilizer", 1),
    "fast-switch": ({"fast_context_switch": True}, "stabilizer", 1),
    "two-processors": ({}, "stabilizer", 2),
    "statevector": ({}, "statevector", 1),
}


@settings(max_examples=6, deadline=None)
@given(control_flow_programs(coin_resets=2, lead_coin=True))
def test_fuzz_pauli_folds_match_cycle_accurate(program):
    """Pauli-arm folds are exact, and only the scalar sign engine folds.

    Each cell runs its cycle-accurate reference and its cached engine
    serially, in cohorts and LRU-bounded at 4 nodes, under Pauli and
    readout noise (so a folded Pauli draws its gate-noise site); every
    shot must match per seed.  The scalar stabilizer cell must fold at
    least once (its coin resets always offer folds) and restart at
    least once (the lead coin's quiet MRCE keeps a snapshot, and a
    shot that misses there restarts from it); every other cell never
    folds, restarts or rejoins.

    The scalar cell also runs noiseless, serially, where it must
    rejoin: the lead coin's check then reads 0 on every shot, so the
    shot whose new coin arm makes the fold finds the check's edge
    already recorded and is handed back to replay there.  (Under
    noise a rejoin is likely, not certain: the check can misread.)
    """
    folds = {}
    seeds = range(FOLD_SHOTS)
    for name, (changes, backend, processors) in FOLD_CELLS.items():
        config = scalar_config(**changes)
        engines = {
            (variant, how): ShotEngine(
                program, config=config.with_(**extra), backend=backend,
                n_qubits=N_QUBITS, n_processors=processors,
                noise=pauli_noise())
            for variant, extra, how in (
                ("reference", {"trace_cache": False}, "run"),
                ("serial", {}, "serial"),
                ("batched", {}, 5),
                ("lru", {"trace_cache_max_nodes": 4}, "run"))}
        expected = served(engines.pop(("reference", "run")), seeds)
        for (variant, how), engine in engines.items():
            assert served(engine, seeds, how) == expected, (
                f"{name}/{variant} diverged from the cycle-accurate run")
        caches = [engine.trace_cache for engine in engines.values()]
        folds[name] = sum(cache.folds for cache in caches)
        if name == "scalar":
            assert sum(cache.restarts for cache in caches) > 0
        else:
            assert all(cache.restarts == cache.rejoins == 0
                       for cache in caches), name
    assert folds.pop("scalar") > 0
    assert not any(folds.values()), folds
    reference, engine = (
        ShotEngine(program, config=scalar_config(trace_cache=cached),
                   backend="stabilizer", n_qubits=N_QUBITS)
        for cached in (False, True))
    assert served(engine, seeds, "serial") == served(reference, seeds), \
        "noiseless scalar diverged"
    assert engine.trace_cache.rejoins > 0


HANDOFF_SHOTS = 24

#: Engines whose cohorts hand lanes back: ``(config changes, backend,
#: noise)``.  The scalar stabilizer core folds its MRCE resets, the
#: fast-switch one does not, the dense one draws T1/T2 and readout
#: noise, and the bounded one evicts the frontiers of later lanes.
HANDOFF_CELLS = {
    "folding": ({}, "stabilizer", pauli_noise),
    "fast-switch": ({"fast_context_switch": True}, "stabilizer",
                    pauli_noise),
    "dense": ({}, "statevector", dense_noise),
    "bounded": ({"trace_cache_max_nodes": 4}, "stabilizer", pauli_noise),
}


@settings(max_examples=5, deadline=None)
@given(control_flow_programs(coin_resets=1, lead_coin=True))
def test_fuzz_handoffs_match_serial_and_cycle_accurate(program):
    """Lanes a cohort hands back resume where they left, exactly.

    ``run`` opens with narrow cohorts whose lanes leave at the coins'
    unrecorded arms; each is resumed at its own frontier, or replayed
    from the root when an earlier fallback's recording moved it.
    Every seed's ``(delivered, total_ns)`` must equal ``run_shot``'s
    and the cycle-accurate engine's, in every cell.
    """
    seeds = range(HANDOFF_SHOTS)
    for name, (changes, backend, noise_factory) in HANDOFF_CELLS.items():
        config = scalar_config(**changes)
        engines = {how: cache_engine(program, backend,
                                     config.with_(trace_cache=cached),
                                     noise_factory)
                   for how, cached in (("run", True), ("serial", True),
                                       ("reference", False))}
        expected = served(engines.pop("reference"), seeds)
        for how, engine in engines.items():
            assert served(engine, seeds, how) == expected, f"{name}/{how}"
        # The lead coin's unrecorded arm sends lanes back: the first
        # of them finds its frontier where it left it.
        cache = engines["run"].trace_cache
        assert cache.handoffs > 0, name
        assert cache.handoffs + cache.rewalks == cache.serial_fallbacks, \
            name


def test_epilogue_is_shared_by_all_replay_modes():
    """Edge selection has exactly two implementations.

    There are two replay loops.  The serial sign loop decides through
    the epilogue, and one cohort walker, serving sign cohorts, dense
    cohorts and the serial dense shot (a cohort of one, so the dense
    branch of ``replay`` runs it), partitions through the one shared
    cohort split.  No other replay code selects a trie edge (the
    recorder creates edges, stepping along a simulated shot's own
    outcomes, and its Pauli-arm folds merge them, but neither selects
    one for a replayed shot; a shot the recorder hands back to replay
    at a quiet decision gets its edge from the epilogue).  The walker
    builds no per-shot context, keys no shot on its own and names no
    comparator or ALU function: its decisions run the recorded
    micro-op closures once per cohort, and no bound dense step carries
    a readout channel of its own (the cohort state delivers outcomes).

    Each substrate compiles a node once, into the one program its
    loops read.  Dense compilation has exactly one implementation: the
    drive-window pruning, the ZZ window accounting and GEMM fusion each
    appear in one function, and ``TraceNode.dense_program`` both
    compiles and binds the step list (the cohort binding is the only
    one).  The sign trace has exactly one compiler, whose ops carry
    both the serial loop's masks and the cohort walker's rows: no other
    function builds a sign op, and only the node and the fold call the
    compiler.  The compiler runs the device's own tableau kernel on a
    model state, so no function here reads the tableau's gate
    decompositions or its ``g`` rule: the conjugation and measurement
    rules cannot fork again.  Both compilers take a gate's noise
    channels from ``NoiseModel.gate_site_specs``, the device's own
    rule, and both sign loops give a measurement and a reset of one
    kind (deterministic or random pivot) one body.  A miss hands back
    the shot's own replay context, and each simulator run drives the
    device through one recording proxy.
    """
    import inspect
    import pathlib

    from repro.qcp import tracecache

    cache = tracecache.TraceCache
    source = inspect.getsource(cache._replay_signs)
    assert "self._epilogue(" in source, "_replay_signs bypasses the epilogue"
    for gone in ("_replay_batch_signs", "_replay_batch_dense"):
        assert not hasattr(cache, gone), f"{gone} is a third replay loop"
    source = inspect.getsource(cache.replay)
    dense = source[source.index('if self.mode == "signs":'):]
    assert "self._replay_cohort(" in dense, (
        "serial dense replay bypasses the cohort walker")
    assert "self._replay_cohort(" in inspect.getsource(cache.replay_batch), (
        "batched replay bypasses the cohort walker")
    source = inspect.getsource(cache._replay_cohort)
    assert "self._split_cohort(" in source, (
        "the cohort walker bypasses the shared cohort split")
    # Every function written in the module, methods included.
    functions = [(name, member)
                 for name, member in vars(tracecache).items()
                 if inspect.isfunction(member)]
    for owner in vars(tracecache).values():
        if inspect.isclass(owner):
            functions.extend(
                (f"{owner.__name__}.{name}", member)
                for name, member in vars(owner).items()
                if inspect.isfunction(member))
    selectors = {name for name, member in functions
                 if member.__code__.co_filename == tracecache.__file__
                 and "children.get" in inspect.getsource(member)}
    assert selectors == {"TraceCache._epilogue",
                         "TraceCache._split_cohort",
                         "TraceRecorder._step", "TraceCache._fold",
                         "TraceCache._graft"}, selectors
    source = inspect.getsource(tracecache.TraceRecorder._hand_over)
    assert "cache._epilogue(" in source, "the rejoin bypasses the epilogue"
    for loop in (cache._replay_signs, cache._replay_cohort):
        source = inspect.getsource(loop)
        for kind in ("D", "R"):
            shared = f"code == _S_MEAS_{kind} or code == _S_RESET_{kind}"
            assert shared in source, (loop.__name__, shared)
            assert source.count(f"== _S_RESET_{kind}") == 1, (
                loop.__name__, kind)
    # No second miss record or prefix-skipping proxy exists anywhere in
    # the package.
    package = pathlib.Path(tracecache.__file__).parents[1]
    for gone in ("ResumePoint", "CheckpointQPU"):
        found = sorted(path.name for path in package.rglob("*.py")
                       if gone in path.read_text())
        assert not found, (gone, found)

    def holders(text: str) -> set:
        return {name for name, member in functions
                if member.__code__.co_filename == tracecache.__file__
                and text in inspect.getsource(member)}

    for kernel in ("stop <= time_ns", "window_events(", "fuse_into("):
        assert len(holders(kernel)) == 1, (kernel, holders(kernel))
    assert holders("gate_site_specs(") == {"_compile_dense_steps",
                                           "_compile_sign_node"}
    assert not holders("two_qubit_depolarizing")
    # Each compiler's own definition and its callers: one per program.
    assert holders("_compile_dense_steps(") == {"_compile_dense_steps",
                                                "TraceNode.dense_program"}
    assert holders("_bind_cohort(") == {"_bind_cohort",
                                        "TraceNode.dense_program"}
    assert holders("_compile_sign_node(") == {"_compile_sign_node",
                                              "TraceNode.sign_program",
                                              "_Fold.sign_program"}
    assert holders("(_S_XOR,") == {"_compile_sign_node"}
    sign_ops = {holder for name in vars(tracecache)
                if name.startswith("_S_")
                for holder in holders(f"({name},")}
    assert sign_ops == {"_compile_sign_node"}, sign_ops
    for rule in ("_CLIFFORD_DECOMPOSITIONS", "_TWO_QUBIT_DECOMPOSITIONS",
                 "_g_terms"):
        assert rule not in vars(tracecache), rule
        assert not holders(rule), (rule, holders(rule))
    source = inspect.getsource(cache._replay_cohort)
    for banned in ("_COMPARATORS", "_FUNCS", ".taken(", "_ReplayContext",
                   "_decide(", "outcome_key("):
        assert banned not in source, (
            f"the cohort walker decides or keys shot by shot: {banned}")
    source = inspect.getsource(tracecache._CohortState)
    for banned in ("_COMPARATORS", "_FUNCS", ".taken("):
        assert banned not in source, banned
    # A readout channel reaches a dense measurement only through the
    # cohort state: no bound step captures one.
    from repro.qpu.device import SimulatedQPU
    from repro.qpu.noise import NoiseModel, ReadoutError

    qpu = SimulatedQPU(2, noise=NoiseModel(readout=ReadoutError(0.1, 0.2)))
    steps = tracecache._compile_dense_steps(
        ((tracecache.REC_GATE, "h", (0,), (), 0),
         (tracecache.REC_MEAS, 0, 40)), qpu, {}, {})
    assert (tracecache._V_MEAS, 0) in steps, steps
    for step in tracecache._bind_cohort(steps, 2):
        captured = list(step.__defaults__ or ()) + [
            cell.cell_contents for cell in step.__closure__ or ()]
        assert not any(
            isinstance(value, ReadoutError)
            or isinstance(getattr(value, "__self__", None), ReadoutError)
            for value in captured), captured
