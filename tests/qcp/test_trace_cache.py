"""Tests for the decision-keyed trace cache (repro.qcp.tracecache).

The load-bearing property: for any program and any seed, trace-cached
execution must be **bit-identical** to the cycle-accurate simulation —
same per-shot outcome streams, same histograms, same completion times —
on both simulation backends, including the cache-miss → record →
extend-trie paths of branchy programs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit
from repro.compiler import compile_circuit
from repro.isa.builder import ProgramBuilder
from repro.qcp import (QCPConfig, ShotEngine, TraceCache, scalar_config,
                       superscalar_config)
from repro.qcp.decode import K_CLASSICAL
from repro.qcp.tracecache import (REC_CLS, REC_DEC, REC_GATE, REC_MDEC,
                                  REC_MEAS, REC_RESET, RecordingQPU,
                                  TraceDivergenceError, TraceRecorder,
                                  _S_CLS, _S_FMR)
from repro.qpu import PRNGQPU
from tests.replay_paths import served

#: Clifford-only gate pool so every generated program runs on both
#: backends with identically seeded outcome streams.
GATES = ("h", "x", "s", "y90", "z")


def bell_program():
    circuit = QuantumCircuit(2).h(0).cnot(0, 1).measure(0).measure(1)
    return compile_circuit(circuit).program


@st.composite
def branchy_programs(draw):
    """Random well-formed programs with data-dependent control flow.

    Each segment applies a few gates, then one feedback construct: a
    measure + FMR + conditional branch (skipping a correction gate), an
    MRCE conditional, or an active reset.  Every qubit is measured at
    the end so histograms compare meaningfully.
    """
    n_qubits = draw(st.integers(2, 4))
    builder = ProgramBuilder("branchy")
    n_segments = draw(st.integers(1, 4))
    for segment in range(n_segments):
        for _ in range(draw(st.integers(0, 3))):
            builder.qop(draw(st.sampled_from(GATES)),
                        [draw(st.integers(0, n_qubits - 1))], timing=2)
        kind = draw(st.integers(0, 2))
        qubit = draw(st.integers(0, n_qubits - 1))
        target = draw(st.integers(0, n_qubits - 1))
        if kind == 0:
            builder.qmeas(qubit, timing=2)
            builder.fmr(1, qubit)
            skip = builder.fresh_label(f"skip{segment}")
            builder.beq(1, 0, skip)
            builder.qop("x", [target], timing=2)
            builder.label(skip)
        elif kind == 1:
            builder.qmeas(qubit, timing=2)
            builder.mrce(qubit, target, op_if_zero="i", op_if_one="x")
        else:
            builder.qop("reset", [qubit], timing=2)
    for qubit in range(n_qubits):
        builder.qmeas(qubit, timing=4)
    builder.halt()
    return builder.build(), n_qubits


def run_both(program, n_qubits, backend, config, shots):
    """One engine per caching mode; same seeds on both."""
    cached = ShotEngine(program, config=config, backend=backend,
                        n_qubits=n_qubits)
    uncached = ShotEngine(program,
                          config=config.with_(trace_cache=False),
                          backend=backend, n_qubits=n_qubits)
    assert cached.trace_cache is not None
    assert uncached.trace_cache is None
    return cached, uncached, shots


@settings(max_examples=20, deadline=None)
@given(branchy_programs(), st.sampled_from(("statevector", "stabilizer")))
def test_cached_execution_is_bit_identical(case, backend):
    program, n_qubits = case
    cached, uncached, shots = run_both(program, n_qubits, backend,
                                       scalar_config(), 8)
    for seed in range(shots):
        fast = cached.run_shot(seed)
        slow = uncached.run_shot(seed)
        assert fast == slow, f"seed {seed} diverged"
    # Histogram comparison over a fresh pair of engines (run() uses
    # sequential seeds itself).
    cached2, uncached2, _ = run_both(program, n_qubits, backend,
                                     scalar_config(), 8)
    fast_result = cached2.run(shots)
    slow_result = uncached2.run(shots)
    assert fast_result.counts == slow_result.counts
    assert fast_result.total_ns == slow_result.total_ns
    assert fast_result.measured_qubits == slow_result.measured_qubits


@settings(max_examples=10, deadline=None)
@given(branchy_programs())
def test_cached_execution_matches_on_superscalar(case):
    program, n_qubits = case
    cached, uncached, shots = run_both(
        program, n_qubits, "stabilizer", superscalar_config(4), 6)
    for seed in range(shots):
        assert cached.run_shot(seed) == uncached.run_shot(seed)


class TestTrieBehaviour:
    def test_first_shot_misses_then_replays(self):
        engine = ShotEngine(bell_program())
        cache = engine.trace_cache
        engine.run_shot(0)
        assert (cache.hits, cache.misses) == (0, 1)
        # A Bell shot has no data-dependent decision, so the trie is a
        # single path and *any* seed replays — outcomes still differ.
        engine.run_shot(1)
        assert (cache.hits, cache.misses) == (1, 1)
        first, _ = engine.run_shot(7)
        second, _ = engine.run_shot(5)
        assert cache.hits == 3

    def test_miss_extends_trie_then_hits(self):
        builder = ProgramBuilder("rus")
        retry = builder.label("retry")
        builder.qop("h", [0])
        builder.qmeas(0, timing=2)
        builder.fmr(1, 0)
        builder.bne(1, 0, retry)  # loop until the qubit reads 0
        builder.halt()
        program = builder.build()
        engine = ShotEngine(program, n_qubits=1)
        cache = engine.trace_cache
        results = [engine.run_shot(seed) for seed in range(40)]
        # Every distinct retry count is one recorded path; once seen,
        # later shots with the same count replay from the trie.
        assert cache.hits > cache.misses
        assert cache.hits + cache.misses == 40
        uncached = ShotEngine(
            program, config=QCPConfig(trace_cache=False), n_qubits=1)
        assert results == [uncached.run_shot(seed) for seed in range(40)]

    def test_replayed_shots_reproduce_recorded_seed(self):
        engine = ShotEngine(bell_program())
        recorded = engine.run_shot(3)   # miss: cycle-accurate
        replayed = engine.run_shot(3)   # hit: trie replay
        assert recorded == replayed

    def test_trie_stats_exposed(self):
        engine = ShotEngine(bell_program())
        engine.run(10)
        cache = engine.trace_cache
        assert cache.nodes >= 1
        assert cache.hits + cache.misses == 10


class TestCacheGating:
    def test_config_flag_disables_cache(self):
        engine = ShotEngine(bell_program(),
                            config=QCPConfig(trace_cache=False))
        assert engine.trace_cache is None

    def test_custom_qpu_factory_disables_cache(self):
        engine = ShotEngine(bell_program(),
                            qpu_factory=lambda seed: PRNGQPU(2))
        assert engine.trace_cache is None

    def test_cache_enabled_by_default(self):
        engine = ShotEngine(bell_program())
        assert isinstance(engine.trace_cache, TraceCache)


class TestSteaneWorkload:
    """The workload the trace cache was built for: one decision path."""

    def test_steane_shots_identical_and_single_path(self):
        from repro.benchlib.steane import (N_QUBITS,
                                           build_shor_syndrome_program)
        program = build_shor_syndrome_program(rounds=2)
        cached = ShotEngine(program, backend="stabilizer",
                            n_qubits=N_QUBITS)
        uncached = ShotEngine(program,
                              config=QCPConfig(trace_cache=False),
                              backend="stabilizer", n_qubits=N_QUBITS)
        fast = cached.run(12)
        slow = uncached.run(12)
        assert fast.counts == slow.counts
        assert fast.total_ns == slow.total_ns
        cache = cached.trace_cache
        # Verification parities are deterministic on an ideal
        # substrate, so every shot shares one decision path.
        assert cache.misses == 1
        assert cache.hits == 11


def path_nodes(cache):
    """Every recorded node of the trie, root first."""
    nodes, stack = [], [cache.root]
    while stack:
        node = stack.pop()
        if node is not None and node.items is not None:
            nodes.append(node)
            stack.extend(node.children.values())
    return nodes


def classical_ops(node):
    """(``_S_CLS``, ``_S_FMR``) op counts of a node's sign program."""
    codes = [op[0] for op in node._program[0]]
    return codes.count(_S_CLS), codes.count(_S_FMR)


def revival_program():
    """A shared word that only the second side of a coin flip reads.

    Block ``store`` measures a fair coin ``v`` on q0 and ``stm``s it.
    Block ``decide`` flips a second coin on q1; on its 1 side it
    ``ldm``s ``v`` and branches on it (applying X to q2 when set), on
    its 0 side nothing reads the shared word.  The ``stm`` is dead on
    the 0 side and live on the 1 side.
    """
    builder = ProgramBuilder("revival")
    with builder.block("store", priority=0):
        builder.qop("h", [0], timing=2)
        builder.qmeas(0, timing=2)
        builder.fmr(1, 0)
        builder.stm(1, 0)
        builder.halt()
    with builder.block("decide", priority=1):
        builder.qop("h", [1], timing=2)
        builder.qmeas(1, timing=2)
        builder.fmr(2, 1)
        builder.beq(2, 0, "done")
        builder.ldm(3, 0)
        builder.beq(3, 0, "done")
        builder.qop("x", [2], timing=2)
        builder.label("done")
        builder.qmeas(2, timing=2)
        builder.halt()
    return builder.build()


def opaque_program():
    """Two branches; the op between them is made opaque by the test.

    ``ldi r4, 5`` above the first branch and ``ldi r4, 7`` below the
    second are dead (nothing reads r4); ``addi r6, r6, 1`` between the
    branches is dead too, but the test strips its def/use sets.
    """
    builder = ProgramBuilder("opaque")
    builder.ldi(4, 5)
    builder.qop("h", [0], timing=2)
    builder.qmeas(0, timing=2)
    builder.fmr(1, 0)
    builder.beq(1, 0, "skip")
    builder.qop("x", [1], timing=2)
    builder.label("skip")
    builder.qop("h", [2], timing=2)
    builder.qmeas(2, timing=2)
    builder.fmr(2, 2)
    builder.addi(6, 6, 1)
    builder.beq(2, 0, "end")
    builder.ldi(4, 7)
    builder.label("end")
    builder.qmeas(1, timing=2)
    builder.halt()
    return builder.build()


class TestDecisionSlice:
    """Replay runs only the classical ops a recorded branch reads."""

    def test_shor_path_replays_only_verification_fetches(self):
        from repro.benchlib.steane import (N_QUBITS,
                                           build_shor_syndrome_program)
        engine = ShotEngine(build_shor_syndrome_program(rounds=3),
                            backend="stabilizer", n_processors=6,
                            n_qubits=N_QUBITS)
        engine.run(300)
        cache = engine.trace_cache
        assert (cache.hits, cache.misses) == (299, 1)
        counts = [classical_ops(node) for node in path_nodes(cache)]
        # 146 parity/vote/report ops and 72 syndrome fetches are dead:
        # only the 18 verification fetches feed a branch.
        assert sum(cls for cls, _ in counts) == 0
        assert sum(fmr for _, fmr in counts) == 18

    @pytest.mark.parametrize("backend", ["stabilizer", "statevector"])
    def test_later_branch_revives_dead_store(self, backend):
        program = revival_program()
        kwargs = dict(backend=backend, n_processors=2, n_qubits=3)
        uncached = ShotEngine(program, config=QCPConfig(trace_cache=False),
                              **kwargs)
        outcomes = [uncached.run_shot(seed)[0] for seed in range(64)]
        # Start on a shot whose second coin is 0, so the path that
        # leaves the stored word dead is recorded (and compiled) first.
        start = next(seed for seed, bits in enumerate(outcomes)
                     if bits[1] == 0)
        stop = start + 40
        window = outcomes[start:stop]
        paths = {(bits[1], bits[0] if bits[1] else None)
                 for bits in window}
        assert len(paths) == 3  # both edges of the ldm branch recorded
        reference = served(uncached, range(start, stop))
        for how in ("serial", 4):
            engine = ShotEngine(program, config=QCPConfig(), **kwargs)
            assert served(engine, range(start, stop), how) == reference, how
            assert engine.trace_cache.misses == len(paths), how

    def test_item_without_def_use_sets_fails_closed(self):
        program = opaque_program()
        uncached = ShotEngine(program, config=QCPConfig(trace_cache=False),
                              backend="stabilizer", n_qubits=3)
        reference = served(uncached, range(24))
        for how in ("serial", "run"):
            engine = ShotEngine(program, config=QCPConfig(),
                                backend="stabilizer", n_qubits=3)
            decoded = engine.memory._decoded
            pc = next(pc for pc, instr in enumerate(program.instructions)
                      if instr.opcode.name == "ADDI")
            kind, instr, (run, hoistable, eclass) = decoded[pc]
            assert kind == K_CLASSICAL

            def opaque(proc, run=run):
                return run(proc)
            decoded[pc] = (kind, instr, (opaque, hoistable, eclass))
            assert served(engine, range(24), how) == reference, how
            root = engine.trace_cache.root
            children = [node for node in root.children.values()
                        if node.items is not None]
            grandchildren = [node for child in children
                             for node in child.children.values()
                             if node.items is not None]
            assert len(children) == 2 and len(grandchildren) == 4
            # At and above the opaque op everything stays: the dead
            # ldi above it and the opaque op itself.
            assert classical_ops(root) == (1, 1)
            for child in children:
                assert classical_ops(child) == (1, 1)
                assert any(item[0] == REC_CLS and item[2] is opaque
                           for item in child.live_items())
            # Below it the slice still prunes the dead ldi.
            assert all(classical_ops(node) == (0, 0)
                       for node in grandchildren)
            assert any(item[0] == REC_CLS for node in grandchildren
                       for item in node.items)


def translation_counterexample(label: int = 1):
    """Equal next segments that do not translate.

    The MRCE on q0 is a fold candidate: its arms differ by one leading
    ``x`` on q2, and their next segments agree op for op with issue
    times 10 ns apart.  But the next decision is a branch on q1 decided
    at processor time, and with timing label 1 it absorbs the shift:
    each leaf under the ``x`` arm has the same total as its
    counterpart under the identity arm.  (With label 5 the leaves
    where the ``z`` runs differ by 10 ns, the others by 0 ns.)  A fold
    would report each Pauli-arm shot 10 ns late, so the rule must
    decline.
    """
    builder = ProgramBuilder("fold_hole")
    builder.qop("h", [1], timing=2)
    builder.qmeas(1, timing=2)
    builder.qop("h", [0], timing=2)
    builder.qmeas(0, timing=2)
    builder.mrce(0, 2, op_if_zero="i", op_if_one="x")
    builder.qop("x", [3], timing=2)
    builder.fmr(1, 1)
    skip = builder.fresh_label("skip")
    builder.beq(1, 0, skip)
    builder.qop("z", [3], timing=label)
    builder.label(skip)
    for _ in range(4):
        builder.qop("x", [3], timing=1)
    for qubit in range(4):
        builder.qmeas(qubit, timing=4)
    builder.halt()
    return builder.build()


def active_reset_program(rounds: int = 4):
    """Fair coins on q0, each actively reset through an MRCE."""
    builder = ProgramBuilder("active_reset")
    for _ in range(rounds):
        builder.qop("h", [0], timing=2)
        builder.qop("cnot", [0, 1], timing=2)
        builder.qmeas(0, timing=2)
        builder.mrce(0, 0, op_if_zero="i", op_if_one="x")
    for qubit in range(2):
        builder.qmeas(qubit, timing=4)
    builder.halt()
    return builder.build()


class TestPauliFolds:
    """Pauli-arm MRCE folds: exact where the rule holds, off elsewhere.

    Every engine must agree per seed with the cycle-accurate model
    (``trace_cache=False``), serially and in cohorts, whether or not
    it folds.
    """

    SHOTS = 64

    def per_seed(self, engine, how="run"):
        return served(engine, range(self.SHOTS), how)

    @pytest.mark.parametrize("label", [1, 5])
    def test_translation_counterexample_declines(self, label):
        program = translation_counterexample(label)
        kwargs = dict(backend="stabilizer", n_qubits=4)
        reference = ShotEngine(program,
                               config=scalar_config(trace_cache=False),
                               **kwargs)
        expected = self.per_seed(reference)
        for how in ("serial", "run", 7):
            engine = ShotEngine(program, config=scalar_config(), **kwargs)
            assert self.per_seed(engine, how) == expected, how
            assert engine.trace_cache.folds == 0, how

    def test_surface_memory_folds_and_replays(self):
        from repro.benchlib.surface import (build_surface_memory_program,
                                            surface_layout,
                                            surface_noise_model)
        program = build_surface_memory_program(3, rounds=2)
        kwargs = dict(backend="stabilizer",
                      n_qubits=surface_layout(3).n_qubits,
                      noise=surface_noise_model())
        reference = ShotEngine(program,
                               config=QCPConfig(trace_cache=False),
                               **kwargs)
        expected = self.per_seed(reference)
        for how in ("serial", 7, 64):
            engine = ShotEngine(program, config=QCPConfig(), **kwargs)
            assert self.per_seed(engine, how) == expected, how
            cache = engine.trace_cache
            assert cache.folds > 0 and cache.hits > 0, how

    def test_active_reset_folds_on_one_scalar_sign_core(self):
        engine = ShotEngine(active_reset_program(), config=scalar_config(),
                            backend="stabilizer", n_qubits=2)
        reference = ShotEngine(active_reset_program(),
                               config=scalar_config(trace_cache=False),
                               backend="stabilizer", n_qubits=2)
        assert self.per_seed(engine) == self.per_seed(reference)
        assert engine.trace_cache.folds > 0

    @pytest.mark.parametrize("cell", [
        {"n_processors": 2},
        {"config": scalar_config(fetch_width=4, buffer_capacity=8)},
        {"config": scalar_config(fast_context_switch=True)},
        {"backend": "statevector"},
    ], ids=["two-processors", "fetch-width-4", "fast-switch",
            "statevector"])
    def test_folds_decline_off_one_scalar_sign_core(self, cell):
        kwargs = {"backend": "stabilizer", "n_qubits": 2, **cell}
        config = kwargs.pop("config", scalar_config())
        program = active_reset_program()
        reference = ShotEngine(program,
                               config=config.with_(trace_cache=False),
                               **kwargs)
        expected = self.per_seed(reference)
        for how in ("serial", "run"):
            engine = ShotEngine(program, config=config, **kwargs)
            assert self.per_seed(engine, how) == expected, how
            assert engine.trace_cache.folds == 0, how


def surface_memory():
    """The d=3 surface memory (2 rounds), its layout and engine
    arguments."""
    from repro.benchlib.surface import (build_surface_memory_program,
                                        surface_layout,
                                        surface_noise_model)
    layout = surface_layout(3)
    return layout, build_surface_memory_program(3, rounds=2), dict(
        backend="stabilizer", n_qubits=layout.n_qubits,
        noise=surface_noise_model())


class TestQuietRestart:
    """Restart at a quiet MRCE from a snapshot, rejoin at the next one.

    Every engine must agree per seed with the cycle-accurate model
    (``trace_cache=False``), serially and in cohorts.
    """

    SHOTS = 64
    #: Logical errors of the d=3 memory over seeds 0..63 (the
    #: cycle-accurate model's; every engine must reproduce them).
    GOLDEN_D3_LOGICAL_ERRORS_64 = 4

    def per_seed(self, engine, how="run"):
        return served(engine, range(self.SHOTS), how)

    @pytest.mark.parametrize("how, changes", [
        ("serial", {}),
        (7, {}),
        (64, {}),
        ("run", {"trace_cache_max_nodes": 4}),
    ], ids=["serial", "width-7", "width-64", "lru-4"])
    def test_surface_memory_restarts_and_rejoins(self, how, changes):
        from repro.benchlib.surface import decode_logical_z
        layout, program, kwargs = surface_memory()
        reference = ShotEngine(program, config=QCPConfig(trace_cache=False),
                               **kwargs)
        expected = self.per_seed(reference)
        engine = ShotEngine(program, config=QCPConfig(**changes), **kwargs)
        results = self.per_seed(engine, how)
        assert results == expected
        assert sum(decode_logical_z(layout, bits) for bits, _ in
                   results) == self.GOLDEN_D3_LOGICAL_ERRORS_64
        cache = engine.trace_cache
        assert cache.restarts > 0 and cache.rejoins > 0
        assert cache.hits + cache.misses == self.SHOTS
        assert cache.resumes <= cache.misses

    @pytest.mark.parametrize("decision", [0, 7, 8, 15],
                             ids=["first", "round-end", "round-start",
                                  "last"])
    def test_snapshot_restores_across_fold_shifted_shots(self, decision):
        """One shot's snapshot at a quiet MRCE restarts every other
        shot there, at that shot's own decision time.

        Each cycle-accurate shot keeps, at its ``decision``-th quiet
        MRCE, the control-stack snapshot, its own QPU state (tableau
        and both rngs), its delivered bits and its decision time.  Shot
        B restarted from shot A's snapshot must end exactly as B's
        full run: same ``total_ns``, same outcomes.  Decisions 7 and 8
        end and start the d=3 memory's second round.
        """
        from repro.qcp.system import QuAPESystem
        _layout, program, kwargs = surface_memory()
        engine = ShotEngine(program, config=QCPConfig(trace_cache=False),
                            **kwargs)
        qpu = engine._qpu
        shots = []
        for seed in range(8):
            points = []

            def keep(system, points=points):
                delivered = {}
                for delivery in system.results.history:
                    delivered[delivery.qubit] = delivery.value
                points.append((system.snapshot(), system.kernel.now,
                               delivered, qpu.state.snapshot(),
                               qpu._rng.getstate(),
                               qpu.noise.rng.getstate()))
            system = QuAPESystem(
                program=program, config=engine.config, qpu=qpu,
                n_qubits=engine.n_qubits, memory=engine.memory,
                table=engine.table, channel_map=engine.channel_map,
                recorder=[], on_quiet=keep)
            qpu.restart(seed=seed)
            total = system.run().total_ns
            system.kernel.run()
            last = {}
            for delivery in system.results.history:
                last[delivery.qubit] = delivery.value
            shots.append((points[decision], last, total))
        times = {point[1] for point, _last, _total in shots}
        # Past the first decision, some shots took shifted Pauli arms.
        assert len(times) == 1 if decision == 0 else len(times) > 1
        for donor, _last, _total in shots:
            for (point, last, total) in shots:
                _snapshot, now, delivered, tableau, rng, nrng = point
                delivered = dict(delivered)
                qpu.restart()
                qpu.state.restore(tableau)
                qpu._rng.setstate(rng)
                qpu.noise.rng.setstate(nrng)
                system = QuAPESystem(
                    program=program, config=engine.config, qpu=qpu,
                    n_qubits=engine.n_qubits, memory=engine.memory,
                    table=engine.table, channel_map=engine.channel_map)
                system.restore(donor[0], now, delivered)
                _core, scheduler, valid = donor[0]
                assert system.results.valid_mask() == valid
                assert system.scheduler.snapshot() == scheduler
                assert system.run().total_ns == total
                system.kernel.run()
                for delivery in system.results.history:
                    delivered[delivery.qubit] = delivery.value
                assert delivered == last

    def test_handover_fails_closed_on_a_tableau_mismatch(self,
                                                         monkeypatch):
        """A live x/z that is not the node's exit model never rejoins:
        the run goes on to the end, and every shot stays exact."""
        from repro.qcp.tracecache import TraceCache
        compiled = TraceCache._exit_model

        def flipped(self, node, state, noise):
            x, z = compiled(self, node, state, noise)
            # Row 0's X bit on qubit 0.
            return (x[0] ^ 1,) + x[1:], z
        monkeypatch.setattr(TraceCache, "_exit_model", flipped)
        _layout, program, kwargs = surface_memory()
        reference = ShotEngine(program, config=QCPConfig(trace_cache=False),
                               **kwargs)
        engine = ShotEngine(program, config=QCPConfig(), **kwargs)
        assert self.per_seed(engine, "serial") == self.per_seed(reference)
        cache = engine.trace_cache
        assert cache.restarts > 0 and cache.folds > 0
        assert cache.rejoins == 0

    def test_handover_fails_closed_on_a_quiet_signature_mismatch(
            self, monkeypatch):
        """A live quiet signature that is not the node's never rejoins:
        the run goes on to the end, and every shot stays exact."""
        hand_over = TraceRecorder._hand_over
        offered = []

        def elsewhere(self, system, node):
            # The run stands at the node's decision on another stall.
            offered.append(node)
            entry = self.stream[-1]
            self.stream[-1] = entry[:5] + ((entry[5], "elsewhere"),)
            try:
                return hand_over(self, system, node)
            finally:
                self.stream[-1] = entry
        monkeypatch.setattr(TraceRecorder, "_hand_over", elsewhere)
        self.assert_never_rejoins(offered)

    def test_handover_fails_closed_when_the_epilogue_finds_no_edge(
            self, monkeypatch):
        """A hand-over whose epilogue finds no recorded edge never
        rejoins: the run goes on, and every shot stays exact."""
        hand_over = TraceRecorder._hand_over
        offered = []

        def no_edge(self, system, node):
            offered.append(node)
            cache = self.cache
            cache._epilogue = lambda node, ctx: None
            try:
                return hand_over(self, system, node)
            finally:
                del cache._epilogue
        monkeypatch.setattr(TraceRecorder, "_hand_over", no_edge)
        self.assert_never_rejoins(offered)

    def assert_never_rejoins(self, offered):
        """Serve the active-reset program's seeds: each shot exact, a
        hand-over ``offered`` and declined every time."""
        program = active_reset_program()
        kwargs = dict(backend="stabilizer", n_qubits=2)
        reference = ShotEngine(program,
                               config=scalar_config(trace_cache=False),
                               **kwargs)
        engine = ShotEngine(program, config=scalar_config(), **kwargs)
        assert self.per_seed(engine, "serial") == self.per_seed(reference)
        cache = engine.trace_cache
        assert offered and cache.restarts > 0 and cache.folds > 0
        assert cache.rejoins == 0

    def test_restart_keeps_earlier_results_valid(self):
        """A result delivered before the restart node stays readable:
        the MRCE on q1 resolves synchronously after the restarts."""
        builder = ProgramBuilder("early_result")
        builder.qop("h", [1], timing=2)
        builder.qmeas(1, timing=2)
        for _ in range(3):
            builder.qop("h", [0], timing=2)
            builder.qmeas(0, timing=2)
            builder.mrce(0, 0, op_if_zero="i", op_if_one="x")
        builder.mrce(1, 2, op_if_zero="i", op_if_one="x")
        for qubit in range(3):
            builder.qmeas(qubit, timing=4)
        builder.halt()
        program = builder.build()
        kwargs = dict(backend="stabilizer", n_qubits=3)
        reference = ShotEngine(program,
                               config=scalar_config(trace_cache=False),
                               **kwargs)
        engine = ShotEngine(program, config=scalar_config(), **kwargs)
        assert self.per_seed(engine, "serial") == self.per_seed(reference)
        assert engine.trace_cache.restarts > 0

    def test_rejoined_replay_reads_live_registers(self, monkeypatch):
        """Branches after the rejoin point read a register and a shared
        word written before it: the hand-over loads the live register
        file and shared words."""
        from repro.qcp.tracecache import TraceCache
        handed = []
        rejoin = TraceCache.rejoin

        def spy(self, recorder, qpu):
            ctx = recorder.handover[1]
            handed.append((ctx.proc(0).registers.read(7),
                           ctx.shared.read(5)))
            return rejoin(self, recorder, qpu)
        monkeypatch.setattr(TraceCache, "rejoin", spy)
        builder = ProgramBuilder("live_register")
        builder.ldi(7, 1)
        builder.stm(7, 5)
        for _ in range(3):
            builder.qop("h", [0], timing=2)
            builder.qmeas(0, timing=2)
            builder.mrce(0, 0, op_if_zero="i", op_if_one="x")
        builder.qop("h", [1], timing=2)
        builder.qmeas(1, timing=2)
        builder.fmr(1, 1)
        builder.ldm(6, 5)
        for target, register in ((2, 7), (3, 6)):
            skip = builder.fresh_label("skip")
            builder.beq(1, register, skip)
            builder.qop("x", [target], timing=2)
            builder.label(skip)
        for qubit in range(4):
            builder.qmeas(qubit, timing=4)
        builder.halt()
        program = builder.build()
        kwargs = dict(backend="stabilizer", n_qubits=4)
        reference = ShotEngine(program,
                               config=scalar_config(trace_cache=False),
                               **kwargs)
        engine = ShotEngine(program, config=scalar_config(), **kwargs)
        assert self.per_seed(engine, "serial") == self.per_seed(reference)
        assert engine.trace_cache.rejoins > 0
        assert handed and set(handed) == {(1, 1)}

    @pytest.mark.parametrize("label", [1, 5])
    def test_translation_counterexample_never_rejoins(self, label):
        program = translation_counterexample(label)
        kwargs = dict(backend="stabilizer", n_qubits=4)
        reference = ShotEngine(program,
                               config=scalar_config(trace_cache=False),
                               **kwargs)
        expected = self.per_seed(reference)
        engine = ShotEngine(program, config=scalar_config(), **kwargs)
        assert self.per_seed(engine) == expected
        cache = engine.trace_cache
        assert cache.folds == cache.rejoins == 0

    def test_classical_write_before_quiet_mrce_takes_no_snapshot(self):
        builder = ProgramBuilder("classical_first")
        builder.ldi(4, 5)
        for _ in range(4):
            builder.qop("h", [0], timing=2)
            builder.qop("cnot", [0, 1], timing=2)
            builder.qmeas(0, timing=2)
            builder.mrce(0, 0, op_if_zero="i", op_if_one="x")
        for qubit in range(2):
            builder.qmeas(qubit, timing=4)
        builder.halt()
        program = builder.build()
        kwargs = dict(backend="stabilizer", n_qubits=2)
        reference = ShotEngine(program,
                               config=scalar_config(trace_cache=False),
                               **kwargs)
        engine = ShotEngine(program, config=scalar_config(), **kwargs)
        assert self.per_seed(engine, "serial") == self.per_seed(reference)
        cache = engine.trace_cache
        assert cache.restarts == 0
        assert cache.folds > 0 and cache.rejoins > 0
        assert all(node.snapshot is None for node in path_nodes(cache))

    def test_active_reset_restarts_on_one_scalar_sign_core(self):
        program = active_reset_program()
        kwargs = dict(backend="stabilizer", n_qubits=2)
        reference = ShotEngine(program,
                               config=scalar_config(trace_cache=False),
                               **kwargs)
        engine = ShotEngine(program, config=scalar_config(), **kwargs)
        assert self.per_seed(engine, "serial") == self.per_seed(reference)
        cache = engine.trace_cache
        assert cache.restarts > 0 and cache.rejoins > 0
        assert cache.hits + cache.misses == self.SHOTS

    @pytest.mark.parametrize("cell", [
        {"n_processors": 2},
        {"config": scalar_config(fetch_width=4, buffer_capacity=8)},
        {"config": scalar_config(fast_context_switch=True)},
        {"backend": "statevector"},
    ], ids=["two-processors", "fetch-width-4", "fast-switch",
            "statevector"])
    def test_no_restart_off_one_scalar_sign_core(self, cell):
        kwargs = {"backend": "stabilizer", "n_qubits": 2, **cell}
        config = kwargs.pop("config", scalar_config())
        program = active_reset_program()
        reference = ShotEngine(program,
                               config=config.with_(trace_cache=False),
                               **kwargs)
        expected = self.per_seed(reference)
        for how in ("serial", "run"):
            engine = ShotEngine(program, config=config, **kwargs)
            assert self.per_seed(engine, how) == expected, how
            cache = engine.trace_cache
            assert cache.restarts == cache.rejoins == 0, how
            assert all(node.snapshot is None
                       for node in path_nodes(cache)), how


def run_stream(engine, seed):
    """``seed``'s cycle-accurate run from t = 0 as the stream a
    :class:`TraceRecorder` consumes (its :class:`RecordingQPU` and its
    control stack append to it), and the run's total time."""
    stream = []
    system = engine._system(RecordingQPU(engine._shot_qpu(seed), stream),
                            stream)
    return stream, system.run().total_ns


def record_stream(cache, stream, total_ns):
    """Record a run from t = 0 into ``cache``, as a cold shot is."""
    recorder = TraceRecorder.start(cache, None)
    recorder.stream.extend(stream)
    cache.record(recorder, total_ns)


def later(entry, delta_ns):
    """A stream entry ``delta_ns`` later."""
    if entry[0] == REC_MEAS:
        return entry[:2] + (entry[2] + delta_ns,) + entry[3:]
    if entry[0] in (REC_GATE, REC_RESET, REC_MDEC):
        return entry[:4] + (entry[4] + delta_ns,) + entry[5:]
    return entry


class TestRecordingFailsClosed:
    """A recording that contradicts the trie raises
    :class:`TraceDivergenceError`, and the trie it checked goes on
    serving exact shots.

    Each case records a real run of the folded two-round active reset,
    its stream changed to contradict the trie.
    """

    SEEDS = range(32)

    def folded(self):
        """A folding engine that served :attr:`SEEDS` exactly, and its
        per-seed results."""
        program = active_reset_program(rounds=2)
        kwargs = dict(backend="stabilizer", n_qubits=2)
        reference = ShotEngine(program,
                               config=scalar_config(trace_cache=False),
                               **kwargs)
        engine = ShotEngine(program, config=scalar_config(), **kwargs)
        expected = served(reference, self.SEEDS, "serial")
        assert served(engine, self.SEEDS, "serial") == expected
        assert engine.trace_cache.folds == 2
        return engine, expected

    def assert_raises(self, engine, expected, stream, total_ns, match):
        cache = engine.trace_cache
        nodes = cache.nodes
        with pytest.raises(TraceDivergenceError, match=match):
            record_stream(cache, stream, total_ns)
        assert cache.nodes == nodes
        assert served(engine, self.SEEDS, "serial") == expected

    def test_a_decision_the_trie_did_not_record_raises(self):
        engine, expected = self.folded()
        stream, total_ns = run_stream(engine, 0)
        record_stream(engine.trace_cache, stream, total_ns)  # it verifies
        # The run's last MRCE resolves as a branch instead.
        last = max(index for index, entry in enumerate(stream)
                   if entry[0] == REC_MDEC)
        stream[last] = (REC_DEC, 0, None, 1)
        self.assert_raises(engine, expected, stream, total_ns,
                           "where the trie recorded")

    @pytest.mark.parametrize("change", ["no-pauli", "late"])
    def test_a_pauli_arm_that_is_not_a_translate_raises(self, change):
        engine, expected = self.folded()
        fold = engine.trace_cache.root.fold
        for seed in self.SEEDS:
            stream, total_ns = run_stream(engine, seed)
            first = next(index for index, entry in enumerate(stream)
                         if entry[0] == REC_MDEC)
            if stream[first][2] == fold.edge:
                break
        record_stream(engine.trace_cache, stream, total_ns)  # it verifies
        pauli = first + 1
        assert stream[pauli][:4] == fold.op
        if change == "no-pauli":
            del stream[pauli]
        else:
            # The Pauli arm runs 1 ns later than the fold's delta.
            stream[pauli:] = [later(entry, 1) for entry in stream[pauli:]]
            total_ns += 1
        self.assert_raises(engine, expected, stream, total_ns,
                           "not the identity arm plus the Pauli")


class TestGraft:
    """A fold merges its Pauli arm's recorded subtree into the identity
    arm's: exact where the two agree, :class:`TraceDivergenceError`
    where they do not.

    A folding engine folds an MRCE when its second arm closes, so the
    arm it just recorded is one segment; these cases record the
    two-round active reset with folding off, so both arms of every
    MRCE hold recorded subtrees, and fold by hand.
    """

    SEEDS = range(32)

    def unfolded(self):
        """An engine whose trie holds every path of the two-round
        active reset unfolded, and its cycle-accurate reference."""
        program = active_reset_program(rounds=2)
        kwargs = dict(backend="stabilizer", n_qubits=2)
        reference = ShotEngine(program,
                               config=scalar_config(trace_cache=False),
                               **kwargs)
        engine = ShotEngine(program, config=scalar_config(), **kwargs)
        cache = engine.trace_cache
        cache.folding = False
        assert (served(engine, self.SEEDS, "serial")
                == served(reference, self.SEEDS, "serial"))
        assert cache.nodes == 7 and cache.folds == 0
        return engine, reference

    def assert_serves_exactly(self, engine, reference):
        """Later shots on the grafted trie, folding again, are exact
        and never miss."""
        cache = engine.trace_cache
        cache.folding = True
        misses = cache.misses
        seeds = range(32, 96)
        assert (served(engine, seeds, "serial")
                == served(reference, seeds, "serial"))
        assert cache.misses == misses

    def test_merges_two_recorded_subtrees(self):
        engine, reference = self.unfolded()
        cache = engine.trace_cache
        root = cache.root
        identity = root.children[0]
        cache._fold(root)
        # The x arm's two leaves merged into the identity arm's.
        assert root.fold.edge == 1 and list(root.children) == [0]
        assert cache.nodes == 4 and sorted(identity.children) == [0, 1]
        self.assert_serves_exactly(engine, reference)

    def test_relabels_a_folded_destinations_own_pauli_arm(self):
        engine, reference = self.unfolded()
        cache = engine.trace_cache
        root = cache.root
        identity, pauli = root.children[0], root.children[1]
        cache._fold(pauli)
        assert pauli.fold is not None and identity.fold is None
        cache._fold(root)
        # The identity arm took the Pauli arm's fold, and its own x arm
        # merged into its identity arm.
        assert identity.fold.edge == 1 and list(identity.children) == [0]
        assert cache.nodes == 3
        self.assert_serves_exactly(engine, reference)

    def test_joins_a_wider_live_set_into_its_mate(self):
        # Live sets only grow: a grafted arm whose decision point needs
        # a location its mate's does not widens the mate's set, and the
        # mate's compiled program is dropped to recompile from it.
        engine, reference = self.unfolded()
        cache = engine.trace_cache
        root = cache.root
        identity, pauli = root.children[0], root.children[1]
        assert identity.live is None and identity._program is not None
        pauli.live = frozenset({(0, 3)})
        cache._fold(root)
        assert identity.live == pauli.live and identity._program is None
        self.assert_serves_exactly(engine, reference)

    @pytest.mark.parametrize("change, match", [
        ("leaf-time", "subtree that disagrees"),
        ("segment", "segment that disagrees"),
        ("fold", "two folds of one decision disagree"),
    ], ids=["leaf-time", "segment", "fold"])
    def test_raises_where_the_arms_disagree(self, change, match):
        engine, _reference = self.unfolded()
        cache = engine.trace_cache
        root = cache.root
        identity, pauli = root.children[0], root.children[1]
        leaf = pauli.children[0]
        if change == "leaf-time":
            leaf.total_ns += 1
        elif change == "segment":
            leaf.items = leaf.items[1:]
        else:
            cache._fold(identity)
            cache._fold(pauli)
            pauli.fold.delta_ns += 1
        with pytest.raises(TraceDivergenceError, match=match):
            cache._fold(root)
