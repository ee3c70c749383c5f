"""Checkpoint-resume and eviction edge cases of the trace cache.

Targets the corners of the divergence-frontier machinery: divergence
at the *very first* decision (a prefix with no gates at all),
checkpoint outcome streams that end exactly at — or, pathologically,
before — a prefix measurement, and LRU eviction racing the extension
of the current path.
"""

from __future__ import annotations

import pytest

from repro.isa.builder import ProgramBuilder
from repro.qcp import ShotEngine, scalar_config
from repro.qcp.tracecache import RecordingQPU, TraceDivergenceError
from repro.qpu.device import SimulatedQPU
from repro.qpu.noise import NoiseModel, ReadoutError


def first_decision_program():
    """A measure-then-branch with *zero gates* before the decision.

    The shared prefix of any resume consists of exactly one device
    operation (the measurement itself): the smallest possible
    divergence frontier.
    """
    builder = ProgramBuilder("first-decision")
    builder.qmeas(0, timing=2)
    builder.fmr(1, 0)
    skip = builder.fresh_label("skip")
    builder.beq(1, 0, skip)
    builder.qop("x", [1], timing=2)
    builder.label(skip)
    builder.qmeas(1, timing=2)
    builder.halt()
    return builder.build()


def readout_noise() -> NoiseModel:
    """High readout error: the only randomness, so the first decision
    diverges across seeds even though the state is deterministic."""
    return NoiseModel(readout=ReadoutError(p0_given_1=0.4,
                                           p1_given_0=0.4))


class TestZeroGatePrefixDivergence:
    @pytest.mark.parametrize("backend", ("statevector", "stabilizer"))
    def test_divergence_at_first_decision(self, backend):
        program = first_decision_program()
        cached = ShotEngine(program, backend=backend, n_qubits=2,
                            noise=readout_noise())
        uncached = ShotEngine(program,
                              config=scalar_config(trace_cache=False),
                              backend=backend, n_qubits=2,
                              noise=readout_noise())
        results = [cached.run_shot(seed) for seed in range(30)]
        assert results == [uncached.run_shot(seed) for seed in range(30)]
        cache = cached.trace_cache
        # Both branch edges get explored, so at least one shot after
        # the cold miss diverged at the first decision and resumed
        # behind a one-op (zero-gate) prefix.
        assert cache.resumes > 0
        assert len(cache.root.children) == 2
        # The root segment holds exactly the measurement.
        assert cache.root.devops == 1

    def test_second_shot_takes_other_edge_immediately(self):
        # Deterministically drive the two seeds down different edges:
        # seed 0 and the first seed whose delivered bit differs.
        program = first_decision_program()
        engine = ShotEngine(program, backend="stabilizer", n_qubits=2,
                            noise=readout_noise())
        first, _ = engine.run_shot(0)
        divergent_seed = None
        for seed in range(1, 50):
            outcome, _ = engine.run_shot(seed)
            if outcome[0] != first[0]:
                divergent_seed = seed
                break
        assert divergent_seed is not None
        cache = engine.trace_cache
        assert cache.resumes >= 1
        # Replay of both edges now hits.
        hits_before = cache.hits
        engine.run_shot(0)
        engine.run_shot(divergent_seed)
        assert cache.hits == hits_before + 2


class TestCheckpointOutcomeExhaustion:
    """A t = 0 re-run's recorded-outcome stream ends mid-prefix: the
    run's :class:`RecordingQPU` skips ``skip_ops`` device operations
    and serves ``outcomes`` for the prefix measurements."""

    def make_qpu(self):
        return SimulatedQPU(2, seed=1, backend="statevector")

    def test_prefix_boundary_at_final_measurement(self):
        # The last skipped op is a measurement: its recorded bit is
        # served, and the very next measurement samples live.
        qpu = self.make_qpu()
        recorded = []
        proxy = RecordingQPU(qpu, recorded, skip_ops=2, outcomes=[1])
        proxy.apply_gate(0, "h", (0,))          # skipped
        assert proxy.measure(10, 0) == 1        # skipped, recorded bit
        assert len(qpu.operation_log) == 0      # nothing reached it
        value = proxy.measure(20, 0)            # live
        assert value in (0, 1)
        assert len(qpu.operation_log) == 1
        # The skipped prefix is recorded like the live suffix.
        assert recorded == [("gate", "h", (0,), (), 0), ("meas", 0, 10, 1),
                            ("meas", 0, 20, value)]

    def test_exhausted_outcomes_mid_measure_raises(self):
        # A prefix that re-issues more measurements than the replay
        # delivered means the trie and the re-run disagree; the proxy
        # must fail loudly instead of serving garbage.
        qpu = self.make_qpu()
        proxy = RecordingQPU(qpu, [], skip_ops=3, outcomes=[0])
        proxy.apply_gate(0, "h", (0,))          # skipped
        assert proxy.measure(10, 0) == 0        # consumes the only bit
        with pytest.raises(TraceDivergenceError):
            proxy.measure(20, 1)                # still skipping: no bit

    def test_reset_counts_as_skipped_op(self):
        qpu = self.make_qpu()
        proxy = RecordingQPU(qpu, [], skip_ops=1, outcomes=[])
        proxy.reset(0, 0)                       # skipped
        assert len(qpu.operation_log) == 0
        proxy.reset(10, 0)                      # live
        assert len(qpu.operation_log) == 1


def coin_reset_program(rounds: int = 3):
    """Fair coins on q0, each reset through an MRCE: on one scalar
    sign core the MRCEs fold, and misses restart at them."""
    builder = ProgramBuilder("coin-reset")
    for _ in range(rounds):
        builder.qop("h", [0], timing=2)
        builder.qmeas(0, timing=2)
        builder.mrce(0, 0, op_if_zero="i", op_if_one="x")
    builder.qmeas(0, timing=4)
    builder.halt()
    return builder.build()


class TestOneProxyPerRun:
    """Every simulator run of a cached shot drives the device through
    exactly one :class:`RecordingQPU`, cold, resumed from t = 0 (the
    proxy then skips the replayed prefix) or restarted at a node."""

    @pytest.mark.parametrize("backend", ("statevector", "stabilizer"))
    def test_resumed_runs_skip_inside_the_recording_proxy(self, backend):
        engine = ShotEngine(first_decision_program(), backend=backend,
                            n_qubits=2, noise=readout_noise())
        skips = self.run_devices(engine, range(30))
        assert engine.trace_cache.resumes > 0
        assert skips[0] == 0 and any(skips[1:])

    def test_restarted_runs_skip_nothing(self):
        engine = ShotEngine(coin_reset_program(), config=scalar_config(),
                            backend="stabilizer", n_qubits=1)
        skips = self.run_devices(engine, range(30))
        # Every run after the cold one restarts at a node.
        assert engine.trace_cache.restarts == len(skips) - 1 > 0
        assert not any(skips)

    def run_devices(self, engine, seeds) -> list:
        """Serve ``seeds``; each run's device must be one recording
        proxy around the engine's QPU.  Returns each run's skip count
        at its start."""
        skips = []
        system = engine._system

        def spy(qpu, *args):
            assert type(qpu) is RecordingQPU, type(qpu)
            assert qpu._inner is engine._qpu
            skips.append(qpu._skip)
            return system(qpu, *args)
        engine._system = spy
        reference = ShotEngine(engine.program,
                               config=scalar_config(trace_cache=False),
                               backend=engine.backend,
                               n_qubits=engine.n_qubits,
                               noise=engine._qpu.noise)
        assert ([engine.run_shot(seed) for seed in seeds]
                == [reference.run_shot(seed) for seed in seeds])
        assert len(skips) >= engine.trace_cache.misses
        return skips


def fair_coin_program():
    builder = ProgramBuilder("faircoin")
    retry = builder.label("retry")
    builder.qop("h", [0])
    builder.qmeas(0, timing=2)
    builder.fmr(1, 0)
    builder.bne(1, 0, retry)
    builder.halt()
    return builder.build()


class TestEvictionDuringExtension:
    """LRU eviction of sibling subtrees while the current path grows."""

    def trie_size(self, cache) -> int:
        count = 0
        stack = [cache.root] if cache.root is not None else []
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def test_sibling_subtree_evicted_while_path_extends(self):
        program = fair_coin_program()
        config = scalar_config(trace_cache_max_nodes=6)
        cached = ShotEngine(program, config=config,
                            backend="stabilizer", n_qubits=1)
        uncached = ShotEngine(program,
                              config=scalar_config(trace_cache=False),
                              backend="stabilizer", n_qubits=1)
        results = [cached.run_shot(seed) for seed in range(200)]
        assert results == [uncached.run_shot(seed)
                           for seed in range(200)]
        cache = cached.trace_cache
        assert cache.evictions > 0
        assert cache.nodes <= 6
        # The bookkeeping (nodes counter, LRU list, parent pointers)
        # stays consistent with the actual trie after heavy churn.
        assert self.trie_size(cache) == cache.nodes

    def test_evicted_path_rerecords_and_replays(self):
        program = fair_coin_program()
        config = scalar_config(trace_cache_max_nodes=6)
        engine = ShotEngine(program, config=config,
                            backend="stabilizer", n_qubits=1)
        first = [engine.run_shot(seed) for seed in range(100)]
        # Replaying the same seeds after churn: evicted paths simply
        # re-record (misses), everything stays bit-identical.
        second = [engine.run_shot(seed) for seed in range(100)]
        assert second == first

    def test_current_path_survives_eviction(self):
        program = fair_coin_program()
        config = scalar_config(trace_cache_max_nodes=4)
        engine = ShotEngine(program, config=config,
                            backend="stabilizer", n_qubits=1)
        for seed in range(120):
            engine.run_shot(seed)
            cache = engine.trace_cache
            # The just-executed shot's path carries the newest stamp
            # and is never evicted: its leaf must still be reachable.
            node = cache.root
            assert node is not None and node.items is not None
            assert self.trie_size(cache) == cache.nodes

    def test_bound_smaller_than_live_path_is_best_effort(self):
        # A bound smaller than the deepest retry chain cannot hold:
        # the current shot's path is never evicted, so after each
        # overflow only that path (plus its unexplored sibling edges)
        # survives — and everything stays consistent and
        # bit-identical through the churn.
        program = fair_coin_program()
        config = scalar_config(trace_cache_max_nodes=3)
        engine = ShotEngine(program, config=config,
                            backend="stabilizer", n_qubits=1)
        uncached = ShotEngine(program,
                              config=scalar_config(trace_cache=False),
                              backend="stabilizer", n_qubits=1)
        results = [engine.run_shot(seed) for seed in range(150)]
        assert results == [uncached.run_shot(seed)
                           for seed in range(150)]
        cache = engine.trace_cache
        assert cache.evictions > 0
        assert self.trie_size(cache) == cache.nodes
        # Whatever survived the final eviction pass is one root path
        # with at most one *recorded* child per node (sibling
        # subtrees are the first to go; unexplored single-node edges
        # may linger under the bound's accounting).
        deepest = 0
        node = engine.trace_cache.root
        while node is not None:
            deepest += 1
            recorded = [child for child in node.children.values()
                        if child.items is not None]
            assert len(recorded) <= 1
            node = recorded[0] if recorded else None
        assert cache.nodes <= 2 * deepest  # path + unexplored edges
