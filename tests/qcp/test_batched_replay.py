"""Unit tests for shot-batched trace-cache replay.

The differential fuzzer (`tests/integration/test_fuzz_differential.py`)
owns the bit-identity contract; these tests pin the batched machinery
piece by piece — the CLI summary, the rng draw basis, the cohort
state objects and the wavefront counters — so a regression points at
the broken part instead of at "the histogram differs".  Serial
replay and narrow cohorts are reached through
:func:`tests.replay_paths.served`.
"""

from __future__ import annotations

import _random
import random
import types
from collections import Counter

import numpy as np
import pytest

from repro.cli import main
from repro.isa.builder import ProgramBuilder
from repro.qcp import QCPConfig, ShotEngine, scalar_config
from repro.qcp.decode import K_CLASSICAL
from repro.qcp.shots import ShardOutcomes, outcome_key
from repro.qcp.tracecache import (_D_BRANCH, _CohortState, _coin_words,
                                  auto_batch_width)
from repro.qpu.noise import (DecoherenceNoise, DepolarizingNoise,
                             NoiseModel, PauliChannel, ReadoutError)
from repro.qpu.stabilizer import StabilizerState
from repro.qpu.statevector import BatchStateVector, StateVector
from tests.replay_paths import expand, served

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def chain_program(rounds: int = 2):
    from repro.benchlib.repetition import build_repetition_chain_program

    return build_repetition_chain_program(3, rounds=rounds,
                                          encode_one=True)


def coin_program():
    """One fair coin, one data-dependent branch: splits every cohort."""
    builder = ProgramBuilder("coin")
    builder.qop("h", [0], timing=2)
    builder.qmeas(0, timing=2)
    builder.fmr(1, 0)
    skip = builder.fresh_label("skip")
    builder.beq(1, 0, skip)
    builder.qop("x", [1], timing=2)
    builder.label(skip)
    builder.qmeas(1, timing=2)
    builder.halt()
    return builder.build()


# -- CLI summary --------------------------------------------------------------


ASM = """
.block main prio=0
    qop 0, h, q0
    qop 2, cnot, q0, q1
    qmeas 4, q0
    qmeas 4, q1
    halt
.endblock
"""


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "bell.tqasm"
    path.write_text(ASM)
    return str(path)


def test_cli_batched_shots_prints_cohort_stats(asm_file, capsys):
    assert main(["run", asm_file, "--qpu", "stabilizer",
                 "--shots", "40"]) == 0
    out = capsys.readouterr().out
    assert "batched replay: 39 shots in lockstep cohorts" in out


# -- rng draw basis -----------------------------------------------------------


@pytest.mark.parametrize("draws", [1, 2, 18, 162])
def test_getrandbits_stream_is_random_draws(draws):
    """Sign cohorts draw a shot's measurement stream with one
    ``getrandbits(64 * k)``.  That must leave the rng where ``k``
    ``random()`` calls leave it, and draw ``i``'s ``random() < 0.5``
    must hold exactly when stream bit ``64 * i + 31`` is clear."""
    for seed in range(200):
        streamed = random.Random(seed)
        stream = streamed.getrandbits(64 * draws)
        serial = random.Random(seed)
        coins = [serial.random() < 0.5 for _ in range(draws)]
        assert streamed.getstate() == serial.getstate(), seed
        assert coins == [not (stream >> (64 * index + 31)) & 1
                         for index in range(draws)], seed


def test_lane_rng_is_random_random():
    """Cohorts seed each lane's measurement rng as ``_random.Random``,
    the generator ``random.Random`` wraps.  Seeded from the same int,
    both must give the same ``getrandbits`` stream, a Shor cohort's
    162 draws, and the same ``random()`` draws after it."""
    for seed in [*range(3000), 2**32 - 1, 2**32, 2**64 + 3]:
        lane, reference = _random.Random(seed), random.Random(seed)
        assert lane.getrandbits(10368) == \
            reference.getrandbits(10368), seed
        assert [lane.random() for _ in range(3)] == \
            [reference.random() for _ in range(3)], seed


def test_coin_words_transpose_the_streams():
    """Coin word ``d`` holds bit ``lane`` exactly when draw ``d`` of
    that lane's stream is a ``random() < 0.5``, at widths that do not
    fill a byte."""
    for width in (1, 7, 9, 64):
        rngs = [random.Random(seed) for seed in range(width)]
        streams = [rng.getrandbits(64 * 5) for rng in rngs]
        coins = _coin_words(streams, 5)
        serial = [random.Random(seed) for seed in range(width)]
        heads = [[rng.random() < 0.5 for _ in range(5)] for rng in serial]
        assert coins == [sum(1 << lane for lane in range(width)
                             if heads[lane][draw])
                         for draw in range(5)], width
    assert _coin_words([0, 0], 0) == []


# -- cohort classical state ---------------------------------------------------


def test_cohort_state_masked_write_keeps_other_lanes():
    state = _CohortState(0b1111, QCPConfig())
    state.write((0, 6), {5: 0b0011, 9: 0b1100}, 0b1111)
    # A sub-cohort's write touches only its own lanes.
    state.write((0, 6), {7: 0b0010}, 0b0010)
    assert state.read((0, 6), 0b1111) == {5: 0b0001, 9: 0b1100, 7: 0b0010}
    assert state.read((0, 6), 0b1000) == {9: 0b1000}


def test_cohort_state_never_written_location_reads_zero():
    state = _CohortState(0b1111, QCPConfig())
    assert state.read((2, 4), 0b0110) == {0: 0b0110}
    assert state.read(("shared", 9), 0b1111) == {0: 0b1111}
    # A write in some lanes leaves the rest of the cohort at 0.
    state.write((2, 4), {3: 0b0001}, 0b0001)
    assert state.read((2, 4), 0b1111) == {0: 0b1110, 3: 0b0001}


@pytest.mark.parametrize("left, right", [
    # Few values: refine combination masks pairwise.
    (lambda slot: slot % 2, lambda slot: slot % 3),
    # Many values on both sides: refine lane by lane.
    (lambda slot: slot % 5, lambda slot: slot // 3),
])
def test_cohort_state_combinations_partition_the_cohort(left, right):
    width = 64
    lanes = (1 << width) - 1
    state = _CohortState(lanes, QCPConfig())
    for location, value_of in (((0, 1), left), (("shared", 4), right)):
        partition: dict = {}
        for slot in range(width):
            value = value_of(slot)
            partition[value] = partition.get(value, 0) | 1 << slot
        state.write(location, partition, lanes)
    cohort = lanes & ~0b101  # a sub-cohort without lanes 0 and 2
    combos = state.combinations(((0, 1), ("shared", 4)), cohort)
    covered = 0
    for values, mask in combos:
        assert mask and not mask & covered
        covered |= mask
        for slot in range(width):
            if (mask >> slot) & 1:
                assert values == (left(slot), right(slot))
    assert covered == cohort
    # One combination per distinct value pair present in the cohort.
    assert len(combos) == len({(left(slot), right(slot))
                               for slot in range(width)
                               if (cohort >> slot) & 1})


# -- cohort widths and batch state objects ------------------------------------


def test_auto_batch_width_by_substrate():
    stab = types.SimpleNamespace(state=StabilizerState(5))
    assert auto_batch_width(stab) == 256
    small_dense = types.SimpleNamespace(state=StateVector(3))
    assert auto_batch_width(small_dense) == 64
    big_dense = types.SimpleNamespace(state=StateVector(23))
    assert auto_batch_width(big_dense) == 1


def test_backend_batch_state_hook_fails_closed():
    # The tableau has no batch kernel of its own (sign-trace cohorts
    # live in bit-planes owned by the cache), so the base hook must
    # return None — the fail-closed default for any backend.
    assert StabilizerState(3).make_batch_state(8) is None
    batch = StateVector(3).make_batch_state(8)
    assert isinstance(batch, BatchStateVector)
    assert batch.width == 8


def lane_probabilities(batch, qubit):
    """Each lane's P(1) of ``qubit``, read through its row."""
    p_one = batch.probability_of_one(qubit)
    return [p_one[row] for row in batch.index]


def test_batch_state_vector_matches_serial_rows():
    batch = BatchStateVector(2, width=3)
    # Lanes 0 and 2 draw event 1, lane 1 event 0: lane 1 gets a copy.
    row_events, _ = batch.split([1, 0, 1])
    assert batch.index == [0, 1, 0] and row_events == [1, 0]
    batch.apply_matrix(H, (0,), rows=np.array([0], dtype=np.intp))
    assert lane_probabilities(batch, 0) == pytest.approx([0.5, 0.0, 0.5])
    sub = batch.take([2])
    assert sub.width == 1
    assert sub.probability_of_one(0) == pytest.approx([0.5])
    # take() gather-copies: collapsing the child leaves the parent.
    sub.collapse(0, np.array([1]), sub.probability_of_one(0))
    assert lane_probabilities(batch, 0) == pytest.approx([0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        BatchStateVector(2, width=0)


# -- wavefront counters and fast paths ----------------------------------------


def run_engine(program, backend="stabilizer", n_qubits=5, noise=None,
               shots=40, how="run"):
    """Per-seed results of ``shots`` seeds served ``how`` (see
    :func:`tests.replay_paths.served`), and the engine's cache."""
    engine = ShotEngine(program, config=scalar_config(),
                        backend=backend, n_qubits=n_qubits, noise=noise)
    return served(engine, range(shots), how), engine.trace_cache


def test_single_path_chain_batches_every_replayed_shot():
    result, cache = run_engine(chain_program())
    reference, serial_cache = run_engine(chain_program(), how="serial")
    assert result == reference
    # Shot 0 warms the trie serially; the other 39 replay in cohorts
    # that never split on the deterministic syndrome path.
    assert cache.batched_shots == 39
    assert cache.wavefront_splits == 0
    assert cache.serial_fallbacks == 0
    assert cache.hits + cache.misses == 40
    assert serial_cache.batched_shots == 0


def test_ideal_deterministic_cohort_holds_one_row(monkeypatch):
    # The ideal chain's measurements are deterministic, so no lane
    # ever draws apart from another: a full 64-lane dense cohort keeps
    # one amplitude row from the root to the leaf.
    from repro.qcp import tracecache

    reference, _ = run_engine(chain_program(), backend="statevector",
                              shots=65, how="serial")
    seen = []
    bind = tracecache._bind_cohort

    def watched(steps, n):
        def watch(step):
            def run(cohort):
                step(cohort)
                seen.append((cohort.batch.width,
                             len(cohort.batch.amplitudes)))
            return run
        return [watch(step) for step in bind(steps, n)]

    monkeypatch.setattr(tracecache, "_bind_cohort", watched)
    result, cache = run_engine(chain_program(), backend="statevector",
                               shots=65, how=64)
    assert result == reference
    assert cache.batched_shots == 64
    assert seen and set(seen) == {(64, 1)}


def test_width_one_cohorts_still_batch():
    result, cache = run_engine(chain_program(), how=1)
    reference, _ = run_engine(chain_program(), how="serial")
    assert result == reference
    assert cache.batched_shots == 39


def test_fair_coin_splits_wavefronts():
    reference, _ = run_engine(coin_program(), n_qubits=2, shots=60,
                              how="serial")
    # Shot 0 records one edge of the coin.  The first cohort splits at
    # it: its lanes on the recorded edge complete batched, the others
    # fall back to the serial loop (which records the second edge);
    # later cohorts find both edges and split without falling back.
    # A run after a cold start opens with a cohort of 2, so one shot
    # falls back where a full cohort would send back 31.
    # Every fallback resumes where its lane left: nothing an earlier
    # fallback recorded moved its frontier.
    for how, batched, splits, fallbacks in (("run", 58, 3, 1),
                                            (8, 54, 8, 5)):
        result, cache = run_engine(coin_program(), n_qubits=2, shots=60,
                                   how=how)
        assert result == reference, how
        assert (cache.hits, cache.misses, cache.resumes) == (58, 2, 1)
        assert (cache.batched_shots, cache.wavefront_splits,
                cache.serial_fallbacks) == (batched, splits, fallbacks)
        assert (cache.handoffs, cache.rewalks) == (fallbacks, 0), how


@pytest.mark.parametrize("backend", ["stabilizer", "statevector"])
def test_fallback_lanes_do_not_replay_from_the_root(backend, monkeypatch):
    # The fair coin's fallback resumes at the coin's node, where its
    # cohort left it: only the cold shot replays through
    # ``TraceCache.replay``.
    engine = ShotEngine(coin_program(), config=scalar_config(),
                        backend=backend, n_qubits=2)
    calls = served_by(engine, monkeypatch)
    reference, _ = run_engine(coin_program(), backend=backend, n_qubits=2,
                              shots=60, how="serial")
    assert served(engine, range(60)) == reference
    cache = engine.trace_cache
    assert calls["replay"] == [0]
    assert (cache.serial_fallbacks, cache.handoffs, cache.rewalks) == (
        1, 1, 0)



@pytest.mark.parametrize("program, n_qubits, cold_widths", [
    (chain_program(), 5, [2, 37]),
    (coin_program(), 2, [2, 4, 33]),
], ids=["one-path", "coin"])
def test_cohorts_grow_after_a_cold_start(program, n_qubits, cold_widths):
    # After the cold shot the cohorts open at 2 and double while any
    # shot falls back; the first cohort with no fallback, and every
    # cohort on a warm trie, is full width.
    engine = ShotEngine(program, config=scalar_config(),
                        backend="stabilizer", n_qubits=n_qubits)
    cache = engine.trace_cache
    replay_batch, widths = cache.replay_batch, []

    def logged(qpu, seeds):
        widths.append(len(seeds))
        return replay_batch(qpu, seeds)

    cache.replay_batch = logged
    reference, _ = run_engine(program, n_qubits=n_qubits, shots=80,
                              how="serial")
    assert served(engine, range(40)) == reference[:40]
    assert widths == cold_widths
    widths.clear()
    assert served(engine, range(40, 80)) == reference[40:]
    assert widths == [40]

def test_readout_noise_keeps_cohorts_batched():
    noise = NoiseModel(pauli=PauliChannel(px=0.02),
                       readout=ReadoutError(p0_given_1=0.05,
                                            p1_given_0=0.03))
    result, cache = run_engine(chain_program(), noise=noise)

    def fresh_noise():
        return NoiseModel(pauli=PauliChannel(px=0.02),
                          readout=ReadoutError(p0_given_1=0.05,
                                               p1_given_0=0.03))

    reference, _ = run_engine(chain_program(), noise=fresh_noise(),
                              how="serial")
    assert result == reference
    assert cache.batched_shots > 0


def decoherent_noise():
    return NoiseModel(
        decoherence=DecoherenceNoise(t1_us=50.0, t2_us=30.0),
        readout=ReadoutError(p0_given_1=0.02, p1_given_0=0.01))


def test_decoherence_batches_in_cohorts():
    # Idle decay has a cohort kernel (BatchStateVector.apply_decay),
    # so decoherent substrates replay in cohorts — results unchanged.
    result, cache = run_engine(chain_program(), backend="statevector",
                               noise=decoherent_noise(), shots=20)
    reference, _ = run_engine(chain_program(), backend="statevector",
                              noise=decoherent_noise(), shots=20,
                              how="serial")
    assert result == reference
    assert cache.batched_shots > 0
    assert cache.hits + cache.misses == 20


def test_dense_ideal_chain_batches():
    result, cache = run_engine(chain_program(), backend="statevector")
    reference, _ = run_engine(chain_program(), backend="statevector",
                              how="serial")
    assert result == reference
    assert cache.batched_shots == 39


# -- cohort-level decisions ---------------------------------------------------


def wrap_closures(engine, wrap):
    """Replace each decoded classical micro-op ``run`` at ``pc`` by
    ``wrap(pc, run)`` before any shot records it."""
    decoded = engine.memory._decoded
    for pc, (kind, instr, payload) in enumerate(decoded):
        if kind == K_CLASSICAL:
            run, hoistable, eclass = payload
            decoded[pc] = (kind, instr,
                           (wrap(pc, run), hoistable, eclass))


def test_shor_cohort_runs_each_branch_once(monkeypatch):
    from repro.benchlib.steane import (N_QUBITS,
                                       build_shor_syndrome_program)
    from repro.qcp import tracecache

    engine = ShotEngine(build_shor_syndrome_program(rounds=1),
                        backend="stabilizer", n_processors=6,
                        n_qubits=N_QUBITS)
    calls: Counter = Counter()

    def counting(pc, run):
        def counted(proc):
            calls[pc] += 1
            return run(proc)
        counted.effects = run.effects
        counted.pc = pc
        return counted

    wrap_closures(engine, counting)
    engine.run_shot(0)  # cold: records the only decision path
    contexts = []

    class CountedContext(tracecache._ReplayContext):
        def __init__(self, config):
            contexts.append(self)
            super().__init__(config)

    monkeypatch.setattr(tracecache, "_ReplayContext", CountedContext)
    calls.clear()
    cache = engine.trace_cache
    seeds = list(range(1, 257))
    results = expand(seeds, cache.replay_batch(engine._qpu, seeds))
    assert all(result is not None for result in results)
    assert (cache.batched_shots, cache.wavefront_splits,
            cache.serial_fallbacks) == (256, 0, 0)
    branches = []
    node = cache.root
    while node.decision is not None:
        if node.decision[0] == _D_BRANCH:
            branches.append(node.decision[2].pc)
        (node,) = node.children.values()
    # The six verification branches decide once for the whole cohort;
    # no other micro-op is live on the path, and no shot gets a
    # classical context of its own.
    assert len(branches) == 6
    assert calls == Counter({pc: 1 for pc in branches})
    assert contexts == []


def test_dense_cohort_runs_each_branch_once_per_combination():
    """A dense cohort decides once per cohort, as a sign cohort does:
    over 64 shots the ``ldi`` closure runs once and the ``beq`` closure
    once per value ``r1`` holds, and every shot equals the
    cycle-accurate engine's."""
    builder = ProgramBuilder("dense_coin")
    builder.ldi(7, 1)
    builder.qop("h", [0], timing=2)
    builder.qmeas(0, timing=2)
    builder.fmr(1, 0)
    builder.beq(1, 7, "one")
    builder.qop("x", [1], timing=2)
    builder.label("one")
    builder.qmeas(1, timing=2)
    builder.halt()
    program = builder.build()
    engine = ShotEngine(program, config=scalar_config(),
                        backend="statevector", n_qubits=2)
    calls: Counter = Counter()

    def counting(pc, run):
        def counted(proc):
            calls[program.instructions[pc].opcode.name] += 1
            return run(proc)
        counted.effects = run.effects
        return counted

    wrap_closures(engine, counting)
    cache = engine.trace_cache
    for seed in range(20):  # warm the trie on both paths
        engine.run_shot(seed)
        if all(child.items is not None
               for child in cache.root.children.values()) and \
                len(cache.root.children) == 2:
            break
    assert sorted(cache.root.children) == [0, 1]
    calls.clear()
    seeds = list(range(100, 164))
    results = expand(seeds, cache.replay_batch(engine._qpu, seeds))
    assert calls["LDI"] == 1
    assert 1 <= calls["BEQ"] <= 2
    assert cache.wavefront_splits == 1
    uncached = ShotEngine(program, config=scalar_config(trace_cache=False),
                          backend="statevector", n_qubits=2)
    assert results == [uncached.run_shot(seed) for seed in seeds]


def test_shor_cohort_draws_each_stream_once(monkeypatch):
    from repro.benchlib.steane import (N_QUBITS,
                                       build_shor_syndrome_program)

    engine = ShotEngine(build_shor_syndrome_program(),
                        backend="stabilizer", n_processors=6,
                        n_qubits=N_QUBITS)
    engine.run_shot(0)
    cache = engine.trace_cache
    # The first cohort learns the path's draw count.
    cache.replay_batch(engine._qpu, list(range(1, 257)))
    rngs = []
    calls: Counter = Counter()

    class CountingRandom(_random.Random):
        # Seeded by __new__ on Python 3.10 and by __init__ after it:
        # counting in __new__ leaves both to the base class.
        def __new__(cls, seed):
            rng = super().__new__(cls, seed)
            rngs.append(rng)
            return rng

        def random(self):
            calls["random"] += 1
            return super().random()

        def getrandbits(self, k):
            calls["getrandbits"] += 1
            return super().getrandbits(k)

    monkeypatch.setattr(_random, "Random", CountingRandom)
    seeds = list(range(257, 513))
    results = expand(seeds, cache.replay_batch(engine._qpu, seeds))
    assert all(result is not None for result in results)
    # The ideal substrate seeds no noise rngs, so every rng is a
    # shot's measurement rng.  Drawn per op, a shot makes 162
    # random() calls (41,472 for the cohort).
    assert len(rngs) == 256
    assert calls["random"] == 0
    assert calls["getrandbits"] <= 256


def served_by(engine, monkeypatch):
    """Record the seeds each trace-cache entry point serves."""
    cache = engine.trace_cache
    calls = {"replay": [], "replay_batch": []}
    replay, replay_batch = cache.replay, cache.replay_batch

    def counted_replay(qpu, seed):
        calls["replay"].append(seed)
        return replay(qpu, seed)

    def counted_batch(qpu, seeds):
        calls["replay_batch"].extend(seeds)
        return replay_batch(qpu, seeds)

    monkeypatch.setattr(cache, "replay", counted_replay)
    monkeypatch.setattr(cache, "replay_batch", counted_batch)
    return calls


def shor_engine():
    from repro.benchlib.steane import (N_QUBITS,
                                       build_shor_syndrome_program)

    return ShotEngine(build_shor_syndrome_program(rounds=1),
                      backend="stabilizer", n_processors=6,
                      n_qubits=N_QUBITS)


def test_warm_range_first_seed_joins_its_cohort(monkeypatch):
    engine = shor_engine()
    engine.run_shot(0)  # records the only decision path
    calls = served_by(engine, monkeypatch)
    shard = engine.run_range(10, 50)
    assert calls == {"replay": [], "replay_batch": list(range(10, 50))}
    serial = ShardOutcomes(start=10, stop=50)
    for last_value, shot_ns in (engine.run_shot(seed)
                                for seed in range(10, 50)):
        serial.counts[outcome_key(last_value)] += 1
        serial.total_ns += shot_ns
    assert (shard.counts, shard.total_ns) == (serial.counts,
                                              serial.total_ns)


def test_cold_range_first_seed_runs_alone(monkeypatch):
    engine = shor_engine()
    calls = served_by(engine, monkeypatch)
    engine.run_range(10, 50)
    assert calls == {"replay": [10], "replay_batch": list(range(11, 50))}


def rus_engine(**changes):
    from repro.benchlib.rus import build_rus_blocks

    noise = NoiseModel(depolarizing=DepolarizingNoise(0.02),
                       pauli=PauliChannel(pz=0.01),
                       readout=ReadoutError(p0_given_1=0.03,
                                            p1_given_0=0.02))
    return ShotEngine(build_rus_blocks(2),
                      config=scalar_config(**changes),
                      backend="stabilizer", n_qubits=6, noise=noise)


def test_stream_offsets_and_over_draw_match_serial():
    """Repeat-until-success paths differ in length, so sub-cohorts
    carry their own stream offsets and top up short streams.  With no
    stream drawn up front, with the learned size and with far more
    than any path draws, every seed replays its serial result and the
    live QPU's rngs stay where they were."""
    seeds = list(range(300))
    reference = rus_engine(trace_cache=False)
    expected = [reference.run_shot(seed) for seed in seeds]
    engine = rus_engine()
    engine.run_range(0, 300)  # records every seed's path
    cache = engine.trace_cache
    qpu = engine._qpu

    def replay(hint):
        cache.stream_draws = hint
        before = (qpu.state.rng.getstate(), qpu.noise.rng.getstate())
        assert expand(seeds, cache.replay_batch(qpu, seeds)) == expected, \
            hint
        assert (qpu.state.rng.getstate(),
                qpu.noise.rng.getstate()) == before
        return cache.stream_draws

    learned = replay(0)
    assert 0 < learned < 100
    replay(learned)
    replay(1000)
    # The seeds take paths of different lengths.
    assert len({result[1] for result in expected}) > 1


def fold_program(coins: int = 8):
    """Coin bits folded by ``add`` into a many-valued ``blt`` operand.

    ``r6 = 2 * (r6 + coin)`` per coin leaves up to ``2**coins``
    distinct values in ``r6``, so a cohort's classical state carries
    registers with far more than two values, decided by an ordered
    comparator against ``r7``.
    """
    builder = ProgramBuilder("fold")
    builder.ldi(7, 1 << coins)
    for _ in range(coins):
        builder.qop("h", [0], timing=2)
        builder.qmeas(0, timing=2)
        builder.fmr(1, 0)
        builder.add(6, 6, 1)
        builder.add(6, 6, 6)
    builder.blt(6, 7, "low")
    builder.qop("x", [1], timing=2)
    builder.label("low")
    builder.qmeas(1, timing=2)
    builder.halt()
    return builder.build()


@pytest.mark.parametrize("backend", ["stabilizer", "statevector"])
@pytest.mark.parametrize("width", [7, 256])
def test_many_valued_registers_match_cycle_accurate(width, backend):
    program = fold_program()
    engine = ShotEngine(program, config=scalar_config(),
                        backend=backend, n_qubits=2)
    uncached = ShotEngine(program, config=scalar_config(trace_cache=False),
                          backend=backend, n_qubits=2)
    assert served(engine, range(300), width) == served(uncached,
                                                        range(300))
    assert engine.trace_cache.batched_shots > 0


@pytest.mark.parametrize("backend", ["stabilizer", "statevector"])
@pytest.mark.parametrize("opcode", ["BEQ", "ADDI"])
def test_micro_op_without_effects_fails_closed(opcode, backend):
    """A recorded closure without def/use sets — the coin's branch, or
    a classical op feeding it — sends every cohort reaching it to the
    serial path whole; results are unchanged.  A dense serial shot is
    a cohort of one, so it resumes cycle-accurately at the node's
    entry instead."""
    builder = ProgramBuilder("opaque_coin")
    builder.qop("h", [0], timing=2)
    builder.qmeas(0, timing=2)
    builder.fmr(1, 0)
    builder.addi(1, 1, 0)
    builder.beq(1, 0, "skip")
    builder.qop("x", [1], timing=2)
    builder.label("skip")
    builder.qmeas(1, timing=2)
    builder.halt()
    program = builder.build()
    reference, _ = run_engine(program, backend=backend, n_qubits=2,
                              shots=40, how="serial")
    engine = ShotEngine(program, config=scalar_config(),
                        backend=backend, n_qubits=2)

    def strip(pc, run):
        if program.instructions[pc].opcode.name != opcode:
            return run

        def opaque(proc):
            return run(proc)
        return opaque

    wrap_closures(engine, strip)
    assert served(engine, range(40)) == reference
    cache = engine.trace_cache
    # Shot 0 runs cold; the other 39 replay in cohorts that never
    # split, each falling back whole (so each is twice as wide).
    assert cache.serial_fallbacks == 39
    assert (cache.batched_shots, cache.wavefront_splits) == (0, 0)
    assert cache.hits + cache.misses == 40
    if backend == "statevector":
        # No dense shot replays through the opaque node: every one
        # after the cold shot resumes at its entry.
        assert (cache.hits, cache.resumes) == (0, 39)


# -- hand-offs at stale frontiers ---------------------------------------------


def mrce_coins_program(coins: int = 2):
    """Fair coins resolved by MRCE, each arm a different gate: a trie
    with no classical entry, so no live set ever grows."""
    builder = ProgramBuilder("mrce_coins")
    for index in range(coins):
        builder.qop("h", [0], timing=2)
        builder.qmeas(0, timing=2)
        builder.mrce(0, 1 + index % 2, op_if_zero="i", op_if_one="x")
    builder.qmeas(1, timing=2)
    builder.qmeas(2, timing=2)
    builder.halt()
    return builder.build()


def assert_rewalks_are_exact(make, seeds) -> object:
    """Serve ``seeds`` with ``run`` on ``make(trace_cache=True)``; every
    seed must match the cycle-accurate engine, and some shot must have
    been replayed from the root because its frontier went stale."""
    engine, reference = make(True), make(False)
    assert served(engine, seeds) == served(reference, seeds)
    cache = engine.trace_cache
    assert cache.rewalks >= 1
    assert cache.handoffs + cache.rewalks == cache.serial_fallbacks
    assert all(node.live is None for node in cache._lru)
    return cache


def test_folded_frontier_is_replayed_from_the_root():
    # Surface-code fallbacks record new MRCE arms, and the folds they
    # make graft away subtrees later lanes of the same cohort left
    # from.  Nothing else can move a frontier here: the bound is off
    # and no live set grows.
    from repro.benchlib.surface import (build_surface_memory_program,
                                        surface_layout,
                                        surface_noise_model)

    program = build_surface_memory_program(3, rounds=2)

    def make(cached):
        return ShotEngine(program, config=QCPConfig(trace_cache=cached),
                          backend="stabilizer",
                          n_qubits=surface_layout(3).n_qubits,
                          noise=surface_noise_model())

    cache = assert_rewalks_are_exact(make, range(50, 75))
    assert cache.folds > 0 and cache.evictions == 0


@pytest.mark.parametrize("backend, changes", [
    ("statevector", {}),
    ("stabilizer", {"fast_context_switch": True}),
], ids=["dense", "fast-switch"])
def test_evicted_frontier_is_replayed_from_the_root(backend, changes):
    # Four nodes cannot hold two coins' paths: an earlier fallback's
    # recording evicts the nodes a later lane left from.  Neither
    # engine folds and no live set grows, so only eviction moves a
    # frontier.
    def make(cached):
        return ShotEngine(mrce_coins_program(),
                          config=scalar_config(trace_cache=cached,
                                               trace_cache_max_nodes=4,
                                               **changes),
                          backend=backend, n_qubits=3)

    cache = assert_rewalks_are_exact(make, range(40))
    assert cache.evictions > 0 and cache.folds == 0
