"""Noise-aware trace cache: equivalence, checkpoint-resume, LRU bound.

The load-bearing property extends PR 3's contract to noisy substrates:
for any engine-owned :class:`~repro.qpu.device.SimulatedQPU` — ideal
*or* noisy — trace-cached execution must be **bit-identical** to the
cycle-accurate simulation under a fixed seed: same per-shot delivered
outcomes, same histograms, same completion times.  The replay draws
the per-shot reseeded noise rng positionally, and a trie miss resumes
the cycle-accurate run from the divergence frontier instead of from
scratch, so these tests deliberately use error rates high enough to
force frequent divergence.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchlib.repetition import (build_repetition_chain_program,
                                       build_repetition_memory_program)
from repro.benchlib.rus import build_rus_blocks
from repro.isa.builder import ProgramBuilder
from repro.qcp import ShotEngine, scalar_config, superscalar_config
from repro.qpu.noise import (DecoherenceNoise, DepolarizingNoise,
                             NoiseModel, PauliChannel, ReadoutError,
                             ZZCrosstalk)

BACKENDS = ("statevector", "stabilizer")


def pauli_noise() -> NoiseModel:
    """Bit/phase-flip + readout noise, valid on both backends."""
    return NoiseModel(pauli=PauliChannel(px=0.02, py=0.01, pz=0.015),
                      readout=ReadoutError(p0_given_1=0.05,
                                           p1_given_0=0.03))


def depolarizing_noise() -> NoiseModel:
    """Depolarizing channels + readout, valid on both backends."""
    return NoiseModel(
        depolarizing=DepolarizingNoise(p=0.03),
        two_qubit_depolarizing=DepolarizingNoise(p=0.06),
        readout=ReadoutError(p0_given_1=0.04, p1_given_0=0.02))


def dense_only_noise() -> NoiseModel:
    """Every channel at once — ZZ/decoherence need the dense backend."""
    return NoiseModel(
        depolarizing=DepolarizingNoise(p=0.01),
        two_qubit_depolarizing=DepolarizingNoise(p=0.02),
        zz=ZZCrosstalk(zeta_hz=2.5e6, pairs=((0, 1), (1, 2), (3, 4))),
        decoherence=DecoherenceNoise(t1_us=50.0, t2_us=40.0),
        readout=ReadoutError(p0_given_1=0.03, p1_given_0=0.02))


def unknown_channel_noise() -> NoiseModel:
    """An enabled channel no replay compiler models (fails closed)."""

    @dataclasses.dataclass
    class Extended(NoiseModel):
        leakage: object | None = None

    return Extended(leakage=object())


def unfired_zz_noise() -> NoiseModel:
    """Non-Pauli ZZ crosstalk with no coupled pair: the tableau can
    run it cycle-accurately because the channel never fires."""
    return NoiseModel(zz=ZZCrosstalk(zeta_hz=1e3, pairs=()))


def fair_coin_program():
    """Retry-until-zero on a |+> measurement: a fair-coin loop whose
    decision path is the geometric retry count — the high-path-entropy
    adversary of the LRU bound."""
    builder = ProgramBuilder("faircoin")
    retry = builder.label("retry")
    builder.qop("h", [0])
    builder.qmeas(0, timing=2)
    builder.fmr(1, 0)
    builder.bne(1, 0, retry)
    builder.halt()
    return builder.build()


def engine_pair(program, n_qubits, backend, config, noise_factory):
    """(cached, uncached) engines with independent equal noise models."""
    cached = ShotEngine(program, config=config, backend=backend,
                        n_qubits=n_qubits, noise=noise_factory())
    uncached = ShotEngine(program,
                          config=config.with_(trace_cache=False),
                          backend=backend, n_qubits=n_qubits,
                          noise=noise_factory())
    return cached, uncached


def assert_bit_identical(program, n_qubits, backend, config,
                         noise_factory, shots):
    cached, uncached = engine_pair(program, n_qubits, backend, config,
                                   noise_factory)
    assert cached.trace_cache is not None
    for seed in range(shots):
        fast = cached.run_shot(seed)
        slow = uncached.run_shot(seed)
        assert fast == slow, f"seed {seed} diverged on {backend}"
    # Histograms over fresh engines (run() seeds sequentially itself).
    cached2, uncached2 = engine_pair(program, n_qubits, backend, config,
                                     noise_factory)
    fast_result = cached2.run(shots)
    slow_result = uncached2.run(shots)
    assert fast_result.counts == slow_result.counts
    assert fast_result.total_ns == slow_result.total_ns
    assert fast_result.measured_qubits == slow_result.measured_qubits
    return cached


class TestNoisyEquivalence:
    """Cached noisy shots are bit-identical to cycle-accurate ones."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_noisy_repetition_chain(self, backend):
        program = build_repetition_chain_program(5, rounds=2,
                                                 encode_one=True)
        cached = assert_bit_identical(program, 9, backend,
                                      scalar_config(), pauli_noise, 30)
        cache = cached.trace_cache
        # The error rates force divergence: the resume path must have
        # been exercised, and replays must still dominate.
        assert cache.resumes > 0
        assert cache.hits > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_noisy_rus_workload(self, backend):
        program = build_rus_blocks(2)
        cached = assert_bit_identical(program, 6, backend,
                                      scalar_config(),
                                      depolarizing_noise, 30)
        assert cached.trace_cache.resumes > 0

    def test_full_channel_stack_on_dense_backend(self):
        # ZZ crosstalk and T1/T2 decay go through the compiled
        # noise-site program (busy/window bookkeeping included).
        program = build_repetition_memory_program(rounds=3,
                                                  encode_one=True)
        assert_bit_identical(program, 5, "statevector",
                             scalar_config(), dense_only_noise, 25)

    def test_noisy_superscalar(self):
        program = build_repetition_chain_program(4, rounds=2)
        assert_bit_identical(program, 7, "stabilizer",
                             superscalar_config(4), pauli_noise, 20)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(BACKENDS))
    def test_seed_offsets_property(self, base_seed, backend):
        # Arbitrary (non-sequential) seeds: reproducibility must not
        # depend on the engine's own seed ordering.
        program = build_repetition_chain_program(4, rounds=1,
                                                 encode_one=True)
        cached, uncached = engine_pair(program, 7, backend,
                                       scalar_config(), pauli_noise)
        for offset in range(6):
            seed = base_seed + 37 * offset
            assert cached.run_shot(seed) == uncached.run_shot(seed)


class TestCheckpointResume:
    """Misses resume from the divergence frontier, not from scratch."""

    def test_resume_statistics(self):
        program = fair_coin_program()
        engine = ShotEngine(program, backend="stabilizer", n_qubits=1)
        for seed in range(40):
            engine.run_shot(seed)
        cache = engine.trace_cache
        # The first shot is a cold miss (no frontier to resume from);
        # every later miss diverges from the recorded trie mid-shot.
        assert cache.misses >= 2
        assert cache.resumes == cache.misses - 1
        assert cache.hits + cache.misses == 40

    def test_resumed_paths_replay_later(self):
        program = fair_coin_program()
        cached = ShotEngine(program, backend="stabilizer", n_qubits=1)
        uncached = ShotEngine(program,
                              config=scalar_config(trace_cache=False),
                              backend="stabilizer", n_qubits=1)
        first = [cached.run_shot(seed) for seed in range(30)]
        assert first == [uncached.run_shot(seed) for seed in range(30)]
        # Second pass over the same seeds: every path is recorded now,
        # so everything replays and still matches.
        hits_before = cached.trace_cache.hits
        second = [cached.run_shot(seed) for seed in range(30)]
        assert second == first
        assert cached.trace_cache.hits == hits_before + 30


class TestLRUBound:
    """trace_cache_max_nodes keeps high-entropy tries bounded."""

    def test_nodes_stay_bounded_and_results_identical(self):
        program = fair_coin_program()
        config = scalar_config(trace_cache_max_nodes=16)
        cached = ShotEngine(program, config=config,
                            backend="stabilizer", n_qubits=1)
        uncached = ShotEngine(program,
                              config=scalar_config(trace_cache=False),
                              backend="stabilizer", n_qubits=1)
        results = [cached.run_shot(seed) for seed in range(300)]
        assert results == [uncached.run_shot(seed) for seed in range(300)]
        cache = cached.trace_cache
        assert cache.nodes <= 16
        assert cache.evictions > 0
        # The cache still earns its keep despite the churn.
        assert cache.hits > cache.misses

    def test_bound_applies_to_noisy_workloads(self):
        program = build_rus_blocks(2)
        config = scalar_config(trace_cache_max_nodes=40)
        cached = ShotEngine(program, config=config,
                            backend="stabilizer", n_qubits=6,
                            noise=pauli_noise())
        uncached = ShotEngine(program,
                              config=scalar_config(trace_cache=False),
                              backend="stabilizer", n_qubits=6,
                              noise=pauli_noise())
        results = [cached.run_shot(seed) for seed in range(120)]
        assert results == [uncached.run_shot(seed) for seed in range(120)]
        assert cached.trace_cache.nodes <= 40

    def test_unbounded_by_default(self):
        engine = ShotEngine(fair_coin_program(), backend="stabilizer",
                            n_qubits=1)
        assert engine.trace_cache.max_nodes is None

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            scalar_config(trace_cache_max_nodes=0)


class TestGating:
    """What is (and is not) cacheable after the noise-aware extension."""

    def test_noisy_engine_owned_qpu_is_cached(self):
        engine = ShotEngine(build_rus_blocks(1), n_qubits=3,
                            noise=pauli_noise())
        assert engine.trace_cache is not None

    @pytest.mark.parametrize("backend, noise_factory, mode", [
        ("statevector", unknown_channel_noise, None),
        ("stabilizer", unfired_zz_noise, None),
        ("statevector", NoiseModel, "dense"),
    ], ids=["unknown-channel", "stabilizer-zz", "ideal-dense"])
    def test_replay_mode_fails_closed(self, backend, noise_factory,
                                      mode):
        # A substrate with no compiled replay mode gets no trace cache
        # and runs cycle-accurately; the ideal statevector replays.
        program = build_repetition_chain_program(3, rounds=2,
                                                 encode_one=True)
        cached, uncached = engine_pair(program, 5, backend,
                                       scalar_config(), noise_factory)
        shots = 40
        result = cached.run(shots)
        reference = uncached.run(shots)
        assert result.counts == reference.counts
        assert result.total_ns == reference.total_ns
        if mode is None:
            assert cached.trace_cache is None
        else:
            assert cached.trace_cache.mode == mode
            assert cached.trace_cache.hits == shots - 1

    def test_noise_with_custom_factory_rejected(self):
        from repro.qpu import PRNGQPU
        with pytest.raises(ValueError):
            ShotEngine(build_rus_blocks(1), n_qubits=3,
                       noise=pauli_noise(),
                       qpu_factory=lambda seed: PRNGQPU(3))

    def test_noise_reseeding_makes_shots_reproducible(self):
        # Two engines, same seeds: identical noisy trajectories.
        program = build_repetition_chain_program(4, rounds=1)
        first = ShotEngine(program, n_qubits=7, backend="stabilizer",
                           config=scalar_config(trace_cache=False),
                           noise=pauli_noise())
        second = ShotEngine(program, n_qubits=7, backend="stabilizer",
                            config=scalar_config(trace_cache=False),
                            noise=pauli_noise())
        for seed in (0, 5, 5, 123):  # repeats must reproduce too
            assert first.run_shot(seed) == second.run_shot(seed)


def unfused_exactness_noise() -> NoiseModel:
    """Every dense channel at rates that fire often: depolarizing (one-
    and two-qubit), Pauli, chained per-pair ZZ and T1/T2 decay."""
    return NoiseModel(
        depolarizing=DepolarizingNoise(p=0.1),
        two_qubit_depolarizing=DepolarizingNoise(p=0.15),
        pauli=PauliChannel(px=0.05, py=0.04, pz=0.06),
        zz=ZZCrosstalk(zeta_hz=2.5e6,
                       pairs=((0, 1), (1, 2), (2, 3), (0, 3))),
        decoherence=DecoherenceNoise(t1_us=50.0, t2_us=40.0))


def random_segment(seed: int, n_qubits: int = 4, length: int = 30):
    """A seeded random decision-free segment as recorded ops + times.

    One-qubit gates (``t`` included) and CNOTs, issued back to back
    (overlapping drives, so ZZ windows fire) or after idle gaps (so
    T1/T2 decay fires).
    """
    rng = random.Random(seed)
    ops, times = [], []
    time_ns = 0
    for _ in range(length):
        if rng.random() < 0.3:
            control, target = rng.sample(range(n_qubits), 2)
            ops.append(("gate", "cnot", (control, target), ()))
        else:
            gate = rng.choice(("h", "t", "s", "x", "y90", "z"))
            ops.append(("gate", gate, (rng.randrange(n_qubits),), ()))
        times.append(time_ns)
        time_ns += rng.choice((0, 10, 20, 30, 150, 400))
    return tuple(ops), tuple(times)


def decaying_noise() -> NoiseModel:
    """:func:`unfused_exactness_noise` with a T1 short enough that idle
    decay jumps often, plus readout flips at the measurements."""
    noise = unfused_exactness_noise()
    noise.decoherence = DecoherenceNoise(t1_us=0.5, t2_us=0.8)
    noise.readout = ReadoutError(p0_given_1=0.1, p1_given_0=0.05)
    return noise


def random_measured_segment(seed: int, n_qubits: int = 4,
                            length: int = 30) -> tuple:
    """A seeded random decision-free segment as recorded stream
    entries: :func:`random_segment`'s gates plus resets and
    measurements."""
    from repro.qcp.tracecache import REC_GATE, REC_MEAS, REC_RESET

    rng = random.Random(seed)
    items = []
    time_ns = 0
    for _ in range(length):
        draw = rng.random()
        if draw < 0.15:
            items.append((REC_MEAS, rng.randrange(n_qubits), time_ns))
        elif draw < 0.2:
            items.append((REC_RESET, "reset", (rng.randrange(n_qubits),),
                          (), time_ns))
        elif draw < 0.4:
            control, target = rng.sample(range(n_qubits), 2)
            items.append((REC_GATE, "cnot", (control, target), (),
                          time_ns))
        else:
            gate = rng.choice(("h", "t", "s", "x", "y90", "z"))
            items.append((REC_GATE, gate, (rng.randrange(n_qubits),), (),
                          time_ns))
        time_ns += rng.choice((0, 10, 20, 30, 150, 400))
    return tuple(items)


def cohort_of_one(qpu):
    """A serial shot's cohort of one, as :meth:`TraceCache.replay`
    builds it: one amplitude row, one classical state with the device's
    readout channel, and the (already restarted) device's own rngs."""
    from repro.qcp.config import QCPConfig
    from repro.qcp.tracecache import _Cohort

    return _Cohort.root(qpu, QCPConfig(), [qpu.state.rng],
                        None if qpu.noise.is_ideal else [qpu.noise.rng])


def seeded_cohort(qpu, seeds):
    """A cohort of ``seeds`` on ``qpu``, lane ``b`` drawing the rngs
    ``restart(seeds[b])`` would seed, as :meth:`TraceCache.replay_batch`
    builds it (no noise rngs on an ideal model)."""
    from repro.qcp.config import QCPConfig
    from repro.qcp.tracecache import _Cohort
    from repro.qpu.noise import NOISE_SEED_SALT

    return _Cohort.root(qpu, QCPConfig(),
                        [random.Random(seed) for seed in seeds],
                        None if qpu.noise.is_ideal else
                        [random.Random(seed ^ NOISE_SEED_SALT)
                         for seed in seeds])


def delivered_bits(state, row):
    """Row ``row``'s last delivered bit per qubit, read from a cohort
    state's outcome words."""
    return {qubit: (word >> row) & 1 for qubit, word in state.words.items()}


class TestUnfusedDenseSteps:
    """With fusion off, the compiled dense steps *are* the device."""

    def test_serial_binding_matches_device_amplitudes(self):
        # Each segment runs through SimulatedQPU.apply_gate and, on an
        # identically seeded device, through the cohort binding of its
        # unfused step list as a serial shot's cohort of one: the row's
        # amplitudes must be exactly equal (not close), and both rngs
        # must end in the same state.
        from repro.qcp.tracecache import _bind_cohort, _compile_dense_steps
        from repro.qpu.device import SimulatedQPU

        for seed in range(200):
            ops, times = random_segment(seed)
            device = SimulatedQPU(4, noise=unfused_exactness_noise(),
                                  seed=seed)
            device.restart(seed=seed)
            for (_, name, qubits, params), time_ns in zip(ops, times):
                device.apply_gate(time_ns, name, qubits, params)
            replay = SimulatedQPU(4, noise=unfused_exactness_noise(),
                                  seed=seed)
            replay.restart(seed=seed)
            busy, windows = {}, {}
            items = tuple(op + (time_ns,)
                          for op, time_ns in zip(ops, times))
            steps = _compile_dense_steps(items, replay, busy, windows,
                                         fuse=False)
            cohort = cohort_of_one(replay)
            for step in _bind_cohort(steps, 4):
                step(cohort)
            assert np.array_equal(device.state.amplitudes,
                                  cohort.batch.lane(0)), seed
            assert device._rng.getstate() == replay._rng.getstate(), seed
            assert (device.noise.rng.getstate()
                    == replay.noise.rng.getstate()), seed
            # The compile-time timing model ends where the device does.
            assert busy == device._busy_until, seed
            assert windows == device._windows, seed

    def test_cohort_binding_matches_serial_rows(self):
        # A 6-shot cohort through the cohort binding of each segment:
        # row b must equal, exactly, shot b's device amplitudes
        # (unfused) and shot b's own cohort of one (fused), with the
        # same delivered outcomes and both of its rngs in the same
        # state — a shot's arithmetic does not depend on which shots
        # share its cohort.
        from repro.qcp.tracecache import (REC_MEAS, _V_DECAY,
                                          _bind_cohort,
                                          _compile_dense_steps)
        from repro.qpu.device import SimulatedQPU

        def device_shots(items, seeds):
            device = SimulatedQPU(4, noise=decaying_noise())
            for seed in seeds:
                device.restart(seed=seed)
                delivered = {}
                for item in items:
                    if item[0] == REC_MEAS:
                        delivered[item[1]] = device.measure(item[2],
                                                            item[1])
                    else:
                        _, name, qubits, params, time_ns = item
                        device.apply_gate(time_ns, name, qubits, params)
                yield (device.state.amplitudes, delivered,
                       device._rng.getstate(),
                       device.noise.rng.getstate())

        def serial_shots(program, seeds):
            # One restarted device, one cohort of one per shot, as the
            # cache serves a serial shot.
            device = SimulatedQPU(4, noise=decaying_noise())
            for seed in seeds:
                device.restart(seed=seed)
                one = cohort_of_one(device)
                for step in program:
                    step(one)
                yield (one.batch.lane(0),
                       delivered_bits(one.state, 0),
                       device._rng.getstate(),
                       device.noise.rng.getstate())

        likely_jumps = 0
        for segment in range(100):
            items = random_measured_segment(segment)
            seeds = [segment * 6 + row for row in range(6)]
            for fuse in (False, True):
                steps = _compile_dense_steps(
                    items, SimulatedQPU(4, noise=decaying_noise()), {},
                    {}, fuse=fuse)
                program = _bind_cohort(steps, 4)
                cohort = seeded_cohort(
                    SimulatedQPU(4, noise=decaying_noise()), seeds)
                for step in program:
                    step(cohort)
                shots = (serial_shots(program, seeds) if fuse
                         else device_shots(items, seeds))
                for row, (amplitudes, delivered, srng,
                          nrng) in enumerate(shots):
                    name = (segment, fuse, row)
                    assert np.array_equal(cohort.batch.lane(row),
                                          amplitudes), name
                    assert delivered_bits(cohort.state, row) == delivered, \
                        name
                    assert cohort.srngs[row].getstate() == srng, name
                    assert cohort.nrngs[row].getstate() == nrng, name
            # The short T1 must make jumps common: count the idle
            # sites whose damping probability exceeds 0.3.
            likely_jumps += sum(step[0] == _V_DECAY and step[2] > 0.3
                                for step in steps)
        assert likely_jumps > 100

    def test_unknown_site_kind_fails_closed(self, monkeypatch):
        from repro.qcp.tracecache import (REC_GATE, TraceDivergenceError,
                                          _compile_dense_steps)
        from repro.qpu.device import SimulatedQPU

        qpu = SimulatedQPU(2, noise=pauli_noise())
        monkeypatch.setattr(qpu.noise, "gate_site_specs",
                            lambda qubits: (("leak", None),))
        items = ((REC_GATE, "h", (0,), (), 0),)
        for fuse in (True, False):
            with pytest.raises(TraceDivergenceError):
                _compile_dense_steps(items, qpu, {}, {}, fuse)


def dense_program(items, noise_factory, fuse=True, n_qubits=4):
    """``items`` compiled and bound as one dense node's program."""
    from repro.qcp.tracecache import _bind_cohort, _compile_dense_steps
    from repro.qpu.device import SimulatedQPU

    qpu = SimulatedQPU(n_qubits, noise=noise_factory())
    return _bind_cohort(_compile_dense_steps(items, qpu, {}, {}, fuse=fuse),
                        n_qubits)


def assert_lanes_match_cohorts_of_one(cohort, program, seeds,
                                      noise_factory, n_qubits, name):
    """Every lane of ``cohort`` (run through ``program``) ends exactly
    where its own cohort of one ends: the same amplitudes, delivered
    bits and rng states."""
    from repro.qpu.device import SimulatedQPU

    for lane, seed in enumerate(seeds):
        one = seeded_cohort(SimulatedQPU(n_qubits, noise=noise_factory()),
                            [seed])
        for step in program:
            step(one)
        where = name + (lane,)
        assert np.array_equal(cohort.batch.lane(lane), one.batch.lane(0)), \
            where
        assert delivered_bits(cohort.state, lane) == \
            delivered_bits(one.state, 0), where
        assert cohort.srngs[lane].getstate() == one.srngs[0].getstate(), \
            where
        if one.nrngs is not None:
            assert cohort.nrngs[lane].getstate() == \
                one.nrngs[0].getstate(), where


class TestSharedRows:
    """Lanes that drew the same events share one amplitude row.

    A dense cohort holds one row per distinct state and a row index per
    lane; a row splits only where the lanes sharing it draw different
    events.  Sharing must not change any lane's arithmetic.
    """

    @pytest.mark.parametrize("fuse", [False, True],
                             ids=["unfused", "fused"])
    @pytest.mark.parametrize("width", [1, 2, 6, 48, 64])
    def test_every_lane_matches_its_own_cohort_of_one(self, width, fuse):
        # The kron path's GEMM height and every reduction's row count
        # follow the number of distinct rows, which grows as lanes
        # draw apart: each lane must still end exactly where its own
        # cohort of one ends, whatever the cohort width.
        from repro.qpu.device import SimulatedQPU

        for segment in range(6):
            items = random_measured_segment(segment)
            program = dense_program(items, decaying_noise, fuse)
            seeds = [segment * 64 + lane for lane in range(width)]
            cohort = seeded_cohort(SimulatedQPU(4, noise=decaying_noise()),
                                   seeds)
            for step in program:
                step(cohort)
            assert len(cohort.batch.amplitudes) <= width
            assert_lanes_match_cohorts_of_one(
                cohort, program, seeds, decaying_noise, 4,
                (segment, width, fuse))

    def test_rows_split_only_where_lanes_sharing_one_drew_apart(
            self, monkeypatch):
        # Every split hands in what each lane drew at one stochastic
        # site.  A step changes the row count only through splits, and
        # a split adds one row per extra event among the lanes of a
        # row: none where a row's lanes all drew alike.
        from repro.qpu.device import SimulatedQPU
        from repro.qpu.statevector import BatchStateVector

        splits = []
        split = BatchStateVector.split

        def spied(batch, events):
            index, rows = list(batch.index), len(batch.amplitudes)
            result = split(batch, events)
            extra = len(set(zip(index, events))) - len(set(index))
            splits.append(extra)
            assert len(batch.amplitudes) == rows + extra
            return result

        monkeypatch.setattr(BatchStateVector, "split", spied)
        for segment in range(20):
            items = random_measured_segment(segment)
            program = dense_program(items, decaying_noise)
            cohort = seeded_cohort(SimulatedQPU(4, noise=decaying_noise()),
                                   range(segment * 48, segment * 48 + 48))
            for step in program:
                rows, calls = len(cohort.batch.amplitudes), len(splits)
                step(cohort)
                assert (len(cohort.batch.amplitudes)
                        == rows + sum(splits[calls:])), segment
        # Both kinds of split happened: rows whose lanes drew apart,
        # and sites where every row's lanes drew alike.
        assert any(splits) and not all(splits)

    def test_distinct_lanes_still_match(self):
        # A random-pivot measurement on each of 6 qubits, on 64 seeds
        # chosen to draw all 64 outcome patterns: every lane ends on a
        # row of its own, the widest a 64-lane cohort gets, and still
        # matches its cohort of one, with and without fusion.
        from repro.qcp.tracecache import REC_GATE, REC_MEAS
        from repro.qpu.device import SimulatedQPU
        from repro.qpu.noise import NoiseModel

        n = 7
        items = tuple((REC_GATE, "h", (qubit,), (), 0)
                      for qubit in range(6))
        items += tuple((REC_MEAS, qubit, 100) for qubit in range(6))
        items += tuple((REC_GATE, gate, qubits, (), 200)
                       for gate, qubits in (("cnot", (0, 6)),
                                            ("t", (6,)), ("h", (3,)),
                                            ("cnot", (6, 2)),
                                            ("y90", (1,)),
                                            ("cz", (4, 5))))
        items += tuple((REC_MEAS, qubit, 300) for qubit in range(n))
        pool = list(range(1000))
        probe = seeded_cohort(SimulatedQPU(n), pool)
        for step in dense_program(items[:12], NoiseModel, n_qubits=n):
            step(probe)
        first = {}
        for lane, seed in enumerate(pool):
            pattern = sum(((probe.state.words[qubit] >> lane) & 1) << qubit
                          for qubit in range(6))
            first.setdefault(pattern, seed)
        seeds = sorted(first.values())
        assert len(seeds) == 64
        for fuse in (False, True):
            program = dense_program(items, NoiseModel, fuse, n)
            cohort = seeded_cohort(SimulatedQPU(n), seeds)
            for step in program:
                step(cohort)
            assert len(cohort.batch.amplitudes) == 64
            assert len(set(cohort.batch.index)) == 64
            assert_lanes_match_cohorts_of_one(cohort, program, seeds,
                                              NoiseModel, n, (fuse,))
