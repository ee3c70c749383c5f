"""Shard planning and merge bit-identity at the engine level.

The service's correctness rests on one property: a sweep split into
contiguous seed ranges and merged with
:func:`repro.qcp.shots.merge_shard_outcomes` is **bit-identical** to
the serial :meth:`ShotEngine.run` — which is itself routed through the
same shard/merge path, so identity holds by construction.  These tests
pin it observationally across backends, noise, and batching.
"""

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.qcp import ShotEngine, merge_shard_outcomes, outcome_key
from repro.qcp.shots import ShardOutcomes
from repro.qcp.tracecache import auto_batch_width, cohort_width
from repro.qpu.device import SimulatedQPU
from repro.qpu.noise import NoiseModel, PauliChannel, ReadoutError
from repro.service.jobs import replay_cohort
from repro.service.protocol import JobSpec, program_from_text
from repro.service.workers import (_build_engine, default_shard_shots,
                                   plan_shards, run_shard)
from tests.replay_paths import histogram, served

# A branchy program: the q0 readout steers a conditional X on q1, so
# different seeds take different control paths — the hardest case for
# a merge (shards see different outcome dictionaries).
BRANCHY = """
.block main prio=0
    qop 0, h, q0
    qmeas 2, q0
    fmr r1, q0
    beq r1, r0, skip
    qop 2, x, q1
    qmeas 2, q1
skip:
    qop 0, h, q2
    qmeas 2, q2
    qmeas 2, q0
    halt
.endblock
"""


class TestPlanShards:
    def test_covers_every_shot_exactly_once(self):
        spans = plan_shards(100, 7)
        assert spans[0][0] == 0
        assert spans[-1][1] == 100
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start

    def test_all_but_last_shard_full(self):
        spans = plan_shards(100, 7)
        assert all(stop - start == 7 for start, stop in spans[:-1])
        assert spans[-1][1] - spans[-1][0] == 100 % 7

    def test_single_shard_when_width_exceeds_shots(self):
        assert plan_shards(5, 100) == [(0, 5)]

    def test_default_width_gives_about_four_shards_per_worker(self):
        width = default_shard_shots(1000, n_workers=4)
        spans = plan_shards(1000, width)
        assert len(spans) == 16

    def test_default_width_never_zero(self):
        assert default_shard_shots(1, n_workers=8) == 1


def four_per_worker(shots, n_workers):
    """The shard size a job gets when nothing replays in cohorts."""
    return max(1, -(-shots // (4 * n_workers)))


def turns(shots, n_workers, width):
    """Shots each worker runs when the workers take shards in turn."""
    loads = [0] * n_workers
    for index, (start, stop) in enumerate(plan_shards(shots, width)):
        loads[index % n_workers] += stop - start
    return loads


class TestShardSizing:
    """Default shards are whole replay cohorts, spread evenly."""

    @pytest.mark.parametrize("shots, n_workers, cohort, width", [
        (512, 2, 256, 256),        # one cohort per worker, not 4 x 64
        (1_500, 2, 256, 250),      # 3 cohorts per worker, not 4 of 188
        (100_000, 2, 256, 12_500),  # large: ~4 shards per worker
        (96, 2, 256, 48),          # below a cohort: one shard per worker
        (3, 8, 256, 1),            # fewer shots than workers
        (768, 2, 256, 192),        # 384 + 384, not 512 + 256
        (2_304, 8, 256, 144),      # 288 per worker, not 512 on one
    ])
    def test_shards_fill_cohorts_evenly(self, shots, n_workers, cohort,
                                        width):
        assert default_shard_shots(shots, n_workers, cohort) == width

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("cohort", [8, 64])
    def test_shards_fit_a_cohort_and_workers_stay_even(self, n_workers,
                                                       cohort):
        # Up to 4 x workers x cohort shots: every shard fits in one
        # cohort, a worker gets no more shards than its share of the
        # shots fills cohorts, and workers taking shards in turn run
        # within 3 shots of an even split.
        for shots in range(1, 4 * n_workers * cohort + 1):
            width = default_shard_shots(shots, n_workers, cohort)
            fill = -(-shots // (n_workers * cohort))
            assert width <= cohort
            assert len(plan_shards(shots, width)) <= n_workers * fill
            assert (max(turns(shots, n_workers, width))
                    <= -(-shots // n_workers) + 3)

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    def test_uncached_jobs_plan_four_shards_per_worker(self, n_workers):
        for shots in range(1, 700):
            assert (default_shard_shots(shots, n_workers, cohort=1)
                    == four_per_worker(shots, n_workers))

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("cohort", [8, 64, 256])
    def test_large_jobs_plan_four_shards_per_worker(self, n_workers,
                                                    cohort):
        floor = 4 * n_workers * cohort
        for shots in (floor, floor + 1, floor + 4 * n_workers - 1,
                      3 * floor + 5):
            assert (default_shard_shots(shots, n_workers, cohort)
                    == four_per_worker(shots, n_workers))

    @pytest.mark.parametrize("n_qubits, dense", [
        (5, 64), (9, 64), (18, 32), (20, 8)])
    def test_cohort_width_is_the_engine_cohort(self, n_qubits, dense):
        for backend, width in (("stabilizer", 256),
                               ("statevector", dense)):
            qpu = SimulatedQPU(n_qubits, backend=backend)
            assert cohort_width(backend, n_qubits) == width
            assert auto_batch_width(qpu) == width


ZZ_NEVER_FIRES = {"zz": {"zeta_hz": 1e3, "pairs": []}}


class TestReplayCohort:
    """The job manager plans from the cohort its workers' engines use."""

    @pytest.mark.parametrize("overrides, cohort", [
        ({}, 256),
        ({"noise": {"pauli": {"px": 0.01}}}, 256),
        ({"config": {"trace_cache": False}}, 1),
        ({"noise": ZZ_NEVER_FIRES}, 1),
        ({"profile": {"defaults": {"t1_us": 50.0, "t2_us": 40.0}}}, 1),
        ({"backend": "statevector"}, 64),
        ({"backend": "statevector", "noise": ZZ_NEVER_FIRES}, 64),
    ], ids=["ideal", "pauli", "cache-off", "stabilizer-zz",
            "stabilizer-t1t2-profile", "dense", "dense-zz"])
    def test_cohort_is_the_worker_engines(self, overrides, cohort):
        raw = {"program": BRANCHY, "shots": 8, "backend": "stabilizer"}
        raw.update(overrides)
        spec = JobSpec.from_dict(raw)
        engine = _build_engine(spec.payload())
        assert replay_cohort(spec) == cohort
        assert cohort == (1 if engine.trace_cache is None
                          else auto_batch_width(engine._qpu))


def _engine(backend, noise=None):
    return ShotEngine(program_from_text(BRANCHY), backend=backend,
                      noise=noise)


def _noise():
    return NoiseModel(pauli=PauliChannel(px=1e-3),
                      readout=ReadoutError(p0_given_1=0.005,
                                           p1_given_0=0.002))


class TestMergeBitIdentity:
    @pytest.mark.parametrize("backend", ["statevector", "stabilizer"])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("how", ["serial", "run"])
    def test_sharded_equals_serial(self, backend, noisy, how):
        noise = _noise() if noisy else None
        serial = histogram(served(_engine(backend, noise), range(24), how))
        sharded_engine = _engine(backend, noise)
        shards = [sharded_engine.run_range(start, stop)
                  for start, stop in plan_shards(24, 7)]
        merged = merge_shard_outcomes(shards)
        assert merged.counts == serial.counts
        assert merged.total_ns == serial.total_ns
        assert merged.measured_qubits == serial.measured_qubits
        assert merged.shots == serial.shots

    def test_merge_is_order_independent(self):
        engine = _engine("stabilizer")
        shards = [engine.run_range(10, 20), engine.run_range(0, 5),
                  engine.run_range(5, 10)]
        merged = merge_shard_outcomes(shards)
        serial = _engine("stabilizer").run(20)
        assert merged.counts == serial.counts
        assert merged.total_ns == serial.total_ns

    def test_nonzero_base_seed_offsets_the_window(self):
        # Shot i of a seed=s job runs with seed s + i: sharding a
        # seed=5 sweep is the same as a contiguous window of ranges.
        engine = _engine("stabilizer")
        whole = merge_shard_outcomes([engine.run_range(5, 25)])
        split = merge_shard_outcomes(
            [engine.run_range(5, 12), engine.run_range(12, 25)])
        assert split.counts == whole.counts
        assert split.total_ns == whole.total_ns

    def test_empty_range_rejected(self):
        engine = _engine("stabilizer")
        with pytest.raises(ValueError):
            engine.run_range(3, 3)

    def test_negative_start_rejected(self):
        # random.Random(-k) seeds like random.Random(k), so the seeds
        # -8..7 would repeat the outcomes of seeds 1..7.
        engine = _engine("stabilizer")
        with pytest.raises(ValueError, match="negative shot seed -8"):
            engine.run_range(-8, 8)
        assert engine.run_range(0, 8).shots == 8


def reference_merge(per_shard) -> tuple:
    """The merge of sorted ``(qubit, value)`` keys, rendered against
    the union of measured qubits with ``-`` for the unmeasured: the
    outcome keys compact keys replace, kept as the reference."""
    merged: Counter = Counter()
    total_ns = 0
    for shots in per_shard:
        for delivered, shot_ns in shots:
            merged[tuple(sorted(delivered.items()))] += 1
            total_ns += shot_ns
    measured = tuple(sorted({qubit for key in merged
                             for qubit, _ in key}))
    position = {qubit: index for index, qubit in enumerate(measured)}
    counts: Counter = Counter()
    for key, count in merged.items():
        bits = ["-"] * len(measured)
        for qubit, value in key:
            bits[position[qubit]] = str(value)
        counts["".join(bits)] += count
    return counts, measured, total_ns


#: One shot: its last value per measured qubit (any subset, the empty
#: map included) and its duration.
SHOTS = st.lists(st.tuples(st.dictionaries(st.integers(0, 9),
                                           st.integers(0, 1),
                                           max_size=5),
                           st.integers(0, 10**9)),
                 min_size=1, max_size=40)


class TestCompactKeys:
    @settings(max_examples=200, deadline=None)
    @given(SHOTS, st.data())
    def test_any_split_merges_like_the_reference(self, shots, data):
        cuts = sorted(data.draw(st.sets(st.integers(1, len(shots) - 1)
                                        if len(shots) > 1
                                        else st.nothing())))
        bounds = [0, *cuts, len(shots)]
        shards = []
        for start, stop in zip(bounds, bounds[1:]):
            shard = ShardOutcomes(start=start, stop=stop)
            for delivered, shot_ns in shots[start:stop]:
                shard.counts[outcome_key(delivered)] += 1
                shard.total_ns += shot_ns
            shards.append(shard)
        merged = merge_shard_outcomes(data.draw(st.permutations(shards)))
        counts, measured, total_ns = reference_merge(
            [shots[start:stop] for start, stop in zip(bounds, bounds[1:])])
        assert merged.counts == counts
        assert merged.measured_qubits == measured
        assert merged.total_ns == total_ns
        assert merged.shots == len(shots)

    def test_no_measurement_renders_the_empty_string(self):
        shard = ShardOutcomes(start=0, stop=3,
                              counts=Counter({outcome_key({}): 3}))
        merged = merge_shard_outcomes([shard])
        assert merged.counts == {"": 3}
        assert merged.measured_qubits == ()

    def test_key_bit_i_is_the_ith_sorted_qubit(self):
        assert outcome_key({7: 1, 2: 0, 5: 1}) == ((2, 5, 7), 0b110)

    def test_full_and_partial_shapes_render_against_the_union(self):
        # Keys measuring the whole union, part of it and nothing at all
        # merge into one histogram, ``-`` marking qubits a shot never
        # measured.
        shots = [({2: 1, 5: 0, 7: 1}, 10), ({2: 0, 5: 0, 7: 0}, 10),
                 ({5: 1}, 20), ({2: 1, 7: 0}, 30), ({}, 40),
                 ({2: 1, 5: 0, 7: 1}, 10)]
        shard = ShardOutcomes(start=0, stop=len(shots))
        for delivered, shot_ns in shots:
            shard.counts[outcome_key(delivered)] += 1
            shard.total_ns += shot_ns
        merged = merge_shard_outcomes([shard])
        assert merged.measured_qubits == (2, 5, 7)
        assert merged.counts == {"101": 2, "000": 1, "-1-": 1, "1-0": 1,
                                 "---": 1}
        assert (merged.counts, merged.measured_qubits,
                merged.total_ns) == reference_merge([shots])


class TestRunShardWorker:
    """Direct calls into the worker entry point (no pool)."""

    def payload(self, **overrides):
        raw = {"program": BRANCHY, "shots": 20, "seed": 0,
               "backend": "stabilizer"}
        raw.update(overrides)
        return JobSpec.from_dict(raw).payload()

    def test_shard_results_merge_to_serial(self):
        payload = self.payload()
        outs = [run_shard(payload, start, stop)
                for start, stop in plan_shards(20, 6)]
        from collections import Counter

        from repro.qcp.shots import ShardOutcomes
        shards = [ShardOutcomes(start=o["start"], stop=o["stop"],
                                counts=Counter(o["counts"]),
                                total_ns=o["total_ns"])
                  for o in outs]
        merged = merge_shard_outcomes(shards)
        serial = _engine("stabilizer").run(20)
        assert merged.counts == serial.counts
        assert merged.total_ns == serial.total_ns

    def test_reports_engine_key_and_cache_counters(self):
        payload = self.payload()
        out = run_shard(payload, 0, 10)
        assert out["engine_key"] == payload["engine_key"]
        assert out["pid"] > 0
        assert out["trace_cache"] is not None
        assert out["trace_cache"]["misses"] >= 1
        # The snapshot carries the fold count; a branch never folds,
        # so no run restarts from a snapshot or rejoins the trie.
        assert out["trace_cache"]["folds"] == 0
        assert out["trace_cache"]["restarts"] == 0
        assert out["trace_cache"]["rejoins"] == 0
        # Every shot a cohort handed back resumed at its frontier or
        # was replayed from the root.
        stats = out["trace_cache"]
        assert (stats["handoffs"] + stats["rewalks"]
                == stats["serial_fallbacks"])

    def test_warm_shor_shard_pickles_small(self):
        # A warm 256-shot shard of the paper's benchmark replays as one
        # cohort; its result carries one compact key per outcome group,
        # and every key shares one measured-qubit tuple.
        from repro.benchlib.steane import build_shor_syndrome_program

        payload = JobSpec.from_dict({
            "program": build_shor_syndrome_program(rounds=3).to_asm(),
            "shots": 257, "backend": "stabilizer",
            "n_processors": 6}).payload()
        run_shard(payload, 0, 1)  # cold: records the only path
        out = run_shard(payload, 1, 257)
        assert out["trace_cache"]["batched_shots"] == 256
        assert len({measured for measured, _ in out["counts"]}) == 1
        assert len(pickle.dumps(out)) < 2048

    def test_uncached_shard_reports_no_cache(self):
        payload = self.payload(config={"trace_cache": False})
        out = run_shard(payload, 0, 5)
        assert out["trace_cache"] is None
