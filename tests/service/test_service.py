"""End-to-end service tests: bit-identity, streaming, crash retry.

The expensive fixtures — one running service per worker count — are
module-scoped; the matrix tests then submit sweeps over the live
socket and compare against an in-process engine, served one shot at a
time and in cohorts, down to the last count and nanosecond.
"""

import asyncio

import pytest

from repro.qcp import ShotEngine
from repro.qpu.noise import NoiseModel, PauliChannel, ReadoutError
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobManager, QueueFull
from repro.service.protocol import JobSpec
from repro.service.server import ServiceHandle
from tests.replay_paths import histogram, served

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

NO_MEASURE = """
.block main prio=0
    qop 0, h, q0
    halt
.endblock
"""

NOISE_SPEC = {"pauli": {"px": 1e-3},
              "readout": {"p0_given_1": 0.005, "p1_given_0": 0.002}}

SHOTS = 24


def serial_reference(backend, noisy, how="run"):
    noise = None
    if noisy:
        noise = NoiseModel(pauli=PauliChannel(px=1e-3),
                           readout=ReadoutError(p0_given_1=0.005,
                                                p1_given_0=0.002))
    from repro.service.protocol import program_from_text

    engine = ShotEngine(program_from_text(BRANCHY), backend=backend,
                        noise=noise)
    return histogram(served(engine, range(SHOTS), how))


@pytest.fixture(scope="module", params=[1, 2, 4])
def service(request):
    with ServiceHandle.start(n_workers=request.param) as handle:
        handle.n_workers = request.param
        yield handle


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.host, service.port)


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("backend", ["statevector", "stabilizer"])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("how", ["serial", "run"])
    def test_sweep_matches_serial(self, client, backend, noisy, how):
        # The second sweep of a (backend, noisy) cell finds its worker
        # engines warm.
        result, event = client.run_sweep(
            BRANCHY, shots=SHOTS, backend=backend,
            noise=NOISE_SPEC if noisy else None,
            shard_shots=7)
        serial = serial_reference(backend, noisy, how)
        assert result.counts == serial.counts
        assert result.total_ns == serial.total_ns
        assert result.measured_qubits == serial.measured_qubits
        assert event["shards"] == 4
        assert event["retries"] == 0


class TestWorkerCrashRetry:
    def test_killed_worker_shard_is_retried_bit_identically(
            self, client):
        from repro.service.protocol import result_from_payload

        event = client.submit({
            "program": BRANCHY, "shots": SHOTS,
            "backend": "stabilizer", "shard_shots": 6,
            "fault": {"kill_shard_start": 6}})
        result = result_from_payload(event["result"])
        serial = serial_reference("stabilizer", False)
        assert event["retries"] >= 1  # the fault really fired
        assert result.counts == serial.counts
        assert result.total_ns == serial.total_ns


class TestStreaming:
    def test_partials_grow_monotonically_to_the_result(self, client):
        seen = []
        result, event = client.run_sweep(
            BRANCHY, shots=SHOTS, backend="stabilizer", shard_shots=6,
            seed=17, on_partial=lambda e: seen.append(e["shots_done"]))
        assert seen and seen[-1] == SHOTS
        assert seen == sorted(seen)
        assert all(done % 6 == 0 and done <= SHOTS for done in seen)
        assert event["shots_done"] == SHOTS
        assert sum(result.counts.values()) == SHOTS

    def test_stats_reports_workers_and_caches(self, client, service):
        stats = client.stats()
        assert stats["workers"] == service.n_workers
        assert stats["jobs"]["completed"] >= 1
        assert stats["queue_depth"] == 0
        assert stats["shots_done"] > 0
        assert stats["shots_per_s"] >= 0
        # Every worker that ran a cached shard reports its counters.
        for worker in stats["worker_cache"].values():
            assert worker["shards"] >= 1
            if worker["trace_cache"] is not None:
                assert worker["trace_cache"]["misses"] >= 0


class TestRejections:
    def test_no_measurement_program_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.run_sweep(NO_MEASURE, shots=4)
        assert excinfo.value.code == "no_measurements"

    def test_bad_backend_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.run_sweep(BRANCHY, shots=4, backend="abacus")
        assert excinfo.value.code == "bad_backend"

    def test_ping(self, client):
        assert client.ping()["event"] == "pong"

    def test_cancel_unknown_job(self, client):
        assert client.cancel("no-such-job") is False


def run_async(coro):
    return asyncio.run(coro)


class TestJobManager:
    """Deterministic manager-level semantics (no sockets, no races)."""

    def spec(self, **overrides):
        raw = {"program": BRANCHY, "shots": 8, "backend": "stabilizer"}
        raw.update(overrides)
        return JobSpec.from_dict(raw)

    def test_dedup_shares_one_execution(self):
        async def main():
            manager = JobManager(n_workers=1, queue_size=4)
            await manager.start()
            try:
                job_a, deduped_a = manager.submit(self.spec())
                job_b, deduped_b = manager.submit(self.spec())
                assert (deduped_a, deduped_b) == (False, True)
                assert job_a is job_b
                queue = manager.subscribe(job_a)
                while True:
                    event = await asyncio.wait_for(queue.get(), 60)
                    if event["event"] in ("result", "error"):
                        break
                assert event["event"] == "result"
                assert manager.stats()["jobs"]["deduped"] == 1
            finally:
                await manager.stop()

        run_async(main())

    def test_job_without_streaming_subscriber_merges_once(
            self, monkeypatch):
        from repro.service import jobs

        merges = []
        merge = jobs.merge_shard_outcomes

        def counted(shards):
            merges.append(len(shards))
            return merge(shards)

        monkeypatch.setattr(jobs, "merge_shard_outcomes", counted)

        async def main():
            manager = JobManager(n_workers=1, queue_size=4)
            await manager.start()
            try:
                job, _ = manager.submit(self.spec(shots=12, shard_shots=3))
                queue = manager.subscribe(job)
                event = await asyncio.wait_for(queue.get(), 60)
                assert event["event"] == "result"
                assert event["shards"] == 4
            finally:
                await manager.stop()

        run_async(main())
        assert merges == [4]

    def test_late_streaming_subscriber_receives_a_partial(self):
        async def main():
            manager = JobManager(n_workers=1, queue_size=4)
            await manager.start()
            first_wave = asyncio.Event()
            publish = manager._publish_partial

            def published(job):
                publish(job)
                first_wave.set()

            manager._publish_partial = published
            try:
                job, _ = manager.submit(self.spec(shots=16, shard_shots=1))
                manager.subscribe(job)
                await asyncio.wait_for(first_wave.wait(), 60)
                # The runner awaits its next wave before this task
                # resumes, so the job is still running here.
                assert 0 < job.shots_done < 16
                queue = manager.subscribe(job, stream=True)
                events = [await asyncio.wait_for(queue.get(), 60)]
                while events[-1]["event"] == "partial":
                    events.append(await asyncio.wait_for(queue.get(), 60))
            finally:
                await manager.stop()
            assert events[0]["event"] == "partial"
            assert events[0]["shots_done"] >= 1
            assert events[-1]["event"] == "result"
            assert events[-2]["shots_done"] == 16

        run_async(main())

    def test_stop_joins_the_pool_management_thread(self):
        async def main():
            manager = JobManager(n_workers=1, queue_size=4)
            await manager.start()
            try:
                job, _ = manager.submit(self.spec())
                queue = manager.subscribe(job)
                while True:
                    event = await asyncio.wait_for(queue.get(), 60)
                    if event["event"] in ("result", "error"):
                        break
                thread = manager._pool._executor_manager_thread
                assert thread is not None and thread.is_alive()
            finally:
                await asyncio.wait_for(manager.stop(), 60)
            assert not thread.is_alive()

        run_async(main())

    def test_backpressure_rejects_beyond_queue_size(self):
        async def main():
            manager = JobManager(n_workers=1, queue_size=1)
            await manager.start()
            try:
                job, _ = manager.submit(self.spec(shots=32))
                with pytest.raises(QueueFull):
                    manager.submit(self.spec(shots=33))
                # Dedup of the queued job still works under pressure.
                again, deduped = manager.submit(self.spec(shots=32))
                assert again is job and deduped
                assert manager.stats()["jobs"]["rejected"] == 1
                queue = manager.subscribe(job)
                while True:
                    event = await asyncio.wait_for(queue.get(), 60)
                    if event["event"] in ("result", "error"):
                        break
            finally:
                await manager.stop()

        run_async(main())

    def test_cancel_while_queued(self):
        async def main():
            manager = JobManager(n_workers=1, queue_size=4)
            await manager.start()
            try:
                filler, _ = manager.submit(self.spec(shots=40))
                victim, _ = manager.submit(self.spec(shots=41))
                assert manager.cancel(victim.id)
                queue = manager.subscribe(victim)
                event = await asyncio.wait_for(queue.get(), 60)
                assert event["event"] == "error"
                assert event["error"] == "cancelled"
                fq = manager.subscribe(filler)
                while True:
                    event = await asyncio.wait_for(fq.get(), 60)
                    if event["event"] in ("result", "error"):
                        break
                assert manager.stats()["jobs"]["cancelled"] == 1
            finally:
                await manager.stop()

        run_async(main())

    def test_default_plan_is_one_cohort_per_worker(self):
        # 512 stabilizer shots on 2 workers: one 256-shot cohort per
        # worker, where ~4 shards per worker would cut 8 of 64.  With
        # the trace cache off, or under ZZ noise the tableau cannot
        # replay, nothing replays in cohorts, so the plan stays at ~4
        # shards per worker.
        from repro.qcp import merge_shard_outcomes
        from repro.service.protocol import (build_noise_model,
                                            program_from_text,
                                            result_from_payload)

        shots = 512
        zz = {"zz": {"zeta_hz": 1e3, "pairs": []}}  # never fires
        jobs = [({}, None, 2), ({"trace_cache": False}, None, 8),
                ({}, zz, 8)]

        async def main():
            manager = JobManager(n_workers=2, queue_size=4)
            await manager.start()
            events = []
            try:
                for config, noise, _ in jobs:
                    job, _ = manager.submit(self.spec(
                        shots=shots, config=config, noise=noise))
                    queue = manager.subscribe(job)
                    events.append(await asyncio.wait_for(queue.get(), 60))
            finally:
                await manager.stop()
            return events

        for (_, noise, shards), event in zip(jobs, run_async(main())):
            assert (event["event"], event["shards"]) == ("result", shards)
            engine = ShotEngine(program_from_text(BRANCHY),
                                backend="stabilizer",
                                noise=build_noise_model(noise))
            serial = merge_shard_outcomes([engine.run_range(0, shots)])
            result = result_from_payload(event["result"])
            assert result.counts == serial.counts
            assert result.total_ns == serial.total_ns

    def test_finished_jobs_are_released(self):
        # Each finished job holds its spec, shard histograms and
        # result; the manager must not keep them for its lifetime.
        async def main():
            manager = JobManager(n_workers=1, queue_size=4)
            await manager.start()
            try:
                jobs = [manager.submit(self.spec(shots=8 + index))[0]
                        for index in range(3)]
                for job in jobs:
                    await asyncio.wait_for(job.done.wait(), 60)
                assert manager.stats()["jobs"]["completed"] == 3
                assert manager._by_id == {}
                assert not any(manager.cancel(job.id) for job in jobs)
            finally:
                await manager.stop()

        run_async(main())


class TestWorkerEngineLRU:
    """The configurable per-worker engine LRU."""

    def test_engine_lru_capacity_is_configurable(self, tmp_path):
        with ServiceHandle.start(n_workers=1, engine_lru_capacity=1) \
                as handle:
            client = ServiceClient(handle.host, handle.port)
            # Two distinct engine identities against a capacity of 1:
            # the second build evicts the first.
            client.run_sweep(BRANCHY, shots=8, backend="stabilizer")
            client.run_sweep(BRANCHY, shots=8, backend="statevector")
            stats = client.stats()
            assert stats["engine_lru_capacity"] == 1
            worker = next(iter(stats["worker_cache"].values()))
            assert worker["engine_cache"]["capacity"] == 1
            assert worker["engine_cache"]["size"] == 1
            assert worker["engine_evictions"] >= 1

    def test_engine_lru_capacity_validated(self):
        with pytest.raises(ValueError):
            JobManager(n_workers=1, engine_lru_capacity=0)
