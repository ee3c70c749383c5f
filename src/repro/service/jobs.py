"""Job manager: dedup, queueing, sharding, retry and observability.

One :class:`JobManager` owns the worker pool and runs jobs strictly in
submission order (a sweep's shards already saturate the pool, so job
concurrency would only interleave cache-unfriendly work).  Its
contracts:

* **Dedup** — an incoming job whose :meth:`~repro.service.protocol.
  JobSpec.job_key` matches a queued or running job attaches to that
  job instead of executing again; every subscriber receives the same
  (bit-identical) result.  Completed jobs leave the dedup window: a
  later identical submission re-executes, necessarily to the same
  result.
* **Backpressure** — at most ``queue_size`` jobs may be queued or
  running; submissions beyond that raise :class:`QueueFull` and are
  reported to the client as a ``rejected`` event, never buffered
  unboundedly.
* **Crash retry** — a worker crash (``BrokenProcessPool``) kills the
  pool; the manager rebuilds it and resubmits exactly the shards that
  had not completed.  Shards are pure functions of their seed range,
  so a retried shard is bit-identical to the one that was lost.  A
  job is failed after ``max_retries`` rebuilds.  Deterministic worker
  *exceptions* (a non-Clifford gate on the stabilizer backend, say)
  are not retried — they would fail identically again.
* **Timeout / cancel** — best-effort: queued shards are revoked;
  shards already executing in a worker cannot be interrupted and are
  abandoned (their result is discarded on arrival).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.qcp.config import QCPConfig
from repro.qcp.shots import ShardOutcomes, ShotResult, merge_shard_outcomes
from repro.qcp.tracecache import cohort_width, replay_mode
from repro.service import workers
from repro.service.protocol import (JobSpec, build_noise_model,
                                    program_facts, result_payload)


class QueueFull(Exception):
    """Backpressure: the bounded job queue is at capacity."""


def replay_cohort(spec: JobSpec) -> int:
    """Width of one replay cohort of ``spec``'s worker engines.

    :func:`~repro.qcp.tracecache.cohort_width` of the resolved backend
    at the program's qubit count, which :func:`program_facts` kept
    under the text's digest when the job was validated.  1 when
    nothing replays: the job's config turns the trace cache off, or
    :func:`~repro.qcp.tracecache.replay_mode` has no replay for the
    backend under the job's noise, with an inline profile's channels
    composed over it as the worker's device composes them.
    """
    if not spec.config.get("trace_cache", QCPConfig.trace_cache):
        return 1
    backend = spec.resolved_backend
    noise = build_noise_model(spec.noise)
    if spec.device_profile is not None:
        noise = spec.device_profile.noise_model(base=noise)
    if replay_mode(backend, noise) is None:
        return 1
    _, _, n_qubits = program_facts(spec.program)
    return cohort_width(backend, n_qubits)


class Job:
    """One submitted sweep and its execution state."""

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.key = spec.job_key()
        self.status = "queued"  # queued/running/done/failed/cancelled
        self.shards: dict[tuple[int, int], dict | None] = {}
        self.shots_done = 0
        self.retries = 0
        self.result: ShotResult | None = None
        self.terminal_event: dict | None = None
        self.subscribers: list[asyncio.Queue] = []
        #: The subscribers that also receive ``partial`` events.
        self.streams: list[asyncio.Queue] = []
        self.done = asyncio.Event()
        self.cancel_requested = asyncio.Event()

    def summary(self) -> dict:
        return {"id": self.id, "key": self.key, "status": self.status,
                "shots": self.spec.shots, "shots_done": self.shots_done,
                "retries": self.retries,
                "backend": self.spec.resolved_backend,
                "routing": self.spec.routing}


class JobManager:
    """Owns the process pool and executes jobs FIFO."""

    def __init__(self, n_workers: int = 2, queue_size: int = 16,
                 max_retries: int = 2,
                 engine_lru_capacity: int | None = None) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if queue_size < 1:
            raise ValueError("queue size must be positive")
        if engine_lru_capacity is not None and engine_lru_capacity < 1:
            raise ValueError("engine LRU capacity must be positive")
        self.n_workers = n_workers
        self.queue_size = queue_size
        self.max_retries = max_retries
        self.engine_lru_capacity = engine_lru_capacity
        self._pool: ProcessPoolExecutor | None = None
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._active: dict[str, Job] = {}  # job key -> queued/running job
        self._by_id: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._runner: asyncio.Task | None = None
        self._current: Job | None = None
        self._counters: Counter = Counter()
        self._busy_s = 0.0
        self._shots_done = 0
        self._workers_seen: dict[int, dict] = {}

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._pool = self._new_pool()
        self._runner = asyncio.ensure_future(self._run_jobs())

    async def stop(self) -> None:
        if self._runner is not None:
            self._runner.cancel()
            try:
                await self._runner
            except asyncio.CancelledError:
                pass
            self._runner = None
        pool, self._pool = self._pool, None
        if pool is not None:
            # Join the pool's management thread: left running, it can
            # write to its wakeup pipe after interpreter exit closed it.
            await asyncio.to_thread(pool.shutdown, wait=True,
                                    cancel_futures=True)

    def _new_pool(self) -> ProcessPoolExecutor:
        # The initializer reruns in every worker of every pool, so a
        # post-crash rebuild's fresh workers get the same LRU bound.
        return ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=workers.configure_worker,
            initargs=(self.engine_lru_capacity,))

    def _rebuild_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._new_pool()

    # -- submission API ---------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Register a job; returns ``(job, deduped)``.

        Raises :class:`QueueFull` when the backlog (queued + running
        jobs) is at capacity.  Dedup is checked before backpressure: a
        duplicate of an in-flight job consumes no queue slot.
        """
        key = spec.job_key()
        existing = self._active.get(key)
        if existing is not None:
            self._counters["deduped"] += 1
            return existing, True
        if len(self._active) >= self.queue_size:
            self._counters["rejected"] += 1
            raise QueueFull(
                f"job queue at capacity ({self.queue_size} jobs "
                f"queued or running)")
        job = Job(f"job-{next(self._ids)}", spec)
        self._active[key] = job
        self._by_id[job.id] = job
        self._counters["submitted"] += 1
        self._queue.put_nowait(job)
        return job, False

    def subscribe(self, job: Job, stream: bool = False) -> asyncio.Queue:
        """Event queue for one subscriber of ``job``.

        Every subscriber receives the terminal event, at once for a
        finished job, so subscribing can never miss the outcome.  A
        ``stream`` subscriber also receives a ``partial`` event after
        each wave of finished shards, and one merged as it attaches
        when it joins a running job late.  Partial histograms are
        merged only for jobs that have a streaming subscriber.
        """
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        if stream:
            job.streams.append(queue)
            if job.shots_done and not job.done.is_set():
                queue.put_nowait(self._partial_event(job))
        if job.terminal_event is not None:
            queue.put_nowait(job.terminal_event)
        return queue

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still in flight."""
        job = self._by_id.get(job_id)
        if job is None or job.done.is_set():
            return False
        job.cancel_requested.set()
        if job.status == "queued":
            # Finalize immediately; the runner skips finished jobs.
            self._active.pop(job.key, None)
            self._finish_error(job, "cancelled",
                               "job cancelled while queued")
        return True

    # -- stats ------------------------------------------------------------

    def stats(self) -> dict:
        queued = len(self._active) - (1 if self._current is not None
                                      else 0)
        busy = self._busy_s  # running job's time is added when it ends
        return {
            "workers": self.n_workers,
            "queue_capacity": self.queue_size,
            "engine_lru_capacity": (self.engine_lru_capacity
                                    if self.engine_lru_capacity
                                    is not None
                                    else workers._ENGINE_LRU_CAPACITY),
            "queue_depth": queued,
            "active_job": (self._current.summary()
                           if self._current is not None else None),
            "jobs": dict(self._counters),
            "shots_done": self._shots_done,
            "busy_s": round(busy, 6),
            "shots_per_s": (round(self._shots_done / busy, 2)
                            if busy > 0 else None),
            "worker_cache": {str(pid): stats for pid, stats
                             in sorted(self._workers_seen.items())},
        }

    # -- event plumbing ---------------------------------------------------

    def _publish(self, job: Job, event: dict) -> None:
        for queue in job.subscribers:
            queue.put_nowait(event)

    def _finish(self, job: Job, status: str, event: dict) -> None:
        job.status = status
        job.terminal_event = event
        # Only cancel() looks jobs up by id, and it refuses finished
        # ones; keeping them would hold every result for the
        # service's lifetime.
        self._by_id.pop(job.id, None)
        self._counters[{"done": "completed", "failed": "failed",
                        "cancelled": "cancelled"}[status]] += 1
        self._publish(job, event)
        job.done.set()

    def _finish_error(self, job: Job, code: str, message: str) -> None:
        status = "cancelled" if code == "cancelled" else "failed"
        self._finish(job, status, {
            "event": "error", "job_id": job.id, "key": job.key,
            "error": code, "message": message})

    def _publish_partial(self, job: Job) -> None:
        job.shots_done = sum(r["stop"] - r["start"]
                             for r in job.shards.values() if r is not None)
        if job.streams:
            event = self._partial_event(job)
            for queue in job.streams:
                queue.put_nowait(event)

    def _partial_event(self, job: Job) -> dict:
        """The ``partial`` event of ``job``'s finished shards."""
        finished = [r for r in job.shards.values() if r is not None]
        partial = merge_shard_outcomes(
            [ShardOutcomes(start=r["start"], stop=r["stop"],
                           counts=r["counts"], total_ns=r["total_ns"])
             for r in finished])
        return {"event": "partial", "job_id": job.id, "key": job.key,
                "shots_done": partial.shots, "shots": job.spec.shots,
                "shards_done": len(finished),
                "shards": len(job.shards),
                "result": result_payload(partial)}

    def _note_worker(self, shard_result: dict) -> None:
        pid = shard_result["pid"]
        entry = self._workers_seen.setdefault(
            pid, {"shards": 0, "shots": 0})
        entry["shards"] += 1
        entry["shots"] += shard_result["stop"] - shard_result["start"]
        if shard_result["trace_cache"] is not None:
            entry["trace_cache"] = shard_result["trace_cache"]
            entry["engine_key"] = shard_result["engine_key"][:12]
        if shard_result.get("backend") is not None:
            entry["backend"] = shard_result["backend"]
        if shard_result.get("routing") is not None:
            entry["routing"] = shard_result["routing"]
        entry["engine_evictions"] = shard_result["engine_evictions"]
        entry["engine_cache"] = shard_result["engine_cache"]

    # -- execution --------------------------------------------------------

    async def _run_jobs(self) -> None:
        while True:
            job = await self._queue.get()
            if job.done.is_set():  # cancelled while queued
                continue
            self._current = job
            started = time.monotonic()
            try:
                await self._execute(job)
            except Exception as exc:  # defensive: never kill the runner
                self._finish_error(job, "internal",
                                   f"{type(exc).__name__}: {exc}")
            finally:
                self._busy_s += time.monotonic() - started
                self._current = None
                self._active.pop(job.key, None)

    async def _execute(self, job: Job) -> None:
        loop = asyncio.get_event_loop()
        spec = job.spec
        payload = spec.payload()
        # The test-only fault fires on a shard's first submission only.
        retry_payload = dict(payload, fault=None)
        job.status = "running"
        shard_shots = spec.shard_shots or workers.default_shard_shots(
            spec.shots, self.n_workers, replay_cohort(spec))
        spans = workers.plan_shards(spec.shots, shard_shots)
        job.shards = {span: None for span in spans}
        deadline = (None if spec.timeout_s is None
                    else loop.time() + spec.timeout_s)
        pending: dict[asyncio.Future, tuple[int, int]] = {}

        def submit_span(span: tuple[int, int], sent: dict) -> None:
            try:
                future = asyncio.wrap_future(
                    self._pool.submit(workers.run_shard, sent, *span))
            except BrokenProcessPool as exc:
                # A worker can die while spans are still being
                # submitted (the pool breaks between two submits).
                # Surface it as a failed future so the wave loop's
                # rebuild-and-retry path handles it uniformly.
                future = loop.create_future()
                future.set_exception(exc)
            pending[future] = span

        for span in spans:
            submit_span(span, payload)
        cancel_wait = asyncio.ensure_future(job.cancel_requested.wait())
        try:
            while pending:
                timeout = (None if deadline is None
                           else max(0.0, deadline - loop.time()))
                done, _ = await asyncio.wait(
                    set(pending) | {cancel_wait}, timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED)
                if job.cancel_requested.is_set():
                    self._finish_error(job, "cancelled", "job cancelled")
                    return
                if not done:
                    self._finish_error(
                        job, "timeout",
                        f"job exceeded timeout_s={spec.timeout_s}")
                    return
                broken = False
                progressed = False
                for future in done:
                    if future is cancel_wait:
                        continue
                    span = pending.pop(future)
                    try:
                        shard_result = future.result()
                    except BrokenProcessPool:
                        broken = True
                    except Exception as exc:
                        self._finish_error(
                            job, "worker_error",
                            f"shard {span}: {type(exc).__name__}: {exc}")
                        return
                    else:
                        job.shards[span] = shard_result
                        self._note_worker(shard_result)
                        progressed = True
                if broken:
                    job.retries += 1
                    self._counters["retries"] += 1
                    if job.retries > self.max_retries:
                        self._finish_error(
                            job, "worker_crash",
                            f"worker crashed and retry budget "
                            f"({self.max_retries}) is exhausted")
                        return
                    # Every future of the broken pool is dead; rebuild
                    # and resubmit exactly the unfinished shards.
                    for future in list(pending):
                        del pending[future]
                        future.cancel()
                    self._rebuild_pool()
                    for span, shard_result in job.shards.items():
                        if shard_result is None:
                            submit_span(span, retry_payload)
                if progressed:
                    self._publish_partial(job)
            self._complete(job)
        finally:
            cancel_wait.cancel()
            for future in pending:
                future.cancel()

    def _complete(self, job: Job) -> None:
        missing = [span for span, r in job.shards.items() if r is None]
        if missing:  # unreachable by construction; checked anyway
            self._finish_error(job, "internal",
                               f"shards missing at merge: {missing}")
            return
        ordered = sorted(job.shards.values(), key=lambda r: r["start"])
        covered = 0
        for shard_result in ordered:
            if shard_result["start"] != covered:
                self._finish_error(
                    job, "internal",
                    f"shard coverage gap at shot {covered}")
                return
            covered = shard_result["stop"]
        if covered != job.spec.shots:
            self._finish_error(job, "internal",
                               f"shards cover {covered} of "
                               f"{job.spec.shots} shots")
            return
        result = merge_shard_outcomes(
            [ShardOutcomes(start=r["start"], stop=r["stop"],
                           counts=r["counts"], total_ns=r["total_ns"])
             for r in ordered])
        job.result = result
        job.shots_done = result.shots
        self._shots_done += result.shots
        self._finish(job, "done", {
            "event": "result", "job_id": job.id, "key": job.key,
            "retries": job.retries, "shots_done": result.shots,
            "shards": len(job.shards),
            "result": result_payload(result)})
