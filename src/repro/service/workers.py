"""Worker-process side of the shot-sweep service.

A worker is one process of a ``ProcessPoolExecutor``.  It receives
``(job payload, start, stop)`` triples — one contiguous shard of a
sweep's shot-index range — and returns the shard's outcome-keyed
partial histogram (:meth:`~repro.qcp.shots.ShotEngine.run_range`).

Workers are **stateful on purpose**: each process keeps a small LRU of
compile-once :class:`~repro.qcp.shots.ShotEngine` instances keyed by
the job's engine key, so every shard of a sweep (and every repeat of a
popular program) reuses the decoded instruction memory, block table,
channel map, QPU and warm trace-cache trie.  None of that state is
correctness-relevant: shot ``i`` runs with seed ``seed + i`` and is a
pure function of that seed, so any shard executed by any worker — or
re-executed after a crash — produces bit-identical counts.

Fault injection
===============

``run_shard`` honours a test-only ``fault`` payload field, which the
front end accepts only in this shape::

    {"kill_shard_start": <start>}

The worker that picks up the shard starting at ``kill_shard_start``
hard-exits, simulating a worker crash mid-sweep.  The job manager
sends ``fault`` with each shard's first submission only, so the shards
it resubmits after rebuilding the pool run normally.  This is how the
test suite proves crash-retry keeps results bit-identical.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from repro.qcp.config import QCPConfig
from repro.qcp.shots import ShotEngine
from repro.qpu.profile import DeviceProfile
from repro.service.protocol import build_noise_model, program_from_text

#: Engines cached per worker process, newest-used last.
_ENGINE_LRU_CAPACITY = 8

_engines: "OrderedDict[str, ShotEngine]" = OrderedDict()

#: Engines dropped from the LRU over this process's lifetime.
_engine_evictions = 0


def configure_worker(engine_lru_capacity: int | None = None) -> None:
    """Pool initializer: per-process knobs for every worker.

    Runs once in each worker process as the ``ProcessPoolExecutor``
    initializer — including the workers of a rebuilt pool after a
    ``BrokenProcessPool``.
    """
    global _ENGINE_LRU_CAPACITY
    if engine_lru_capacity is not None:
        if engine_lru_capacity < 1:
            raise ValueError("engine LRU capacity must be positive")
        _ENGINE_LRU_CAPACITY = engine_lru_capacity


def plan_shards(shots: int, shard_shots: int) -> list[tuple[int, int]]:
    """Split ``range(0, shots)`` into contiguous ``[start, stop)`` spans.

    Spans are ``shard_shots`` long except possibly the last; together
    they cover the shot-index range exactly once, which the job
    manager re-checks before merging.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if shard_shots < 1:
        raise ValueError("shard size must be positive")
    return [(start, min(start + shard_shots, shots))
            for start in range(0, shots, shard_shots)]


def default_shard_shots(shots: int, n_workers: int, cohort: int = 1) -> int:
    """Default shard size: up to 4 shards per worker, each one cohort.

    ``cohort`` is the width in which the job's engines replay
    (:func:`~repro.qcp.tracecache.cohort_width`; 1 when nothing
    replays).  A shard replays in cohorts no wider than itself, so a
    shard below a cohort spreads each replayed segment's dispatch over
    fewer shots, and every shard costs a result round trip and a
    merge input; a few shards per worker, on the other hand, stream
    partial histograms and bound what a crashed worker loses.  So
    each worker gets ``rounds`` shards, the cohorts its share of the
    shots fills, ``ceil(shots / (n_workers * cohort))``, but at most
    4, and the shots are cut into at most ``n_workers * rounds``
    shards of ``ceil(shots / (n_workers * rounds))``: workers taking
    shards in turn each run at most ``rounds`` of them, fewer than
    ``rounds`` shots above an even split.  Cohort 1 gives ~4 shards
    per worker, and so does any job of at least ``4 * n_workers *
    cohort`` shots.
    """
    workers = max(1, n_workers)
    rounds = max(1, min(4, -(-shots // (workers * cohort))))
    return max(1, -(-shots // (workers * rounds)))


def _build_engine(payload: dict) -> ShotEngine:
    config = QCPConfig().with_(**payload["config"])
    profile = payload.get("profile")
    return ShotEngine(
        program_from_text(payload["program"]),
        config=config,
        n_processors=payload["n_processors"],
        backend=payload["backend"] or config.qpu_backend,
        noise=build_noise_model(payload["noise"]),
        profile=(DeviceProfile.from_dict(profile)
                 if profile is not None else None))


def _engine_for(payload: dict) -> ShotEngine:
    global _engine_evictions
    key = payload["engine_key"]
    engine = _engines.get(key)
    if engine is None:
        engine = _build_engine(payload)
        _engines[key] = engine
        while len(_engines) > _ENGINE_LRU_CAPACITY:
            _engines.popitem(last=False)
            _engine_evictions += 1
    else:
        _engines.move_to_end(key)
    return engine


def _maybe_inject_fault(payload: dict, start: int) -> None:
    fault = payload.get("fault")
    if fault is not None and fault["kill_shard_start"] == start:
        # Simulate a hard worker crash: no exception, no cleanup.
        os._exit(1)


def run_shard(payload: dict, start: int, stop: int) -> dict:
    """Execute shots ``start..stop-1`` of a job; return the shard result.

    Shot ``i`` runs with seed ``payload['seed'] + i``.  The returned
    dict is picklable: outcome-keyed counts (see
    :class:`~repro.qcp.shots.ShardOutcomes`), the summed duration, and
    observability extras — the worker pid and a snapshot of the
    engine's trace-cache counters for the ``/stats`` endpoint.
    """
    _maybe_inject_fault(payload, start)
    engine = _engine_for(payload)
    base = payload["seed"]
    shard = engine.run_range(base + start, base + stop)
    cache = engine.trace_cache
    stats = None
    if cache is not None:
        stats = {"hits": cache.hits, "misses": cache.misses,
                 "resumes": cache.resumes, "nodes": cache.nodes,
                 "evictions": cache.evictions, "folds": cache.folds,
                 "restarts": cache.restarts, "rejoins": cache.rejoins,
                 "batched_shots": cache.batched_shots,
                 "wavefront_splits": cache.wavefront_splits,
                 "serial_fallbacks": cache.serial_fallbacks,
                 "handoffs": cache.handoffs, "rewalks": cache.rewalks}
    return {"start": start, "stop": stop,
            "counts": shard.counts, "total_ns": shard.total_ns,
            "pid": os.getpid(), "engine_key": payload["engine_key"],
            "backend": engine.backend,
            "routing": (engine.routing.as_dict()
                        if engine.routing is not None else None),
            "trace_cache": stats,
            "engine_evictions": _engine_evictions,
            "engine_cache": {"size": len(_engines),
                             "capacity": _ENGINE_LRU_CAPACITY}}
